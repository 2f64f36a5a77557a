"""Tests for weighted distribution statistics."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.analysis import weighted_cdf


class TestWeightedCdf:
    def test_unweighted_simple(self):
        cdf = weighted_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_most(2.0) == pytest.approx(0.5)
        assert cdf.fraction_at_most(0.5) == 0.0
        assert cdf.fraction_at_most(4.0) == pytest.approx(1.0)

    def test_weights_shift_mass(self):
        cdf = weighted_cdf([1.0, 2.0], weights=[3.0, 1.0])
        assert cdf.fraction_at_most(1.0) == pytest.approx(0.75)

    def test_duplicate_values_merge(self):
        cdf = weighted_cdf([2.0, 2.0, 5.0], weights=[1.0, 1.0, 2.0])
        assert list(cdf.xs) == [2.0, 5.0]
        assert cdf.fraction_at_most(2.0) == pytest.approx(0.5)

    def test_quantiles(self):
        cdf = weighted_cdf([10.0, 20.0, 30.0, 40.0])
        assert cdf.quantile(0.25) == 10.0
        assert cdf.quantile(0.5) == 20.0
        assert cdf.median == 20.0
        assert cdf.quantile(1.0) == 40.0

    def test_quantile_bounds(self):
        cdf = weighted_cdf([1.0])
        with pytest.raises(AnalysisError):
            cdf.quantile(1.5)

    def test_fraction_above(self):
        """The complement holds P(value > x) at each sample value."""
        ccdf = weighted_cdf([1.0, 2.0, 3.0, 4.0]).complement()
        assert list(ccdf.xs) == [1.0, 2.0, 3.0, 4.0]
        assert ccdf.ps == pytest.approx([0.75, 0.5, 0.25, 0.0])

    def test_series_copies(self):
        cdf = weighted_cdf([1.0, 2.0])
        xs, ps = cdf.series()
        xs[0] = 99.0
        assert cdf.xs[0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            weighted_cdf([])

    def test_mismatched_weights(self):
        with pytest.raises(AnalysisError):
            weighted_cdf([1.0, 2.0], weights=[1.0])

    def test_negative_weights(self):
        with pytest.raises(AnalysisError):
            weighted_cdf([1.0], weights=[-1.0])

    def test_zero_total_weight(self):
        with pytest.raises(AnalysisError):
            weighted_cdf([1.0, 2.0], weights=[0.0, 0.0])

    def test_nan_weight_rejected(self):
        # A NaN weight makes the total NaN, which used to sneak past the
        # ``total <= 0`` check and silently divide the CDF into all-NaN.
        with pytest.raises(AnalysisError):
            weighted_cdf([1.0, 2.0], weights=[float("nan"), 1.0])

    def test_infinite_weight_rejected(self):
        with pytest.raises(AnalysisError):
            weighted_cdf([1.0, 2.0], weights=[float("inf"), 1.0])

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        weights = rng.uniform(0.1, 2.0, size=500)
        cdf = weighted_cdf(values, weights)
        assert (np.diff(cdf.ps) >= -1e-12).all()
        assert cdf.ps[-1] == pytest.approx(1.0)


class TestCcdf:
    def test_complement(self):
        values = [1.0, 2.0, 3.0]
        cdf = weighted_cdf(values)
        ccdf = cdf.complement()
        assert list(ccdf.xs) == list(cdf.xs)
        assert ccdf.ps == pytest.approx(1.0 - cdf.ps)


class TestHelpers:
    def test_weighted_quantile(self):
        assert weighted_cdf([5.0, 1.0, 3.0]).quantile(0.5) == 3.0

    def test_fraction_at_most_between_values(self):
        cdf = weighted_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.fraction_at_most(2.5) == pytest.approx(0.5)
