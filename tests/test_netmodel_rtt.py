"""Tests for the MinRTT measurement model."""

import math

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.netmodel import (
    median_min_rtt,
    median_min_rtt_ci_halfwidth,
    sample_min_rtts,
    sampled_median_matrix,
)


class TestSampling:
    def test_samples_above_floor(self):
        rng = np.random.default_rng(0)
        samples = sample_min_rtts(30.0, 1000, rng, noise_scale_ms=2.0)
        assert (samples >= 30.0).all()
        assert samples.shape == (1000,)

    def test_needs_positive_sessions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MeasurementError):
            sample_min_rtts(30.0, 0, rng)

    def test_rejects_negative_latency(self):
        rng = np.random.default_rng(0)
        with pytest.raises(MeasurementError):
            sample_min_rtts(-1.0, 10, rng)


class TestAnalyticMedian:
    def test_median_formula(self):
        assert median_min_rtt(30.0, 2.0) == pytest.approx(30.0 + 2.0 * math.log(2))

    def test_vectorized(self):
        base = np.array([10.0, 20.0])
        out = median_min_rtt(base, 1.0)
        assert out == pytest.approx(base + math.log(2))

    def test_matches_empirical_median(self):
        rng = np.random.default_rng(1)
        samples = sample_min_rtts(50.0, 200_000, rng, noise_scale_ms=3.0)
        assert np.median(samples) == pytest.approx(
            median_min_rtt(50.0, 3.0), abs=0.05
        )


class TestCiHalfwidth:
    def test_shrinks_with_n(self):
        assert median_min_rtt_ci_halfwidth(2.0, 100) < median_min_rtt_ci_halfwidth(
            2.0, 10
        )

    def test_formula(self):
        assert median_min_rtt_ci_halfwidth(2.0, 16, z=2.0) == pytest.approx(1.0)

    def test_needs_positive_sessions(self):
        with pytest.raises(MeasurementError):
            median_min_rtt_ci_halfwidth(1.0, 0)

    def test_coverage_is_approximately_95_percent(self):
        """The CI built from the analytic half-width should cover the true
        median ~95% of the time."""
        rng = np.random.default_rng(2)
        n = 50
        scale = 2.0
        true_median = median_min_rtt(0.0, scale)
        half = median_min_rtt_ci_halfwidth(scale, n)
        hits = 0
        trials = 400
        for _ in range(trials):
            samples = sample_min_rtts(0.0, n, rng, noise_scale_ms=scale)
            estimate = np.median(samples)
            if abs(estimate - true_median) <= half:
                hits += 1
        assert 0.88 <= hits / trials <= 0.99


class TestBatchHelpers:
    def test_sampled_median_matrix_statistics(self):
        rng = np.random.default_rng(11)
        floor = np.full((200, 250), 40.0)
        sd = 2.0 / math.sqrt(25)
        medians = sampled_median_matrix(floor, rng, noise_scale_ms=2.0, sd=sd)
        assert medians.shape == floor.shape
        assert medians.mean() == pytest.approx(median_min_rtt(40.0, 2.0), abs=0.02)
        assert medians.std() == pytest.approx(2.0 / math.sqrt(25), rel=0.05)

    def test_sampled_median_matrix_broadcast_counts(self):
        rng = np.random.default_rng(12)
        floor = np.zeros((3, 50_000))
        counts = np.array([[4], [25], [100]])
        sd = 2.0 / np.sqrt(counts)
        medians = sampled_median_matrix(floor, rng, noise_scale_ms=2.0, sd=sd)
        for row, n in enumerate(counts[:, 0]):
            assert medians[row].std() == pytest.approx(
                2.0 / math.sqrt(n), rel=0.05
            )
