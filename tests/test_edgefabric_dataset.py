"""Tests for the windowed egress dataset container."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.bgp import RouteClass
from repro.edgefabric import EgressDataset, MeasurementConfig, run_measurement, window_times
from repro.workloads import generate_client_prefixes


@pytest.fixture(scope="module")
def dataset(small_internet):
    prefixes = generate_client_prefixes(small_internet, 40, seed=3)
    return run_measurement(
        small_internet, prefixes, MeasurementConfig(days=0.5, seed=3)
    )


class TestWindowTimes:
    def test_fifteen_minute_windows(self):
        times = window_times(1.0, 15.0)
        assert times.size == 96
        assert times[1] - times[0] == pytest.approx(0.25)

    def test_invalid_args(self):
        with pytest.raises(AnalysisError):
            window_times(0, 15.0)
        with pytest.raises(AnalysisError):
            window_times(1.0, 0)


class TestDatasetShape:
    def test_aligned_shapes(self, dataset):
        assert dataset.medians.shape == (
            dataset.n_pairs,
            dataset.n_windows,
            dataset.max_routes,
        )
        assert dataset.ci_half.shape == dataset.medians.shape
        assert dataset.volumes.shape == (dataset.n_pairs, dataset.n_windows)

    def test_missing_routes_are_nan(self, dataset):
        for i, pair in enumerate(dataset.pairs):
            measured = dataset.medians[i, 0]
            for j in range(dataset.max_routes):
                if j < pair.n_routes:
                    assert not np.isnan(measured[j])
                else:
                    assert np.isnan(measured[j])

    def test_every_pair_has_alternates(self, dataset):
        assert dataset.pairs_with_alternates().all()

    def test_shape_validation(self, dataset):
        with pytest.raises(AnalysisError):
            EgressDataset(
                pairs=dataset.pairs,
                times_h=dataset.times_h,
                medians=dataset.medians[:, :, :1],
                ci_half=dataset.ci_half,
                volumes=dataset.volumes,
                max_routes=dataset.max_routes,
            )


class TestClassAccessors:
    def test_class_best_medians(self, dataset):
        transit = dataset.class_best_medians(RouteClass.TRANSIT)
        assert transit.shape == (dataset.n_pairs, dataset.n_windows)
        for i, pair in enumerate(dataset.pairs):
            has_transit = any(
                r.route_class is RouteClass.TRANSIT for r in pair.routes
            )
            if has_transit:
                assert not np.isnan(transit[i]).all()
            else:
                assert np.isnan(transit[i]).all()

    def test_class_best_is_minimum(self, dataset):
        transit = dataset.class_best_medians(RouteClass.TRANSIT)
        for i, pair in enumerate(dataset.pairs):
            idx = [
                j
                for j, r in enumerate(pair.routes)
                if r.route_class is RouteClass.TRANSIT
            ]
            if not idx:
                continue
            expected = np.nanmin(dataset.medians[i][:, idx], axis=1)
            assert transit[i] == pytest.approx(expected, nan_ok=True)
