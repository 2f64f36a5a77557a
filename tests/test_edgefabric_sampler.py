"""Tests for the spray-and-measure campaign driver."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.edgefabric import MeasurementConfig, run_measurement
from repro.workloads import generate_client_prefixes


class TestConfigValidation:
    def test_defaults_valid(self):
        MeasurementConfig()

    def test_positive_days(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig(days=0)

    def test_positive_routes(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig(max_routes=0)

    def test_last_mile_range(self):
        with pytest.raises(MeasurementError):
            MeasurementConfig(last_mile_ms_range=(5.0, 1.0))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("days", float("nan"), "days must be finite and > 0"),
            ("days", float("inf"), "days must be finite and > 0"),
            ("window_minutes", float("nan"), "window_minutes must be finite"),
            ("seed", 1.5, "seed must be an integer"),
            ("seed", -1, "seed must be >= 0"),
            ("max_routes", 2.5, "max_routes must be an integer"),
            ("max_routes", True, "max_routes must be an integer"),
            ("sessions_at_peak", 2.5, "sessions_at_peak must be an integer"),
            ("sessions_at_peak", 0, "sessions_at_peak must be >= 1"),
            ("min_rtt_noise_ms", float("nan"), "min_rtt_noise_ms must be finite"),
            ("min_rtt_noise_ms", -1.0, "min_rtt_noise_ms must be finite and >= 0"),
            ("last_mile_ms_range", (float("nan"), 5.0), "last_mile_ms_range"),
            ("last_mile_ms_range", (1.0, float("inf")), "last_mile_ms_range"),
        ],
    )
    def test_refuses_what_it_cannot_run(self, field, value, message):
        with pytest.raises(MeasurementError, match=message):
            MeasurementConfig(**{field: value})

    def test_numpy_integers_stay_legal(self):
        cfg = MeasurementConfig(
            seed=np.int64(3), max_routes=np.int32(2), sessions_at_peak=np.uint8(9)
        )
        values = (cfg.seed, cfg.max_routes, cfg.sessions_at_peak)
        assert values == (3, 2, 9)
        assert all(type(value) is int for value in values)

    def test_congestion_defaults_sized_to_horizon(self):
        cfg = MeasurementConfig(days=3.0)
        assert cfg.congestion_config().horizon_hours == pytest.approx(72.0)
        assert cfg.dest_congestion_config().horizon_hours == pytest.approx(72.0)

    def test_dest_congestion_heavier_than_route(self):
        """The §3.1.1 structure: shared events dominate route events."""
        cfg = MeasurementConfig()
        assert (
            cfg.dest_congestion_config().event_rate_per_day
            > cfg.congestion_config().event_rate_per_day
        )


class TestRunMeasurement:
    @pytest.fixture(scope="class")
    def dataset(self, small_internet):
        prefixes = generate_client_prefixes(small_internet, 40, seed=3)
        return run_measurement(
            small_internet, prefixes, MeasurementConfig(days=0.5, seed=3)
        )

    def test_window_count(self, dataset):
        assert dataset.n_windows == 48  # half a day of 15-minute windows

    def test_medians_physical(self, dataset):
        medians = dataset.medians[~np.isnan(dataset.medians)]
        assert (medians > 0).all()
        assert medians.max() < 1500.0  # below any plausible RTT ceiling

    def test_volumes_positive(self, dataset):
        assert (dataset.volumes > 0).all()

    def test_ci_positive(self, dataset):
        ci = dataset.ci_half[~np.isnan(dataset.ci_half)]
        assert (ci > 0).all()

    def test_deterministic(self, small_internet):
        prefixes = generate_client_prefixes(small_internet, 20, seed=4)
        cfg = MeasurementConfig(days=0.25, seed=4)
        a = run_measurement(small_internet, prefixes, cfg)
        b = run_measurement(small_internet, prefixes, cfg)
        assert np.array_equal(a.medians, b.medians, equal_nan=True)
        assert np.array_equal(a.volumes, b.volumes)

    def test_requires_prefixes(self, small_internet):
        with pytest.raises(MeasurementError):
            run_measurement(small_internet, [])

    def test_shared_congestion_moves_routes_together(self, dataset):
        """Route medians of the same pair must be positively correlated:
        last-mile and destination congestion hit every route."""
        correlations = []
        for i, pair in enumerate(dataset.pairs):
            if pair.n_routes < 2:
                continue
            a = dataset.medians[i, :, 0]
            b = dataset.medians[i, :, 1]
            if np.std(a) > 0 and np.std(b) > 0:
                correlations.append(np.corrcoef(a, b)[0, 1])
        assert np.median(correlations) > 0.3

    def test_base_latency_tracks_geography(self, dataset):
        """Windowed medians sit above twice the route's propagation."""
        for i, pair in enumerate(dataset.pairs):
            for j, route in enumerate(pair.routes):
                assert (
                    np.nanmin(dataset.medians[i, :, j])
                    >= 2.0 * route.base_one_way_ms - 1.0
                )
