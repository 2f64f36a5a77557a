"""Tests for the beacon measurement campaign."""

from unittest import mock

import numpy as np
import pytest

from repro.errors import MeasurementError, RoutingError
from repro.cdn import BeaconConfig, CdnDeployment, run_beacon_campaign


@pytest.fixture(scope="module")
def deployment(small_internet):
    return CdnDeployment(small_internet)


@pytest.fixture(scope="module")
def dataset(deployment, small_prefixes):
    return run_beacon_campaign(
        deployment,
        small_prefixes,
        BeaconConfig(days=1.0, requests_per_prefix=24, seed=6),
    )


class TestConfigValidation:
    def test_defaults(self):
        BeaconConfig()

    def test_positive_days(self):
        with pytest.raises(MeasurementError):
            BeaconConfig(days=0)

    def test_two_requests_minimum(self):
        with pytest.raises(MeasurementError):
            BeaconConfig(requests_per_prefix=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("days", float("nan")),
            ("days", float("inf")),
            ("rtt_noise_ms", -1.0),
            ("rtt_noise_ms", float("nan")),
            ("rtt_noise_ms", float("inf")),
            ("last_mile_ms_range", (10.0, 2.0)),
            ("last_mile_ms_range", (-1.0, 5.0)),
            ("last_mile_ms_range", (float("nan"), 5.0)),
            ("last_mile_ms_range", (2.0, float("inf"))),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(MeasurementError, match=field):
            BeaconConfig(**{field: value})

    def test_zero_noise_stays_legal(self):
        BeaconConfig(rtt_noise_ms=0.0, last_mile_ms_range=(0.0, 0.0))

    def test_congestion_sized_to_horizon(self):
        cfg = BeaconConfig(days=2.5)
        assert cfg.congestion_config().horizon_hours == pytest.approx(60.0)


class TestDatasetShape:
    def test_arrays_aligned(self, dataset, deployment):
        n_fe = len(deployment.front_ends)
        assert dataset.anycast_rtt.shape == (dataset.n_prefixes, 24)
        assert dataset.unicast_rtt.shape == (dataset.n_prefixes, 24, n_fe)
        assert dataset.times_h.shape == (dataset.n_prefixes, 24)
        assert len(dataset.catchments) == dataset.n_prefixes
        assert len(dataset.fe_codes) == dataset.n_prefixes

    def test_catchment_column_first(self, dataset):
        for i in range(dataset.n_prefixes):
            assert dataset.fe_codes[i][0] == dataset.catchments[i]

    def test_fe_codes_cover_all_front_ends(self, dataset, deployment):
        expected = {p.code for p in deployment.front_ends}
        for codes in dataset.fe_codes:
            assert set(codes) == expected

    def test_times_sorted_within_horizon(self, dataset):
        for i in range(dataset.n_prefixes):
            times = dataset.times_h[i]
            assert (np.diff(times) >= 0).all()
            assert times[0] >= 0 and times[-1] <= 24.0

    def test_rtts_physical(self, dataset):
        assert (dataset.anycast_rtt > 0).all()
        finite = dataset.unicast_rtt[~np.isnan(dataset.unicast_rtt)]
        assert (finite > 0).all()


class TestMeasurementSemantics:
    def test_anycast_close_to_catchment_unicast(self, dataset):
        """Anycast and unicast-to-the-catchment share the path, so their
        per-prefix medians must nearly coincide."""
        diffs = []
        for i in range(dataset.n_prefixes):
            anycast = np.median(dataset.anycast_rtt[i])
            catchment_rtt = dataset.unicast_rtt[i, :, 0]
            if np.isnan(catchment_rtt).all():
                continue
            diffs.append(abs(anycast - np.median(catchment_rtt)))
        assert np.median(diffs) < 5.0

    def test_best_nearby_not_above_catchment(self, dataset):
        best = dataset.best_nearby_unicast()
        catchment = dataset.unicast_rtt[:, :, 0]
        valid = ~np.isnan(best) & ~np.isnan(catchment)
        assert (best[valid] <= catchment[valid] + 1e-9).all()

    def test_weights_and_slash24(self, dataset):
        assert (dataset.slash24_weights() >= dataset.weights()).all()

    def test_column_of(self, dataset):
        assert dataset.column_of(0, dataset.fe_codes[0][3]) == 3
        assert dataset.column_of(0, "not-a-code") is None

    def test_deterministic(self, deployment, small_prefixes):
        cfg = BeaconConfig(days=0.5, requests_per_prefix=8, seed=9)
        a = run_beacon_campaign(deployment, small_prefixes, cfg)
        b = run_beacon_campaign(deployment, small_prefixes, cfg)
        assert np.array_equal(a.anycast_rtt, b.anycast_rtt)
        assert np.array_equal(a.unicast_rtt, b.unicast_rtt, equal_nan=True)

    def test_requires_prefixes(self, deployment):
        with pytest.raises(MeasurementError):
            run_beacon_campaign(deployment, [])


class TestUnreachableClients:
    """Only a routing failure marks a client unreachable; any other
    error from the path trace is a bug and must surface."""

    def test_routing_error_skips_the_client(self, deployment, small_prefixes):
        cfg = BeaconConfig(days=0.5, requests_per_prefix=4, seed=2)
        real = deployment.anycast_path
        dropped = small_prefixes[0]

        def anycast_path(prefix):
            if prefix is dropped:
                raise RoutingError("no route")
            return real(prefix)

        with mock.patch.object(deployment, "anycast_path", anycast_path):
            dataset = run_beacon_campaign(deployment, small_prefixes, cfg)
        assert dropped not in dataset.prefixes
        assert dataset.n_prefixes == len(small_prefixes) - 1

    def test_other_errors_propagate(self, deployment, small_prefixes):
        cfg = BeaconConfig(days=0.5, requests_per_prefix=4, seed=2)
        boom = mock.Mock(side_effect=KeyError("memo"))
        with mock.patch.object(deployment, "anycast_path", boom):
            with pytest.raises(KeyError, match="memo"):
                run_beacon_campaign(deployment, small_prefixes, cfg)
