"""Tests for the Speedchecker-like measurement platform."""

import os
import subprocess
import sys

import pytest

from repro.errors import MeasurementError
from repro.cloudtiers import CloudDeployment, SpeedcheckerPlatform, Tier
from repro.cloudtiers.speedchecker import PING_CREDITS, TRACEROUTE_CREDITS


@pytest.fixture(scope="module")
def platform(small_internet):
    return SpeedcheckerPlatform(CloudDeployment(small_internet), seed=4)


class TestInventory:
    def test_one_vp_per_eyeball_city(self, platform, small_internet):
        expected = sum(
            len(small_internet.graph.get(asn).cities)
            for asn in small_internet.eyeball_asns
        )
        assert len(platform.vantage_points) == expected

    def test_location_key(self, platform):
        vp = platform.vantage_points[0]
        assert vp.location_key == (vp.city.name, vp.asn)

    def test_daily_rotation_changes_panel(self, platform):
        a = platform.select_vantage_points(0, 20)
        b = platform.select_vantage_points(1, 20)
        assert [vp.vp_id for vp in a] != [vp.vp_id for vp in b]

    def test_rotation_deterministic(self, platform, small_internet):
        other = SpeedcheckerPlatform(CloudDeployment(small_internet), seed=4)
        a = [vp.vp_id for vp in platform.select_vantage_points(3, 15)]
        b = [vp.vp_id for vp in other.select_vantage_points(3, 15)]
        assert a == b

    def test_rotation_covers_inventory(self, platform):
        seen = set()
        count = 25
        days = len(platform.vantage_points) // count + 1
        for day in range(days):
            seen.update(vp.vp_id for vp in platform.select_vantage_points(day, count))
        assert seen == {vp.vp_id for vp in platform.vantage_points}

    def test_positive_count_required(self, platform):
        with pytest.raises(MeasurementError):
            platform.select_vantage_points(0, 0)


class TestPing:
    def test_ping_returns_samples(self, platform):
        vp = platform.vantage_points[0]
        result = platform.ping(vp, Tier.PREMIUM, 1.0, count=5)
        assert result is not None
        assert len(result.rtts_ms) == 5
        assert result.min_ms <= result.median_ms
        assert all(r > 0 for r in result.rtts_ms)

    def test_ping_spends_credits(self, small_internet):
        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=25, seed=4
        )
        vp = platform.vantage_points[0]
        platform.ping(vp, Tier.PREMIUM, 0.0, count=5)
        assert platform.credits == 25 - 5 * PING_CREDITS

    def test_budget_exhaustion(self, small_internet):
        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=3, seed=4
        )
        vp = platform.vantage_points[0]
        with pytest.raises(MeasurementError):
            platform.ping(vp, Tier.PREMIUM, 0.0, count=5)

    def test_count_validation(self, platform):
        with pytest.raises(MeasurementError):
            platform.ping(platform.vantage_points[0], Tier.PREMIUM, 0.0, count=0)


class TestTraceroute:
    def test_traceroute_structure(self, platform, small_internet):
        vp = platform.vantage_points[0]
        result = platform.traceroute(vp, Tier.STANDARD, 1.0)
        assert result is not None
        assert result.hops[0].asn == vp.asn
        assert result.as_path[0] == vp.asn
        assert result.as_path[-1] == small_internet.provider_asn
        # Cumulative RTT is non-decreasing.
        rtts = [hop.rtt_ms for hop in result.hops]
        assert rtts == sorted(rtts)

    def test_ingress_city_standard_is_dc(self, platform, small_internet):
        vp = platform.vantage_points[0]
        result = platform.traceroute(vp, Tier.STANDARD, 1.0)
        assert result.ingress_city(small_internet.provider_asn) == (
            small_internet.dc_pop.city
        )

    def test_traceroute_spends_credits(self, small_internet):
        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=10, seed=4
        )
        platform.traceroute(platform.vantage_points[0], Tier.PREMIUM, 0.0)
        assert platform.credits == 10 - TRACEROUTE_CREDITS

    def test_ingress_city_none_when_absent(self, platform, small_internet):
        vp = platform.vantage_points[0]
        result = platform.traceroute(vp, Tier.PREMIUM, 1.0)
        assert result.ingress_city(999_999) is None


class TestHttpGet:
    def test_download_timed(self, platform):
        vp = platform.vantage_points[0]
        result = platform.http_get(vp, Tier.PREMIUM, 1.0, size_mb=10.0)
        assert result is not None
        assert result.duration_s > 0
        assert 0 < result.goodput_mbps <= 50.0

    def test_spends_credits(self, small_internet):
        from repro.cloudtiers.speedchecker import HTTP_GET_CREDITS

        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=10, seed=4
        )
        platform.http_get(platform.vantage_points[0], Tier.PREMIUM, 0.0)
        assert platform.credits == 10 - HTTP_GET_CREDITS

    def test_size_validation(self, platform):
        with pytest.raises(MeasurementError):
            platform.http_get(platform.vantage_points[0], Tier.PREMIUM, 0.0, size_mb=0.0)

    def test_tiers_similar_goodput(self, platform):
        """The §4 footnote at probe level: 10 MB goodput barely differs."""
        vp = platform.vantage_points[0]
        premium = platform.http_get(vp, Tier.PREMIUM, 2.0, size_mb=10.0)
        standard = platform.http_get(vp, Tier.STANDARD, 2.0, size_mb=10.0)
        if premium and standard:
            ratio = premium.goodput_mbps / standard.goodput_mbps
            assert 0.5 < ratio < 2.0


class TestPingBurst:
    def test_burst_matches_per_round_pings(self, small_internet):
        """A burst consumes the noise-stream positions that the
        equivalent per-round pings would, sample for sample."""
        deployment = CloudDeployment(small_internet)
        bursting = SpeedcheckerPlatform(deployment, seed=4)
        pinging = SpeedcheckerPlatform(deployment, seed=4)
        vp = bursting.vantage_points[0]
        times = [1.0, 7.5, 13.0, 20.25]
        burst = bursting.ping_burst(vp, Tier.STANDARD, times, count=5)
        rounds = [pinging.ping(vp, Tier.STANDARD, t, count=5) for t in times]
        assert burst.tolist() == [list(r.rtts_ms) for r in rounds]
        assert bursting.credits == pinging.credits


_LAST_MILE_SCRIPT = """
from repro.cloudtiers import CloudDeployment, SpeedcheckerPlatform
from repro.topology import TopologyConfig, build_internet

internet = build_internet(
    TopologyConfig(seed=0, n_tier1=3, n_transit=8, n_eyeball=20)
)
platform = SpeedcheckerPlatform(CloudDeployment(internet), seed=4)
print(repr(platform._vp_last_mile(platform.vantage_points[0])))
"""


def _last_mile_with_hash_seed(hash_seed: str) -> str:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
    )
    child = subprocess.run(
        [sys.executable, "-c", _LAST_MILE_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return child.stdout


class TestCrossProcessDeterminism:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "known defect: the last-mile draw is seeded from hash(vp_id), "
            "and Python salts str hashes per process; a stable seed "
            "changes Setting C's recorded outputs"
        ),
    )
    def test_last_mile_independent_of_hash_seed(self):
        assert _last_mile_with_hash_seed("1") == _last_mile_with_hash_seed("2")


class TestNoiseModel:
    def test_same_vp_same_base(self, platform):
        """Two pings moments apart differ only by noise, not by tens of ms."""
        vp = platform.vantage_points[5]
        a = platform.ping(vp, Tier.PREMIUM, 5.0, count=5)
        b = platform.ping(vp, Tier.PREMIUM, 5.001, count=5)
        assert abs(a.min_ms - b.min_ms) < 10.0

    def test_invalid_budget(self, small_internet):
        with pytest.raises(MeasurementError):
            SpeedcheckerPlatform(CloudDeployment(small_internet), credits=0)
