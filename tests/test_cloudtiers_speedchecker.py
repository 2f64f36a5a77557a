"""Tests for the Speedchecker-like measurement platform."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scalar_oracles import ping

from repro.errors import MeasurementError
from repro.cloudtiers import CloudDeployment, SpeedcheckerPlatform, Tier
from repro.cloudtiers.speedchecker import PING_CREDITS, TRACEROUTE_CREDITS
from repro.geo import WORLD_CITIES
from repro.netmodel import CongestionConfig, CongestionModel


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
    """``ping_panel``: one row per routed (VP, tier), Premium first."""

    def test_ping_returns_samples(self, platform):
        vps = platform.vantage_points[:6]
        routed, rtts = platform.ping_panel(vps, [1.0, 9.5, 17.0], count=5)
        assert routed.shape == (6, 2)
        assert routed.any()
        assert rtts.shape == (int(routed.sum()), 3, 5)
        assert (rtts > 0).all()

    def test_ping_spends_credits(self, small_internet):
        """Every (VP, tier) row costs ``count`` pings a round."""
        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=1000, seed=4
        )
        platform.ping_panel(platform.vantage_points[:3], [0.0, 6.0], count=5)
        assert platform.credits == 1000 - 3 * 2 * 2 * 5 * PING_CREDITS

    def test_budget_exhaustion(self, small_internet):
        """A panel the budget cannot cover raises and spends nothing."""
        platform = SpeedcheckerPlatform(
            CloudDeployment(small_internet), credits=19, seed=4
        )
        state = platform._rng.bit_generator.state
        with pytest.raises(MeasurementError):
            platform.ping_panel(platform.vantage_points[:2], [0.0], count=5)
        assert platform.credits == 19
        assert platform._rng.bit_generator.state == state

    def test_count_validation(self, platform):
        vps = platform.vantage_points[:1]
        with pytest.raises(MeasurementError):
            platform.ping_panel(vps, [0.0], count=0)
        with pytest.raises(MeasurementError):
            platform.ping_panel(vps, [], count=5)


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


class TestPingPanel:
    def test_panel_matches_per_round_pings(self, small_internet):
        """Each routed row holds, bit for bit, the samples of per-round
        pings that price one key and draw their own noise at a time:
        the panel takes the noise-stream positions they take, in panel
        order, Premium first, and spends the same credits."""
        deployment = CloudDeployment(small_internet)
        paneled = SpeedcheckerPlatform(deployment, seed=4)
        pinging = SpeedcheckerPlatform(deployment, seed=4)
        vps = paneled.vantage_points[:12]
        times = [1.0, 7.5, 13.0, 20.25]
        routed, rtts = paneled.ping_panel(vps, times, count=5)
        expected = []
        for vp, routes in zip(vps, routed.tolist()):
            for tier, routes_tier in zip(Tier, routes):
                rounds = [ping(pinging, vp, tier, t, count=5) for t in times]
                assert (rounds[0] is not None) == routes_tier
                if routes_tier:
                    expected.append([r.rtts_ms for r in rounds])
        assert rtts.tobytes() == np.array(expected).tobytes()
        assert paneled.credits == pinging.credits
        state = paneled._rng.bit_generator.state
        assert state == pinging._rng.bit_generator.state

    def test_diurnal_rows_equal_per_vp_curves(self):
        """The panel prices every VP's diurnal load in one broadcast
        over a column of longitudes; each row must equal the VP's own
        curve bit for bit, at every world-city longitude."""
        model = CongestionModel(0, CongestionConfig(horizon_hours=240.0))
        full = np.repeat(np.sort(np.random.default_rng(3).uniform(0, 240, 10)), 5)
        lons = np.array([city.location.lon for city in WORLD_CITIES])
        rows = model.diurnal_delay(full, lons[:, None])
        for row, lon in zip(rows, lons.tolist()):
            assert row.tobytes() == model.diurnal_delay(full, lon).tobytes()


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


_BUILTIN_HASH_SCRIPT = """
import json, sys
print(json.dumps([hash(text) for text in json.load(sys.stdin)]))
"""


def _hash_port_cases():
    """Every vp_id form, plus each str width and the 8-byte block edges."""
    cases = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "x" * 16, "y" * 23]
    cases += ["café", "Zürich", "é" * 8, "ā" * 4, "東京", "Кыргызстан"]
    cases += ["😀", "a😀", "\U0010ffff" * 3, "\ud800", "ab\udfff"]
    for asn in (1, 3356, 4_200_000_000):
        for city in WORLD_CITIES:
            cases.append(f"vp-{asn}-{city.name.lower().replace(' ', '-')}")
    return cases


class TestCrossProcessDeterminism:
    def test_last_mile_independent_of_hash_seed(self):
        first = _last_mile_with_hash_seed("1")
        assert _last_mile_with_hash_seed("2") == first
        assert _last_mile_with_hash_seed("7") == first

    @pytest.mark.skipif(
        sys.hash_info.algorithm != "siphash13",
        reason="the port reproduces CPython >= 3.11's SipHash-1-3 str hash",
    )
    def test_str_hash_port_equals_builtin_hash_at_hash_seed_0(self):
        from repro.cloudtiers.speedchecker import _str_hash

        cases = _hash_port_cases()
        child = subprocess.run(
            [sys.executable, "-c", _BUILTIN_HASH_SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED="0"),
            input=json.dumps(cases),
            capture_output=True,
            text=True,
            check=True,
        )
        assert [_str_hash(text) for text in cases] == json.loads(child.stdout)


class TestNoiseModel:
    def test_same_vp_same_base(self, platform):
        """Two rounds moments apart differ only by noise, not by tens of ms."""
        vp = platform.vantage_points[5]
        routed, rtts = platform.ping_panel([vp], [5.0, 5.001], count=5)
        assert routed[0, 0]
        first, second = rtts[0].min(axis=1)
        assert abs(first - second) < 10.0

    def test_invalid_budget(self, small_internet):
        with pytest.raises(MeasurementError):
            SpeedcheckerPlatform(CloudDeployment(small_internet), credits=0)
