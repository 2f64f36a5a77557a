"""Tests for the private WAN backbone graph."""

import pytest
from scalar_oracles import nearest_pop_scan

from repro.errors import TopologyError
from repro.geo import (
    WORLD_CITIES,
    city_named,
    great_circle_km,
    propagation_one_way_ms,
)
from repro.topology import PointOfPresence, PrivateWan


def pops(*names):
    return [
        PointOfPresence(name[:3].lower(), city_named(name)) for name in names
    ]


class TestConstruction:
    def test_duplicate_codes_rejected(self):
        ps = [
            PointOfPresence("aaa", city_named("London")),
            PointOfPresence("aaa", city_named("Paris")),
        ]
        with pytest.raises(TopologyError):
            PrivateWan(ps, [("aaa", "aaa")])

    def test_needs_at_least_one_pop(self):
        with pytest.raises(TopologyError):
            PrivateWan([], [])

    def test_disconnected_backbone_rejected(self):
        ps = pops("London", "Paris", "Tokyo")
        with pytest.raises(TopologyError):
            PrivateWan(ps, [("lon", "par")])  # Tokyo unreachable

    def test_self_loop_rejected(self):
        ps = pops("London")
        with pytest.raises(TopologyError):
            PrivateWan(ps, [("lon", "lon")])

    def test_unknown_pop_in_backbone(self):
        ps = pops("London", "Paris")
        with pytest.raises(TopologyError):
            PrivateWan(ps, [("lon", "xxx")])

    def test_subunit_inflation_rejected(self):
        ps = pops("London", "Paris")
        with pytest.raises(TopologyError):
            PrivateWan(ps, [("lon", "par")], inflation=0.5)


class TestShortestPaths:
    @pytest.fixture
    def wan(self):
        # Chain: London - Paris - Frankfurt, plus a direct London-Frankfurt
        # edge would be shorter; omit it so the path is forced via Paris.
        ps = pops("London", "Paris", "Frankfurt")
        return PrivateWan(ps, [("lon", "par"), ("par", "fra")], inflation=1.1)

    def test_direct_edge_latency(self, wan):
        km = great_circle_km(
            city_named("London").location, city_named("Paris").location
        )
        assert wan.one_way_ms("lon", "par") == pytest.approx(
            propagation_one_way_ms(km, 1.1)
        )

    def test_two_hop_path(self, wan):
        expected = wan.one_way_ms("lon", "par") + wan.one_way_ms("par", "fra")
        assert wan.one_way_ms("lon", "fra") == pytest.approx(expected)
        assert [p.code for p in wan.path("lon", "fra")] == ["lon", "par", "fra"]

    def test_rtt_doubles(self, wan):
        assert wan.rtt_ms("lon", "fra") == pytest.approx(
            2 * wan.one_way_ms("lon", "fra")
        )

    def test_zero_to_self(self, wan):
        assert wan.one_way_ms("par", "par") == 0.0
        assert [p.code for p in wan.path("par", "par")] == ["par"]

    def test_symmetric(self, wan):
        assert wan.one_way_ms("lon", "fra") == pytest.approx(
            wan.one_way_ms("fra", "lon")
        )

    def test_shortcut_edge_wins(self):
        # Adding a direct edge makes the one-hop path the shortest.
        ps = pops("London", "Paris", "Frankfurt")
        wan = PrivateWan(
            ps, [("lon", "par"), ("par", "fra"), ("lon", "fra")], inflation=1.1
        )
        assert [p.code for p in wan.path("lon", "fra")] == ["lon", "fra"]


class TestLookups:
    @pytest.fixture
    def wan(self):
        ps = pops("London", "Paris", "Tokyo")
        return PrivateWan(ps, [("lon", "par"), ("par", "tok")])

    def test_pop_lookup(self, wan):
        assert wan.pop("lon").city.name == "London"
        with pytest.raises(TopologyError):
            wan.pop("zzz")

    def test_pop_at_city(self, wan):
        assert wan.pop_at_city(city_named("Paris")).code == "par"
        assert wan.pop_at_city(city_named("Madrid")) is None

    def test_nearest_pop(self, wan):
        # Osaka is nearest to the Tokyo PoP.
        assert wan.nearest_pop(city_named("Osaka").location).code == "tok"
        # Madrid is nearest to Paris among {London, Paris, Tokyo}... it is
        # actually closer to Paris than London.
        assert wan.nearest_pop(city_named("Madrid").location).code == "par"

    def test_nearest_pop_equals_scan_everywhere(self, small_internet):
        # Asked twice: the first answer is scanned, the second memoised.
        wan = small_internet.wan
        for _ in range(2):
            for city in WORLD_CITIES:
                expected = nearest_pop_scan(wan, city.location)
                assert wan.nearest_pop(city.location) is expected, city.name

    def test_nearest_pop_tie_keeps_earlier_pop(self):
        london = city_named("London")
        for first, second in (("aaa", "bbb"), ("bbb", "aaa")):
            wan = PrivateWan(
                [PointOfPresence(first, london), PointOfPresence(second, london)],
                [("aaa", "bbb")],
            )
            for city in ("London", "Tokyo", "London"):
                assert wan.nearest_pop(city_named(city).location).code == first

    def test_pops_order_preserved(self, wan):
        assert wan.pop_codes == ["lon", "par", "tok"]
