"""Tests for geographic forwarding traces."""

import dataclasses

import pytest

from repro.errors import RoutingError
from repro.geo import city_named, great_circle_km, propagation_one_way_ms
from repro.bgp import propagate
from repro.netmodel import AS_HOP_PENALTY_MS, trace

from conftest import E1, E2, PROVIDER, T1A, TR1, TR2

NY = city_named("New York")
CHI = city_named("Chicago")
LON = city_named("London")
FRA = city_named("Frankfurt")


class TestTraceBasics:
    def test_direct_peer_trace(self, toy_graph):
        """Provider at NY -> E1 (PNI at NY) -> client in Chicago."""
        table = propagate(toy_graph, E1)
        path = trace(
            toy_graph, table, PROVIDER, NY, dest_city=CHI, via_neighbor=E1
        )
        assert path.as_path == (PROVIDER, E1)
        assert path.ingress_city == NY
        # One intra-E1 segment NY -> Chicago at the eyeball's inflation.
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert seg.asn == E1
        km = great_circle_km(NY.location, CHI.location)
        assert seg.one_way_ms == pytest.approx(
            propagation_one_way_ms(km, toy_graph.get(E1).backbone_inflation)
        )
        assert path.one_way_ms == pytest.approx(
            seg.one_way_ms + AS_HOP_PENALTY_MS
        )

    def test_follows_best_route_without_override(self, toy_graph):
        table = propagate(toy_graph, E1)
        path = trace(toy_graph, table, PROVIDER, NY, dest_city=CHI)
        # The provider's best route to E1 is the PNI.
        assert path.as_path == (PROVIDER, E1)

    def test_via_neighbor_override(self, toy_graph):
        table = propagate(toy_graph, E1)
        path = trace(
            toy_graph, table, PROVIDER, NY, dest_city=CHI, via_neighbor=T1A
        )
        assert path.as_path == (PROVIDER, T1A, TR1, E1)

    def test_via_neighbor_must_export(self, toy_graph):
        # For destination E2, E1 exports nothing to the provider.
        table = propagate(toy_graph, E2)
        with pytest.raises(RoutingError):
            trace(
                toy_graph, table, PROVIDER, NY, dest_city=FRA, via_neighbor=E1
            )

    def test_first_exit_city_pins_handoff(self, toy_graph):
        table = propagate(toy_graph, E2)
        # The provider's peering with TR2 is at London only; pinning the
        # exit to London is allowed, pinning to New York is not.
        path = trace(
            toy_graph,
            table,
            PROVIDER,
            LON,
            dest_city=FRA,
            via_neighbor=TR2,
            first_exit_city=LON,
        )
        assert path.as_path == (PROVIDER, TR2, E2)
        with pytest.raises(RoutingError):
            trace(
                toy_graph,
                table,
                PROVIDER,
                NY,
                dest_city=FRA,
                via_neighbor=TR2,
                first_exit_city=NY,
            )

    def test_unreachable_source(self, toy_graph):
        toy_graph.remove_link(E2, TR2)
        table = propagate(toy_graph, E1)
        with pytest.raises(RoutingError):
            trace(toy_graph, table, E2, FRA)

    def test_rtt_is_twice_one_way(self, toy_graph):
        table = propagate(toy_graph, E1)
        path = trace(toy_graph, table, PROVIDER, NY, dest_city=CHI)
        assert path.rtt_ms == pytest.approx(2.0 * path.one_way_ms)

    def test_hop_penalty_scales_with_boundaries(self, toy_graph):
        table = propagate(toy_graph, E1)
        direct = trace(
            toy_graph, table, PROVIDER, NY, dest_city=CHI, via_neighbor=E1
        )
        transit = trace(
            toy_graph, table, PROVIDER, NY, dest_city=CHI, via_neighbor=T1A
        )
        # 1 vs 3 AS boundaries.
        assert transit.as_path == (PROVIDER, T1A, TR1, E1)
        penalties_direct = 1 * AS_HOP_PENALTY_MS
        penalties_transit = 3 * AS_HOP_PENALTY_MS
        assert direct.one_way_ms >= penalties_direct
        assert transit.one_way_ms >= penalties_transit


class TestAnycastSemantics:
    def test_no_dest_city_ends_at_ingress(self, toy_graph):
        table = propagate(toy_graph, PROVIDER)
        path = trace(toy_graph, table, E1, CHI)
        # E1 -> PNI at New York; service is at the ingress.
        assert path.as_path == (E1, PROVIDER)
        assert path.ingress_city == NY

    def test_origin_city_scoping_respected(self, toy_graph):
        # Announce only at London: E1 can't use the NY PNI.
        table = propagate(
            toy_graph, PROVIDER, origin_cities=frozenset({LON})
        )
        path = trace(toy_graph, table, E1, CHI)
        assert path.ingress_city == LON

    def test_last_link_without_announcement_city_raises(self, toy_graph):
        # The route arrives over a New York/London link; Frankfurt is on
        # neither end of it.
        table = propagate(toy_graph, PROVIDER, origin_cities=frozenset({LON}))
        elsewhere = dataclasses.replace(table, origin_cities=frozenset({FRA}))
        with pytest.raises(RoutingError, match="announcement city"):
            trace(toy_graph, elsewhere, E1, CHI)


class TestWanTerminalSegment:
    def test_wan_carries_to_destination(self, small_internet):
        """Premium-style path: ingress PoP, then the WAN to the DC."""
        table = propagate(small_internet.graph, small_internet.provider_asn)
        eyeball = small_internet.graph.get(small_internet.eyeball_asns[0])
        dc_city = small_internet.dc_pop.city
        with_wan = trace(
            small_internet.graph,
            table,
            eyeball.asn,
            eyeball.home_city,
            dest_city=dc_city,
            wan=small_internet.wan,
        )
        without_dest = trace(
            small_internet.graph, table, eyeball.asn, eyeball.home_city
        )
        assert with_wan.one_way_ms >= without_dest.one_way_ms
        assert with_wan.ingress_city == without_dest.ingress_city

