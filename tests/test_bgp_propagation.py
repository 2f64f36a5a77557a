"""Tests for valley-free route propagation on the hand-wired toy graph.

Toy-graph shape (see conftest): T1A-T1B clique; TR1 under T1A; TR2 under
T1B; E1 under TR1; E2 under TR2; the provider buys transit from T1A,
has a PNI with E1, and public-peers with TR2.
"""

import pytest

from repro.errors import RoutingError
from repro.geo import city_named
from repro.bgp import RoutePref, propagate

from bgp_oracle import propagate_reference
from conftest import E1, E2, PROVIDER, T1A, T1B, TR1, TR2


class TestBasicPropagation:
    def test_unknown_origin_rejected(self, toy_graph):
        with pytest.raises(RoutingError):
            propagate(toy_graph, 424242)

    def test_origin_route(self, toy_graph):
        table = propagate(toy_graph, E1)
        route = table.best(E1)
        assert route.pref is RoutePref.ORIGIN
        assert route.path == (E1,)

    def test_everyone_reaches_an_eyeball(self, toy_graph):
        table = propagate(toy_graph, E1)
        for asys in toy_graph.ases():
            assert table.best(asys.asn) is not None, asys.name

    def test_customer_routes_preferred(self, toy_graph):
        # TR1 learns E1 from its customer.
        table = propagate(toy_graph, E1)
        assert table.best(TR1).pref is RoutePref.CUSTOMER
        assert table.best(TR1).path == (TR1, E1)
        # T1A learns it transitively from customers.
        assert table.best(T1A).pref is RoutePref.CUSTOMER
        assert table.best(T1A).path == (T1A, TR1, E1)

    def test_peer_route_at_provider(self, toy_graph):
        # The provider's route to E1: direct PNI (peer) beats the transit
        # route via T1A.
        table = propagate(toy_graph, E1)
        route = table.best(PROVIDER)
        assert route.pref is RoutePref.PEER
        assert route.path == (PROVIDER, E1)

    def test_provider_route_when_no_peer(self, toy_graph):
        # E2 is only reachable for the provider via peers/transit:
        # the public peering with TR2 (TR2's customer cone contains E2).
        table = propagate(toy_graph, E2)
        route = table.best(PROVIDER)
        assert route.pref is RoutePref.PEER
        assert route.path == (PROVIDER, TR2, E2)

    def test_tier1_uses_peer_for_other_cone(self, toy_graph):
        # T1A reaches E2 via its peer T1B (valley-free: T1B exports its
        # customer route to a peer).
        table = propagate(toy_graph, E2)
        route = table.best(T1A)
        assert route.pref is RoutePref.PEER
        assert route.path == (T1A, T1B, TR2, E2)

    def test_provider_route_downward(self, toy_graph):
        # E1's route to E2 must climb to its providers (provider routes).
        table = propagate(toy_graph, E2)
        route = table.best(E1)
        assert route.pref is RoutePref.PROVIDER
        assert route.path == (E1, TR1, T1A, T1B, TR2, E2)


class TestValleyFree:
    def test_no_peer_route_reexported_to_peer(self, toy_graph):
        # The provider holds a PEER route to E1; it must not export it to
        # its other peer TR2.
        table = propagate(toy_graph, E1)
        assert table.exported_route(PROVIDER, TR2) is None

    def test_no_provider_route_exported_upward(self, toy_graph):
        # E1 holds a PROVIDER route to E2; it must not export it to the
        # provider over their peering (peers get customer routes only).
        table = propagate(toy_graph, E2)
        assert table.exported_route(E1, PROVIDER) is None

    def test_customer_gets_everything(self, toy_graph):
        # T1A exports its peer-learned route to its customer (the provider).
        table = propagate(toy_graph, E2)
        exported = table.exported_route(T1A, PROVIDER)
        assert exported is not None
        assert exported.path == (PROVIDER, T1A, T1B, TR2, E2)

    def test_loop_suppression(self, toy_graph):
        # TR1's best route to E1 goes through... E1; exporting to E1 would
        # loop and must be suppressed.
        table = propagate(toy_graph, E1)
        assert table.exported_route(TR1, E1) is None

    def test_no_valley_paths_anywhere(self, toy_graph):
        """No stable path may contain a provider->customer->provider valley
        or a peer-peer-peer step."""
        for origin in (E1, E2, PROVIDER, TR1):
            table = propagate(toy_graph, origin)
            for asys in toy_graph.ases():
                route = table.best(asys.asn)
                if route is None or route.as_hops == 0:
                    continue
                _assert_valley_free(toy_graph, route.path)


def _assert_valley_free(graph, path):
    """Gao-Rexford: once a path goes down (provider->customer) or sideways
    (peer), it may never go up or sideways again.

    The stored path runs holder -> origin, i.e. in the direction
    announcements flowed *backwards*.  Traffic flows holder -> origin, and
    the export rules guarantee: uphill (customer->provider) steps first,
    at most one peer step, then downhill."""
    went_down_or_peer = False
    for x, y in zip(path[:-1], path[1:]):
        link = graph.link(x, y)
        if link.relationship.value == "peer":
            step = "peer"
        elif link.customer_asn == y:
            step = "down"  # x is provider of y: traffic moves down
        else:
            step = "up"
        if step in ("peer", "down"):
            went_down_or_peer_prev = went_down_or_peer
            went_down_or_peer = True
            if step == "peer" and went_down_or_peer_prev:
                raise AssertionError(f"peer step after going down: {path}")
        elif went_down_or_peer:
            raise AssertionError(f"uphill step after going down: {path}")


class TestSelectionOrder:
    def test_shorter_path_wins_within_class(self, toy_graph):
        # Give T1B a direct customer link to E1 in a fresh graph: T1A
        # would then see two customer routes to E1 (via TR1, 2 hops) and
        # none shorter; T1B sees a 1-hop customer route.
        from repro.topology import Relationship
        from repro.topology.asgraph import link_between

        toy_graph.add_link(
            link_between(
                E1,
                T1B,
                Relationship.CUSTOMER,
                [city_named("Chicago")],
                customer_asn=E1,
            )
        )
        table = propagate(toy_graph, E1)
        assert table.best(T1B).path == (T1B, E1)

    def test_lowest_next_hop_tiebreak(self, toy_graph):
        # E2's providers: only TR2; add a second transit relationship so
        # two equal-length provider routes compete at E2 for reaching E1.
        from repro.topology import Relationship
        from repro.topology.asgraph import link_between

        toy_graph.add_link(
            link_between(
                E2,
                TR1,
                Relationship.CUSTOMER,
                [city_named("Frankfurt")],
                customer_asn=E2,
            )
        )
        table = propagate(toy_graph, E1)
        # Via TR1: (E2, TR1, E1) 2 hops; via TR2: (E2, TR2, T1B, T1A, TR1, E1).
        assert table.best(E2).path == (E2, TR1, E1)


class TestOriginScoping:
    def test_site_filter_blocks_distant_links(self, toy_graph):
        # The provider announces only at London: the E1 PNI (New York
        # only) must not hear it, so E1 reaches the prefix via transit.
        table = propagate(
            toy_graph, PROVIDER, origin_cities=frozenset({city_named("London")})
        )
        route = table.best(E1)
        assert route is not None
        assert route.path != (E1, PROVIDER)
        # TR2 peers at London and still hears it directly.
        assert table.best(TR2).path == (TR2, PROVIDER)

    def test_unscoped_announcement_reaches_pni(self, toy_graph):
        table = propagate(toy_graph, PROVIDER)
        assert table.best(E1).path == (E1, PROVIDER)


class TestPrepending:
    def test_prepend_diverts_selection(self, toy_graph):
        # Baseline: E1 reaches the provider over the PNI (peer, 1 hop).
        baseline = propagate(toy_graph, PROVIDER)
        assert baseline.best(E1).path == (E1, PROVIDER)
        # Peer routes beat provider routes regardless of prepending (local
        # pref first), so prepending toward E1 does NOT move E1 off the
        # PNI — but prepending toward T1A lengthens every transit path.
        prepended = propagate(toy_graph, PROVIDER, prepends={T1A: 4})
        assert prepended.best(E1).path == (E1, PROVIDER)
        assert (
            prepended.best(TR1).advertised_length
            > baseline.best(TR1).advertised_length
        )

    def test_prepend_changes_tiebreak(self, toy_graph):
        # TR2 hears the provider directly (peer) — prepending on that
        # peering cannot change its preference class, but it does change
        # the advertised length it re-exports downstream.
        plain = propagate(toy_graph, PROVIDER)
        prepended = propagate(toy_graph, PROVIDER, prepends={TR2: 2})
        assert (
            prepended.best(E2).advertised_length
            == plain.best(E2).advertised_length + 2
        )


class TestCandidates:
    def test_candidates_at_provider(self, toy_graph):
        table = propagate(toy_graph, E1)
        candidates = table.candidates_at(PROVIDER)
        neighbors = {c.neighbor for c in candidates}
        # T1A (transit, exports everything) and E1 (the PNI origin-side).
        assert neighbors == {T1A, E1}
        for c in candidates:
            assert c.route.holder == PROVIDER
            assert c.route.origin == E1

    def test_candidates_exclude_valley_violations(self, toy_graph):
        # For destination E2, TR2 exports its customer route to the
        # provider, T1A exports its peer-learned route (provider is its
        # customer), but E1 has only a provider route and exports nothing.
        table = propagate(toy_graph, E2)
        neighbors = {c.neighbor for c in table.candidates_at(PROVIDER)}
        assert neighbors == {T1A, TR2}


class TestRoutingTableRepr:
    def test_repr_is_compact(self, toy_graph):
        """The repr must summarize, not dump the graph and route dict.

        The generated dataclass repr used to recurse into every Route
        (and, transitively, the whole ASGraph) — megabytes of text the
        moment a table appeared in an assertion diff or a log line.
        """
        table = propagate(toy_graph, E1)
        text = repr(table)
        assert text == f"RoutingTable(origin={E1}, routes={len(table)})"
        assert len(text) < 80

    def test_compare_ignores_graph_identity(self, toy_graph):
        """Equality is by announcement (origin/scoping/grooming) only."""
        from conftest import build_toy_graph

        a = propagate(toy_graph, E1)
        b = propagate(build_toy_graph(), E1)
        assert a == b
        assert a != propagate(toy_graph, E2)


class TestGroomingValidation:
    def test_prepend_for_non_neighbor_rejected(self, toy_graph):
        """A typo'd prepend key must fail loudly, naming the bad ASN."""
        with pytest.raises(RoutingError, match=str(T1B)):
            propagate(toy_graph, PROVIDER, prepends={T1B: 2})

    def test_suppression_of_non_neighbor_rejected(self, toy_graph):
        with pytest.raises(RoutingError, match=str(E2)):
            propagate(toy_graph, PROVIDER, suppressed=frozenset({E2}))

    def test_both_lanes_reject_identically(self, toy_graph):
        for lane in (propagate, propagate_reference):
            with pytest.raises(RoutingError):
                lane(toy_graph, PROVIDER, prepends={99999: 1})

    def test_valid_grooming_still_accepted(self, toy_graph):
        table = propagate(toy_graph, PROVIDER, prepends={T1A: 2})
        assert len(table) > 0


class TestExportedRouteErrors:
    def test_non_adjacent_export_is_typed_error(self, toy_graph):
        """Asking about a non-existent adjacency is a caller bug and
        must raise RoutingError, not silently return None."""
        table = propagate(toy_graph, E1)
        with pytest.raises(RoutingError, match="non-adjacent"):
            table.exported_route(E1, T1B)

    def test_routeless_advertiser_short_circuits(self, toy_graph):
        """A routeless AS exports nothing — checked before adjacency,
        so no graph lookup (and no error) happens for dead sources."""
        table = propagate(
            toy_graph, PROVIDER, suppressed=frozenset({T1A, E1, TR2})
        )
        assert table.exported_route(T1A, T1B) is None
