"""Property-based tests of BGP propagation on random small topologies.

Random valley-free worlds are generated directly (not via the full
generator) so the invariants are exercised on arbitrary shapes: random
tier sizes, random multihoming, random peering.
"""

import numpy as np
from bgp_oracle import propagate_reference
from hypothesis import given, settings, strategies as st

from repro.geo import WORLD_CITIES
from repro.bgp import RoutePref, propagate
from repro.topology import (
    ASGraph,
    ASRole,
    AutonomousSystem,
    Relationship,
)
from repro.topology.asgraph import link_between


@st.composite
def random_world(draw):
    """A random 3-tier valley-free topology."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n_top = draw(st.integers(min_value=1, max_value=3))
    n_mid = draw(st.integers(min_value=1, max_value=5))
    n_leaf = draw(st.integers(min_value=1, max_value=8))
    cities = list(WORLD_CITIES[:20])
    graph = ASGraph()
    tops = list(range(10, 10 + n_top))
    mids = list(range(100, 100 + n_mid))
    leaves = list(range(1000, 1000 + n_leaf))

    def city_sample(k):
        idx = rng.choice(len(cities), size=min(k, len(cities)), replace=False)
        return tuple(cities[i] for i in sorted(idx))

    for asn in tops:
        graph.add_as(AutonomousSystem(asn, f"t{asn}", ASRole.TIER1, city_sample(4)))
    for asn in mids:
        graph.add_as(AutonomousSystem(asn, f"m{asn}", ASRole.TRANSIT, city_sample(3)))
    for asn in leaves:
        graph.add_as(AutonomousSystem(asn, f"l{asn}", ASRole.EYEBALL, city_sample(2)))
    # Tier-1 clique.
    for i, x in enumerate(tops):
        for y in tops[i + 1 :]:
            graph.add_link(link_between(x, y, Relationship.PEER, city_sample(2)))
    # Mids buy from 1-2 tops; some peer with each other.
    for asn in mids:
        ups = rng.choice(tops, size=min(len(tops), int(rng.integers(1, 3))), replace=False)
        for up in sorted(int(u) for u in ups):
            graph.add_link(
                link_between(asn, up, Relationship.CUSTOMER, city_sample(1), customer_asn=asn)
            )
    for i, x in enumerate(mids):
        for y in mids[i + 1 :]:
            if rng.random() < 0.3:
                graph.add_link(link_between(x, y, Relationship.PEER, city_sample(1)))
    # Leaves buy from 1-2 mids (or a top when there are no mids).
    for asn in leaves:
        pool = mids if mids else tops
        ups = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 3))), replace=False)
        for up in sorted(int(u) for u in ups):
            graph.add_link(
                link_between(asn, up, Relationship.CUSTOMER, city_sample(1), customer_asn=asn)
            )
    origin = leaves[int(rng.integers(0, len(leaves)))]
    return graph, origin


def _step_kind(graph, x, y):
    """Direction of traffic flowing x -> y."""
    link = graph.link(x, y)
    if link.relationship is Relationship.PEER:
        return "peer"
    return "down" if link.customer_asn == y else "up"


@given(random_world())
@settings(max_examples=60, deadline=None)
def test_propagation_invariants(world):
    graph, origin = world
    graph.validate()
    table = propagate(graph, origin)

    for asys in graph.ases():
        route = table.best(asys.asn)
        if route is None:
            continue
        # 1. Paths start at the holder and end at the origin, loop-free.
        assert route.path[0] == asys.asn
        assert route.path[-1] == origin
        assert len(set(route.path)) == len(route.path)
        # 2. Advertised length never undershoots the hop count.
        assert route.advertised_length >= route.as_hops
        # 3. Valley-freedom: traffic goes up, then at most one peer step,
        #    then down; never up or sideways after going down.
        state = "up"
        for x, y in zip(route.path[:-1], route.path[1:]):
            kind = _step_kind(graph, x, y)
            if state == "up":
                if kind == "peer":
                    state = "peered"
                elif kind == "down":
                    state = "down"
            elif state == "peered":
                assert kind == "down", route.path
                state = "down"
            else:
                assert kind == "down", route.path
        # 4. Preference class matches the first step.
        if route.as_hops:
            first = _step_kind(graph, route.path[0], route.path[1])
            expected = {
                "up": RoutePref.PROVIDER,
                "peer": RoutePref.PEER,
                "down": RoutePref.CUSTOMER,
            }[first]
            assert route.pref is expected

    # 5. Every AS in the origin's connected component holds a route
    #    (valley-free reachability holds in a hierarchy).
    reachable = _undirected_component(graph, origin)
    for asn in reachable:
        assert table.best(asn) is not None


def _undirected_component(graph, start):
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for n in graph.neighbors(current):
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


@given(random_world())
@settings(max_examples=30, deadline=None)
def test_forwarding_consistency(world):
    """Following per-AS best next hops always reaches the origin without
    looping (stable-state forwarding is consistent)."""
    graph, origin = world
    table = propagate(graph, origin)
    for asys in graph.ases():
        if table.best(asys.asn) is None:
            continue
        current = asys.asn
        hops = 0
        while current != origin:
            nxt = table.next_hop(current)
            assert nxt is not None
            current = nxt
            hops += 1
            assert hops <= len(graph), "forwarding loop"


def _selection_key(route):
    """Ordering key of BGP selection: customer > peer > provider class,
    then shortest advertised length, then lowest next-hop ASN.  Lower
    sorts better."""
    next_hop = route.next_hop if route.as_hops else -1
    return (-int(route.pref), route.advertised_length, next_hop)


@given(random_world())
@settings(max_examples=40, deadline=None)
def test_stability_oracle_both_lanes(world):
    """The propagated state is a *stable* valley-free equilibrium.

    Stability oracle: no AS strictly prefers any route a neighbor
    currently exports to it over the route it holds, and no routeless
    AS has any route on offer at all.  Checked for the CSR construction
    and the heap oracle, which must also agree table-for-table (same
    best route per AS).
    """
    graph, origin = world
    oracle = propagate_reference(graph, origin)
    csr = propagate(graph, origin)
    assert oracle._routes == csr._routes

    for table in (oracle, csr):
        for asys in graph.ases():
            asn = asys.asn
            own = table.best(asn)
            if own is not None and asn != origin:
                # Valley-freedom of the held path.
                state = "up"
                for x, y in zip(own.path[:-1], own.path[1:]):
                    kind = _step_kind(graph, x, y)
                    if state == "up":
                        if kind == "peer":
                            state = "peered"
                        elif kind == "down":
                            state = "down"
                    else:
                        assert kind == "down", own.path
                        state = "down"
            for neighbor in graph.neighbors(asn):
                offered = table.exported_route(neighbor, asn)
                if own is None:
                    assert offered is None, (
                        f"routeless AS {asn} is offered {offered} by "
                        f"{neighbor} — the state is not stable"
                    )
                elif offered is not None and asn != origin:
                    assert _selection_key(own) <= _selection_key(offered), (
                        f"AS {asn} holds {own} but strictly prefers "
                        f"{offered} from {neighbor}"
                    )
