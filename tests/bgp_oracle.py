"""Reference Gao-Rexford propagation, kept as a test oracle.

:func:`repro.bgp.propagate` runs the three phases as batched frontier
expansions over CSR arrays and builds its routes without validation.
This module keeps the original heap/dict construction over validated
:class:`~repro.bgp.Route` objects, so tests can check the CSR tables
against an independent implementation on any graph — random ones
included — route for route.
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.bgp import Route, RoutePref, RoutingTable
from repro.bgp.propagation import _validate_grooming
from repro.errors import RoutingError
from repro.geo import City
from repro.topology import ASGraph


def propagate_reference(
    graph: ASGraph,
    origin: int,
    origin_cities: Optional[FrozenSet[City]] = None,
    prepends: Optional[Mapping[int, int]] = None,
    suppressed: Optional[FrozenSet[int]] = None,
) -> RoutingTable:
    """:func:`repro.bgp.propagate`, computed by the heap construction."""
    if origin not in graph:
        raise RoutingError(f"origin AS {origin} not in graph")
    prepends = dict(prepends or {})
    suppressed = frozenset(suppressed or ())
    _validate_grooming(graph, origin, prepends, suppressed)
    table = RoutingTable(
        graph=graph,
        origin=origin,
        origin_cities=frozenset(origin_cities) if origin_cities else None,
        prepends=prepends,
        suppressed=suppressed,
    )
    _fill_routes(table)
    return table


def _fill_routes(table: RoutingTable) -> None:
    """Fill ``table._routes`` with the heap/dict construction."""
    graph = table.graph
    origin = table.origin
    prepends = table.prepends
    routes = table._routes
    routes[origin] = Route(path=(origin,), pref=RoutePref.ORIGIN, advertised_length=0)

    def origin_allowed(neighbor: int) -> bool:
        return table._origin_export_allowed(graph.link(origin, neighbor))

    def origin_extra(neighbor: int) -> int:
        return int(prepends.get(neighbor, 0))

    # --- Phase 1: customer routes, origin upward through providers. -----
    heap: List[Tuple[int, int, int, Route]] = []

    def push_to_providers(asn: int, route: Route) -> None:
        for provider in graph.providers(asn):
            if provider in route.path:
                continue
            if asn == origin and not origin_allowed(provider):
                continue
            extra = origin_extra(provider) if asn == origin else 0
            offered = route.extended_to(provider, RoutePref.CUSTOMER, extra)
            heapq.heappush(heap, (offered.advertised_length, asn, provider, offered))

    push_to_providers(origin, routes[origin])
    while heap:
        _, _, asn, offered = heapq.heappop(heap)
        if asn in routes:
            continue  # already holds an equal-or-better customer route
        routes[asn] = offered
        push_to_providers(asn, offered)

    # --- Phase 2: one round of peer routes. ------------------------------
    phase1_holders = list(routes)
    peer_offers: Dict[int, Route] = {}
    for asn in phase1_holders:
        route = routes[asn]
        for peer in graph.peers(asn):
            if peer in routes or peer in route.path:
                continue
            if asn == origin and not origin_allowed(peer):
                continue
            extra = origin_extra(peer) if asn == origin else 0
            offered = route.extended_to(peer, RoutePref.PEER, extra)
            incumbent = peer_offers.get(peer)
            if incumbent is None or _offer_key(offered) < _offer_key(incumbent):
                peer_offers[peer] = offered
    routes.update(peer_offers)

    # --- Phase 3: provider routes, downward through customers. ----------
    # Dijkstra over customer edges, seeded by every AS that already holds
    # a route.  Only routeless ASes adopt provider routes (lower pref than
    # anything assigned in phases 1-2), and they re-export downward.
    frontier: List[Tuple[int, int, int, Route]] = []
    for asn, route in list(routes.items()):
        for customer in graph.customers(asn):
            if customer in routes or customer in route.path:
                continue
            if asn == origin and not origin_allowed(customer):
                continue
            extra = origin_extra(customer) if asn == origin else 0
            offered = route.extended_to(customer, RoutePref.PROVIDER, extra)
            heapq.heappush(
                frontier, (offered.advertised_length, asn, customer, offered)
            )
    while frontier:
        _, _, asn, offered = heapq.heappop(frontier)
        if asn in routes:
            continue  # already adopted an equal-or-better offer
        routes[asn] = offered
        for customer in graph.customers(asn):
            if customer in routes or customer in offered.path:
                continue
            nxt = offered.extended_to(customer, RoutePref.PROVIDER)
            heapq.heappush(frontier, (nxt.advertised_length, asn, customer, nxt))


def _offer_key(route: Route) -> Tuple[int, int]:
    """Ordering key among same-preference offers: shortest, lowest hop."""
    return (route.advertised_length, route.next_hop)
