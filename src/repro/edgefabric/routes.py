"""Per-PoP egress route computation.

For a client prefix served at a PoP, the provider's border routers hold
the routes its neighbors *at that PoP* advertise: the PNI or exchange
peer where present, and the transit providers.  The BGP policy ranks
them; the measurement system sprays sessions across the top three.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import RoutingError
from repro.topology import Internet, PointOfPresence
from repro.bgp import EgressDecisionProcess, RouteClass
from repro.bgp.propagation import RoutingTable
from repro.netmodel import trace
from repro.workloads import ClientPrefix


@dataclass(frozen=True)
class EgressRoute:
    """One egress option for ⟨PoP, prefix⟩, annotated for measurement.

    Attributes:
        pop_code: The serving PoP.
        dest_asn: The client's AS.
        neighbor: Next-hop AS at the PoP.
        route_class: Private peer / public peer / transit.
        bgp_rank: Position in the BGP policy's ranking (0 = preferred).
        as_path: Full AS path, provider first.
        base_one_way_ms: Propagation latency PoP -> client city.
        link_key: Congestion key of the egress interconnect.
        interior_key: Congestion key of the route's interior (next-hop
            network toward this destination).
    """

    pop_code: str
    dest_asn: int
    neighbor: int
    route_class: RouteClass
    bgp_rank: int
    as_path: Tuple[int, ...]
    base_one_way_ms: float
    link_key: str
    interior_key: str


def serving_pop(internet: Internet, prefix: ClientPrefix) -> PointOfPresence:
    """The PoP that serves a prefix: geographically nearest to its users.

    The paper's providers direct clients to nearby PoPs via DNS or
    anycast; the result ("half of all traffic is to clients within 500 km
    of the serving PoP") is what nearest-PoP assignment produces.
    """
    return internet.wan.nearest_pop(prefix.city.location)


def egress_routes_at_pop(
    internet: Internet,
    table: RoutingTable,
    pop: PointOfPresence,
    prefix: ClientPrefix,
    k: int = 3,
) -> List[EgressRoute]:
    """Compute the top-``k`` egress routes for ⟨PoP, prefix⟩.

    Args:
        internet: The topology.
        table: Routing state for the prefix's AS (origin = ``prefix.asn``).
        pop: The serving PoP.
        prefix: The client prefix.
        k: How many ranked routes to measure (the paper sprays over 3).

    Returns:
        Up to ``k`` routes in BGP preference order; empty if no neighbor
        at this PoP advertises the prefix.

    Raises:
        RoutingError: if ``table`` was not computed for the prefix's AS.
    """
    if table.origin != prefix.asn:
        raise RoutingError(
            f"routing table is for origin {table.origin}, prefix is in "
            f"AS {prefix.asn}"
        )
    provider = internet.provider_asn
    candidates = [
        c
        for c in table.candidates_at(provider)
        if pop.city in c.link.cities
    ]
    if not candidates:
        return []
    decision = EgressDecisionProcess(internet.graph, provider)
    routes: List[EgressRoute] = []
    for ranked in decision.top(candidates, k):
        neighbor = ranked.candidate.neighbor
        path = trace(
            internet.graph,
            table,
            provider,
            pop.city,
            dest_city=prefix.city,
            via_neighbor=neighbor,
            first_exit_city=pop.city,
        )
        link = ranked.candidate.link
        routes.append(
            EgressRoute(
                pop_code=pop.code,
                dest_asn=prefix.asn,
                neighbor=neighbor,
                route_class=ranked.route_class,
                bgp_rank=ranked.rank,
                as_path=path.as_path,
                base_one_way_ms=path.one_way_ms,
                link_key=f"link:{link.a}-{link.b}@{pop.city.name}",
                interior_key=f"interior:{neighbor}->{prefix.asn}",
            )
        )
    return routes


def tables_for_destinations(
    internet: Internet, asns: List[int]
) -> Dict[int, RoutingTable]:
    """Propagate one routing table per destination AS, deduplicated.

    All tables are computed in one :func:`~repro.bgp.propagate_many`
    batch over the graph's cached CSR adjacency.
    """
    from repro.bgp import propagate_many

    unique = list(dict.fromkeys(asns))
    return dict(zip(unique, propagate_many(internet.graph, unique)))
