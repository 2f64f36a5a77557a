"""Geographic forwarding traces over AS-level routing state.

An AS-level path says *which* networks carry the traffic; this module
decides *where* it flows.  Each AS hands traffic to the next at one of
the interconnect cities on their shared link, chosen by the carrying
AS's exit policy — early exit (hot potato, nearest the traffic's entry
point) or late exit (cold potato, nearest the destination).  Intra-AS
segments are costed at geodesic distance times the AS's backbone
inflation; each AS boundary adds a small fixed router penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import RoutingError
from repro.geo import CITY_DISTANCES, City, propagation_one_way_ms
from repro.topology import ASGraph, ExitPolicy, PrivateWan
from repro.bgp.propagation import RoutingTable

#: Fixed per-AS-boundary penalty (router/exchange processing), one way.
AS_HOP_PENALTY_MS = 0.35


@dataclass(frozen=True)
class Segment:
    """One intra-AS carry: ``asn`` moves the traffic between two cities."""

    asn: int
    from_city: City
    to_city: City
    one_way_ms: float


@dataclass(frozen=True)
class ForwardingPath:
    """A traced path from a source to the origin of a prefix.

    Attributes:
        as_path: The AS sequence traversed, source first.
        segments: Intra-AS carries, in order (zero-length hops omitted).
        ingress_city: City where traffic entered the final (origin) AS.
        one_way_ms: Total one-way latency, including hop penalties and the
            terminal segment inside the origin's network.
    """

    as_path: Tuple[int, ...]
    segments: Tuple[Segment, ...]
    ingress_city: City
    one_way_ms: float

    @property
    def rtt_ms(self) -> float:
        """Round-trip propagation latency, assuming path symmetry."""
        return 2.0 * self.one_way_ms


def _allowed_exits(
    graph: ASGraph, table: RoutingTable, current_asn: int, next_asn: int
) -> Sequence[City]:
    """The interconnect cities where ``current_asn`` may hand off."""
    link = graph.link(current_asn, next_asn)
    if next_asn != table.origin or table.origin_cities is None:
        return link.cities
    # By name: names are unique among cities, and a name hashes far
    # faster than a City.
    names = {c.name for c in table.origin_cities}
    allowed = [c for c in link.cities if c.name in names]
    if not allowed:
        raise RoutingError(
            f"link {current_asn}-{next_asn} has no interconnect at "
            "an announcement city"
        )
    return allowed


def trace(
    graph: ASGraph,
    table: RoutingTable,
    src_asn: int,
    src_city: City,
    dest_city: Optional[City] = None,
    wan: Optional[PrivateWan] = None,
    via_neighbor: Optional[int] = None,
    first_exit_city: Optional[City] = None,
    hop_penalty_ms: float = AS_HOP_PENALTY_MS,
) -> ForwardingPath:
    """Trace a packet from ``src_asn``/``src_city`` to the prefix origin.

    Args:
        graph: Topology.
        table: Stable routing state for the destination prefix.
        src_asn: AS where the packet starts.
        src_city: City where the packet starts.
        dest_city: Destination city inside the origin AS.  ``None`` means
            the service is wherever the traffic enters the origin (anycast
            front-end at the ingress PoP); otherwise the origin carries the
            final segment there.
        wan: When the origin runs a private WAN, the terminal segment uses
            its backbone (cold potato between ingress PoP and the PoP
            nearest ``dest_city``) instead of geodesic distance.
        via_neighbor: Override the *first* hop: the source hands off to
            this neighbor instead of its own best route's next hop.  This
            is how an egress controller's choice is expressed.
        first_exit_city: Force the first handoff to happen at this city
            (must be an interconnect city of the first link).  An egress
            controller at a PoP hands traffic off *at that PoP* rather
            than hauling it elsewhere first.
        hop_penalty_ms: One-way per-AS-boundary processing penalty.

    Raises:
        RoutingError: when no route exists along the walk, or the
            ``via_neighbor`` override does not export the prefix.
    """
    origin = table.origin
    km = CITY_DISTANCES
    segments: List[Segment] = []
    as_path: List[int] = [src_asn]
    current_asn = src_asn
    current_city = src_city
    total_ms = 0.0
    # Exit cities by (from AS, to AS, reference city, announcement
    # scope): they depend only on the graph's links and policies, and
    # every graph mutation drops the memo.
    exits = graph._exits
    if exits is None:
        exits = graph._exits = {}

    max_steps = len(graph) + 1
    steps = 0
    while current_asn != origin:
        steps += 1
        if steps > max_steps:
            raise RoutingError("forwarding trace did not converge (loop?)")
        if current_asn == src_asn and via_neighbor is not None:
            route = table.exported_route(via_neighbor, src_asn)
            if route is None:
                raise RoutingError(
                    f"AS {via_neighbor} exports no route to AS {src_asn}"
                )
        else:
            route = table.best(current_asn)
            if route is None:
                raise RoutingError(f"AS {current_asn} has no route to {origin}")
        next_asn = route.next_hop
        asys = graph.get(current_asn)
        if current_asn == src_asn and first_exit_city is not None:
            allowed = _allowed_exits(graph, table, current_asn, next_asn)
            if first_exit_city not in allowed:
                raise RoutingError(
                    f"link {current_asn}-{next_asn} has no interconnect at "
                    f"{first_exit_city.name}"
                )
            exit_city = first_exit_city
        else:
            # Late exit carries toward the destination, early exit
            # hands off nearest where the traffic entered.
            if asys.exit_policy is ExitPolicy.LATE and dest_city is not None:
                reference = dest_city
            else:
                reference = current_city
            scope = table.origin_cities if next_asn == origin else None
            key = (current_asn, next_asn, reference.name, scope)
            exit_city = exits.get(key)
            if exit_city is None:
                allowed = _allowed_exits(graph, table, current_asn, next_asn)
                exit_city = exits[key] = min(
                    allowed, key=lambda c: (km(reference, c), c.name)
                )
        carry_km = km(current_city, exit_city)
        if carry_km > 0.0:
            ms = propagation_one_way_ms(carry_km, asys.backbone_inflation)
            segments.append(Segment(current_asn, current_city, exit_city, ms))
            total_ms += ms
        total_ms += hop_penalty_ms
        current_city = exit_city
        current_asn = next_asn
        as_path.append(current_asn)

    ingress_city = current_city
    if dest_city is not None:
        if wan is not None:
            ingress_pop = wan.nearest_pop(ingress_city.location)
            dest_pop = wan.nearest_pop(dest_city.location)
            ms = wan.one_way_ms(ingress_pop.code, dest_pop.code)
            if ms > 0.0:
                hops = wan.path(ingress_pop.code, dest_pop.code)
                for a, b in zip(hops[:-1], hops[1:]):
                    hop_ms = propagation_one_way_ms(km(a.city, b.city), wan.inflation)
                    segments.append(Segment(origin, a.city, b.city, hop_ms))
                total_ms += ms
        else:
            final_km = km(ingress_city, dest_city)
            if final_km > 0.0:
                asys = graph.get(origin)
                ms = propagation_one_way_ms(final_km, asys.backbone_inflation)
                segments.append(Segment(origin, ingress_city, dest_city, ms))
                total_ms += ms

    return ForwardingPath(
        as_path=tuple(as_path),
        segments=tuple(segments),
        ingress_city=ingress_city,
        one_way_ms=total_ms,
    )
