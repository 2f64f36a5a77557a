"""Valley-free route propagation to a stable Gao-Rexford state.

Uses the classic three-phase construction (customer routes bottom-up,
then one round of peer routes, then provider routes top-down), each phase
a Dijkstra-style expansion over advertised path length so that prepending
is honoured.  The result is the unique stable state for the standard
preference order customer > peer > provider, shortest advertised path,
lowest next-hop ASN.

The three phases run as batched frontier expansions over the graph's
cached :class:`~repro.topology.asgraph.CsrAdjacency` arrays.  Each
phase is a bucket queue over integer advertised lengths; per-level
winners are picked with one ``lexsort`` so the selection order —
shortest advertised, then lowest next-hop ASN — is exactly a heap's pop
order.  ``tests/bgp_oracle.py`` keeps the heap/dict construction as a
test oracle; the property and lane-agreement tests pin the two to
identical tables (same best route per AS, bit for bit).

:func:`propagate_many` batches several origins (or full
:class:`PropagationRequest` grooming variants) over one shared CSR
build — the entry point the edgefabric / cdn / cloudtiers planes use to
compute all their tables in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import RoutingError
from repro.geo import City
from repro.obs.trace import span
from repro.topology import ASGraph, Link, Relationship
from repro.topology.asgraph import CsrAdjacency
from repro.bgp.routes import NeighborRoute, Route, RoutePref


@dataclass
class RoutingTable:
    """Stable routing state for one originated prefix.

    Attributes:
        graph: The topology the state was computed over.
        origin: The originating AS.
        origin_cities: When set, the origin announced only over link
            interconnects in these cities (unicast front-end prefixes,
            DC-scoped cloud prefixes, grooming by selective announcement).
        prepends: Per-neighbor prepend counts applied at origination.
        suppressed: Neighbors the origin does not announce to at all
            (grooming with a no-announce community).
    """

    graph: ASGraph = field(repr=False, compare=False)
    origin: int = 0

    origin_cities: Optional[FrozenSet[City]] = None
    prepends: Mapping[int, int] = field(default_factory=dict)
    suppressed: FrozenSet[int] = frozenset()
    _routes: Dict[int, Route] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __repr__(self) -> str:
        return (
            f"RoutingTable(origin={self.origin}, "
            f"routes={len(self._routes)})"
        )

    def best(self, asn: int) -> Optional[Route]:
        """The AS's selected route, or ``None`` if unreachable."""
        return self._routes.get(asn)

    def __contains__(self, asn: int) -> bool:
        return asn in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def reachable_asns(self) -> Iterator[int]:
        """ASes holding a route, in no particular order."""
        return iter(self._routes)

    def next_hop(self, asn: int) -> Optional[int]:
        """The neighbor ``asn`` forwards to, or ``None`` at/after origin."""
        route = self.best(asn)
        if route is None or route.as_hops == 0:
            return None
        return route.next_hop

    # --- export logic ---------------------------------------------------

    def _origin_export_allowed(self, link: Link) -> bool:
        neighbor = link.other(self.origin)
        if neighbor in self.suppressed:
            return False
        if self.origin_cities is None:
            return True
        return any(c in self.origin_cities for c in link.cities)

    def exported_route(
        self, from_asn: int, to_asn: int, link: Optional[Link] = None
    ) -> Optional[Route]:
        """The route ``from_asn`` would advertise to neighbor ``to_asn``.

        Applies valley-free export filters, loop suppression, the origin's
        city scoping, and origination prepends.  Returns the route *as
        seen by the receiver* (path starts at ``to_asn``), or ``None`` if
        nothing is exported.

        Args:
            from_asn: The advertising AS.
            to_asn: The receiving AS; must be adjacent to ``from_asn``.
            link: The adjacency between the two, when the caller already
                holds it — skips the graph lookup.

        Raises:
            RoutingError: When the two ASes are not neighbors.
        """
        route = self.best(from_asn)
        if route is None:
            return None
        if to_asn in route.path:
            return None  # loop prevention
        if link is None:
            if not self.graph.has_link(from_asn, to_asn):
                raise RoutingError(
                    f"cannot export a route between non-adjacent ASes "
                    f"{from_asn} and {to_asn}"
                )
            link = self.graph.link(from_asn, to_asn)
        if from_asn == self.origin and not self._origin_export_allowed(link):
            return None
        # Export filter: to a customer, export everything; to a peer or a
        # provider, export only customer and originated routes.
        exporting_to_customer = (
            link.relationship is Relationship.CUSTOMER
            and link.customer_asn == to_asn
        )
        if not exporting_to_customer and route.pref not in (
            RoutePref.CUSTOMER,
            RoutePref.ORIGIN,
        ):
            return None
        learned_pref = _pref_at_receiver(link, to_asn)
        extra = 0
        if from_asn == self.origin:
            extra = int(self.prepends.get(to_asn, 0))
        return route.extended_to(to_asn, learned_pref, extra_length=extra)

    def candidates_at(self, asn: int) -> List[NeighborRoute]:
        """All routes the AS's neighbors would advertise to it.

        This is the Adj-RIB-In a border router sees — the raw material of
        the content provider's egress decision (Section 3.1 of the paper).
        Ordered by neighbor ASN for determinism.
        """
        candidates = []
        for neighbor in sorted(self.graph.neighbors(asn)):
            link = self.graph.link(asn, neighbor)
            route = self.exported_route(neighbor, asn, link=link)
            if route is not None:
                candidates.append(NeighborRoute(neighbor, route, link))
        return candidates


def _pref_at_receiver(link: Link, receiver: int) -> RoutePref:
    """Preference class of a route ``receiver`` learns over ``link``."""
    if link.relationship is Relationship.PEER:
        return RoutePref.PEER
    if link.customer_asn == receiver:
        return RoutePref.PROVIDER  # learned from my provider
    return RoutePref.CUSTOMER  # learned from my customer


def _validate_grooming(
    graph: ASGraph,
    origin: int,
    prepends: Mapping[int, int],
    suppressed: Iterable[int],
) -> None:
    """Reject grooming keys that are not neighbors of the origin.

    A typo'd grooming plan must fail loudly — silently ignoring an
    unknown neighbor turns an intended traffic shift into a no-op.
    """
    neighbors = set(graph.neighbors(origin))
    bad_prepends = sorted(set(prepends) - neighbors)
    if bad_prepends:
        raise RoutingError(
            f"prepends name ASes that are not neighbors of origin "
            f"{origin}: {bad_prepends}"
        )
    bad_suppressed = sorted(set(suppressed) - neighbors)
    if bad_suppressed:
        raise RoutingError(
            f"suppressed names ASes that are not neighbors of origin "
            f"{origin}: {bad_suppressed}"
        )


def propagate(
    graph: ASGraph,
    origin: int,
    origin_cities: Optional[FrozenSet[City]] = None,
    prepends: Optional[Mapping[int, int]] = None,
    suppressed: Optional[FrozenSet[int]] = None,
) -> RoutingTable:
    """Propagate one prefix from ``origin`` to a stable state.

    Args:
        graph: Topology to propagate over.
        origin: Originating AS; must exist in the graph.
        origin_cities: When given, the origin announces only on links that
            interconnect in at least one of these cities.
        prepends: Extra advertised hops per receiving neighbor, applied at
            origination (grooming by prepending).
        suppressed: Neighbors the origin withholds the announcement from
            entirely (grooming with a no-announce community).

    Returns:
        The stable :class:`RoutingTable`.

    Raises:
        RoutingError: if ``origin`` is not in the graph, or a ``prepends``
            / ``suppressed`` key is not one of its neighbors.
    """
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
    _propagate_csr(table)
    return table


@dataclass(frozen=True)
class PropagationRequest:
    """One origin (plus optional grooming) for :func:`propagate_many`."""

    origin: int
    origin_cities: Optional[FrozenSet[City]] = None
    prepends: Mapping[int, int] = field(default_factory=dict)
    suppressed: FrozenSet[int] = frozenset()


def propagate_many(
    graph: ASGraph,
    requests: Sequence[Union[int, PropagationRequest]],
) -> List[RoutingTable]:
    """Propagate many prefixes over one topology, in request order.

    Bare ints are origins with no grooming.  All requests share a single
    cached CSR build, which is where the batch entry point earns its
    keep over per-origin calls.
    """
    normalized = [
        req if isinstance(req, PropagationRequest) else PropagationRequest(int(req))
        for req in requests
    ]
    with span("bgp.propagate_many", n_requests=len(normalized)):
        graph.csr()  # build once, outside the per-request loop
        return [
            propagate(
                graph,
                req.origin,
                origin_cities=req.origin_cities,
                prepends=req.prepends,
                suppressed=req.suppressed,
            )
            for req in normalized
        ]


# --- CSR construction ---------------------------------------------------

_EMPTY_I32 = np.empty(0, dtype=np.int32)

_PREF_BY_CODE = {int(p): p for p in RoutePref}


def _gather(
    indptr: np.ndarray, targets: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``: ``(senders, receivers)``.

    ``senders[k]`` is the node whose row ``receivers[k]`` came from —
    one entry per (node, neighbor) edge, in row order.
    """
    starts = indptr[nodes].astype(np.int64)
    counts = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I32, _EMPTY_I32
    exclusive = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = np.repeat(starts - exclusive, counts) + np.arange(total)
    return np.repeat(nodes, counts), targets[positions]


def _winners(
    receivers: np.ndarray,
    senders: np.ndarray,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the winning offer per receiver.

    The winner minimises ``(advertised_length, sender)`` — within one
    bucket level lengths are all equal, so the key degenerates to the
    lowest sender (= lowest next-hop ASN, since CSR index order is ASN
    order).  Phase 2 passes explicit ``lengths`` because its one batch
    mixes levels.
    """
    keys = (senders, receivers) if lengths is None else (senders, lengths, receivers)
    order = np.lexsort(keys)
    sorted_receivers = receivers[order]
    first = np.ones(sorted_receivers.size, dtype=bool)
    first[1:] = sorted_receivers[1:] != sorted_receivers[:-1]
    return order[first]


def propagate_state(
    csr: CsrAdjacency,
    origin_index: int,
    allow: Optional[np.ndarray] = None,
    extra: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the three Gao-Rexford phases over CSR arrays alone.

    This is the array core of :func:`propagate`, usable without an
    :class:`~repro.topology.ASGraph` at all — e.g. by campaign workers
    that reconstruct the CSR view from shared memory.

    Args:
        csr: The adjacency view; node indices are positions in
            ``csr.asns``.
        origin_index: Node index (not ASN) of the originating AS.
        allow: Optional bool array over nodes; ``allow[j]`` False means
            the origin does not announce to neighbor ``j`` (suppression
            or city scoping).  Consulted on origin edges only.
        extra: Optional int array over nodes; ``extra[j]`` is the
            origination prepend count toward neighbor ``j``.  Applied on
            origin edges only.

    Returns:
        ``(parent, pref, adv)`` int arrays over nodes: the winning
        sender index (-1 at the origin and for unreachable nodes), the
        :class:`RoutePref` value (0 where unreachable), and the
        advertised length (-1 where unreachable).  A node is reachable
        iff ``adv >= 0``.
    """
    n = len(csr)
    if allow is None:
        allow = np.ones(n, dtype=bool)
    if extra is None:
        extra = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int32)
    adv = np.full(n, -1, dtype=np.int64)
    pref = np.zeros(n, dtype=np.int8)
    settled = np.zeros(n, dtype=bool)
    settled[origin_index] = True
    adv[origin_index] = 0
    pref[origin_index] = int(RoutePref.ORIGIN)

    def run_dial(
        sub_indptr: np.ndarray,
        sub_targets: np.ndarray,
        pref_value: int,
        seed_recv: np.ndarray,
        seed_send: np.ndarray,
        seed_len: np.ndarray,
    ) -> None:
        """Bucket-queue Dijkstra over unit-weight edges from the seeds.

        The pending offer set is three flat arrays; each iteration
        drains the lowest advertised length (prepended seeds can sit
        several levels up) and appends the winners' expansions at
        ``level + 1``.
        """
        pend_recv = seed_recv
        pend_send = seed_send
        pend_len = seed_len.astype(np.int64)
        while pend_recv.size:
            level = int(pend_len.min())
            at_level = pend_len == level
            recv, send = pend_recv[at_level], pend_send[at_level]
            later = ~at_level
            pend_recv, pend_send, pend_len = (
                pend_recv[later], pend_send[later], pend_len[later],
            )
            live = ~settled[recv]
            recv, send = recv[live], send[live]
            if recv.size == 0:
                continue
            pick = _winners(recv, send)
            won_recv, won_send = recv[pick], send[pick]
            settled[won_recv] = True
            parent[won_recv] = won_send
            adv[won_recv] = level
            pref[won_recv] = pref_value
            next_send, next_recv = _gather(sub_indptr, sub_targets, won_recv)
            if next_recv.size:
                open_mask = ~settled[next_recv]
                next_recv, next_send = next_recv[open_mask], next_send[open_mask]
            if next_recv.size:
                pend_recv = np.concatenate((pend_recv, next_recv))
                pend_send = np.concatenate((pend_send, next_send))
                pend_len = np.concatenate(
                    (pend_len, np.full(next_recv.size, level + 1, dtype=np.int64))
                )

    origin_node = np.asarray([origin_index], dtype=np.int32)

    # --- Phase 1: customer routes, origin upward through providers. -----
    seed_send, seed_recv = _gather(
        csr.providers_indptr, csr.providers, origin_node
    )
    keep = allow[seed_recv]
    seed_recv = seed_recv[keep]
    if seed_recv.size:
        run_dial(
            csr.providers_indptr,
            csr.providers,
            int(RoutePref.CUSTOMER),
            seed_recv,
            np.full(seed_recv.size, origin_index, dtype=np.int32),
            1 + extra[seed_recv],
        )

    # --- Phase 2: one round of peer routes. ------------------------------
    holders = np.flatnonzero(settled).astype(np.int32)
    peer_send, peer_recv = _gather(csr.peers_indptr, csr.peers, holders)
    if peer_recv.size:
        from_origin = peer_send == origin_index
        live = ~settled[peer_recv] & (allow[peer_recv] | ~from_origin)
        peer_send, peer_recv = peer_send[live], peer_recv[live]
        from_origin = from_origin[live]
        if peer_recv.size:
            lengths = adv[peer_send] + 1 + np.where(from_origin, extra[peer_recv], 0)
            pick = _winners(peer_recv, peer_send, lengths)
            won_recv, won_send = peer_recv[pick], peer_send[pick]
            settled[won_recv] = True
            parent[won_recv] = won_send
            adv[won_recv] = lengths[pick]
            pref[won_recv] = int(RoutePref.PEER)

    # --- Phase 3: provider routes, downward through customers. ----------
    holders = np.flatnonzero(settled).astype(np.int32)
    cust_send, cust_recv = _gather(csr.customers_indptr, csr.customers, holders)
    if cust_recv.size:
        from_origin = cust_send == origin_index
        live = ~settled[cust_recv] & (allow[cust_recv] | ~from_origin)
        cust_send, cust_recv = cust_send[live], cust_recv[live]
        from_origin = from_origin[live]
        if cust_recv.size:
            lengths = adv[cust_send] + 1 + np.where(from_origin, extra[cust_recv], 0)
            run_dial(
                csr.customers_indptr,
                csr.customers,
                int(RoutePref.PROVIDER),
                cust_recv,
                cust_send,
                lengths,
            )

    return parent, pref, adv


def _propagate_csr(table: RoutingTable) -> None:
    """Fill ``table._routes`` via the array core + path reconstruction."""
    graph = table.graph
    origin = table.origin
    csr = graph.csr()
    origin_index = csr.index[origin]
    allow = None
    extra = None
    if table.origin_cities is not None or table.suppressed or table.prepends:
        n = len(csr)
        allow = np.ones(n, dtype=bool)
        extra = np.zeros(n, dtype=np.int64)
        for neighbor in graph.neighbors(origin):
            j = csr.index[neighbor]
            if not table._origin_export_allowed(graph.link(origin, neighbor)):
                allow[j] = False
            prepend = int(table.prepends.get(neighbor, 0))
            if prepend:
                extra[j] = prepend
    parent, pref, adv = propagate_state(csr, origin_index, allow, extra)
    table._routes.update(
        _routes_from_state(csr, origin_index, parent, pref, adv)
    )


def _routes_from_state(
    csr: CsrAdjacency,
    origin_index: int,
    parent: np.ndarray,
    pref: np.ndarray,
    adv: np.ndarray,
) -> Dict[int, Route]:
    """Materialize :class:`Route` objects from the array state.

    Works over plain Python lists (per-element numpy scalar indexing is
    the single biggest cost of propagation otherwise) and visits nodes
    in ascending advertised length, so every node's parent path already
    exists when the node is reached — a winning offer is always one hop
    longer than its sender's own advertised length.

    Routes are built through :func:`_trusted_route`: the parent forest
    guarantees loop-free paths and consistent lengths, so re-validating
    every route would only re-derive what the construction proves.
    """
    asns = csr.asns.tolist()
    parents = parent.tolist()
    prefs = pref.tolist()
    advs = adv.tolist()
    pref_by_code = _PREF_BY_CODE
    reachable = np.flatnonzero(adv >= 0)
    order = reachable[np.argsort(adv[reachable], kind="stable")].tolist()
    origin_asn = asns[origin_index]
    paths: List[Optional[Tuple[int, ...]]] = [None] * len(asns)
    paths[origin_index] = (origin_asn,)
    routes: Dict[int, Route] = {
        origin_asn: Route(
            path=(origin_asn,), pref=RoutePref.ORIGIN, advertised_length=0
        )
    }
    for i in order:
        if i == origin_index:
            continue
        path = (asns[i],) + paths[parents[i]]
        paths[i] = path
        routes[asns[i]] = _trusted_route(path, pref_by_code[prefs[i]], advs[i])
    return routes


def _trusted_route(
    path: Tuple[int, ...],
    pref: RoutePref,
    advertised_length: int,
    _new=object.__new__,
    _set=object.__setattr__,
) -> Route:
    """Build a :class:`Route` whose invariants hold by construction.

    Skips the frozen-dataclass ``__init__``/``__post_init__`` — the
    parent forest already guarantees a loop-free path and an advertised
    length no shorter than the hop count, and the equality pin against
    the validated-route oracle in ``tests/bgp_oracle.py`` would catch
    any construction that breaks them.
    """
    route = _new(Route)
    _set(route, "path", path)
    _set(route, "pref", pref)
    _set(route, "advertised_length", advertised_length)
    return route
