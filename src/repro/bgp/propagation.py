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

:func:`propagate_states` runs the phases for a block of origins in one
pass: origin ``r``'s copy of node ``i`` is batch node ``r·n + i``, so
every numpy call of the frontier serves the whole block while no offer
ever leaves its row.  :func:`propagate_many` (the entry point the
edgefabric / cdn / cloudtiers planes use to compute all their tables in
one call) and :func:`propagate` (a batch of one) both go through it.
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

from repro.errors import RoutingError, require_int
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
) -> Dict[int, int]:
    """Reject grooming keys that are not neighbors of the origin.

    A typo'd grooming plan must fail loudly — silently ignoring an
    unknown neighbor turns an intended traffic shift into a no-op.  So
    must a prepend count that is not a whole number of hops.

    Returns:
        ``prepends`` with every count as a plain ``int``.
    """
    counts = {}
    for neighbor, count in prepends.items():
        count = require_int(count, "prepend count", RoutingError)
        if count < 0:
            raise RoutingError(f"prepend count must be >= 0, got {count}")
        counts[neighbor] = count
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
    return counts


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
        RoutingError: if ``origin`` is not an integer or not in the
            graph, or a ``prepends`` / ``suppressed`` key is not one of
            its neighbors, or a prepend count is not an integer >= 0.
    """
    request = PropagationRequest(
        origin, origin_cities, prepends or {}, suppressed or frozenset()
    )
    return _propagate_requests(graph, [request])[0]


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

    Bare ints are origins with no grooming.  Every request is checked
    before any table is computed; the tables then come from one
    :func:`propagate_states` pass per block of origins over the graph's
    cached CSR adjacency.
    """
    normalized = [
        req if isinstance(req, PropagationRequest) else PropagationRequest(req)
        for req in requests
    ]
    with span("bgp.propagate_many", n_requests=len(normalized)):
        return _propagate_requests(graph, normalized)


def _propagate_requests(
    graph: ASGraph, requests: Sequence[PropagationRequest]
) -> List[RoutingTable]:
    """Validate every request, then fill all their tables in one batch."""
    tables = []
    for req in requests:
        origin = require_int(req.origin, "origin", RoutingError)
        if origin not in graph:
            raise RoutingError(f"origin AS {origin} not in graph")
        suppressed = frozenset(req.suppressed or ())
        tables.append(
            RoutingTable(
                graph=graph,
                origin=origin,
                origin_cities=(
                    frozenset(req.origin_cities) if req.origin_cities else None
                ),
                prepends=_validate_grooming(
                    graph, origin, req.prepends or {}, suppressed
                ),
                suppressed=suppressed,
            )
        )
    csr = graph.csr()
    origins = [csr.index[table.origin] for table in tables]
    groomed = [
        (row, table)
        for row, table in enumerate(tables)
        if table.origin_cities is not None or table.suppressed or table.prepends
    ]
    allow = extra = None
    if groomed:
        allow = np.ones((len(tables), len(csr)), dtype=bool)
        extra = np.zeros((len(tables), len(csr)), dtype=np.int64)
    for row, table in groomed:
        for neighbor in graph.neighbors(table.origin):
            j = csr.index[neighbor]
            link = graph.link(table.origin, neighbor)
            allow[row, j] = table._origin_export_allowed(link)
            extra[row, j] = table.prepends.get(neighbor, 0)
    parent, pref, adv = propagate_states(csr, origins, allow, extra)
    for row, table in enumerate(tables):
        table._routes.update(
            _routes_from_state(csr, origins[row], parent[row], pref[row], adv[row])
        )
    return tables


# --- CSR construction ---------------------------------------------------

_EMPTY_I32 = np.empty(0, dtype=np.int32)

_PREF_BY_CODE = {int(p): p for p in RoutePref}

#: Most origins one pass of :func:`propagate_states` carries.  Pending
#: offers grow with origins × edges, so a longer batch runs in blocks.
_BLOCK = 128


def _gather(
    indptr: np.ndarray, targets: np.ndarray, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``: ``(senders, receivers)``.

    ``senders[k]`` is the node whose row ``receivers[k]`` came from —
    one entry per (node, neighbor) edge, in row order.
    """
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return _EMPTY_I32, _EMPTY_I32
    positions = np.repeat(starts - (ends - counts), counts) + np.arange(total)
    return np.repeat(nodes, counts), targets[positions]


def _tile(
    indptr: np.ndarray, targets: np.ndarray, rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``rows`` diagonal copies of a CSR over ``n`` nodes.

    Node ``i`` of copy ``r`` is batch node ``r·n + i`` and its
    neighbours are ``r·n + j`` for each ``j`` in CSR row ``i``, so no
    edge leaves its copy.
    """
    if rows == 1:
        return indptr, targets
    shift = np.arange(rows, dtype=np.int32)[:, None]
    starts = indptr[:-1] + targets.size * shift
    return (
        np.append(starts.ravel(), rows * targets.size),
        (targets + (indptr.size - 1) * shift).ravel(),
    )


def _winners(
    receivers: np.ndarray,
    senders: np.ndarray,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Indices of the winning offer per receiver.

    The winner minimises ``(advertised_length, sender)`` — within one
    bucket level lengths are all equal, so the key degenerates to the
    lowest sender (= lowest next-hop ASN, since CSR index order is ASN
    order, and every offer to a batch node comes from its own row).
    Phase 2 passes explicit ``lengths`` because its one batch mixes
    levels.
    """
    keys = (senders, receivers) if lengths is None else (senders, lengths, receivers)
    order = np.lexsort(keys)
    sorted_receivers = receivers[order]
    first = np.ones(sorted_receivers.size, dtype=bool)
    first[1:] = sorted_receivers[1:] != sorted_receivers[:-1]
    return order[first]


def propagate_states(
    csr: CsrAdjacency,
    origins: Sequence[int],
    allow: Optional[np.ndarray] = None,
    extra: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the three Gao-Rexford phases for many origins over CSR arrays.

    This is the array core of :func:`propagate_many`, usable without an
    :class:`~repro.topology.ASGraph` at all — e.g. by campaign workers
    that reconstruct the CSR view from shared memory.  Row ``r`` of each
    result is exactly the state a one-origin call for ``origins[r]``
    returns: offers never leave their row, winners are picked per batch
    node, and every row drains its levels in ascending order.

    Args:
        csr: The adjacency view; node indices are positions in
            ``csr.asns``.
        origins: Node indices (not ASNs) of the originating ASes, one
            per row.
        allow: Optional bool array of shape ``(len(origins), n)``;
            ``allow[r, j]`` False means origin ``r`` does not announce to
            neighbor ``j`` (suppression or city scoping).  Consulted on
            origin edges only.
        extra: Optional int array of the same shape; ``extra[r, j]`` is
            origin ``r``'s prepend count (>= 0) toward neighbor ``j``.
            Applied on origin edges only.

    Returns:
        ``(parent, pref, adv)`` int arrays of shape ``(len(origins), n)``:
        the winning sender index (-1 at the origin and for unreachable
        nodes), the :class:`RoutePref` value (0 where unreachable), and
        the advertised length (-1 where unreachable).  A node is
        reachable iff ``adv >= 0``.
    """
    origins = np.asarray(origins, dtype=np.int32).reshape(-1)
    shape = (origins.size, len(csr))
    if allow is not None or extra is not None:
        allow = np.ones(shape, bool) if allow is None else np.asarray(allow, bool)
        extra = np.zeros(shape, np.int64) if extra is None else np.asarray(extra)
    parent = np.full(shape, -1, dtype=np.int32)
    pref = np.zeros(shape, dtype=np.int8)
    adv = np.full(shape, -1, dtype=np.int64)
    for lo in range(0, origins.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        _propagate_block(
            csr,
            origins[rows],
            None if allow is None else (allow[rows].ravel(), extra[rows].ravel()),
            parent[rows].ravel(),
            pref[rows].ravel(),
            adv[rows].ravel(),
        )
    return parent, pref, adv


def _propagate_block(
    csr: CsrAdjacency,
    origins: np.ndarray,
    grooming: Optional[Tuple[np.ndarray, np.ndarray]],
    parent: np.ndarray,
    pref: np.ndarray,
    adv: np.ndarray,
) -> None:
    """One pass of :func:`propagate_states` over flat batch-node arrays.

    Each row gets its own diagonal copy of the three sub-CSRs, so row
    ``r``'s node ``i`` is batch node ``r·n + i``.  ``parent``/``pref``/
    ``adv`` are flat views of the block's output rows, written in
    place; ``grooming`` is the flat ``(allow, extra)`` pair, or ``None``
    when no origin grooms its announcement.
    """
    n = len(csr)
    rows = origins.size
    providers = _tile(csr.providers_indptr, csr.providers, rows)
    peers = _tile(csr.peers_indptr, csr.peers, rows)
    customers = _tile(csr.customers_indptr, csr.customers, rows)
    roots = origins + n * np.arange(rows, dtype=np.int32)
    settled = np.zeros(adv.size, dtype=bool)
    settled[roots] = True
    adv[roots] = 0
    pref[roots] = int(RoutePref.ORIGIN)

    def settle(won_recv, won_send, lengths, pref_value) -> None:
        settled[won_recv] = True
        parent[won_recv] = won_send
        adv[won_recv] = lengths
        pref[won_recv] = pref_value

    def run_dial(
        sub_csr: Tuple[np.ndarray, np.ndarray],
        pref_value: int,
        pend_send: np.ndarray,
        pend_recv: np.ndarray,
        pend_len: np.ndarray,
    ) -> None:
        """Bucket-queue Dijkstra over unit-weight edges from the seeds.

        The pending offer set is three flat arrays; each iteration
        drains the lowest advertised length (prepended seeds can sit
        several levels up) and appends the winners' expansions at
        ``level + 1``.
        """
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
            won_recv = recv[pick]
            settle(won_recv, send[pick], level, pref_value)
            next_send, next_recv = _gather(*sub_csr, won_recv)
            if next_recv.size:
                open_mask = ~settled[next_recv]
                next_recv, next_send = next_recv[open_mask], next_send[open_mask]
            if next_recv.size:
                pend_recv = np.concatenate((pend_recv, next_recv))
                pend_send = np.concatenate((pend_send, next_send))
                pend_len = np.concatenate(
                    (pend_len, np.full(next_recv.size, level + 1, dtype=np.int64))
                )

    def offers(sub_csr: Tuple[np.ndarray, np.ndarray], holders: np.ndarray):
        """``(senders, receivers, lengths)`` of every offer ``holders``
        may make to an unsettled neighbour: an origin skips the
        neighbours it does not announce to, and prepends toward the
        rest."""
        send, recv = _gather(*sub_csr, holders.astype(np.int32))
        live = ~settled[recv]
        prepends = 0
        if grooming is not None:
            allow, extra = grooming
            from_origin = adv[send] == 0  # only an origin advertises length 0
            live &= allow[recv] | ~from_origin
            prepends = np.where(from_origin, extra[recv], 0)[live]
        send, recv = send[live], recv[live]
        return send, recv, adv[send] + 1 + prepends

    # --- Phase 1: customer routes, origin upward through providers. -----
    run_dial(providers, int(RoutePref.CUSTOMER), *offers(providers, roots))

    # --- Phase 2: one round of peer routes. ------------------------------
    peer_send, peer_recv, lengths = offers(peers, np.flatnonzero(settled))
    if peer_recv.size:
        pick = _winners(peer_recv, peer_send, lengths)
        settle(peer_recv[pick], peer_send[pick], lengths[pick], int(RoutePref.PEER))

    # --- Phase 3: provider routes, downward through customers. ----------
    run_dial(
        customers, int(RoutePref.PROVIDER), *offers(customers, np.flatnonzero(settled))
    )
    # Winning senders are batch nodes; the result holds node indices.
    if rows > 1:
        np.remainder(parent, n, out=parent, where=parent >= 0)


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
