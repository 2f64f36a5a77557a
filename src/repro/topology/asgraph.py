"""AS-level graph: autonomous systems, relationships, and interconnections.

The model follows the standard Gao-Rexford abstraction: edges are either
*customer-provider* (the customer pays the provider for transit) or
*peer-peer* (settlement-free exchange of each other's customer traffic).
Peering links additionally record whether they are *private* interconnects
(PNIs, dedicated capacity) or *public* exchange (IXP) links — the paper's
Figure 2 compares exactly these two classes.

Every link records the set of cities where the two ASes interconnect;
geography is what turns an AS-level path into a latency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.geo import City

#: Relationship codes in a :class:`CsrAdjacency`, from the owning node's
#: perspective: the neighbor is my customer / my peer / my provider.
REL_CUSTOMER = 0
REL_PEER = 1
REL_PROVIDER = 2


class ASRole(str, enum.Enum):
    """Coarse role of an AS in the Internet hierarchy."""

    TIER1 = "tier1"  #: Transit-free backbone; peers with all other Tier-1s.
    TRANSIT = "transit"  #: Regional/national transit provider.
    EYEBALL = "eyeball"  #: Access network hosting end users.
    STUB = "stub"  #: Enterprise/stub network, no customers.
    CONTENT = "content"  #: Content or cloud provider with its own WAN.


class Relationship(str, enum.Enum):
    """Business relationship carried by a link."""

    CUSTOMER = "customer"  #: Directional: one side is the customer.
    PEER = "peer"  #: Settlement-free peering.


class PeeringKind(str, enum.Enum):
    """How a peering link is realised physically."""

    PRIVATE = "private"  #: Private network interconnect (PNI).
    PUBLIC = "public"  #: Public exchange (IXP) fabric.


class ExitPolicy(str, enum.Enum):
    """Intra-AS forwarding policy for transit traffic.

    Early exit (hot potato) hands traffic to the next AS at the
    interconnect nearest where the traffic entered; late exit (cold potato)
    carries it on the AS's own backbone to the interconnect nearest the
    destination.  Section 3.3.2 of the paper hinges on Tier-1s doing late
    exit for cloud prefixes.
    """

    EARLY = "early"
    LATE = "late"


@dataclass(frozen=True)
class AutonomousSystem:
    """An autonomous system.

    Attributes:
        asn: AS number, unique within a graph.
        name: Human-readable label.
        role: Hierarchy role.
        cities: Cities where the AS has routers (its footprint).
        exit_policy: Hot- vs cold-potato forwarding for transit traffic.
        backbone_inflation: Multiplier (>= 1) on geodesic distance for
            intra-AS segments; well-run WANs are close to 1, patchwork
            backbones higher.
        user_weight: Relative share of Internet users hosted (eyeballs).
    """

    asn: int
    name: str
    role: ASRole
    cities: Tuple[City, ...]
    exit_policy: ExitPolicy = ExitPolicy.EARLY
    backbone_inflation: float = 1.3
    user_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise TopologyError(f"ASN must be positive, got {self.asn}")
        if not self.cities:
            raise TopologyError(f"AS {self.asn} must have at least one city")
        if not (
            math.isfinite(self.backbone_inflation) and self.backbone_inflation >= 1.0
        ):
            raise TopologyError(
                "backbone_inflation must be finite and >= 1, got "
                f"{self.backbone_inflation}"
            )
        if self.user_weight < 0:
            raise TopologyError(
                f"user_weight must be non-negative, got {self.user_weight}"
            )

    @property
    def home_city(self) -> City:
        """The AS's primary city (first in its footprint)."""
        return self.cities[0]


@dataclass(frozen=True)
class Link:
    """An adjacency between two ASes.

    For ``relationship == CUSTOMER``, ``customer_asn`` identifies which
    endpoint pays for transit; the other endpoint is the provider.  For
    peering links, ``kind`` distinguishes private interconnects from public
    exchange fabric.

    Attributes:
        a: Lower-numbered endpoint ASN.
        b: Higher-numbered endpoint ASN.
        relationship: CUSTOMER or PEER.
        cities: Cities where the two ASes interconnect (at least one).
        kind: Physical realisation; meaningful for peering links (transit
            links are conventionally PRIVATE).
        customer_asn: The paying side for CUSTOMER links, else ``None``.
        capacity_gbps: Aggregate capacity across the interconnects; used by
            the capacity-aware peering-reduction study.
    """

    a: int
    b: int
    relationship: Relationship
    cities: Tuple[City, ...]
    kind: PeeringKind = PeeringKind.PRIVATE
    customer_asn: Optional[int] = None
    capacity_gbps: float = 100.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise TopologyError(f"self-link on AS {self.a}")
        if self.a > self.b:
            raise TopologyError("Link endpoints must be ordered a < b")
        if not self.cities:
            raise TopologyError(
                f"link {self.a}-{self.b} must interconnect in at least one city"
            )
        if self.capacity_gbps <= 0:
            raise TopologyError(
                f"link {self.a}-{self.b} capacity must be positive"
            )
        if self.relationship is Relationship.CUSTOMER:
            if self.customer_asn not in (self.a, self.b):
                raise TopologyError(
                    f"link {self.a}-{self.b}: customer_asn must be an endpoint"
                )
        elif self.customer_asn is not None:
            raise TopologyError(
                f"link {self.a}-{self.b}: peer link cannot have a customer"
            )

    @property
    def provider_asn(self) -> Optional[int]:
        """The provider side of a CUSTOMER link, else ``None``."""
        if self.relationship is not Relationship.CUSTOMER:
            return None
        return self.b if self.customer_asn == self.a else self.a

    def other(self, asn: int) -> int:
        """The endpoint opposite ``asn``."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise TopologyError(f"AS {asn} is not an endpoint of {self.a}-{self.b}")

    def key(self) -> Tuple[int, int]:
        """Canonical dictionary key for this adjacency."""
        return (self.a, self.b)


def link_between(
    x: int,
    y: int,
    relationship: Relationship,
    cities: Iterable[City],
    kind: PeeringKind = PeeringKind.PRIVATE,
    customer_asn: Optional[int] = None,
    capacity_gbps: float = 100.0,
) -> Link:
    """Build a :class:`Link` from endpoints in either order."""
    a, b = (x, y) if x < y else (y, x)
    return Link(
        a=a,
        b=b,
        relationship=relationship,
        cities=tuple(cities),
        kind=kind,
        customer_asn=customer_asn,
        capacity_gbps=capacity_gbps,
    )


class CsrAdjacency:
    """Read-only CSR (compressed sparse row) view of an :class:`ASGraph`.

    Nodes are indexed by *sorted ASN* — index order and ASN order agree,
    so propagation's lowest-index tie-break is the lowest-ASN
    tie-break of BGP selection.  The four core arrays are::

        asns[i]                       ASN of node i (int32, ascending)
        indptr[i] : indptr[i + 1]     node i's slice of ``neighbors``
        neighbors[k]                  neighbor *node index* (int32)
        rel[k]                        REL_CUSTOMER/REL_PEER/REL_PROVIDER,
                                      from node i's perspective (int8)

    Within each node's slice, neighbors are sorted by index (= ASN).
    Per-relationship sub-CSRs (``providers``/``peers``/``customers``
    with matching ``*_indptr``) are derived on construction, so the
    three Gao-Rexford phases each get a contiguous edge set.

    The four core arrays are a complete serialization: reconstructing
    from them (e.g. out of a shared-memory segment) rebuilds the same
    view without touching the originating graph.
    """

    __slots__ = (
        "asns",
        "indptr",
        "neighbors",
        "rel",
        "index",
        "providers_indptr",
        "providers",
        "peers_indptr",
        "peers",
        "customers_indptr",
        "customers",
    )

    def __init__(
        self,
        asns: np.ndarray,
        indptr: np.ndarray,
        neighbors: np.ndarray,
        rel: np.ndarray,
    ):
        self.asns = asns
        self.indptr = indptr
        self.neighbors = neighbors
        self.rel = rel
        self.index = {int(asn): i for i, asn in enumerate(asns)}
        n = len(asns)
        owner = np.repeat(
            np.arange(n, dtype=np.int32), np.diff(indptr).astype(np.int64)
        )
        for code, name in (
            (REL_PROVIDER, "providers"),
            (REL_PEER, "peers"),
            (REL_CUSTOMER, "customers"),
        ):
            mask = rel == code
            counts = np.bincount(owner[mask], minlength=n)
            sub_indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(counts, out=sub_indptr[1:])
            setattr(self, f"{name}_indptr", sub_indptr)
            setattr(self, name, neighbors[mask])

    def __len__(self) -> int:
        return len(self.asns)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The four core arrays, keyed for shared-memory shipment."""
        return {
            "asns": self.asns,
            "indptr": self.indptr,
            "neighbors": self.neighbors,
            "rel": self.rel,
        }

    @classmethod
    def from_arrays(cls, arrays: "Dict[str, np.ndarray]") -> "CsrAdjacency":
        """Rebuild a view from :meth:`arrays` output (zero-copy safe)."""
        try:
            return cls(
                arrays["asns"], arrays["indptr"], arrays["neighbors"], arrays["rel"]
            )
        except KeyError as exc:
            raise TopologyError(f"CSR arrays missing key {exc}") from None


@dataclass
class ASGraph:
    """A mutable AS-level topology.

    The graph is built by generators (or tests) via :meth:`add_as` and
    :meth:`add_link`, then treated as read-only by the BGP simulator and
    latency model.
    """

    _ases: Dict[int, AutonomousSystem] = field(default_factory=dict)
    _links: Dict[Tuple[int, int], Link] = field(default_factory=dict)
    _adjacency: Dict[int, List[int]] = field(default_factory=dict)
    _csr: Optional[CsrAdjacency] = field(
        default=None, repr=False, compare=False
    )
    # Converged opening phases of the routing scenarios, owned by
    # repro.bgp.scenarios and dropped with the CSR view on any mutation.
    _baselines: Optional[Dict[Any, Any]] = field(
        default=None, repr=False, compare=False
    )
    # Forwarding exit cities, owned by repro.netmodel.paths and dropped
    # with the CSR view on any mutation.
    _exits: Optional[Dict[Any, City]] = field(
        default=None, repr=False, compare=False
    )

    # --- construction -------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> None:
        """Add an AS; raises :class:`TopologyError` on a duplicate ASN."""
        if asys.asn in self._ases:
            raise TopologyError(f"duplicate ASN {asys.asn}")
        self._ases[asys.asn] = asys
        self._adjacency[asys.asn] = []
        self._csr = None
        self._baselines = None
        self._exits = None

    def add_link(self, link: Link) -> None:
        """Add a link; both endpoints must exist and not already be linked."""
        for endpoint in (link.a, link.b):
            if endpoint not in self._ases:
                raise TopologyError(f"link references unknown AS {endpoint}")
        if link.key() in self._links:
            raise TopologyError(f"duplicate link {link.a}-{link.b}")
        self._links[link.key()] = link
        self._adjacency[link.a].append(link.b)
        self._adjacency[link.b].append(link.a)
        self._csr = None
        self._baselines = None
        self._exits = None

    def remove_link(self, x: int, y: int) -> Link:
        """Remove and return the link between ``x`` and ``y``.

        Used by the peering-reduction study to emulate de-peering.
        """
        key = (x, y) if x < y else (y, x)
        link = self._links.pop(key, None)
        if link is None:
            raise TopologyError(f"no link between {x} and {y}")
        self._adjacency[link.a].remove(link.b)
        self._adjacency[link.b].remove(link.a)
        self._csr = None
        self._baselines = None
        self._exits = None
        return link

    # --- queries ------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def ases(self) -> Iterator[AutonomousSystem]:
        """Iterate over all ASes in insertion order."""
        return iter(self._ases.values())

    def links(self) -> Iterator[Link]:
        """Iterate over all links in insertion order."""
        return iter(self._links.values())

    def get(self, asn: int) -> AutonomousSystem:
        """Return the AS with number ``asn``."""
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def link(self, x: int, y: int) -> Link:
        """Return the link between ``x`` and ``y``."""
        key = (x, y) if x < y else (y, x)
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link between {x} and {y}") from None

    def has_link(self, x: int, y: int) -> bool:
        """Whether an adjacency exists between ``x`` and ``y``."""
        key = (x, y) if x < y else (y, x)
        return key in self._links

    def neighbors(self, asn: int) -> List[int]:
        """All ASes adjacent to ``asn`` (any relationship)."""
        if asn not in self._adjacency:
            raise TopologyError(f"unknown AS {asn}")
        return list(self._adjacency[asn])

    def providers(self, asn: int) -> List[int]:
        """ASes that sell transit to ``asn``."""
        return [
            n
            for n in self.neighbors(asn)
            if self.link(asn, n).relationship is Relationship.CUSTOMER
            and self.link(asn, n).customer_asn == asn
        ]

    def customers(self, asn: int) -> List[int]:
        """ASes that buy transit from ``asn``."""
        return [
            n
            for n in self.neighbors(asn)
            if self.link(asn, n).relationship is Relationship.CUSTOMER
            and self.link(asn, n).customer_asn == n
        ]

    def peers(self, asn: int) -> List[int]:
        """Settlement-free peers of ``asn``."""
        return [
            n
            for n in self.neighbors(asn)
            if self.link(asn, n).relationship is Relationship.PEER
        ]

    def csr(self) -> CsrAdjacency:
        """The cached CSR view of this graph, building it on first use.

        The view is invalidated by any mutation (:meth:`add_as`,
        :meth:`add_link`, :meth:`remove_link`) and rebuilt lazily, so
        repeated propagations over an unchanged graph pay the build
        cost once.
        """
        if self._csr is None:
            self._csr = self._build_csr()
        return self._csr

    def _build_csr(self) -> CsrAdjacency:
        asns_sorted = sorted(self._ases)
        index = {asn: i for i, asn in enumerate(asns_sorted)}
        n = len(asns_sorted)
        indptr = np.zeros(n + 1, dtype=np.int32)
        neighbors: List[int] = []
        rel: List[int] = []
        for i, asn in enumerate(asns_sorted):
            for nb in sorted(self._adjacency[asn]):
                link = self._links[(asn, nb) if asn < nb else (nb, asn)]
                if link.relationship is Relationship.PEER:
                    code = REL_PEER
                elif link.customer_asn == nb:
                    code = REL_CUSTOMER
                else:
                    code = REL_PROVIDER
                neighbors.append(index[nb])
                rel.append(code)
            indptr[i + 1] = len(neighbors)
        return CsrAdjacency(
            asns=np.asarray(asns_sorted, dtype=np.int32),
            indptr=indptr,
            neighbors=np.asarray(neighbors, dtype=np.int32),
            rel=np.asarray(rel, dtype=np.int8),
        )

    def customer_cone(self, asn: int) -> frozenset:
        """The set of ASes reachable from ``asn`` via customer links only.

        Includes ``asn`` itself.  A peer exports exactly the prefixes of
        its customer cone, so this determines route visibility.
        """
        cone = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for customer in self.customers(current):
                if customer not in cone:
                    cone.add(customer)
                    frontier.append(customer)
        return frozenset(cone)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`TopologyError`.

        Verifies that the customer-provider relation is acyclic (no AS is
        transitively its own provider), which Gao-Rexford stability relies
        on.
        """
        # One pass over the links gives each AS's provider count and its
        # customers in neighbour order (links and adjacency lists share
        # insertion order).
        in_degree = dict.fromkeys(self._ases, 0)
        customers: Dict[int, List[int]] = {asn: [] for asn in self._ases}
        for link in self._links.values():
            if link.relationship is Relationship.CUSTOMER:
                customer = link.customer_asn
                provider = link.b if customer == link.a else link.a
                in_degree[customer] += 1
                customers[provider].append(customer)
        # Kahn's algorithm on the provider -> customer DAG.
        queue = [asn for asn, deg in in_degree.items() if deg == 0]
        seen = 0
        while queue:
            current = queue.pop()
            seen += 1
            for customer in customers[current]:
                in_degree[customer] -= 1
                if in_degree[customer] == 0:
                    queue.append(customer)
        if seen != len(self._ases):
            raise TopologyError("customer-provider relation contains a cycle")
