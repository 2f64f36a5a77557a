"""Synthetic Internet generator.

Builds a tiered AS-level topology around one content/cloud provider:

* a clique of Tier-1 backbones with worldwide footprints,
* regional transit providers buying from the Tier-1s,
* eyeball (access) networks buying from regional transits, hosting the
  user population,
* the provider itself, with PoPs worldwide, a private WAN backbone,
  transit from several Tier-1s, private interconnects (PNIs) to large
  eyeballs, and public exchange peering at IXP cities.

The construction is deterministic given the seed in
:class:`TopologyConfig`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError, TopologyError, require_int
from repro.obs.trace import gauge, traced
from repro.geo import (
    CITY_DISTANCES,
    City,
    Region,
    WORLD_CITIES,
    cities_by_country,
    city_named,
)
from repro.topology.asgraph import (
    ASGraph,
    ASRole,
    AutonomousSystem,
    ExitPolicy,
    PeeringKind,
    Relationship,
    link_between,
)
from repro.topology.wan import PointOfPresence, PrivateWan

logger = logging.getLogger(__name__)

#: Default provider PoP cities and codes, roughly Google/Facebook-like.
DEFAULT_POP_CITIES: Tuple[Tuple[str, str], ...] = (
    ("iad", "Ashburn"),
    ("lga", "New York"),
    ("ord", "Chicago"),
    ("cbf", "Council Bluffs"),
    ("dfw", "Dallas"),
    ("mia", "Miami"),
    ("lax", "Los Angeles"),
    ("sfo", "San Francisco"),
    ("sea", "Seattle"),
    ("yyz", "Toronto"),
    ("gru", "Sao Paulo"),
    ("eze", "Buenos Aires"),
    ("lhr", "London"),
    ("cdg", "Paris"),
    ("fra", "Frankfurt"),
    ("ams", "Amsterdam"),
    ("mad", "Madrid"),
    ("mxp", "Milan"),
    ("arn", "Stockholm"),
    ("dxb", "Dubai"),
    ("bom", "Mumbai"),
    ("maa", "Chennai"),
    ("sin", "Singapore"),
    ("hkg", "Hong Kong"),
    ("tpe", "Taipei"),
    ("nrt", "Tokyo"),
    ("icn", "Seoul"),
    ("syd", "Sydney"),
    ("jnb", "Johannesburg"),
    # Regional edge PoPs (large providers run 100+ edge sites; these keep
    # most users within a few hundred km of a PoP).
    ("atl", "Atlanta"),
    ("den", "Denver"),
    ("yvr", "Vancouver"),
    ("yul", "Montreal"),
    ("mex", "Mexico City"),
    ("bog", "Bogota"),
    ("lim", "Lima"),
    ("scl", "Santiago"),
    ("dub", "Dublin"),
    ("bru", "Brussels"),
    ("zrh", "Zurich"),
    ("vie", "Vienna"),
    ("prg", "Prague"),
    ("cph", "Copenhagen"),
    ("waw", "Warsaw"),
    ("mow", "Moscow"),
    ("ist", "Istanbul"),
    ("tlv", "Tel Aviv"),
    ("cai", "Cairo"),
    ("los", "Lagos"),
    ("nbo", "Nairobi"),
    ("cpt", "Cape Town"),
    ("del", "Delhi"),
    ("blr", "Bangalore"),
    ("khi", "Karachi"),
    ("bkk", "Bangkok"),
    ("kul", "Kuala Lumpur"),
    ("cgk", "Jakarta"),
    ("mnl", "Manila"),
    ("kix", "Osaka"),
    ("mel", "Melbourne"),
    ("akl", "Auckland"),
)

#: Default WAN backbone adjacency (pairs of PoP codes).  Deliberately
#: mirrors the cable layout that drives Section 3.3.2: India reaches the
#: rest of the WAN only via Singapore and the Pacific — there is no
#: westward India-Europe backbone — so WAN traffic from India to the US
#: goes the long way east, while the public Internet's Tier-1s go west.
DEFAULT_WAN_BACKBONE: Tuple[Tuple[str, str], ...] = (
    # North America
    ("iad", "lga"),
    ("iad", "ord"),
    ("iad", "mia"),
    ("lga", "ord"),
    ("ord", "cbf"),
    ("cbf", "dfw"),
    ("cbf", "sfo"),
    ("dfw", "mia"),
    ("dfw", "lax"),
    ("lax", "sfo"),
    ("sfo", "sea"),
    ("yyz", "ord"),
    ("yyz", "lga"),
    # South America
    ("mia", "gru"),
    ("gru", "eze"),
    # Transatlantic
    ("lga", "lhr"),
    ("lga", "cdg"),
    ("mia", "mad"),
    # Europe
    ("lhr", "cdg"),
    ("lhr", "ams"),
    ("lhr", "mad"),
    ("ams", "fra"),
    ("cdg", "fra"),
    ("cdg", "mad"),
    ("fra", "mxp"),
    ("fra", "arn"),
    ("mad", "mxp"),
    # Europe <-> Middle East / Africa
    ("fra", "dxb"),
    ("lhr", "jnb"),
    # Middle East <-> Asia (no India-Europe link, see module docstring)
    ("dxb", "sin"),
    # Asia
    ("bom", "maa"),
    ("bom", "sin"),
    ("maa", "sin"),
    ("sin", "hkg"),
    ("hkg", "tpe"),
    ("hkg", "nrt"),
    ("tpe", "nrt"),
    ("nrt", "icn"),
    # Transpacific
    ("nrt", "sea"),
    ("nrt", "sfo"),
    ("tpe", "lax"),
    ("hkg", "lax"),
    # Oceania
    ("syd", "sin"),
    ("syd", "lax"),
    # Regional spurs.  India (del/blr/khi) stays attached via the
    # subcontinent cluster only — no westward WAN edge (see above).
    ("atl", "iad"),
    ("atl", "mia"),
    ("atl", "dfw"),
    ("den", "cbf"),
    ("den", "dfw"),
    ("den", "sfo"),
    ("yvr", "sea"),
    ("yul", "yyz"),
    ("yul", "lga"),
    ("mex", "dfw"),
    ("mex", "lax"),
    ("bog", "mia"),
    ("bog", "lim"),
    ("lim", "scl"),
    ("scl", "eze"),
    ("dub", "lhr"),
    ("bru", "ams"),
    ("bru", "cdg"),
    ("zrh", "fra"),
    ("zrh", "mxp"),
    ("vie", "fra"),
    ("vie", "mxp"),
    ("prg", "fra"),
    ("cph", "ams"),
    ("cph", "arn"),
    ("waw", "fra"),
    ("waw", "arn"),
    ("mow", "arn"),
    ("mow", "waw"),
    ("ist", "fra"),
    ("ist", "mxp"),
    ("tlv", "mxp"),
    ("tlv", "cai"),
    ("cai", "mxp"),
    ("cai", "dxb"),
    ("los", "lhr"),
    ("los", "jnb"),
    ("nbo", "jnb"),
    ("nbo", "dxb"),
    ("cpt", "jnb"),
    ("del", "bom"),
    ("blr", "maa"),
    ("blr", "bom"),
    ("khi", "bom"),
    ("bkk", "sin"),
    ("kul", "sin"),
    ("cgk", "sin"),
    ("mnl", "hkg"),
    ("mnl", "sin"),
    ("kix", "nrt"),
    ("kix", "hkg"),
    ("mel", "syd"),
    ("akl", "syd"),
)

#: Cities hosting public Internet exchanges in the model.
DEFAULT_IXP_CITY_NAMES: Tuple[str, ...] = (
    "Amsterdam",
    "Frankfurt",
    "London",
    "Paris",
    "Stockholm",
    "Madrid",
    "Milan",
    "Ashburn",
    "New York",
    "Chicago",
    "Dallas",
    "Miami",
    "San Francisco",
    "Los Angeles",
    "Seattle",
    "Toronto",
    "Sao Paulo",
    "Buenos Aires",
    "Singapore",
    "Hong Kong",
    "Tokyo",
    "Seoul",
    "Mumbai",
    "Chennai",
    "Sydney",
    "Melbourne",
    "Auckland",
    "Johannesburg",
    "Cape Town",
    "Lagos",
    "Nairobi",
    "Cairo",
    "Dubai",
    "Tel Aviv",
    "Istanbul",
    "Moscow",
    "Warsaw",
    "Vienna",
    "Prague",
    "Copenhagen",
    "Dublin",
    "Zurich",
    "Brussels",
    "Delhi",
    "Bangalore",
    "Karachi",
    "Bangkok",
    "Kuala Lumpur",
    "Jakarta",
    "Manila",
    "Osaka",
    "Mexico City",
    "Montreal",
    "Vancouver",
    "Atlanta",
    "Denver",
    "Santiago",
    "Bogota",
    "Lima",
)

#: ASN blocks, chosen for readability in debug output.
PROVIDER_ASN = 1
TIER1_ASN_BASE = 10
TRANSIT_ASN_BASE = 100
EYEBALL_ASN_BASE = 1000


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters of the synthetic Internet.

    Attributes:
        seed: Seed for all randomness in the construction.
        n_tier1: Number of Tier-1 backbones (fully meshed clique).
        n_transit: Number of regional transit providers.
        n_eyeball: Target number of eyeball/access networks; the realised
            count can be higher because every country in the cities
            dataset gets at least one eyeball.
        pop_cities: ``(code, city name)`` pairs for the provider's PoPs.
        wan_backbone: Explicit backbone adjacency over PoP codes, each
            edge two distinct codes of ``pop_cities``; when ``None`` and
            the default PoP set is used, the curated default backbone
            applies, otherwise a nearest-neighbour mesh is built.
        dc_pop_code: PoP hosting the provider's (cloud) data center.
        ixp_city_names: Cities with a public exchange fabric.
        provider_transit_count: How many Tier-1s the provider buys from.
        pni_fraction: Fraction of eyeballs with a private interconnect to
            the provider (largest eyeballs first).
        public_peering_fraction: Fraction of remaining eyeballs that peer
            with the provider over a public exchange when colocated.
        transit_public_peering_prob: Probability a transit peers with the
            provider at a shared IXP city.
        transit_mesh_prob: Probability two same-region transits peer.
        eyeball_tier1_prob: Probability an eyeball also buys transit
            directly from a Tier-1.
        remote_peering_fraction: Fraction of the provider's *public*
            peerings realised as remote peering: the eyeball reaches the
            exchange through a layer-2 reseller, so the interconnect city
            can be far from its users.  BGP still prefers the direct peer
            route (shortest AS path), which is the classic mechanism that
            sends anycast clients to distant front-ends [Li et al. 2018].
        tier1_late_exit_fraction: Fraction of Tier-1s using late-exit
            (cold potato) forwarding; Section 3.3.2's discussion.
        tier1_inflation: Backbone inflation for Tier-1s.
        transit_inflation: Backbone inflation for regional transits.
        eyeball_inflation: Backbone inflation for eyeballs.
        wan_inflation: Backbone inflation for the provider WAN edges.
    """

    seed: int = 0
    n_tier1: int = 8
    n_transit: int = 56
    n_eyeball: int = 160
    pop_cities: Tuple[Tuple[str, str], ...] = DEFAULT_POP_CITIES
    wan_backbone: Optional[Tuple[Tuple[str, str], ...]] = None
    dc_pop_code: str = "cbf"
    ixp_city_names: Tuple[str, ...] = DEFAULT_IXP_CITY_NAMES
    provider_transit_count: int = 3
    pni_fraction: float = 0.45
    public_peering_fraction: float = 0.30
    transit_public_peering_prob: float = 0.5
    transit_mesh_prob: float = 0.25
    eyeball_tier1_prob: float = 0.10
    remote_peering_fraction: float = 0.08
    tier1_late_exit_fraction: float = 0.0
    tier1_inflation: float = 1.35
    transit_inflation: float = 1.5
    eyeball_inflation: float = 1.6
    wan_inflation: float = 1.08

    def __post_init__(self) -> None:
        for name in (
            "seed",
            "n_tier1",
            "n_transit",
            "n_eyeball",
            "provider_transit_count",
        ):
            value = require_int(getattr(self, name), name, TopologyError)
            object.__setattr__(self, name, value)
        if self.seed < 0:
            raise TopologyError(f"seed must be >= 0, got {self.seed}")
        if self.n_tier1 < 1:
            raise TopologyError("need at least one Tier-1")
        if self.n_transit < 1:
            raise TopologyError("need at least one transit")
        if self.n_eyeball < 1:
            raise TopologyError("need at least one eyeball")
        if self.provider_transit_count < 0:
            raise TopologyError(
                "provider_transit_count must be >= 0, got "
                f"{self.provider_transit_count}"
            )
        for name in (
            "tier1_inflation",
            "transit_inflation",
            "eyeball_inflation",
            "wan_inflation",
        ):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 1.0):
                raise TopologyError(f"{name} must be finite and >= 1, got {value}")
        codes = [code for code, _ in self.pop_cities]
        if len(set(codes)) != len(codes):
            raise TopologyError("duplicate PoP codes in pop_cities")
        if self.dc_pop_code not in codes:
            raise TopologyError(
                f"dc_pop_code {self.dc_pop_code!r} is not among pop_cities"
            )
        code_set = set(codes)
        for edge in self.wan_backbone or ():
            ends = tuple(edge) if isinstance(edge, (tuple, list)) else ()
            if len(ends) != 2 or ends[0] == ends[1] or not set(ends) <= code_set:
                raise TopologyError(
                    "wan_backbone edges must join two distinct pop_cities "
                    f"codes, got {edge!r}"
                )
        for name, cities in (
            ("pop_cities", [city for _, city in self.pop_cities]),
            ("ixp_city_names", self.ixp_city_names),
        ):
            for city in cities:
                try:
                    city_named(city)
                except AnalysisError:
                    raise TopologyError(
                        f"{name} names an unknown city: {city!r}"
                    ) from None
        for fraction in (
            self.pni_fraction,
            self.public_peering_fraction,
            self.remote_peering_fraction,
            self.transit_public_peering_prob,
            self.transit_mesh_prob,
            self.eyeball_tier1_prob,
            self.tier1_late_exit_fraction,
        ):
            if not 0.0 <= fraction <= 1.0:
                raise TopologyError(f"fraction out of [0, 1]: {fraction}")


@dataclass
class Internet:
    """A generated Internet: graph, provider, WAN, and bookkeeping.

    Attributes:
        graph: The AS-level topology.
        provider_asn: ASN of the content/cloud provider.
        wan: The provider's private WAN over its PoPs.
        tier1_asns / transit_asns / eyeball_asns: ASNs by role.
        ixp_cities: Cities with a public exchange in this instance.
        dc_pop_code: PoP code of the provider's data center.
        config: The configuration the instance was built from.
    """

    graph: ASGraph
    provider_asn: int
    wan: PrivateWan
    tier1_asns: Tuple[int, ...]
    transit_asns: Tuple[int, ...]
    eyeball_asns: Tuple[int, ...]
    ixp_cities: Tuple[City, ...]
    dc_pop_code: str
    config: TopologyConfig = field(repr=False, default_factory=TopologyConfig)

    @property
    def provider(self) -> AutonomousSystem:
        """The provider AS object."""
        return self.graph.get(self.provider_asn)

    @property
    def dc_pop(self) -> PointOfPresence:
        """The PoP hosting the provider's data center."""
        return self.wan.pop(self.dc_pop_code)


# The generator's fixed city tables, built once from the dataset in its
# order: every build draws its footprints from them.
_REGION_CITIES: Dict[Region, Tuple[City, ...]] = {
    region: tuple(c for c in WORLD_CITIES if c.region is region)
    for region in Region
}
_COUNTRIES: List[str] = sorted({c.country for c in WORLD_CITIES})
_COUNTRY_CITIES: Dict[str, List[City]] = {
    country: cities_by_country(country) for country in _COUNTRIES
}
_COUNTRY_POP: Dict[str, float] = {
    country: sum(c.population_m for c in _COUNTRY_CITIES[country])
    for country in _COUNTRIES
}
_TOTAL_POP = sum(_COUNTRY_POP.values())

# Rankings of the fixed city dataset.  None depends on a seed, so each
# is made on first use and kept for the process, keyed by city names as
# CITY_DISTANCES is, and stored as tuples, which every build shares.
# The last three grow by one entry per exchange set, candidate set or
# PoP set a process builds with.
#: region -> its transit home cities (_spread_homes)
_HOMES: Dict[Region, Tuple[City, ...]] = {}
#: home -> the cities of its region, nearest first, ties by name
_RANKED: Dict[str, Tuple[City, ...]] = {}
#: home -> km to each city of its region, in _REGION_CITIES order
_ROWS: Dict[str, Tuple[float, ...]] = {}
#: exchange city names -> home -> its region's two nearest exchanges
_HUBS: Dict[Tuple[str, ...], Dict[str, Tuple[City, ...]]] = {}
#: candidate city names -> home -> the nearest candidate
_NEAREST: Dict[Tuple[str, ...], Dict[str, City]] = {}
#: (k, PoP codes and city names) -> the nearest-mesh backbone
_MESHES: Dict[Tuple, Tuple[Tuple[str, str], ...]] = {}


def _unique(cities: Iterable[City]) -> Tuple[City, ...]:
    """``cities`` without repeats, in first-seen order.

    Names are unique in the dataset, so a name stands for its city and
    a str hash is cached, where ``City.__hash__`` is a Python call.
    """
    return tuple({c.name: c for c in cities}.values())


def _homes(region: Region) -> Tuple[City, ...]:
    homes = _HOMES.get(region)
    if homes is None:
        homes = _HOMES[region] = tuple(_spread_homes(_REGION_CITIES[region]))
    return homes


def _ranked(home: City) -> Tuple[City, ...]:
    """The cities of ``home``'s region, nearest first, ties by name."""
    ranked = _RANKED.get(home.name)
    if ranked is None:
        ranked = _RANKED[home.name] = tuple(
            sorted(
                _REGION_CITIES[home.region],
                key=lambda c: (CITY_DISTANCES(home, c), c.name),
            )
        )
    return ranked


def _nearest_to(cities: Sequence[City]) -> Callable[[City], City]:
    """The city of ``cities`` nearest a home (a tie keeps the earlier),
    looked up in the process's memo for this candidate set."""
    memo = _NEAREST.setdefault(tuple(c.name for c in cities), {})

    def nearest(home: City) -> City:
        city = memo.get(home.name)
        if city is None:
            city = memo[home.name] = min(cities, key=lambda c: CITY_DISTANCES(home, c))
        return city

    return nearest


def _row(home: City) -> Tuple[float, ...]:
    """Distances from ``home`` to each city of its region, in order."""
    row = _ROWS.get(home.name)
    if row is None:
        row = _ROWS[home.name] = tuple(
            CITY_DISTANCES(home, c) for c in _REGION_CITIES[home.region]
        )
    return row


class _RegionalTransits:
    """One region's transits, ranked per home by their nearest city."""

    def __init__(self, graph: ASGraph, region: Region, asns: List[int]) -> None:
        self.asns = asns
        column = {c.name: i for i, c in enumerate(_REGION_CITIES[region])}
        self.members = [[column[c.name] for c in graph.get(t).cities] for t in asns]
        self._nearest: Dict[str, List[int]] = {}

    def nearest(self, home: City, k: int = 3) -> List[int]:
        """The ``k`` transits nearest ``home``; a tie keeps ASN order."""
        nearest = self._nearest.get(home.name)
        if nearest is None:
            row = _row(home)
            closest = [min(map(row.__getitem__, m)) for m in self.members]
            order = sorted(range(len(self.asns)), key=closest.__getitem__)
            nearest = self._nearest[home.name] = [self.asns[i] for i in order[:k]]
        return nearest


def _nearest_mesh(pops: Sequence[PointOfPresence], k: int = 3) -> List[Tuple[str, str]]:
    """Fallback backbone for custom PoP sets: k-nearest plus a chain.

    The chain (in construction order) guarantees connectivity; the
    k-nearest edges give the mesh a geographic shape.
    """
    key = (k, tuple((pop.code, pop.city.name) for pop in pops))
    mesh = _MESHES.get(key)
    if mesh is None:
        mesh = _MESHES[key] = tuple(_mesh(pops, k))
    return list(mesh)


def _mesh(pops: Sequence[PointOfPresence], k: int) -> List[Tuple[str, str]]:
    edges = set()
    for i, pop in enumerate(pops):
        ranked = sorted(
            (p for p in pops if p.code != pop.code),
            key=lambda p: CITY_DISTANCES(pop.city, p.city),
        )
        for other in ranked[:k]:
            edges.add(tuple(sorted((pop.code, other.code))))
        if i + 1 < len(pops):
            edges.add(tuple(sorted((pop.code, pops[i + 1].code))))
    return sorted(edges)


@traced("topology.build")
def build_internet(
    config: Optional[TopologyConfig] = None, *, fast: bool = True
) -> Internet:
    """Build a synthetic Internet from ``config`` (defaults when omitted).

    The result is deterministic for a given configuration.  City-pair
    distances come from the process's one memo
    (:data:`repro.geo.CITY_DISTANCES`), and every ranking of the fixed
    city dataset is made once per process and kept, so a build does
    only the work that depends on its seed.  ``fast`` is accepted and
    ignored: the benchmark harness in ``perfbench/`` still passes it.
    """
    cfg = config or TopologyConfig()
    rng = np.random.default_rng(cfg.seed)
    graph = ASGraph()
    # Each Tier-1's and transit's footprint as a set of names.
    footprint_names: Dict[int, Set[str]] = {}

    pop_cities = [
        PointOfPresence(code, city_named(name)) for code, name in cfg.pop_cities
    ]
    pop_city_set = [p.city for p in pop_cities]
    if cfg.wan_backbone is not None:
        backbone = list(cfg.wan_backbone)
    elif cfg.pop_cities == DEFAULT_POP_CITIES:
        backbone = list(DEFAULT_WAN_BACKBONE)
    else:
        backbone = _nearest_mesh(pop_cities)
    wan = PrivateWan(pop_cities, backbone, inflation=cfg.wan_inflation)

    ixp_cities = tuple(city_named(n) for n in cfg.ixp_city_names)
    ixp_names = set(cfg.ixp_city_names)

    # --- provider -------------------------------------------------------
    provider = AutonomousSystem(
        asn=PROVIDER_ASN,
        name="provider",
        role=ASRole.CONTENT,
        cities=tuple(pop_city_set),
        exit_policy=ExitPolicy.LATE,  # providers cold-potato on their WAN
        backbone_inflation=cfg.wan_inflation,
        user_weight=0.0,
    )
    graph.add_as(provider)

    # --- Tier-1 clique ----------------------------------------------------
    all_regions = list(Region)
    tier1_asns: List[int] = []
    for i in range(cfg.n_tier1):
        asn = TIER1_ASN_BASE + i
        # Worldwide footprint: every exchange hub (Tier-1 backbones are
        # present in all major metros) plus a few extra cities per region.
        footprint: List[City] = list(ixp_cities)
        for region in all_regions:
            candidates = _REGION_CITIES[region]
            take = min(len(candidates), int(rng.integers(2, 5)))
            picks = rng.choice(len(candidates), size=take, replace=False)
            footprint.extend(candidates[j] for j in sorted(picks.tolist()))
        late = (i / max(1, cfg.n_tier1)) < cfg.tier1_late_exit_fraction
        graph.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"tier1-{i}",
                role=ASRole.TIER1,
                cities=_unique(footprint),
                exit_policy=ExitPolicy.LATE if late else ExitPolicy.EARLY,
                backbone_inflation=cfg.tier1_inflation,
            )
        )
        footprint_names[asn] = {c.name for c in footprint}
        tier1_asns.append(asn)
    for i, x in enumerate(tier1_asns):
        for y in tier1_asns[i + 1 :]:
            # Tier-1s interconnect at every shared hub worldwide.
            shared = _shared_cities(
                graph, x, y, rng, footprint_names[y], fallback=3, cap=None
            )
            graph.add_link(
                link_between(
                    x,
                    y,
                    Relationship.PEER,
                    shared,
                    kind=PeeringKind.PRIVATE,
                    capacity_gbps=1000.0,
                )
            )

    # --- regional transits -------------------------------------------------
    transit_asns: List[int] = []
    transit_regions: Dict[int, Region] = {}
    region_seen: Dict[Region, int] = {}
    hubs_memo = _HUBS.setdefault(tuple(cfg.ixp_city_names), {})
    for i in range(cfg.n_transit):
        asn = TRANSIT_ASN_BASE + i
        region = all_regions[i % len(all_regions)]
        candidates = _REGION_CITIES[region]
        # A transit is a geographically coherent cluster: a home city,
        # the nearest regional cities around it, and the nearest exchange
        # hubs.  Regions are continent-sized, so random sampling across a
        # region would create transits whose interconnects force
        # continental detours; clustering keeps handoffs local.
        # Home cities go to the region's largest markets, spread out so
        # every sub-region has a local transit (pure population ranking
        # would stack all of Asia's transits in its northeast).
        nth = region_seen.get(region, 0)
        region_seen[region] = nth + 1
        homes = _homes(region)
        home = homes[nth % len(homes)]
        take = min(len(candidates), int(rng.integers(3, 7)))
        by_distance = _ranked(home)
        # The two nearest regional exchanges, ties by name.
        nearest_hubs = hubs_memo.get(home.name)
        if nearest_hubs is None:
            nearest_hubs = hubs_memo[home.name] = tuple(
                c for c in by_distance if c.name in ixp_names
            )[:2]
        footprint = _unique([home, *by_distance[:take], *nearest_hubs])
        graph.add_as(
            AutonomousSystem(
                asn=asn,
                name=f"transit-{region.value}-{i}",
                role=ASRole.TRANSIT,
                cities=footprint,
                backbone_inflation=cfg.transit_inflation,
            )
        )
        footprint_names[asn] = {c.name for c in footprint}
        transit_asns.append(asn)
        transit_regions[asn] = region
        # Buy transit from 2-3 Tier-1s.
        n_up = int(rng.integers(2, 4))
        ups = rng.choice(len(tier1_asns), size=min(n_up, len(tier1_asns)), replace=False)
        for u in sorted(ups.tolist()):
            t1 = tier1_asns[u]
            shared = _shared_cities(
                graph, asn, t1, rng, footprint_names[t1], fallback=2, cap=8
            )
            graph.add_link(
                link_between(
                    asn,
                    t1,
                    Relationship.CUSTOMER,
                    shared,
                    customer_asn=asn,
                    capacity_gbps=400.0,
                )
            )
    # Same-region transit peering at shared IXPs.
    for i, x in enumerate(transit_asns):
        for y in transit_asns[i + 1 :]:
            if transit_regions[x] is not transit_regions[y]:
                continue
            if rng.random() >= cfg.transit_mesh_prob:
                continue
            y_names = footprint_names[y]
            shared_ixps = [
                c
                for c in graph.get(x).cities
                if c.name in ixp_names and c.name in y_names
            ]
            if not shared_ixps:
                continue
            graph.add_link(
                link_between(
                    x,
                    y,
                    Relationship.PEER,
                    shared_ixps[:2],
                    kind=PeeringKind.PUBLIC,
                    capacity_gbps=100.0,
                )
            )

    # --- eyeballs -----------------------------------------------------------
    # Allocate eyeball counts per country proportionally, at least one each.
    alloc = {
        country: max(1, round(cfg.n_eyeball * _COUNTRY_POP[country] / _TOTAL_POP))
        for country in _COUNTRIES
    }
    eyeball_asns: List[int] = []
    asn = EYEBALL_ASN_BASE
    # Each region's transits, ranked per eyeball home city.  Transit
    # footprints are fixed by now (the tier1-transit re-wire below only
    # touches tier1 links), and eyeballs in one country share home
    # cities, so the ranking is pure in the home city.
    regional_transits = {
        region: _RegionalTransits(
            graph, region, [t for t in transit_asns if transit_regions[t] is region]
        )
        for region in all_regions
    }
    for country in _COUNTRIES:
        cities = _COUNTRY_CITIES[country]
        for j in range(alloc[country]):
            take = min(len(cities), int(rng.integers(1, 4)))
            picks = rng.choice(len(cities), size=take, replace=False)
            footprint = tuple(cities[k] for k in sorted(picks.tolist()))
            # Each eyeball carries an equal share of its country's user
            # population (footprint size is about *where* the users are,
            # not how many there are), jittered log-normally.
            weight = (
                _COUNTRY_POP[country]
                / max(1, alloc[country])
                * float(rng.lognormal(0.0, 0.4))
            )
            eyeball = AutonomousSystem(
                asn=asn,
                name=f"eyeball-{country.lower()}-{j}",
                role=ASRole.EYEBALL,
                cities=footprint,
                backbone_inflation=cfg.eyeball_inflation,
                user_weight=weight,
            )
            graph.add_as(eyeball)
            eyeball_asns.append(asn)
            # Buy transit from 1-3 of the *nearest* transits in the same
            # region (regions are continent-sized; proximity matters).
            home = eyeball.home_city
            regional = regional_transits[home.region].nearest(home)
            if regional:
                n_up = int(rng.integers(1, min(3, len(regional)) + 1))
                ups = rng.choice(len(regional), size=n_up, replace=False)
                for u in sorted(ups.tolist()):
                    # Transit providers haul to the paying customer: the
                    # interconnect covers the eyeball's footprint.
                    graph.add_link(
                        link_between(
                            asn,
                            regional[u],
                            Relationship.CUSTOMER,
                            eyeball.cities,
                            customer_asn=asn,
                            capacity_gbps=100.0,
                        )
                    )
            # Occasionally (or when no regional transit exists) buy from a
            # Tier-1 directly.
            if not regional or rng.random() < cfg.eyeball_tier1_prob:
                t1 = tier1_asns[int(rng.integers(0, len(tier1_asns)))]
                graph.add_link(
                    link_between(
                        asn,
                        t1,
                        Relationship.CUSTOMER,
                        eyeball.cities,
                        customer_asn=asn,
                        capacity_gbps=100.0,
                    )
                )
            asn += 1

    # A transit's footprint extends to its customers' sites: re-wire each
    # tier1-transit link to also interconnect at the transit's customer
    # home cities, so the Tier-1 can hand off near the destination instead
    # of detouring via the transit's hubs.  (On the real Internet the
    # transit meets its upstreams at the exchange nearest each customer.)
    for t in transit_asns:
        # The customers and providers of t, in neighbour order.
        customers: List[int] = []
        providers: List[int] = []
        for n in graph.neighbors(t):
            link = graph.link(t, n)
            if link.relationship is Relationship.CUSTOMER:
                (customers if link.customer_asn == n else providers).append(n)
        customer_homes = [city for c in customers for city in graph.get(c).cities]
        if not customer_homes:
            continue
        for t1 in providers:
            link = graph.link(t, t1)
            extended = _unique([*link.cities, *customer_homes])
            if len(extended) == len(link.cities):
                continue
            graph.remove_link(t, t1)
            graph.add_link(
                link_between(
                    t,
                    t1,
                    Relationship.CUSTOMER,
                    extended,
                    customer_asn=t,
                    capacity_gbps=link.capacity_gbps,
                )
            )

    # --- provider connectivity ----------------------------------------------
    # Transit from several Tier-1s, interconnecting at every PoP city in the
    # Tier-1's footprint, plus (always) the data-center PoP so that
    # DC-scoped announcements have somewhere to land.
    dc_city = wan.pop(cfg.dc_pop_code).city
    ups = rng.choice(len(tier1_asns), size=min(cfg.provider_transit_count, len(tier1_asns)), replace=False)
    for u in sorted(ups.tolist()):
        t1 = tier1_asns[u]
        # The provider buys transit at every PoP (Tier-1s are present in
        # every major metro; the footprint sampling above is about where
        # they interconnect with *smaller* networks).
        cities = list(pop_city_set)
        if dc_city not in cities:
            cities.append(dc_city)
        graph.add_link(
            link_between(
                PROVIDER_ASN,
                t1,
                Relationship.CUSTOMER,
                cities,
                customer_asn=PROVIDER_ASN,
                capacity_gbps=2000.0,
            )
        )

    # PNIs with the largest eyeballs, at their one or two nearest PoPs.
    # Capacity is provisioned against the eyeball's expected share of the
    # provider's egress (see peering_study): roughly 3x headroom over a
    # 4 Tbps aggregate.
    total_user_weight = sum(graph.get(a).user_weight for a in eyeball_asns)
    by_weight = sorted(
        eyeball_asns, key=lambda a: graph.get(a).user_weight, reverse=True
    )
    n_pni = int(round(cfg.pni_fraction * len(by_weight)))
    nearest_pop = _nearest_to(pop_city_set)
    for eb in by_weight[:n_pni]:
        # PNIs at the PoP nearest each of the eyeball's cities: big
        # eyeballs interconnect with big providers in every metro they
        # share, not just at their headquarters.
        sites = _unique(nearest_pop(c) for c in graph.get(eb).cities)
        graph.add_link(
            link_between(
                PROVIDER_ASN,
                eb,
                Relationship.PEER,
                sites,
                kind=PeeringKind.PRIVATE,
                capacity_gbps=max(
                    20.0,
                    3.0 * 4000.0 * graph.get(eb).user_weight / total_user_weight,
                ),
            )
        )
    # Public exchange peering with a slice of the remaining eyeballs, where
    # the eyeball is present at an IXP city that is also a PoP city.
    remaining = by_weight[n_pni:]
    n_public = int(round(cfg.public_peering_fraction * len(by_weight)))
    added_public = 0
    exchange_cities = [c for c in pop_city_set if c.name in ixp_names]
    exchange_names = {c.name for c in exchange_cities}
    nearest_exchange = _nearest_to(exchange_cities)
    if not exchange_cities:
        # No PoP city has an exchange: no eyeball peers publicly, as no
        # transit does below.  This draws no random number.
        remaining = []
    for eb in remaining:
        if added_public >= n_public:
            break
        if rng.random() < cfg.remote_peering_fraction:
            # Remote peering: the eyeball reaches a distant exchange over
            # a layer-2 reseller.  The interconnect city is essentially
            # arbitrary relative to its users.
            shared_ixps = [
                exchange_cities[int(rng.integers(0, len(exchange_cities)))]
            ]
        else:
            shared_ixps = [c for c in graph.get(eb).cities if c.name in exchange_names]
            if not shared_ixps:
                # No colocated exchange: buy remote peering into the
                # nearest one.
                home = graph.get(eb).home_city
                shared_ixps = [nearest_exchange(home)]
        graph.add_link(
            link_between(
                PROVIDER_ASN,
                eb,
                Relationship.PEER,
                shared_ixps[:1],
                kind=PeeringKind.PUBLIC,
                capacity_gbps=20.0,
            )
        )
        added_public += 1
    # Public peering with regional transits at shared IXP/PoP cities.
    for t in transit_asns:
        if rng.random() >= cfg.transit_public_peering_prob:
            continue
        shared_ixps = [c for c in graph.get(t).cities if c.name in exchange_names]
        if not shared_ixps:
            continue
        graph.add_link(
            link_between(
                PROVIDER_ASN,
                t,
                Relationship.PEER,
                shared_ixps[:2],
                kind=PeeringKind.PUBLIC,
                capacity_gbps=50.0,
            )
        )

    graph.validate()
    gauge("topology.n_as", len(graph))
    gauge("topology.n_links", sum(1 for _ in graph.links()))
    gauge("topology.n_pops", len(pop_cities))
    logger.info(
        "built internet: %d ASes (%d tier1, %d transit, %d eyeball), "
        "%d links, %d PoPs",
        len(graph),
        len(tier1_asns),
        len(transit_asns),
        len(eyeball_asns),
        sum(1 for _ in graph.links()),
        len(pop_cities),
    )
    return Internet(
        graph=graph,
        provider_asn=PROVIDER_ASN,
        wan=wan,
        tier1_asns=tuple(tier1_asns),
        transit_asns=tuple(transit_asns),
        eyeball_asns=tuple(eyeball_asns),
        ixp_cities=ixp_cities,
        dc_pop_code=cfg.dc_pop_code,
        config=cfg,
    )


def _spread_homes(candidates: Sequence[City], min_km: float = 1200.0) -> List[City]:
    """Greedy big-market-first home selection with geographic spacing.

    Walks cities in descending population, accepting each that is at
    least ``min_km`` from every accepted home; cities skipped for being
    too close are appended afterwards (still by population) so the list
    always covers all candidates.
    """
    by_population = sorted(candidates, key=lambda c: (-c.population_m, c.name))
    homes: List[City] = []
    skipped: List[City] = []
    for city in by_population:
        near = any(CITY_DISTANCES(city, h) < min_km for h in homes)
        if near:
            skipped.append(city)
        else:
            homes.append(city)
    return homes + skipped


def _shared_cities(
    graph: ASGraph,
    x: int,
    y: int,
    rng: np.random.Generator,
    y_names: Set[str],
    fallback: int,
    cap: Optional[int] = 3,
) -> List[City]:
    """Interconnect cities for a new link between ``x`` and ``y``.

    Prefers cities in both footprints (``y_names`` holds the names of
    ``y``'s); when there are none, uses the ``fallback`` cities of the
    larger-footprint AS nearest to the other AS's home city (modelling
    one side hauling to the other's facility).
    """
    xs = graph.get(x)
    ys = graph.get(y)
    shared = [c for c in xs.cities if c.name in y_names]
    if shared:
        if cap is not None and len(shared) > cap:
            picks = rng.choice(len(shared), size=cap, replace=False)
            shared = [shared[i] for i in sorted(picks.tolist())]
        return shared
    bigger, smaller = (xs, ys) if len(xs.cities) >= len(ys.cities) else (ys, xs)
    ranked = sorted(bigger.cities, key=lambda c: CITY_DISTANCES(c, smaller.home_city))
    return list(ranked[:fallback])
