"""Speedchecker-like measurement platform.

"Speedchecker exposes an API to issue measurements (e.g., ping,
traceroute, HTTP GET, etc.) based on credits, similar to RIPE Atlas."

The simulated platform exposes the same surface: an inventory of vantage
points in home routers across ⟨City, AS⟩ locations, credit-metered ping
and traceroute calls, and deterministic results derived from the routing
state, congestion processes, and measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError, RoutingError, require_int
from repro.geo import City
from repro.netmodel import CongestionConfig, CongestionModel
from repro.topology import ASRole
from repro.cloudtiers.tiers import CloudDeployment, Tier

#: Credit prices, mirroring a credits-based probe API.
PING_CREDITS = 1
TRACEROUTE_CREDITS = 2

_MASK64 = (1 << 64) - 1


def _rotl(x: int, bits: int) -> int:
    return ((x << bits) | (x >> (64 - bits))) & _MASK64


def _sip_round(v0: int, v1: int, v2: int, v3: int) -> Tuple[int, int, int, int]:
    v0 = (v0 + v1) & _MASK64
    v2 = (v2 + v3) & _MASK64
    v1 = _rotl(v1, 13) ^ v0
    v3 = _rotl(v3, 16) ^ v2
    v0 = _rotl(v0, 32)
    v2 = (v2 + v1) & _MASK64
    v0 = (v0 + v3) & _MASK64
    v1 = _rotl(v1, 17) ^ v2
    v3 = _rotl(v3, 21) ^ v0
    return v0, v1, _rotl(v2, 32), v3


def _str_hash(text: str) -> int:
    """``hash(text)`` as CPython >= 3.11 computes it under PYTHONHASHSEED=0.

    SipHash-1-3 under an all-zero key, over the string's latin-1, UCS-2
    or UCS-4 little-endian bytes.  The builtin salts str hashes per
    process, so seeding from it made Setting C differ between runs; this
    port keeps the values every recorded Setting C number was drawn from.
    """
    if not text:
        return 0
    top = max(map(ord, text))
    if top < 0x100:
        data = text.encode("latin-1")
    elif top < 0x10000:
        data = text.encode("utf-16-le", "surrogatepass")
    else:
        data = text.encode("utf-32-le", "surrogatepass")
    v0, v1 = 0x736F6D6570736575, 0x646F72616E646F6D
    v2, v3 = 0x6C7967656E657261, 0x7465646279746573
    tail = len(data) - len(data) % 8
    for start in range(0, tail, 8):
        word = int.from_bytes(data[start : start + 8], "little")
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3 ^ word)
        v0 ^= word
    last = (len(data) & 0xFF) << 56 | int.from_bytes(data[tail:], "little")
    v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3 ^ last)
    v0, v1, v2, v3 = _sip_round(v0 ^ last, v1, v2 ^ 0xFF, v3)
    for _ in range(2):
        v0, v1, v2, v3 = _sip_round(v0, v1, v2, v3)
    digest = v0 ^ v1 ^ v2 ^ v3
    if digest >= 1 << 63:
        digest -= 1 << 64
    return -2 if digest == -1 else digest


@dataclass(frozen=True)
class VantagePoint:
    """A measurement vantage point: a device in an eyeball AS at a city."""

    vp_id: str
    asn: int
    city: City

    @property
    def location_key(self) -> Tuple[str, int]:
        """The ⟨City, AS⟩ location the paper rotates over."""
        return (self.city.name, self.asn)


@dataclass(frozen=True)
class TracerouteHop:
    """One traceroute hop: the AS and city the packet passed through."""

    asn: int
    city: City
    rtt_ms: float


@dataclass(frozen=True)
class TracerouteResult:
    """AS/city-level traceroute toward a tier's VM."""

    vp_id: str
    tier: Tier
    time_h: float
    hops: Tuple[TracerouteHop, ...]

    @property
    def as_path(self) -> Tuple[int, ...]:
        seen = []
        for hop in self.hops:
            if not seen or seen[-1] != hop.asn:
                seen.append(hop.asn)
        return tuple(seen)

    def ingress_city(self, provider_asn: int) -> Optional[City]:
        """Where the path first enters the provider's network."""
        for hop in self.hops:
            if hop.asn == provider_asn:
                return hop.city
        return None


class SpeedcheckerPlatform:
    """Credit-metered measurement API over a cloud deployment.

    Args:
        deployment: The tiers' routing state.
        credits: Measurement budget, an integer >= 1; each call debits
            its price.
        seed: Randomness seed (an integer >= 0) for noise and VP
            inventory.
        congestion: Optional congestion parameter override.
        horizon_days: Campaign horizon for the congestion processes.
    """

    def __init__(
        self,
        deployment: CloudDeployment,
        credits: int = 10_000_000,
        seed: int = 0,
        congestion: Optional[CongestionConfig] = None,
        horizon_days: float = 300.0,
    ) -> None:
        credits = require_int(credits, "credits", MeasurementError)
        if credits <= 0:
            raise MeasurementError("credit budget must be positive")
        self.deployment = deployment
        self.credits = credits
        self.seed = require_int(seed, "seed", MeasurementError)
        if self.seed < 0:
            raise MeasurementError(f"seed must be >= 0, got {self.seed}")
        self._rng = np.random.default_rng(self.seed)
        cfg = congestion or CongestionConfig(
            horizon_hours=horizon_days * 24.0,
            event_rate_per_day=0.5,
            event_magnitude_median_ms=8.0,
        )
        self._congestion = CongestionModel(self.seed, cfg)
        self._vps = self._build_inventory()
        self._path_cache: Dict[Tuple[str, Tier], Optional[object]] = {}
        self._last_mile: Dict[str, float] = {}

    # --- inventory ----------------------------------------------------------

    def _build_inventory(self) -> List[VantagePoint]:
        vps: List[VantagePoint] = []
        graph = self.deployment.internet.graph
        for asys in graph.ases():
            if asys.role is not ASRole.EYEBALL:
                continue
            for city in asys.cities:
                vps.append(
                    VantagePoint(
                        vp_id=f"vp-{asys.asn}-{city.name.lower().replace(' ', '-')}",
                        asn=asys.asn,
                        city=city,
                    )
                )
        if not vps:
            raise MeasurementError("topology has no eyeball vantage points")
        return vps

    @property
    def vantage_points(self) -> List[VantagePoint]:
        """The full VP inventory (one per eyeball ⟨City, AS⟩)."""
        return list(self._vps)

    def select_vantage_points(self, day: int, count: int) -> List[VantagePoint]:
        """Daily rotation: a deterministic slice of the inventory.

        The paper selects ~800 VPs per day "to rotate across ⟨City, AS⟩
        locations over time"; we rotate a window over the shuffled
        inventory the same way.
        """
        if count <= 0:
            raise MeasurementError("count must be positive")
        order = np.random.default_rng(self.seed).permutation(len(self._vps))
        start = (day * count) % len(self._vps)
        picked = [
            self._vps[order[(start + i) % len(self._vps)]] for i in range(count)
        ]
        # A VP can repeat only if count exceeds the inventory.
        seen = set()
        unique = []
        for vp in picked:
            if vp.vp_id not in seen:
                seen.add(vp.vp_id)
                unique.append(vp)
        return unique

    # --- measurement internals -----------------------------------------------

    def _spend(self, amount: int) -> None:
        if self.credits < amount:
            raise MeasurementError(
                f"credit budget exhausted (needed {amount}, have {self.credits})"
            )
        self.credits -= amount

    def _path(self, vp: VantagePoint, tier: Tier):
        key = (vp.vp_id, tier)
        if key not in self._path_cache:
            try:
                self._path_cache[key] = self.deployment.path(tier, vp.asn, vp.city)
            except RoutingError:
                self._path_cache[key] = None
        return self._path_cache[key]

    def _vp_last_mile(self, vp: VantagePoint) -> float:
        if vp.vp_id not in self._last_mile:
            rng = np.random.default_rng(
                [self.seed & 0xFFFFFFFF, _str_hash(vp.vp_id) & 0xFFFFFFFF]
            )
            self._last_mile[vp.vp_id] = float(rng.uniform(2.0, 12.0))
        return self._last_mile[vp.vp_id]

    # --- public API -----------------------------------------------------------

    def ping_panel(
        self,
        vps: Sequence[VantagePoint],
        times_h: Sequence[float],
        count: int = 5,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Ping both tiers' VMs from a panel of vantage points, every round.

        Returns ``(routed, rtts)``.  ``routed`` is a bool array of shape
        ``(len(vps), 2)``: whether each VP has a route to each tier, in
        :class:`Tier` order (Premium, then Standard).  ``rtts`` holds the
        routed rows in that order, panel order first, as an array of
        shape ``(rows, rounds, count)``.

        Every (VP, tier) pair costs ``count`` pings per round, debited
        up front whether or not it routes: a probe with no route times
        out, as on the real platform.  A routed row's RTT is
        ``2 * one_way + last mile + (diurnal + the VP's events) + the
        route's events + noise``, and its noise is the next
        ``rounds * count`` positions of the platform's noise stream.  A
        row with no route draws no noise.
        """
        if count < 1:
            raise MeasurementError("ping count must be >= 1")
        times = np.asarray(times_h, dtype=float)
        if times.size == 0:
            raise MeasurementError("need at least one round time")
        self._spend(PING_CREDITS * count * times.size * len(Tier) * len(vps))
        paths = [[self._path(vp, tier) for tier in Tier] for vp in vps]
        found = [[path is not None for path in row] for row in paths]
        routed = np.array(found, dtype=bool).reshape(len(vps), len(Tier))
        vp_keys: List[str] = []
        lons: List[float] = []
        row_vp: List[int] = []
        bases: List[float] = []
        route_keys: List[str] = []
        for vp, row in zip(vps, paths):
            if all(path is None for path in row):
                continue
            last_mile = self._vp_last_mile(vp)
            for tier, path in zip(Tier, row):
                if path is not None:
                    row_vp.append(len(vp_keys))
                    bases.append(2.0 * path.one_way_ms + last_mile)
                    route_keys.append(f"tierpath:{vp.vp_id}:{tier.value}")
            vp_keys.append(f"vp:{vp.vp_id}")
            lons.append(vp.city.location.lon)
        full = np.repeat(times, count)
        events, _ = self._congestion.event_and_shift_delays(
            vp_keys + route_keys, (), full
        )
        # One diurnal row per VP: the formula broadcasts over a column of
        # longitudes.
        diurnal = self._congestion.diurnal_delay(full, np.array(lons)[:, None])
        shared = diurnal + events[: len(vp_keys)]
        noise = self._rng.exponential(1.2, size=(len(bases), full.size))
        rtts = np.array(bases)[:, None] + shared[row_vp]
        rtts += events[len(vp_keys) :]
        rtts += noise
        return routed, rtts.reshape(len(bases), times.size, count)

    def traceroute(
        self, vp: VantagePoint, tier: Tier, time_h: float
    ) -> Optional[TracerouteResult]:
        """Traceroute to a tier's VM: AS/city hops with cumulative RTT."""
        self._spend(TRACEROUTE_CREDITS)
        path = self._path(vp, tier)
        if path is None:
            return None
        hops: List[TracerouteHop] = []
        cumulative = self._vp_last_mile(vp) / 2.0
        hops.append(TracerouteHop(asn=vp.asn, city=vp.city, rtt_ms=2.0 * cumulative))

        def add_hop(asn: int, city: City) -> None:
            last = hops[-1]
            if last.asn == asn and last.city == city:
                return
            hops.append(TracerouteHop(asn=asn, city=city, rtt_ms=2.0 * cumulative))

        for seg in path.segments:
            # Entry router of the carrying AS, then its exit router.
            add_hop(seg.asn, seg.from_city)
            cumulative += seg.one_way_ms
            add_hop(seg.asn, seg.to_city)
        provider = self.deployment.internet.provider_asn
        if all(h.asn != provider for h in hops):
            # Zero-length final carry: the handoff city is the ingress.
            add_hop(provider, path.ingress_city)
        return TracerouteResult(
            vp_id=vp.vp_id, tier=tier, time_h=time_h, hops=tuple(hops)
        )
