"""Beacon measurement campaign: clients measure anycast + nearby unicast.

The Bing study "instrumented millions of ... search results with
JavaScript to measure from the client to both the anycast address and to
a number of nearby unicast addresses".  Each simulated request issues
one RTT sample to the anycast address and to each of the client's k
nearby unicast front-ends (catchment included), sharing the request's
last-mile congestion across all targets — the beacons fire together.

Each path additionally carries slow baseline shifts (interdomain path
churn over days); a prediction trained before a shift and deployed after
it is wrong, which is one reason the Figure 4 scheme loses to anycast
for a slice of clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError, RoutingError
from repro.obs.trace import traced
from repro.geo import Region
from repro.netmodel import CongestionConfig, CongestionModel
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment


@dataclass(frozen=True)
class BeaconConfig:
    """Parameters of a beacon campaign.

    Attributes:
        days: Campaign length in simulated days.
        requests_per_prefix: Beacon-carrying requests sampled per prefix.
        nearby_front_ends: Unicast targets per client (nearest-k).
        seed: Master randomness seed.
        rtt_noise_ms: Scale of the per-sample exponential RTT residual.
        last_mile_ms_range: Uniform range of per-prefix access RTT.
        congestion: Optional override of the congestion parameters.
    """

    days: float = 7.0
    requests_per_prefix: int = 120
    nearby_front_ends: int = 6
    seed: int = 0
    rtt_noise_ms: float = 2.0
    last_mile_ms_range: Tuple[float, float] = (2.0, 10.0)
    congestion: Optional[CongestionConfig] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.days) or self.days <= 0:
            raise MeasurementError(f"days must be positive and finite, got {self.days}")
        if self.requests_per_prefix < 2:
            raise MeasurementError("need at least two requests per prefix")
        if self.nearby_front_ends < 1:
            raise MeasurementError("need at least one unicast target")
        if not math.isfinite(self.rtt_noise_ms) or self.rtt_noise_ms < 0:
            raise MeasurementError(
                f"rtt_noise_ms must be non-negative and finite, got {self.rtt_noise_ms}"
            )
        lo, hi = self.last_mile_ms_range
        if not (math.isfinite(lo) and math.isfinite(hi) and 0 <= lo <= hi):
            raise MeasurementError("invalid last_mile_ms_range")

    def congestion_config(self) -> CongestionConfig:
        """Effective congestion parameters."""
        if self.congestion is not None:
            return self.congestion
        return CongestionConfig(
            horizon_hours=self.days * 24.0,
            event_rate_per_day=0.8,
            event_magnitude_median_ms=9.0,
        )


@dataclass
class BeaconDataset:
    """Results of a beacon campaign, vectorized per prefix.

    Attributes:
        prefixes: Measured client prefixes (those with a routable anycast
            path), index-aligned with the arrays.
        catchments: Anycast catchment front-end code per prefix.
        fe_codes: Unicast target codes per prefix (length k each,
            catchment first).
        times_h: Request times per prefix, shape ``(P, R)``.
        anycast_rtt: Per-request anycast RTT (ms), shape ``(P, R)``.
        unicast_rtt: Per-request unicast RTTs (ms), shape ``(P, R, K)``
            over *all* front-ends (catchment first, then by distance);
            NaN where a front-end was unreachable.
        n_nearby: How many leading columns of ``unicast_rtt`` count as
            the "nearby" targets the Bing beacons measured (Figure 3
            compares anycast against the best of these).
    """

    prefixes: List[ClientPrefix]
    catchments: List[str]
    fe_codes: List[Tuple[str, ...]]
    times_h: np.ndarray
    anycast_rtt: np.ndarray
    unicast_rtt: np.ndarray
    n_nearby: int = 6

    @property
    def n_prefixes(self) -> int:
        return len(self.prefixes)

    @property
    def n_requests(self) -> int:
        return int(self.anycast_rtt.shape[1])

    def regions(self) -> List[Region]:
        """Region of each prefix's country, index-aligned."""
        return [p.city.region for p in self.prefixes]

    def weights(self) -> np.ndarray:
        """Traffic weight per prefix."""
        return np.array([p.weight for p in self.prefixes])

    def slash24_weights(self) -> np.ndarray:
        """Query-volume weight per prefix in /24 units (Figure 4)."""
        return np.array([p.weight * p.n_24s for p in self.prefixes])

    def best_nearby_unicast(self) -> np.ndarray:
        """Best per-request RTT among the nearby unicast targets, (P, R)."""
        with np.errstate(all="ignore"):
            return np.nanmin(self.unicast_rtt[:, :, : self.n_nearby], axis=2)

    def column_of(self, prefix_index: int, fe_code: str) -> Optional[int]:
        """Column index of a front-end for a prefix, or ``None``."""
        codes = self.fe_codes[prefix_index]
        try:
            return codes.index(fe_code)
        except ValueError:
            return None


@traced("cdn.beacon_campaign")
def run_beacon_campaign(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
    config: Optional[BeaconConfig] = None,
) -> BeaconDataset:
    """Run the beacon campaign over a client population."""
    cfg = config or BeaconConfig()
    if not prefixes:
        raise MeasurementError("no client prefixes")
    rng = np.random.default_rng(cfg.seed)
    congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    horizon = cfg.days * 24.0

    kept: List[ClientPrefix] = []
    catchments: List[str] = []
    fe_codes: List[Tuple[str, ...]] = []
    # Per prefix: the path key and round-trip base of each row of its
    # pricing block (the anycast target, then every reachable unicast
    # target), and the unicast column of each unicast row.
    blocks: List[Tuple[List[str], np.ndarray, List[int]]] = []
    for prefix in prefixes:
        try:
            any_path = deployment.anycast_path(prefix)
        except RoutingError:  # unreachable client; skip like a failed beacon
            continue
        catchment = deployment.internet.wan.nearest_pop(
            any_path.ingress_city.location
        )
        # Measure every front-end: the catchment first, then the rest by
        # distance.  Figure 3 only uses the nearest `nearby_front_ends`
        # columns; the full set lets a DNS-redirection policy send the
        # client anywhere (including somewhere bad, which is the failure
        # mode public-resolver aggregation produces).
        ordered = deployment.nearby_front_ends(prefix, len(deployment.front_ends))
        codes = [catchment.code] + [
            p.code for p in ordered if p.code != catchment.code
        ]
        keys = [f"cdnpath:{prefix.pid}->anycast"]
        bases = [2.0 * any_path.one_way_ms]
        columns: List[int] = []
        for j, code in enumerate(codes):
            path = deployment.unicast_path(prefix, code)
            if path is not None:  # an unreachable column stays NaN
                keys.append(f"cdnpath:{prefix.pid}->{code}")
                bases.append(2.0 * path.one_way_ms)
                columns.append(j)
        kept.append(prefix)
        catchments.append(catchment.code)
        fe_codes.append(tuple(codes))
        blocks.append((keys, np.array(bases), columns))
    if not kept:
        raise MeasurementError("no prefix could reach the anycast prefix")

    n_p = len(kept)
    n_r = cfg.requests_per_prefix
    k = len(deployment.front_ends)
    times = np.empty((n_p, n_r))
    anycast_rtt = np.empty((n_p, n_r))
    unicast_rtt = np.full((n_p, n_r, k), np.nan)
    lo, hi = cfg.last_mile_ms_range
    for i, prefix in enumerate(kept):
        t = np.sort(rng.uniform(0.0, horizon, size=n_r))
        times[i] = t
        last_mile = float(rng.uniform(lo, hi))
        keys, bases, columns = blocks[i]
        events, shifts = congestion.event_and_shift_delays(
            [f"dest:{prefix.pid}"] + keys, keys, t
        )
        # events[0] is the destination's own: with the diurnal load it
        # is the shared delay that every target of the request carries.
        shared = (
            last_mile
            + (congestion.diurnal_delay(t, prefix.city.location.lon) + events[0])
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        # Row by row, the noise takes the stream positions of one draw
        # per target in row order.
        rtt = (
            bases[:, None]
            + shared
            + events[1:]
            + shifts
            + rng.exponential(cfg.rtt_noise_ms, size=(len(keys), n_r))
        )
        anycast_rtt[i] = rtt[0]
        unicast_rtt[i][:, columns] = rtt[1:].T
    return BeaconDataset(
        prefixes=kept,
        catchments=catchments,
        fe_codes=fe_codes,
        times_h=times,
        anycast_rtt=anycast_rtt,
        unicast_rtt=unicast_rtt,
        n_nearby=cfg.nearby_front_ends,
    )
