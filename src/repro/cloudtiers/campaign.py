"""The measurement campaign driver.

"Our credits allow us to issue one traceroute and five pings to each of
the VMs 10 times a day from 800 vantage points, which we select daily to
rotate across ⟨City, AS⟩ locations over time.  We repeated the
measurements over a period of 10 months."

The simulated campaign runs the same protocol on a compressed clock
(fewer days, smaller daily panel by default) through the Speedchecker
API, then applies the paper's eligibility filter: keep vantage points
whose Premium route enters the provider directly from the VP's AS while
the Standard route has at least one intermediate AS.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.obs.trace import gauge, traced
from repro.cloudtiers.speedchecker import (
    SpeedcheckerPlatform,
    TracerouteResult,
    VantagePoint,
)
from repro.cloudtiers.tiers import Tier

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CampaignConfig:
    """Parameters of a tier-comparison campaign.

    The defaults compress the paper's 10-month, 800-VP/day campaign to
    something a laptop reruns in seconds while keeping the protocol:
    daily VP rotation, 10 rounds/day, 5 pings per round per VM, one
    traceroute per VM per VP-day.
    """

    days: int = 20
    vps_per_day: int = 150
    rounds_per_day: int = 10
    pings_per_round: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.days, self.vps_per_day, self.rounds_per_day, self.pings_per_round) < 1:
            raise MeasurementError("campaign parameters must be positive")


@dataclass(frozen=True)
class VpDayRecord:
    """Median ping RTT per tier for one vantage point on one day."""

    vp_id: str
    day: int
    median_ms: Dict[Tier, float]


@dataclass
class TierDataset:
    """Everything the Figure 5 analyses need.

    Attributes:
        vps: Vantage points that produced at least one measurement.
        records: Per-(VP, day) median RTTs (only VPs with both tiers).
        traceroutes: First traceroute per (vp_id, tier).
        eligible: VP ids passing the paper's direct-Premium /
            intermediate-Standard filter.
    """

    vps: Dict[str, VantagePoint]
    records: List[VpDayRecord]
    traceroutes: Dict[Tuple[str, Tier], TracerouteResult]
    eligible: Set[str]

    def eligible_records(self) -> List[VpDayRecord]:
        """Records from eligible vantage points only."""
        return [r for r in self.records if r.vp_id in self.eligible]

    @property
    def n_pings(self) -> int:
        """Total ping samples behind the records (both tiers)."""
        return sum(len(r.median_ms) for r in self.records)


@traced("cloudtiers.campaign")
def run_campaign(
    platform: SpeedcheckerPlatform,
    config: Optional[CampaignConfig] = None,
    streaming: bool = False,
) -> TierDataset:
    """Run the tier-comparison campaign through the platform API.

    Each VP-day's pings go out as one
    :meth:`~repro.cloudtiers.speedchecker.SpeedcheckerPlatform.ping_burst`
    and their per-round medians come from one array reduction.

    Args:
        streaming: Aggregate each VP-day's per-round medians through a
            :class:`repro.stream.CentroidSketch` instead of a stored
            list (the per-round medians are the measurement device and
            stay as they are).  A day has ``rounds_per_day`` rounds —
            far below the centroid budget — so the day medians match
            the batch aggregation to interpolation precision, which the
            agreement tests assert.
    """
    cfg = config or CampaignConfig()
    deployment = platform.deployment
    rng = np.random.default_rng(cfg.seed)
    if streaming:
        # Imported here so repro.cloudtiers does not depend on the
        # streaming subsystem unless the lane is actually used.
        from repro.stream.sketch import CentroidSketch

        def day_median(ms: List[float]) -> float:
            sketch = CentroidSketch()
            sketch.update_batch(np.asarray(ms))
            return float(sketch.quantile(0.5))

    else:

        def day_median(ms: List[float]) -> float:
            return float(np.median(ms))

    vps: Dict[str, VantagePoint] = {}
    records: List[VpDayRecord] = []
    traceroutes: Dict[Tuple[str, Tier], TracerouteResult] = {}
    eligible: Set[str] = set()
    checked: Set[str] = set()

    for day in range(cfg.days):
        panel = platform.select_vantage_points(day, cfg.vps_per_day)
        logger.debug(
            "campaign day %d: %d vantage points, %d credits left",
            day,
            len(panel),
            platform.credits,
        )
        round_times = day * 24.0 + np.sort(rng.uniform(0.0, 24.0, cfg.rounds_per_day))
        for vp in panel:
            medians: Dict[Tier, List[float]] = {Tier.PREMIUM: [], Tier.STANDARD: []}
            for tier in (Tier.PREMIUM, Tier.STANDARD):
                if (vp.vp_id, tier) not in traceroutes:
                    tr = platform.traceroute(vp, tier, float(round_times[0]))
                    if tr is not None:
                        traceroutes[(vp.vp_id, tier)] = tr
                burst = platform.ping_burst(
                    vp, tier, round_times, count=cfg.pings_per_round
                )
                if burst is not None:
                    medians[tier] = list(np.median(burst, axis=1))
            if not medians[Tier.PREMIUM] or not medians[Tier.STANDARD]:
                continue
            vps[vp.vp_id] = vp
            records.append(
                VpDayRecord(
                    vp_id=vp.vp_id,
                    day=day,
                    median_ms={
                        tier: day_median(ms) for tier, ms in medians.items()
                    },
                )
            )
            if vp.vp_id not in checked:
                checked.add(vp.vp_id)
                premium_direct = deployment.enters_directly(Tier.PREMIUM, vp.asn)
                standard_direct = deployment.enters_directly(Tier.STANDARD, vp.asn)
                if premium_direct is True and standard_direct is False:
                    eligible.add(vp.vp_id)
    if not records:
        raise MeasurementError("campaign produced no measurements")
    gauge("cloudtiers.n_records", len(records))
    gauge("cloudtiers.n_eligible", len(eligible))
    logger.info(
        "campaign done: %d VP-day records, %d eligible VPs, %d traceroutes",
        len(records),
        len(eligible),
        len(traceroutes),
    )
    return TierDataset(
        vps=vps, records=records, traceroutes=traceroutes, eligible=eligible
    )
