"""Analyses for the cloud-tiers setting: Figure 5 and Section 3.3.

Figure 5 sign convention follows the paper: ``Standard − Premium``
median latency per country, so positive values mean the Premium Tier
(private WAN) performed better and negative values mean the Standard
Tier (BGP on the public Internet) performed better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import nanmedian
from repro.geo import Region, great_circle_km, region_of_country
from repro.netmodel.tcp import TcpPath, goodput_mbps
from repro.cloudtiers.campaign import TierDataset
from repro.cloudtiers.speedchecker import TracerouteResult
from repro.cloudtiers.tiers import CloudDeployment, Tier


@dataclass(frozen=True)
class Fig5Result:
    """Figure 5: per-country Standard − Premium median latency difference.

    Attributes:
        country_diff_ms: Country code -> (Standard − Premium) in ms.
        country_vp_count: Eligible vantage points behind each country.
        frac_within_10ms: Fraction of countries within ±10 ms.
        premium_better: Countries where Premium wins by > 10 ms.
        standard_better: Countries where Standard wins by > 10 ms.
        region_medians: Median per-country difference by region.
    """

    country_diff_ms: Dict[str, float]
    country_vp_count: Dict[str, int]
    frac_within_10ms: float
    premium_better: Tuple[str, ...]
    standard_better: Tuple[str, ...]
    region_medians: Dict[Region, float]


def country_medians(dataset: TierDataset, min_vps: int = 2) -> Fig5Result:
    """Aggregate eligible VP-day medians into Figure 5's country map."""
    by_country: Dict[str, Dict[Tier, List[float]]] = {}
    vp_sets: Dict[str, set] = {}
    for record in dataset.eligible_records():
        vp = dataset.vps[record.vp_id]
        country = vp.city.country
        bucket = by_country.setdefault(
            country, {Tier.PREMIUM: [], Tier.STANDARD: []}
        )
        for tier, value in record.median_ms.items():
            bucket[tier].append(value)
        vp_sets.setdefault(country, set()).add(record.vp_id)
    kept = [c for c in by_country if len(vp_sets[c]) >= min_vps]
    premium = _medians([by_country[c][Tier.PREMIUM] for c in kept])
    standard = _medians([by_country[c][Tier.STANDARD] for c in kept])
    diffs = {c: float(s) - float(p) for c, s, p in zip(kept, standard, premium)}
    counts = {c: len(vp_sets[c]) for c in kept}
    if not diffs:
        raise AnalysisError("no country has enough eligible vantage points")
    values = np.array(list(diffs.values()))
    premium_better = tuple(sorted(c for c, d in diffs.items() if d > 10.0))
    standard_better = tuple(sorted(c for c, d in diffs.items() if d < -10.0))
    region_values: Dict[Region, List[float]] = {}
    for country, diff in diffs.items():
        region_values.setdefault(region_of_country(country), []).append(diff)
    return Fig5Result(
        country_diff_ms=diffs,
        country_vp_count=counts,
        frac_within_10ms=float((np.abs(values) <= 10.0).mean()),
        premium_better=premium_better,
        standard_better=standard_better,
        region_medians=dict(
            zip(region_values, _medians(list(region_values.values())).tolist())
        ),
    )


@dataclass(frozen=True)
class IngressResult:
    """Section 3.3's ingress-distance statistic.

    Attributes:
        frac_within_400km: Per tier, the fraction of vantage points whose
            traceroute enters the provider within 400 km (the paper
            reports ~80% for Premium, ~10% for Standard).
        distances_km: Per tier, all VP-to-ingress distances.
    """

    frac_within_400km: Dict[Tier, float]
    distances_km: Dict[Tier, np.ndarray]


def ingress_distance_cdf(
    dataset: TierDataset, deployment: CloudDeployment
) -> IngressResult:
    """Distance from each VP to where its traffic enters the provider."""
    provider = deployment.internet.provider_asn
    distances: Dict[Tier, List[float]] = {Tier.PREMIUM: [], Tier.STANDARD: []}
    for (vp_id, tier), tr in dataset.traceroutes.items():
        ingress = tr.ingress_city(provider)
        if ingress is None:
            continue
        vp = dataset.vps.get(vp_id)
        if vp is None:
            continue
        distances[tier].append(
            great_circle_km(vp.city.location, ingress.location)
        )
    for tier, values in distances.items():
        if not values:
            raise AnalysisError(f"no traceroutes reached the provider on {tier.value}")
    return IngressResult(
        frac_within_400km={
            tier: float((np.array(vals) <= 400.0).mean())
            for tier, vals in distances.items()
        },
        distances_km={tier: np.array(vals) for tier, vals in distances.items()},
    )


@dataclass(frozen=True)
class IndiaCaseStudy:
    """Section 3.3.2's India anomaly.

    Attributes:
        n_vps: Eligible Indian vantage points.
        median_diff_ms: Standard − Premium for India (negative means the
            public Internet beat the private WAN, as the paper found).
        frac_premium_via_pacific: Premium traceroutes crossing the 180°
            antimeridian (the WAN hauls east across the Pacific).
        frac_standard_via_west: Standard traceroutes crossing 30°E
            without crossing 180° (a Tier-1 carries the traffic west via
            Europe/Atlantic).
    """

    n_vps: int
    median_diff_ms: float
    frac_premium_via_pacific: float
    frac_standard_via_west: float


def india_case_study(
    dataset: TierDataset, deployment: CloudDeployment
) -> IndiaCaseStudy:
    """Reproduce the India analysis from traceroutes and ping medians."""
    indian_vps = {
        vp_id
        for vp_id, vp in dataset.vps.items()
        if vp.city.country == "IN" and vp_id in dataset.eligible
    }
    if not indian_vps:
        raise AnalysisError("no eligible Indian vantage points in the dataset")
    diffs = [
        r.median_ms[Tier.STANDARD] - r.median_ms[Tier.PREMIUM]
        for r in dataset.records
        if r.vp_id in indian_vps
    ]
    via_pacific = []
    via_west = []
    for vp_id in indian_vps:
        premium_tr = dataset.traceroutes.get((vp_id, Tier.PREMIUM))
        standard_tr = dataset.traceroutes.get((vp_id, Tier.STANDARD))
        if premium_tr is not None:
            via_pacific.append(_crosses(premium_tr, 180.0))
        if standard_tr is not None:
            via_west.append(
                _crosses(standard_tr, 30.0) and not _crosses(standard_tr, 180.0)
            )
    return IndiaCaseStudy(
        n_vps=len(indian_vps),
        median_diff_ms=float(np.median(diffs)),
        frac_premium_via_pacific=float(np.mean(via_pacific)) if via_pacific else 0.0,
        frac_standard_via_west=float(np.mean(via_west)) if via_west else 0.0,
    )


def _crosses(tr: TracerouteResult, lon: float) -> bool:
    """Whether consecutive traceroute hops span the given meridian."""
    for a, b in zip(tr.hops[:-1], tr.hops[1:]):
        lons = sorted((a.city.location.lon, b.city.location.lon))
        span = lons[1] - lons[0]
        if span <= 180.0:
            if lons[0] <= lon <= lons[1]:
                return True
        elif lon >= lons[1] or lon <= lons[0]:
            return True
    return False


@dataclass(frozen=True)
class GoodputResult:
    """Section 4's footnote: 10 MB download goodput per tier.

    Attributes:
        median_goodput_mbps: Per tier.
        median_ratio: Premium / Standard goodput per VP, median.
    """

    median_goodput_mbps: Dict[Tier, float]
    median_ratio: float


def goodput_comparison(
    dataset: TierDataset,
    transfer_mb: float = 10.0,
    bottleneck_mbps: float = 50.0,
    initial_window_kb: float = 14.6,
) -> GoodputResult:
    """TCP slow-start + bottleneck model of a 10 MB download per tier.

    "We used Speedchecker to measure goodput of 10MB downloads from
    Google's Premium and Standard Tiers and saw little difference."  The
    bottleneck is the vantage point's access link, shared by both tiers,
    so the RTT difference only moves the slow-start ramp — a small part
    of a 10 MB transfer.
    """
    for name, value in (
        ("transfer_mb", transfer_mb),
        ("bottleneck_mbps", bottleneck_mbps),
        ("initial_window_kb", initial_window_kb),
    ):
        if not (math.isfinite(value) and value > 0):
            raise AnalysisError(f"{name} must be finite and positive, got {value}")
    per_vp: Dict[str, Dict[Tier, List[float]]] = {}
    for record in dataset.eligible_records():
        bucket = per_vp.setdefault(
            record.vp_id, {Tier.PREMIUM: [], Tier.STANDARD: []}
        )
        for tier, value in record.median_ms.items():
            bucket[tier].append(value)
    medians = {
        tier: _medians([bucket[tier] for bucket in per_vp.values()]) for tier in Tier
    }
    goodputs: Dict[Tier, List[float]] = {Tier.PREMIUM: [], Tier.STANDARD: []}
    ratios: List[float] = []
    for i, bucket in enumerate(per_vp.values()):
        vp_goodput: Dict[Tier, float] = {}
        for tier, rtts in bucket.items():
            if not rtts:
                continue
            path = TcpPath(
                rtt_ms=float(medians[tier][i]), bottleneck_mbps=bottleneck_mbps
            )
            vp_goodput[tier] = goodput_mbps(
                path, transfer_mb, iw_kb=initial_window_kb
            )
            goodputs[tier].append(vp_goodput[tier])
        if Tier.PREMIUM in vp_goodput and Tier.STANDARD in vp_goodput:
            ratios.append(vp_goodput[Tier.PREMIUM] / vp_goodput[Tier.STANDARD])
    if not ratios:
        raise AnalysisError("no VP has goodput on both tiers")
    return GoodputResult(
        median_goodput_mbps={
            tier: float(np.median(vals)) for tier, vals in goodputs.items() if vals
        },
        median_ratio=float(np.median(ratios)),
    )


def _medians(samples: Sequence[Sequence[float]]) -> np.ndarray:
    """``np.median`` of each sample, bit for bit, in one array step.

    The samples are NaN-padded into one matrix; a sample that holds a
    NaN has a NaN median, as in ``np.median``.  An empty sample gives
    NaN.
    """
    sizes = np.array([len(sample) for sample in samples])
    width = int(sizes.max(initial=1))
    grid = np.array(
        [list(sample) + [np.nan] * (width - len(sample)) for sample in samples],
        dtype=float,
    ).reshape(len(samples), width)
    medians = nanmedian(grid, axis=1)
    medians[np.count_nonzero(~np.isnan(grid), axis=1) < sizes] = np.nan
    return medians
