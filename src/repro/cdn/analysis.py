"""Analyses for the anycast CDN setting: Figures 3 and 4.

Figure 3 sign convention: ``anycast − best unicast`` per request, so
positive values mean a unicast front-end would have been faster; the
figure is a CCDF (fraction of requests whose gap exceeds x).

Figure 4 sign convention: ``anycast − chosen`` per request ("improvement
over anycast"), so positive values mean the DNS-redirection prediction
beat anycast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import Cdf, weighted_cdf
from repro.geo import Region
from repro.cdn.dns_redirection import (
    ANYCAST,
    RedirectionPolicy,
    evaluation_slice,
)
from repro.cdn.measurement import BeaconDataset

#: Figure 3's regional breakdown: World, United States, Europe.
FIG3_GROUPS: Tuple[str, ...] = ("world", "united-states", "europe")


@dataclass(frozen=True)
class Fig3Result:
    """Figure 3: CCDF of (anycast − best nearby unicast) per request.

    Attributes:
        ccdfs: CCDF per group ("world", "united-states", "europe").
        frac_within_10ms: Fraction of requests with gap <= 10 ms per
            group (the paper reports ~70% globally).
        frac_beyond_100ms: Fraction of requests with gap >= 100 ms per
            group (the paper reports ~10% globally).
    """

    ccdfs: Dict[str, Cdf]
    frac_within_10ms: Dict[str, float]
    frac_beyond_100ms: Dict[str, float]


def anycast_vs_best_unicast(dataset: BeaconDataset) -> Fig3Result:
    """Compute Figure 3 from a beacon dataset."""
    best = dataset.best_nearby_unicast()
    gap = dataset.anycast_rtt - best
    weights = np.repeat(dataset.weights()[:, None], dataset.n_requests, axis=1)
    regions = dataset.regions()
    country = [p.city.country for p in dataset.prefixes]

    masks = {
        "world": np.ones(dataset.n_prefixes, dtype=bool),
        "united-states": np.array([c == "US" for c in country]),
        "europe": np.array([r is Region.EUROPE for r in regions]),
    }
    ccdfs: Dict[str, Cdf] = {}
    within: Dict[str, float] = {}
    beyond: Dict[str, float] = {}
    for group, mask in masks.items():
        if not mask.any():
            continue
        g = gap[mask].ravel()
        w = weights[mask].ravel()
        valid = ~np.isnan(g)
        if not valid.any():
            continue
        g = g[valid]
        w = w[valid]
        cdf = weighted_cdf(g, w)
        ccdfs[group] = cdf.complement()
        within[group] = cdf.fraction_at_most(10.0)
        beyond[group] = 1.0 - cdf.fraction_at_most(100.0) + _mass_at(g, w, 100.0)
    if "world" not in ccdfs:
        raise AnalysisError("no valid request measurements")
    return Fig3Result(
        ccdfs=ccdfs, frac_within_10ms=within, frac_beyond_100ms=beyond
    )


def _mass_at(values: np.ndarray, weights: np.ndarray, x: float) -> float:
    at = values == x
    if not at.any():
        return 0.0
    return float(weights[at].sum() / weights.sum())


@dataclass(frozen=True)
class Fig4Result:
    """Figure 4: CDF over weighted /24s of improvement from redirection.

    Attributes:
        median_cdf: CDF of each /24's *median* per-request improvement.
        p75_cdf: CDF of each /24's 75th-percentile improvement.
        frac_improved: Weighted /24 fraction whose median improvement is
            at least ``threshold_ms`` (the paper reports 27%).
        frac_hurt: Weighted fraction whose median got *worse* by at least
            the threshold (the paper reports 17%).
        frac_redirected: Fraction of resolvers the policy redirected.
        threshold_ms: The improvement threshold used for the fractions.
    """

    median_cdf: Cdf
    p75_cdf: Cdf
    frac_improved: float
    frac_hurt: float
    frac_redirected: float
    threshold_ms: float


def redirection_improvement(
    dataset: BeaconDataset,
    policy: RedirectionPolicy,
    train_fraction: float = 0.5,
    threshold_ms: float = 1.0,
) -> Fig4Result:
    """Compute Figure 4: evaluate a trained policy against anycast.

    Per prefix (weighted by its /24 count times query volume), the unit
    is the median (and p75) over evaluation requests of
    ``anycast RTT − RTT of the policy's chosen target``.
    """
    window = evaluation_slice(dataset, train_fraction)
    anycast = dataset.anycast_rtt[:, window]
    chosen = anycast.copy()
    for i, prefix in enumerate(dataset.prefixes):
        choice = policy.choice_for(prefix.ldns, pid=prefix.pid)
        col = None if choice == ANYCAST else dataset.column_of(i, choice)
        if col is not None:
            chosen[i] = dataset.unicast_rtt[i, window, col]
    improvement = anycast - chosen
    med = np.full(dataset.n_prefixes, np.nan)
    p75 = np.full(dataset.n_prefixes, np.nan)
    # Rows without a NaN take the axis calls, which equal per-row calls;
    # a row with one takes its valid requests on their own.
    full = ~np.isnan(improvement).any(axis=1)
    if full.any():
        med[full] = np.median(improvement[full], axis=1)
        p75[full] = np.quantile(improvement[full], 0.75, axis=1)
    for i in np.flatnonzero(~full):
        row = improvement[i][~np.isnan(improvement[i])]
        if row.size:
            med[i] = np.median(row)
            p75[i] = np.quantile(row, 0.75)
    valid = ~np.isnan(med)
    if not valid.any():
        raise AnalysisError("no prefix has evaluation measurements")
    weights = dataset.slash24_weights()[valid]
    med = med[valid]
    p75 = p75[valid]
    total = weights.sum()
    return Fig4Result(
        median_cdf=weighted_cdf(med, weights),
        p75_cdf=weighted_cdf(p75, weights),
        frac_improved=float(weights[med >= threshold_ms].sum() / total),
        frac_hurt=float(weights[med <= -threshold_ms].sum() / total),
        frac_redirected=policy.frac_redirected,
        threshold_ms=threshold_ms,
    )
