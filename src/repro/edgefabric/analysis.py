"""Analyses over the egress dataset: Figures 1 and 2 and Section 3.1.1.

Sign convention throughout follows the paper's Figure 1 x-axis,
``BGP − Alternate``: positive values mean the best alternate route had
lower latency than BGP's preferred route (alternate is better); negative
values mean BGP's choice was already the fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import Cdf, nanmedian, weighted_cdf
from repro.bgp import RouteClass
from repro.edgefabric.dataset import EgressDataset


@dataclass(frozen=True)
class Fig1Result:
    """Figure 1: weighted CDF of median MinRTT difference, with CI band.

    Attributes:
        cdf: CDF of (BGP − best alternate) over traffic weight.
        cdf_lower / cdf_upper: CDFs of the confidence-interval bounds of
            the difference (the shaded band in the paper's figure).
        frac_alternate_better_5ms: Traffic fraction where an alternate
            improves the median by 5 ms or more (the paper reports 2-4%).
        frac_bgp_within_1ms: Traffic fraction where BGP is within 1 ms of
            the best alternate (better or roughly as good).
        frac_bgp_strictly_better: Traffic fraction with difference < 0.
    """

    cdf: Cdf
    cdf_lower: Cdf
    cdf_upper: Cdf
    frac_alternate_better_5ms: float
    frac_bgp_within_1ms: float
    frac_bgp_strictly_better: float


def bgp_vs_best_alternate(dataset: EgressDataset) -> Fig1Result:
    """Compute Figure 1 from an egress dataset.

    Per pair and window the unit of analysis is
    ``median(BGP route) − min(median(alternate routes))``, weighted by
    the pair's traffic volume in the window.
    """
    if dataset.max_routes < 2:
        raise AnalysisError("need at least two routes for a comparison")
    bgp = dataset.medians[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"):
        best_alt = np.nanmin(dataset.medians[:, :, 1:], axis=2)
    valid = ~np.isnan(bgp) & ~np.isnan(best_alt)
    if not valid.any():
        raise AnalysisError("no pair-window has both BGP and alternate medians")
    diff = (bgp - best_alt)[valid]
    weight = dataset.volumes[valid]
    # CI of the difference: half-widths add (conservative independent
    # bound), producing the band around the central CDF.
    ci_bgp = dataset.ci_half[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"):
        alt_idx = np.nanargmin(
            np.where(
                np.isnan(dataset.medians[:, :, 1:]),
                np.inf,
                dataset.medians[:, :, 1:],
            ),
            axis=2,
        )
    rows = np.arange(dataset.n_pairs)[:, None]
    cols = np.arange(dataset.n_windows)[None, :]
    ci_alt = dataset.ci_half[rows, cols, alt_idx + 1]
    band = (ci_bgp + ci_alt)[valid]
    cdf = weighted_cdf(diff, weight)
    return Fig1Result(
        cdf=cdf,
        cdf_lower=weighted_cdf(diff - band, weight),
        cdf_upper=weighted_cdf(diff + band, weight),
        frac_alternate_better_5ms=1.0
        - cdf.fraction_at_most(5.0)
        + _mass_at(diff, weight, 5.0),
        frac_bgp_within_1ms=cdf.fraction_at_most(1.0),
        frac_bgp_strictly_better=cdf.fraction_at_most(0.0),
    )


def _mass_at(values: np.ndarray, weights: np.ndarray, x: float) -> float:
    """Weight fraction exactly at ``x`` (re-included for >= thresholds)."""
    at = values == x
    if not at.any():
        return 0.0
    return float(weights[at].sum() / weights.sum())


@dataclass(frozen=True)
class Fig2Result:
    """Figure 2: peer-vs-transit and private-vs-public comparisons.

    Attributes:
        peer_vs_transit: CDF of (best peer − best transit) per
            pair-window over traffic weight, for pairs with both.
        private_vs_public: CDF of (best private peer − best public peer).
        frac_transit_within_5ms: Traffic fraction where transit is within
            5 ms of peering ("transits have performance similar to that
            of peers").
        frac_public_within_5ms: Same for public vs private peers.
    """

    peer_vs_transit: Cdf
    private_vs_public: Cdf
    frac_transit_within_5ms: float
    frac_public_within_5ms: float


def route_class_comparison(dataset: EgressDataset) -> Fig2Result:
    """Compute Figure 2 from an egress dataset."""
    private_best = dataset.class_best_medians(RouteClass.PRIVATE_PEER)
    public_best = dataset.class_best_medians(RouteClass.PUBLIC_PEER)
    transit_best = dataset.class_best_medians(RouteClass.TRANSIT)
    with np.errstate(invalid="ignore"):
        peer_best = np.fmin(private_best, public_best)

    def diff_cdf(a: np.ndarray, b: np.ndarray) -> Tuple[Optional[Cdf], np.ndarray, np.ndarray]:
        valid = ~np.isnan(a) & ~np.isnan(b)
        if not valid.any():
            return None, np.array([]), np.array([])
        d = (a - b)[valid]
        w = dataset.volumes[valid]
        return weighted_cdf(d, w), d, w

    pt_cdf, pt_d, pt_w = diff_cdf(peer_best, transit_best)
    pp_cdf, pp_d, pp_w = diff_cdf(private_best, public_best)
    if pt_cdf is None or pp_cdf is None:
        raise AnalysisError(
            "dataset lacks the route-class mix needed for Figure 2"
        )

    def within(d: np.ndarray, w: np.ndarray, ms: float) -> float:
        return float(w[np.abs(d) <= ms].sum() / w.sum())

    return Fig2Result(
        peer_vs_transit=pt_cdf,
        private_vs_public=pp_cdf,
        frac_transit_within_5ms=within(pt_d, pt_w, 5.0),
        frac_public_within_5ms=within(pp_d, pp_w, 5.0),
    )


@dataclass(frozen=True)
class PersistenceResult:
    """Section 3.1.1: do route options degrade together?

    Attributes:
        frac_pairs_never: Pairs where alternates beat BGP by the
            threshold in under 5% of windows.
        frac_pairs_persistent: Pairs where they do so in over 80% of
            windows ("consistently better all the time").
        frac_pairs_transient: Everything in between.
        degradation_co_occurrence: Among windows where the BGP route is
            degraded (above its own campaign median by the threshold),
            the fraction where the best alternate is degraded too —
            high values mean options degrade together.
        median_route_correlation: Median (over pairs) Pearson correlation
            between the BGP route's median series and the best
            alternate's.
        threshold_ms: The improvement/degradation threshold used.
    """

    frac_pairs_never: float
    frac_pairs_persistent: float
    frac_pairs_transient: float
    degradation_co_occurrence: float
    median_route_correlation: float
    threshold_ms: float


def persistence_decomposition(
    dataset: EgressDataset, threshold_ms: float = 5.0
) -> PersistenceResult:
    """Decompose alternate-route wins into persistent vs transient."""
    if threshold_ms <= 0:
        raise AnalysisError("threshold must be positive")
    bgp = dataset.medians[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"):
        best_alt = np.nanmin(dataset.medians[:, :, 1:], axis=2)
    valid = ~np.isnan(bgp) & ~np.isnan(best_alt)
    n_valid = valid.sum(axis=1)
    classified = np.flatnonzero(n_valid >= 8)
    if classified.size == 0:
        raise AnalysisError("no pair has enough valid windows")
    valid = valid[classified]
    n_valid = n_valid[classified]
    b = np.where(valid, bgp[classified], np.nan)
    a = np.where(valid, best_alt[classified], np.nan)
    # Per pair, the fraction of its valid windows where an alternate wins.
    win_frac = ((b - a) > threshold_ms).sum(axis=1) / n_valid
    n_never = int((win_frac < 0.05).sum())
    n_persistent = int((win_frac > 0.80).sum())
    # A window is degraded when its route is above its own campaign
    # median (over the pair's valid windows) by the threshold.
    b_degraded = b > nanmedian(b, axis=1)[:, None] + threshold_ms
    a_degraded = a > nanmedian(a, axis=1)[:, None] + threshold_ms
    n_degraded = b_degraded.sum(axis=1)
    n_both = (a_degraded & b_degraded).sum(axis=1)
    co_degraded = n_both[n_degraded > 0] / n_degraded[n_degraded > 0]
    # corrcoef sums through BLAS, so it stays one call per pair.
    correlations = []
    for b_i, a_i, mask in zip(b, a, valid):
        b_i, a_i = b_i[mask], a_i[mask]
        if b_i.std() > 0 and a_i.std() > 0:
            correlations.append(float(np.corrcoef(b_i, a_i)[0, 1]))
    n_classified = classified.size
    return PersistenceResult(
        frac_pairs_never=n_never / n_classified,
        frac_pairs_persistent=n_persistent / n_classified,
        frac_pairs_transient=(n_classified - n_never - n_persistent) / n_classified,
        degradation_co_occurrence=(
            float(np.mean(co_degraded)) if co_degraded.size else float("nan")
        ),
        median_route_correlation=(
            float(np.median(correlations)) if correlations else float("nan")
        ),
        threshold_ms=threshold_ms,
    )
