"""Degradation-episode extraction (the §3.1.1 unit of analysis).

The section reasons about *periods*: "periods of performance
degradation on paths preferred by BGP (relative to a path's baseline
performance) are more prevalent than opportunities to improve
performance by routing over alternate paths".  This module extracts
those periods from the windowed medians — consecutive windows where a
route runs above its own campaign baseline — and compares degradation
episodes against improvement opportunities episode by episode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.edgefabric.dataset import EgressDataset


@dataclass(frozen=True)
class Episode:
    """A maximal run of windows satisfying a condition for one pair.

    Attributes:
        pair_index: Index into the dataset's pairs.
        start: First window index of the run.
        length: Number of consecutive windows.
        peak_ms: Largest excess (over baseline / over BGP) during the run.
    """

    pair_index: int
    start: int
    length: int
    peak_ms: float


@dataclass(frozen=True)
class EpisodeStudyResult:
    """§3.1.1 episode-level comparison.

    Attributes:
        degradation_episodes: Runs where the BGP route exceeded its own
            baseline by the threshold.
        opportunity_episodes: Runs where the best alternate beat the BGP
            route by the threshold.
        degradation_window_share: Fraction of pair-windows inside a
            degradation episode.
        opportunity_window_share: Fraction inside an opportunity episode.
        frac_degradations_with_escape: Degradation episodes during which
            an alternate offered a threshold-sized improvement at least
            half the time — low values mean options degrade together.
        median_degradation_minutes: Median episode duration.
        median_opportunity_minutes: Median opportunity duration.
        threshold_ms: The excess threshold used.
    """

    degradation_episodes: Tuple[Episode, ...]
    opportunity_episodes: Tuple[Episode, ...]
    degradation_window_share: float
    opportunity_window_share: float
    frac_degradations_with_escape: float
    median_degradation_minutes: float
    median_opportunity_minutes: float
    threshold_ms: float


def _runs_batch(masks: np.ndarray, excess: np.ndarray) -> List[Episode]:
    """Every row's maximal runs of ``True``, with each run's peak excess.

    Rows are flattened with a guard column of ``False`` between them so
    no run can straddle a row boundary; run starts/ends fall out of one
    ``diff`` over the flat mask, and per-run peaks out of one
    ``maximum.reduceat``.  Episodes come out row-major, then by start;
    ``pair_index`` is the row.
    """
    n_pairs, n_windows = masks.shape
    guard = np.zeros((n_pairs, 1), dtype=bool)
    flat_mask = np.concatenate([masks, guard], axis=1).ravel()
    edges = np.flatnonzero(np.diff(flat_mask.astype(np.int8), prepend=0))
    if edges.size == 0:
        return []
    starts = edges[0::2]
    ends = edges[1::2]
    # Guard values never fall inside a run, so their excess is irrelevant;
    # zero keeps NaNs out of the reduction's discarded segments' neighbours.
    flat_excess = np.concatenate(
        [np.nan_to_num(excess, nan=0.0), np.zeros((n_pairs, 1))], axis=1
    ).ravel()
    bounds = np.empty(starts.size * 2, dtype=np.intp)
    bounds[0::2] = starts
    bounds[1::2] = ends
    peaks = np.maximum.reduceat(flat_excess, bounds)[0::2]
    width = n_windows + 1
    return [
        Episode(
            pair_index=int(s // width),
            start=int(s % width),
            length=int(e - s),
            peak_ms=float(p),
        )
        for s, e, p in zip(starts, ends, peaks)
    ]


def extract_episodes(
    dataset: EgressDataset, threshold_ms: float = 5.0
) -> EpisodeStudyResult:
    """Extract degradation and opportunity episodes from a dataset.

    A pair's *baseline* is the whole-campaign median of its BGP route;
    degradation = BGP median above baseline + threshold; opportunity =
    best alternate below BGP median − threshold.

    Args:
        dataset: The windowed measurement dataset.
        threshold_ms: Excess threshold defining an episode.
    """
    if threshold_ms <= 0:
        raise AnalysisError("threshold must be positive")
    if dataset.n_windows < 2:
        raise AnalysisError("need at least two windows")
    window_minutes = float(
        (dataset.times_h[1] - dataset.times_h[0]) * 60.0
    )
    bgp = dataset.medians[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"):
        best_alt = np.nanmin(dataset.medians[:, :, 1:], axis=2)

    degradations: List[Episode] = []
    opportunities: List[Episode] = []
    degraded_windows = 0
    opportunity_windows = 0
    total_windows = 0
    escapes = 0
    valid = ~np.isnan(bgp)
    eligible = valid.sum(axis=1) >= 8
    if eligible.any():
        sub = np.flatnonzero(eligible)
        series = bgp[sub]
        sub_valid = valid[sub]
        with np.errstate(invalid="ignore", all="ignore"):
            baseline = np.nanmedian(series, axis=1)
        excess = series - baseline[:, None]
        degraded = sub_valid & (excess > threshold_ms)
        improvement = series - best_alt[sub]
        opportunity = (
            sub_valid & ~np.isnan(best_alt[sub]) & (improvement > threshold_ms)
        )
        total_windows = int(sub_valid.sum())
        degraded_windows = int(degraded.sum())
        opportunity_windows = int(opportunity.sum())
        remap = {local: int(orig) for local, orig in enumerate(sub)}

        def renumber(eps: List[Episode]) -> List[Episode]:
            return [
                Episode(
                    pair_index=remap[e.pair_index],
                    start=e.start,
                    length=e.length,
                    peak_ms=e.peak_ms,
                )
                for e in eps
            ]

        degradations = renumber(_runs_batch(degraded, excess))
        opportunities = renumber(_runs_batch(opportunity, improvement))
        # Escape test per degradation episode: fraction of its windows
        # offering an alternate-route improvement, via one cumsum.
        guard = np.zeros((opportunity.shape[0], 1), dtype=bool)
        flat_opp = np.concatenate([opportunity, guard], axis=1).ravel()
        cum = np.concatenate([[0], np.cumsum(flat_opp)])
        width = opportunity.shape[1] + 1
        inverse = {orig: local for local, orig in remap.items()}
        for episode in degradations:
            row = inverse[episode.pair_index]
            lo = row * width + episode.start
            hi = lo + episode.length
            if (cum[hi] - cum[lo]) / episode.length >= 0.5:
                escapes += 1
    if total_windows == 0:
        raise AnalysisError("no pair has enough valid windows")

    def median_minutes(episodes: Sequence[Episode]) -> float:
        if not episodes:
            return 0.0
        return float(np.median([e.length for e in episodes]) * window_minutes)

    return EpisodeStudyResult(
        degradation_episodes=tuple(degradations),
        opportunity_episodes=tuple(opportunities),
        degradation_window_share=degraded_windows / total_windows,
        opportunity_window_share=opportunity_windows / total_windows,
        frac_degradations_with_escape=(
            escapes / len(degradations) if degradations else 0.0
        ),
        median_degradation_minutes=median_minutes(degradations),
        median_opportunity_minutes=median_minutes(opportunities),
        threshold_ms=threshold_ms,
    )
