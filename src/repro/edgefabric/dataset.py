"""Windowed egress measurement dataset.

Mirrors the Facebook dataset's schema: per ⟨PoP, prefix⟩ pair and
15-minute window, the median MinRTT of sampled sessions on each of the
top-k BGP routes, the confidence interval around each median, and the
pair's traffic volume in the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.bgp import RouteClass
from repro.edgefabric.routes import EgressRoute
from repro.workloads import ClientPrefix


def window_times(days: float, window_minutes: float) -> np.ndarray:
    """Window start times in hours over a measurement horizon."""
    if days <= 0 or window_minutes <= 0:
        raise AnalysisError("days and window_minutes must be positive")
    step = window_minutes / 60.0
    return np.arange(0.0, days * 24.0, step)


@dataclass(frozen=True)
class PairKey:
    """Identity and route inventory of one measured ⟨PoP, prefix⟩ pair."""

    pop_code: str
    prefix: ClientPrefix
    routes: Tuple[EgressRoute, ...]  # in BGP preference order

    @property
    def n_routes(self) -> int:
        return len(self.routes)


@dataclass
class EgressDataset:
    """Vectorized measurement results for all pairs.

    Attributes:
        pairs: Pair identities, index-aligned with the first axis below.
        times_h: Window start times (hours), shared by all pairs.
        medians: Median MinRTT (ms), shape ``(n_pairs, n_windows, k)``;
            NaN where a pair has fewer than k routes.
        ci_half: Half-width of the 95% CI around each median, same shape.
        volumes: Traffic volume (relative bytes) per pair-window,
            shape ``(n_pairs, n_windows)``.
        max_routes: k, the spray width.
    """

    pairs: List[PairKey]
    times_h: np.ndarray
    medians: np.ndarray
    ci_half: np.ndarray
    volumes: np.ndarray
    max_routes: int

    def __post_init__(self) -> None:
        n_pairs = len(self.pairs)
        n_windows = self.times_h.size
        expected = (n_pairs, n_windows, self.max_routes)
        if self.medians.shape != expected:
            raise AnalysisError(
                f"medians shape {self.medians.shape} != {expected}"
            )
        if self.ci_half.shape != expected:
            raise AnalysisError(
                f"ci_half shape {self.ci_half.shape} != {expected}"
            )
        if self.volumes.shape != (n_pairs, n_windows):
            raise AnalysisError(
                f"volumes shape {self.volumes.shape} != {(n_pairs, n_windows)}"
            )

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_windows(self) -> int:
        return int(self.times_h.size)

    def pairs_with_alternates(self) -> np.ndarray:
        """Boolean mask of pairs measured on at least two routes."""
        return np.array([p.n_routes >= 2 for p in self.pairs])

    def class_best_medians(self, route_class: RouteClass) -> np.ndarray:
        """Best (lowest) median per pair-window among routes of a class.

        Shape ``(n_pairs, n_windows)``; NaN where the pair has no route
        of that class.
        """
        of_class = np.zeros((self.n_pairs, self.max_routes), dtype=bool)
        for i, pair in enumerate(self.pairs):
            for j, route in enumerate(pair.routes):
                of_class[i, j] = route.route_class is route_class
        # The minimum over each pair's routes of the class, NaNs skipped
        # as in nanmin, one route column at a time: a median replaces the
        # running minimum when it is lower or the minimum is still NaN,
        # so a tie keeps the earlier route's median.
        out = np.full((self.n_pairs, self.n_windows), np.nan)
        for j in range(self.max_routes):
            column = self.medians[:, :, j]
            lower = of_class[:, j, None] & ((column < out) | np.isnan(out))
            out = np.where(lower, column, out)
        return out
