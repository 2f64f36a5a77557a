"""Weighted distribution statistics.

Every figure in the paper is a weighted CDF or CCDF: Figure 1 weights
route-latency differences by traffic volume, Figure 4 weights /24s by
query volume, Figure 5 takes per-country medians of ping samples.  This
module provides those primitives with explicit, tested semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError

ArrayLike = Union[Sequence[float], np.ndarray]


def _validate(values: ArrayLike, weights: Optional[ArrayLike]) -> Tuple[np.ndarray, np.ndarray]:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise AnalysisError(f"values must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise AnalysisError("no samples")
    if weights is None:
        w = np.ones_like(v)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != v.shape:
            raise AnalysisError(
                f"weights shape {w.shape} does not match values {v.shape}"
            )
        if not np.isfinite(w).all():
            raise AnalysisError("weights must be finite")
        if (w < 0).any():
            raise AnalysisError("weights must be non-negative")
    total = w.sum()
    # ``not total > 0`` (rather than ``total <= 0``) also rejects a NaN
    # total, which would otherwise sail through and divide to all-NaN.
    if not total > 0:
        raise AnalysisError(
            "total weight must be positive; an all-zero weight vector "
            "has no distribution to normalize"
        )
    return v, w


@dataclass(frozen=True)
class Cdf:
    """An empirical (weighted) CDF.

    Attributes:
        xs: Sorted distinct sample values.
        ps: Cumulative weight fraction at each value (right-continuous:
            ``ps[i]`` is the fraction of weight with value <= ``xs[i]``).
    """

    xs: np.ndarray
    ps: np.ndarray

    def fraction_at_most(self, x: float) -> float:
        """P(value <= x)."""
        idx = np.searchsorted(self.xs, x, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.ps[idx])

    def fraction_above(self, x: float) -> float:
        """P(value > x)."""
        return 1.0 - self.fraction_at_most(x)

    def quantile(self, q: float) -> float:
        """The smallest value with cumulative fraction >= q."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        idx = int(np.searchsorted(self.ps, q, side="left"))
        idx = min(idx, len(self.xs) - 1)
        return float(self.xs[idx])

    @property
    def median(self) -> float:
        """The weighted median."""
        return self.quantile(0.5)

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, p) arrays, ready for plotting or table output."""
        return self.xs.copy(), self.ps.copy()


def weighted_cdf(values: ArrayLike, weights: Optional[ArrayLike] = None) -> Cdf:
    """Build a weighted empirical CDF."""
    v, w = _validate(values, weights)
    order = np.argsort(v, kind="stable")
    v = v[order]
    w = w[order]
    xs, first = np.unique(v, return_index=True)
    cum = np.cumsum(w)
    # Cumulative weight at the *last* occurrence of each distinct value.
    last = np.append(first[1:], len(v)) - 1
    ps = cum[last] / cum[-1]
    return Cdf(xs=xs, ps=ps)


def weighted_ccdf(values: ArrayLike, weights: Optional[ArrayLike] = None) -> Cdf:
    """The complementary CDF: stored as a :class:`Cdf` whose ``ps`` hold
    P(value > x) at each x (Figure 3 is plotted this way)."""
    cdf = weighted_cdf(values, weights)
    return Cdf(xs=cdf.xs, ps=1.0 - cdf.ps)


def weighted_quantile(
    values: ArrayLike, q: float, weights: Optional[ArrayLike] = None
) -> float:
    """Weighted quantile of a sample (type-1, left-continuous inverse)."""
    return weighted_cdf(values, weights).quantile(q)


def weighted_fraction_below(
    values: ArrayLike, threshold: float, weights: Optional[ArrayLike] = None
) -> float:
    """Fraction of weight with value <= threshold."""
    return weighted_cdf(values, weights).fraction_at_most(threshold)
