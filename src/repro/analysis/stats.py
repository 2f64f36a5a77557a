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

    def complement(self) -> "Cdf":
        """The CCDF of the same sample: ``ps`` hold P(value > x)."""
        return Cdf(xs=self.xs, ps=1.0 - self.ps)

    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(x, p) arrays, ready for plotting or table output."""
        return self.xs.copy(), self.ps.copy()


def weighted_cdf(values: ArrayLike, weights: Optional[ArrayLike] = None) -> Cdf:
    """Build a weighted empirical CDF.

    The sample is sorted once, with numpy's default sort.  Only when the
    sorted sample has equal neighbours (a tie, ±0.0 or ±inf) or a NaN is
    it sorted again, stably, so equal values keep their input order and
    their weights add in that order; when every value is distinct, every
    correct sort gives that order.
    """
    v, w = _validate(values, weights)
    order = np.argsort(v)
    s = v[order]
    # starts[i]: s[i] is the first occurrence of its value.
    starts = np.empty(s.size, dtype=bool)
    starts[0] = True
    np.not_equal(s[1:], s[:-1], out=starts[1:])
    has_nan = bool(np.isnan(s[-1]))
    if has_nan or not starts.all():
        order = np.argsort(v, kind="stable")
        s = v[order]
        if has_nan:
            # NaNs sort last and count as one value, as in np.unique.
            starts[np.searchsorted(s, s[-1]) + 1 :] = False
    cum = np.cumsum(w[order])
    # Cumulative weight at the *last* occurrence of each distinct value.
    ends = np.append(starts[1:], True)
    return Cdf(xs=s[starts], ps=cum[ends] / cum[-1])


def nanmedian(a: np.ndarray, axis: int) -> np.ndarray:
    """``np.nanmedian(a, axis=axis)`` from one sort, bit for bit.

    NaNs sort last, so each lane's values lead its sorted run, and the
    median is the mean of its two middle values (the middle one twice
    when the count is odd).  The sum starts from +0.0, as numpy's does,
    so a median of negative zeros is +0.0.  An empty or all-NaN lane
    gives NaN, without numpy's warning.  (numpy's own paths differ only for an odd
    count whose middle value is beyond ±8.9e307, where the doubling
    overflows.)
    """
    if a.shape[axis] == 0:
        return np.full(np.delete(a.shape, axis), np.nan)
    s = np.sort(a, axis=axis)
    n = np.count_nonzero(~np.isnan(s), axis=axis, keepdims=True)
    lo = np.take_along_axis(s, np.maximum(n - 1, 0) // 2, axis=axis)
    hi = np.take_along_axis(s, n // 2, axis=axis)
    with np.errstate(invalid="ignore"):  # -inf + inf, as numpy's own
        return ((lo + hi + 0.0) / 2).squeeze(axis)
