"""Keyed 15-minute window aggregation with watermark-based closing.

The streaming analogue of the batch pipelines' windowed-median arrays:
every observation lands in the sketch for its ⟨key, window⟩ cell, where
a window is a fixed-width bucket of simulated time (15 minutes in the
paper's protocol) and the key is whatever the caller groups by
(⟨PoP, prefix, route⟩ for session ingest).

A **watermark** — the maximum simulated time seen so far — drives
window lifecycle: once the watermark passes a window's end plus the
allowed lateness, the window closes.  Closed windows keep their
sketches (memory stays O(windows), that is the point), but new
observations older than the closure horizon are *dropped and counted*
(``late_dropped``, plus a ``stream.window.late_dropped`` telemetry
counter) — the same fate a lost probe meets in the batch lanes.

Everything is deterministic: no wall clock (simulated time only) and
no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Tuple

import numpy as np

from repro.errors import StreamError, require_int
from repro.obs.trace import counter
from repro.stream.sketch import ArrayLike, CentroidSketch

#: Watermark floor before any observation arrives.
_NO_WATERMARK = -math.inf

#: Window index lower bound while nothing can have closed yet.
_NO_CLOSED_FLOOR = -(2**62)


@dataclass(frozen=True)
class WindowSpec:
    """Fixed-width tumbling windows over simulated time (hours)."""

    minutes: float = 15.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.minutes) and self.minutes > 0):
            raise StreamError(
                f"window width must be finite and positive, got {self.minutes}"
            )

    @property
    def hours(self) -> float:
        return self.minutes / 60.0

    def index_of(self, times_h: ArrayLike) -> np.ndarray:
        """Window index per timestamp (vectorized floor division)."""
        times = np.asarray(times_h, dtype=np.float64)
        return np.floor(times / self.hours).astype(np.int64)


class WindowedAggregator:
    """Map ⟨key, window⟩ → sketch, closing windows as the watermark moves.

    Args:
        window_minutes: Tumbling window width.
        max_centroids: Centroid budget of each cell's
            :class:`~repro.stream.sketch.CentroidSketch`.
        allowed_lateness_windows: How many whole windows an observation
            may lag the watermark before it is dropped; window *w*
            closes once ``watermark >= end(w) + lateness · width``.
    """

    def __init__(
        self,
        window_minutes: float = 15.0,
        max_centroids: int = 64,
        allowed_lateness_windows: int = 1,
    ) -> None:
        lateness = require_int(
            allowed_lateness_windows, "allowed_lateness_windows", StreamError
        )
        if lateness < 0:
            raise StreamError(
                f"allowed_lateness_windows must be >= 0, got {lateness}"
            )
        self.spec = WindowSpec(window_minutes)
        # A throwaway sketch checks the budget before any cell needs one.
        self.max_centroids = CentroidSketch(max_centroids).max_centroids
        self.allowed_lateness_windows = lateness
        self._open: Dict[Tuple[Hashable, int], CentroidSketch] = {}
        self._closed: Dict[Tuple[Hashable, int], CentroidSketch] = {}
        self.watermark_h = _NO_WATERMARK
        self.late_dropped = 0
        self.peak_open = 0

    # -- lifecycle ----------------------------------------------------------

    def _min_open_index(self) -> int:
        """Smallest window index still accepting observations."""
        if self.watermark_h == _NO_WATERMARK:
            return _NO_CLOSED_FLOOR
        max_closed = math.floor(
            self.watermark_h / self.spec.hours
            - 1
            - self.allowed_lateness_windows
        )
        return max_closed + 1

    def advance_watermark(self, time_h: float) -> int:
        """Raise the watermark; close windows it has passed.

        Returns the number of windows closed by this advance.  The
        watermark never moves backwards.
        """
        if not math.isfinite(time_h):
            raise StreamError(f"watermark must be finite, got {time_h!r}")
        if time_h <= self.watermark_h:
            return 0
        self.watermark_h = float(time_h)
        min_open = self._min_open_index()
        closing = sorted(
            (cell for cell in self._open if cell[1] < min_open),
            key=lambda cell: (cell[1], repr(cell[0])),
        )
        for cell in closing:
            self._closed[cell] = self._open.pop(cell)
        if closing:
            counter("stream.window.closed", len(closing))
        return len(closing)

    # -- ingest -------------------------------------------------------------

    def observe(self, key: Hashable, times_h: ArrayLike, values: ArrayLike) -> None:
        """Fold aligned (time, value) samples for one key.

        Samples landing in already-closed windows are dropped and
        counted; everything else updates the cell sketch for its
        window.  The watermark is *not* advanced here — callers decide
        when time moves (typically once per batch).
        """
        times = np.asarray(times_h, dtype=np.float64).ravel()
        vals = np.asarray(values, dtype=np.float64).ravel()
        if times.size != vals.size:
            raise StreamError(
                f"times and values must align, got {times.size} vs {vals.size}"
            )
        if times.size == 0:
            return
        if not np.all(np.isfinite(times)):
            raise StreamError("observation times must be finite")
        idx = self.spec.index_of(times)
        min_open = self._min_open_index()
        late = idx < min_open
        if late.any():
            n_late = int(late.sum())
            self.late_dropped += n_late
            counter("stream.window.late_dropped", n_late)
            keep = ~late
            idx = idx[keep]
            vals = vals[keep]
            if idx.size == 0:
                return
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        vals = vals[order]
        bounds = np.flatnonzero(np.diff(idx)) + 1
        for widx_chunk, val_chunk in zip(
            np.split(idx, bounds), np.split(vals, bounds)
        ):
            cell = (key, int(widx_chunk[0]))
            # A closed window lies below the open floor, so its samples
            # were dropped as late above: this cell is open or new.
            sketch = self._open.get(cell)
            if sketch is None:
                sketch = self._open[cell] = CentroidSketch(self.max_centroids)
            sketch.update_batch(val_chunk)
        self.peak_open = max(self.peak_open, len(self._open))

    # -- inspection ---------------------------------------------------------

    def items(self) -> Iterator[Tuple[Hashable, int, CentroidSketch]]:
        """Every cell — open and closed — in arbitrary order."""
        for (key, widx), sketch in self._open.items():
            yield key, widx, sketch
        for (key, widx), sketch in self._closed.items():
            yield key, widx, sketch

    @property
    def n_cells(self) -> int:
        return len(self._open) + len(self._closed)
