"""Distribution metrics for the telemetry stream: sketch-backed histograms.

Counters and gauges (:mod:`repro.obs.trace`) cover tallies and
point-in-time readings; this module adds the third shape — a
*distribution* — without storing raw samples.  A :class:`Histogram`
folds observations into a :class:`repro.stream.sketch.CentroidSketch`
(bounded memory, mergeable, canonical-JSON serializable), so hot call
sites like per-job latency or retry backoff get p50/p95/p99 at constant
cost per sample.

Histograms ride the event schema as ``hist`` events (schema v2): one
event per flush carrying the serialized sketch plus the running sum,
emitted by ``Tracer.flush_histograms``.  Because sketches merge, a
stream may legally contain several ``hist`` events for the same name —
partial flushes from the orchestrator and from each worker process —
and readers fold them back together with :func:`merge_hist_events`.

The import direction matters: :mod:`repro.obs.trace` must stay
importable before :mod:`repro.stream` (the instrumented measurement
modules import ``trace`` at module scope), so ``trace`` pulls this
module lazily at the first ``histogram()`` call, never at import time.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ObsError
from repro.obs.events import make_event
from repro.stream.sketch import CentroidSketch, sketch_from_dict

#: Quantiles reported by default in summaries and CLI tables.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Centroid budget for telemetry histograms.  Small on purpose: a hist
#: event is one JSONL line, and RANK_TOLERANCE already bounds the
#: rank-space error at this resolution.
DEFAULT_MAX_CENTROIDS = 64


class Histogram:
    """A named distribution backed by a mergeable centroid sketch.

    Not thread-safe by itself — the owning ``Tracer`` serializes
    ``observe`` calls under its buffer lock.

    Args:
        name: Metric name; the aggregation key across processes.
        max_centroids: Sketch resolution (see
            :class:`repro.stream.sketch.CentroidSketch`).
    """

    __slots__ = ("name", "sum", "_sketch")

    def __init__(self, name: str, max_centroids: int = DEFAULT_MAX_CENTROIDS):
        if not isinstance(name, str) or not name:
            raise ObsError(f"histogram name must be a non-empty string, got {name!r}")
        self.name = name
        self.sum = 0.0
        self._sketch = CentroidSketch(max_centroids=max_centroids)

    @property
    def count(self) -> int:
        """Number of observed samples."""
        return self._sketch.count

    @property
    def min(self) -> Optional[float]:
        """Smallest observed sample, ``None`` while empty."""
        return None if self._sketch.count == 0 else self._sketch._min

    @property
    def max(self) -> Optional[float]:
        """Largest observed sample, ``None`` while empty."""
        return None if self._sketch.count == 0 else self._sketch._max

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean (exact — tracked as a running sum)."""
        count = self._sketch.count
        return None if count == 0 else self.sum / count

    def observe(self, value: float) -> None:
        """Fold one sample into the distribution."""
        value = float(value)
        self._sketch.update(value)
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (exact while samples fit the sketch).

        Raises:
            ObsError: On an empty histogram.
        """
        if self._sketch.count == 0:
            raise ObsError(f"histogram {self.name!r} is empty")
        return self._sketch.quantile(q)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold another histogram of the same name into this one."""
        if other.name != self.name:
            raise ObsError(
                f"cannot merge histogram {other.name!r} into {self.name!r}"
            )
        self._sketch.merge(other._sketch)
        self.sum += other.sum
        return self

    def to_event(self, run_id: str) -> Dict[str, Any]:
        """Serialize as one ``hist`` event for the telemetry stream."""
        return make_event(
            "hist",
            self.name,
            run_id,
            time.perf_counter(),
            sketch=self._sketch.to_dict(),
            sum=self.sum,
        )

    @classmethod
    def from_event(cls, event: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from one ``hist`` event.

        Raises:
            ObsError: When the embedded sketch state is malformed or of
                an unexpected kind.
        """
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ObsError(f"hist event name must be a non-empty string, got {name!r}")
        try:
            sketch = sketch_from_dict(event["sketch"])
        except Exception as exc:
            raise ObsError(
                f"hist event {name!r} carries a malformed sketch: {exc}"
            ) from exc
        hist = cls.__new__(cls)
        hist.name = name
        hist._sketch = sketch
        total = event.get("sum", 0.0)
        if not isinstance(total, (int, float)) or isinstance(total, bool):
            raise ObsError(f"hist event {name!r} sum must be a number, got {total!r}")
        hist.sum = float(total)
        return hist

    def summary(
        self, quantiles: Iterable[float] = DEFAULT_QUANTILES
    ) -> Dict[str, Any]:
        """Flat summary dict: count/min/max/mean plus ``p50``-style keys."""
        out: Dict[str, Any] = {
            "count": self.count,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in quantiles:
            label = f"p{q * 100:g}".replace(".", "_")
            out[label] = None if self.count == 0 else self.quantile(q)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, count={self.count})"


def merge_hist_events(
    events: Iterable[Mapping[str, Any]]
) -> Dict[str, Histogram]:
    """Fold every ``hist`` event of a stream into per-name histograms.

    Non-``hist`` events are skipped, so callers can pass a whole event
    stream.  Multiple events per name (partial flushes, worker shards)
    merge; sketches make the fold order-insensitive up to compression.
    """
    merged: Dict[str, Histogram] = {}
    for event in events:
        if event.get("kind") != "hist":
            continue
        hist = Histogram.from_event(event)
        existing = merged.get(hist.name)
        if existing is None:
            merged[hist.name] = hist
        else:
            existing.merge(hist)
    return merged


def quantile_table(
    histograms: Mapping[str, Histogram],
    quantiles: Iterable[float] = DEFAULT_QUANTILES,
) -> List[Dict[str, Any]]:
    """Sorted, JSON-ready rows (``name`` + summary) for reports and CLI."""
    qs = tuple(quantiles)
    rows = []
    for name in sorted(histograms):
        row: Dict[str, Any] = {"name": name}
        row.update(histograms[name].summary(qs))
        rows.append(row)
    return rows
