"""Incremental session ingest: feed → snapshot → merge.

The streaming counterpart of :func:`repro.netmodel.rtt.sampled_median_matrix`:
instead of materializing every session RTT and taking one median per
⟨PoP, prefix, route⟩ 15-minute window, a :class:`SessionIngestor` folds
session batches into one mergeable quantile sketch per cell.  Memory is
O(windows × keys), not O(sessions).

The unit of transport is a :class:`SessionBatch` — a compact columnar
slab of ⟨key id, time, RTT⟩ rows plus a key table resolving ids to
⟨PoP code, prefix id, route index⟩ triples.  Batches are what the
synthesizer (:mod:`repro.stream.sessions`) yields and what shards feed.

Determinism contract: feeding the same batches in the same order always
yields byte-identical snapshots, and merging shard snapshots whose key
sets are disjoint is byte-identical to one ingestor having seen all the
shards' batches (each key's samples arrive in the same order either
way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamError, require_int
from repro.obs.trace import counter
from repro.stream.sketch import (
    CentroidSketch,
    _dump_canonical,
    sketch_from_dict,
)
from repro.stream.window import WindowedAggregator, WindowSpec

#: ⟨PoP code, prefix id, route index⟩ — the cell key of the measurement plane.
Key = Tuple[str, str, int]

_SNAPSHOT_SCHEMA = 1


@dataclass(frozen=True)
class IngestConfig:
    """Configuration shared by every shard of one ingest campaign.

    A frozen dataclass of scalars so it can ride inside a
    :class:`~repro.runner.job.JobSpec` (content-hashable) unchanged.
    """

    window_minutes: float = 15.0
    max_centroids: int = 64
    allowed_lateness_windows: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window_minutes) and self.window_minutes > 0):
            raise StreamError(
                "window_minutes must be finite and positive, got "
                f"{self.window_minutes}"
            )
        # Stored as plain ints: the snapshot header records them as given.
        max_centroids = require_int(self.max_centroids, "max_centroids", StreamError)
        if max_centroids < 8:
            raise StreamError(f"max_centroids must be >= 8, got {max_centroids}")
        lateness = require_int(
            self.allowed_lateness_windows, "allowed_lateness_windows", StreamError
        )
        if lateness < 0:
            raise StreamError(
                f"allowed_lateness_windows must be >= 0, got {lateness}"
            )
        object.__setattr__(self, "max_centroids", max_centroids)
        object.__setattr__(self, "allowed_lateness_windows", lateness)


@dataclass(frozen=True)
class SessionBatch:
    """One columnar slab of sessions: aligned key ids, times, RTTs."""

    key_table: Tuple[Key, ...]
    key_ids: np.ndarray
    times_h: np.ndarray
    rtt_ms: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.key_ids)
        times = np.asarray(self.times_h, dtype=np.float64)
        rtts = np.asarray(self.rtt_ms, dtype=np.float64)
        if not (ids.shape == times.shape == rtts.shape) or ids.ndim != 1:
            raise StreamError(
                "key_ids, times_h and rtt_ms must be aligned 1-d arrays, got "
                f"shapes {ids.shape}, {times.shape}, {rtts.shape}"
            )
        if ids.size:
            if ids.min() < 0 or ids.max() >= len(self.key_table):
                raise StreamError(
                    f"key id out of range for a table of {len(self.key_table)}"
                )
            if not np.all(np.isfinite(times)):
                raise StreamError("session times must be finite")
            if not np.all(np.isfinite(rtts)):
                raise StreamError("session RTTs must be finite")
        object.__setattr__(self, "key_ids", ids.astype(np.int64))
        object.__setattr__(self, "times_h", times)
        object.__setattr__(self, "rtt_ms", rtts)

    @property
    def n_sessions(self) -> int:
        return int(self.key_ids.size)

    @classmethod
    def from_rows(
        cls, rows: Iterable[Tuple[Key, float, float]]
    ) -> "SessionBatch":
        """Build a batch from ⟨key, time, rtt⟩ rows (test convenience)."""
        materialized = list(rows)
        table: List[Key] = []
        index: Dict[Key, int] = {}
        ids = np.empty(len(materialized), dtype=np.int64)
        times = np.empty(len(materialized), dtype=np.float64)
        rtts = np.empty(len(materialized), dtype=np.float64)
        for i, (key, t, rtt) in enumerate(materialized):
            kid = index.get(key)
            if kid is None:
                kid = index[key] = len(table)
                table.append(key)
            ids[i] = kid
            times[i] = t
            rtts[i] = rtt
        return cls(
            key_table=tuple(table), key_ids=ids, times_h=times, rtt_ms=rtts
        )


@dataclass(frozen=True)
class IngestSnapshot:
    """Immutable, serializable state of an ingestor: one sketch per cell.

    ``entries`` is sorted by ⟨key, window⟩ so equal ingest state always
    serializes to identical bytes.  The header's ``sketch`` field is the
    constant ``"centroid"``: the one sketch kind there is.
    """

    config: IngestConfig
    sessions: int
    late_dropped: int
    entries: Tuple[Tuple[Key, int, Mapping[str, object]], ...]

    def median_matrix(
        self, pairs: Sequence[object], times_h: np.ndarray, max_routes: int
    ) -> np.ndarray:
        """Render sketch medians into the ``EgressDataset`` (P, W, K) layout.

        ``pairs`` are :class:`~repro.edgefabric.dataset.PairKey`-like
        objects (``pop_code``/``prefix.pid`` attributes); cells with no
        sketch stay NaN, matching routes a pair does not have.  Window
        column indices come from window *midpoints* so non-dyadic
        window widths cannot fall on a float boundary.
        """
        spec = WindowSpec(self.config.window_minutes)
        times = np.asarray(times_h, dtype=np.float64)
        widx = spec.index_of(times + 0.5 * spec.hours)
        col_of = {int(w): i for i, w in enumerate(widx)}
        pair_of = {
            (p.pop_code, p.prefix.pid): i for i, p in enumerate(pairs)
        }
        out = np.full((len(pairs), times.size, max_routes), np.nan)
        for (pop, pid, route), window, payload in self.entries:
            pi = pair_of.get((pop, pid))
            ci = col_of.get(window)
            if pi is None or ci is None or route >= max_routes:
                continue
            sketch = sketch_from_dict(payload)
            if sketch.count:
                out[pi, ci, route] = sketch.quantile(0.5)
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": _SNAPSHOT_SCHEMA,
            "kind": "ingest-snapshot",
            "window_minutes": self.config.window_minutes,
            "sketch": CentroidSketch.kind,
            "max_centroids": self.config.max_centroids,
            "allowed_lateness_windows": self.config.allowed_lateness_windows,
            "sessions": self.sessions,
            "late_dropped": self.late_dropped,
            "entries": [
                {
                    "pop": key[0],
                    "prefix": key[1],
                    "route": key[2],
                    "window": window,
                    "sketch": dict(payload),
                }
                for key, window, payload in self.entries
            ],
        }

    def to_json(self) -> str:
        return _dump_canonical(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "IngestSnapshot":
        try:
            if data["kind"] != "ingest-snapshot":
                raise StreamError(
                    f"not an ingest snapshot: kind={data['kind']!r}"
                )
            if data["schema"] != _SNAPSHOT_SCHEMA:
                raise StreamError(
                    f"unsupported snapshot schema {data['schema']!r}"
                )
            if data["sketch"] != CentroidSketch.kind:
                raise StreamError(
                    f"unsupported snapshot sketch kind {data['sketch']!r}; "
                    f"expected {CentroidSketch.kind!r}"
                )
            config = IngestConfig(
                window_minutes=float(data["window_minutes"]),  # type: ignore[arg-type]
                max_centroids=int(data["max_centroids"]),  # type: ignore[call-overload]
                allowed_lateness_windows=int(
                    data["allowed_lateness_windows"]  # type: ignore[call-overload]
                ),
            )
            entries = []
            for row in data["entries"]:  # type: ignore[attr-defined]
                key = (str(row["pop"]), str(row["prefix"]), int(row["route"]))
                entries.append((key, int(row["window"]), row["sketch"]))
            return cls(
                config=config,
                sessions=int(data["sessions"]),  # type: ignore[call-overload]
                late_dropped=int(data["late_dropped"]),  # type: ignore[call-overload]
                entries=tuple(entries),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(f"malformed ingest snapshot: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "IngestSnapshot":
        import json

        try:
            data = json.loads(text)
        except ValueError as exc:
            raise StreamError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise StreamError("snapshot JSON must be an object")
        return cls.from_dict(data)


class SessionIngestor:
    """Streaming aggregation of session batches into per-cell sketches."""

    def __init__(self, config: Optional[IngestConfig] = None) -> None:
        self.config = config or IngestConfig()
        self._agg = WindowedAggregator(
            window_minutes=self.config.window_minutes,
            max_centroids=self.config.max_centroids,
            allowed_lateness_windows=self.config.allowed_lateness_windows,
        )
        self.sessions = 0
        self.batches = 0

    @property
    def late_dropped(self) -> int:
        return self._agg.late_dropped

    @property
    def n_cells(self) -> int:
        return self._agg.n_cells

    @property
    def peak_open_cells(self) -> int:
        return self._agg.peak_open

    @property
    def watermark_h(self) -> float:
        return self._agg.watermark_h

    def feed(self, batch: SessionBatch) -> None:
        """Fold one batch, then advance the watermark to its newest time."""
        if batch.n_sessions:
            order = np.argsort(batch.key_ids, kind="stable")
            ids = batch.key_ids[order]
            times = batch.times_h[order]
            rtts = batch.rtt_ms[order]
            bounds = np.flatnonzero(np.diff(ids)) + 1
            for id_chunk, t_chunk, r_chunk in zip(
                np.split(ids, bounds),
                np.split(times, bounds),
                np.split(rtts, bounds),
            ):
                key = batch.key_table[int(id_chunk[0])]
                self._agg.observe(key, t_chunk, r_chunk)
            self._agg.advance_watermark(float(batch.times_h.max()))
        self.sessions += batch.n_sessions
        self.batches += 1
        counter("stream.ingest.sessions", batch.n_sessions)
        counter("stream.ingest.batches", 1)

    def snapshot(self) -> IngestSnapshot:
        entries = sorted(
            (
                (key, window, sketch.to_dict())
                for key, window, sketch in self._agg.items()
            ),
            key=lambda kws: (kws[0], kws[1]),
        )
        return IngestSnapshot(
            config=self.config,
            sessions=self.sessions,
            late_dropped=self.late_dropped,
            entries=tuple(entries),
        )


def merge_snapshots(snapshots: Sequence[IngestSnapshot]) -> IngestSnapshot:
    """Deterministically fold shard snapshots into one.

    All snapshots must share one config.  Per-cell sketches are merged
    in sorted ⟨key, window⟩ order; for the disjoint-key sharding the
    campaign layer uses, the result is byte-identical to a single
    ingestor having consumed every shard's stream.
    """
    if not snapshots:
        raise StreamError("cannot merge zero snapshots")
    config = snapshots[0].config
    for snap in snapshots[1:]:
        if snap.config != config:
            raise StreamError(
                "cannot merge snapshots with different configs: "
                f"{config} vs {snap.config}"
            )
    cells: Dict[Tuple[Key, int], CentroidSketch] = {}
    sessions = 0
    late = 0
    for snap in snapshots:
        sessions += snap.sessions
        late += snap.late_dropped
        for key, window, payload in snap.entries:
            cell = (key, window)
            incoming = sketch_from_dict(payload)
            existing = cells.get(cell)
            if existing is None:
                cells[cell] = incoming
            else:
                existing.merge(incoming)
    entries = tuple(
        (key, window, cells[(key, window)].to_dict())
        for key, window in sorted(cells)
    )
    return IngestSnapshot(
        config=config,
        sessions=sessions,
        late_dropped=late,
        entries=entries,
    )
