"""Incremental session ingest: feed → snapshot → merge.

The streaming counterpart of :func:`repro.netmodel.rtt.sampled_median_matrix`:
instead of materializing every session RTT and taking one median per
⟨PoP, prefix, route⟩ 15-minute window, a :class:`SessionIngestor` folds
session batches into one mergeable quantile sketch per such cell.  Its
state is one ``{(key, window): sketch}`` map: every session lands in
its cell whatever order the batches arrive in, and every cell is kept,
so memory is O(windows × keys), not O(sessions).

The unit of transport is a :class:`SessionBatch` — a compact columnar
slab of ⟨key id, time, RTT⟩ rows plus a key table resolving ids to
⟨PoP code, prefix id, route index⟩ triples.  Batches are what the
synthesizer (:mod:`repro.stream.sessions`) yields and what shards feed.

Determinism contract: feeding the same batches in the same order always
yields byte-identical snapshots, and merging shard snapshots whose key
sets are disjoint is byte-identical to one ingestor having seen every
shard's batches, one shard's whole stream after another (each key's
samples arrive in the same order either way).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import StreamError, require_int
from repro.obs.trace import counter
from repro.stream.sketch import CentroidSketch, _dump_canonical, sketch_from_dict

#: ⟨PoP code, prefix id, route index⟩ — the cell key of the measurement plane.
Key = Tuple[str, str, int]

_SNAPSHOT_SCHEMA = 2


def _window_width(minutes: float) -> float:
    """``minutes`` as given, refused unless a finite number > 0."""
    if isinstance(minutes, bool) or not (math.isfinite(minutes) and minutes > 0):
        raise StreamError(
            f"window_minutes must be finite and positive, got {minutes!r}"
        )
    return minutes


def _window_index(times_h: np.ndarray, window_minutes: float) -> np.ndarray:
    """Window index per timestamp (hours): a vectorized floor division."""
    return np.floor(times_h / (window_minutes / 60.0)).astype(np.int64)


def _count(value: object, name: str) -> int:
    """``value`` as a plain ``int`` >= 0, or a :class:`StreamError`."""
    number = require_int(value, name, StreamError)
    if number < 0:
        raise StreamError(f"{name} must be >= 0, got {number}")
    return number


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

    window_minutes: float
    max_centroids: int
    sessions: int
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
        times = np.asarray(times_h, dtype=np.float64)
        half_h = 0.5 * (self.window_minutes / 60.0)
        widx = _window_index(times + half_h, self.window_minutes)
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
            "window_minutes": self.window_minutes,
            "sketch": CentroidSketch.kind,
            "max_centroids": self.max_centroids,
            "sessions": self.sessions,
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
        """Load a :meth:`to_dict` form, refusing state no ingestor writes.

        Integers must be ints (not floats or ``bool``), and counts and
        routes >= 0.  Entries must strictly increase by ⟨key, window⟩,
        so a loaded snapshot re-serializes to its own bytes, and the
        cells' sketch counts must sum to ``sessions``: every session
        an ingestor is fed lands in a cell.  Cell sketches are checked
        in full where they are rebuilt (merge, medians).
        """
        try:
            if data["kind"] != "ingest-snapshot":
                raise StreamError(
                    f"not an ingest snapshot: kind={data['kind']!r}"
                )
            schema = require_int(data["schema"], "snapshot schema", StreamError)
            if schema != _SNAPSHOT_SCHEMA:
                raise StreamError(
                    f"unsupported snapshot schema {schema}; expected {_SNAPSHOT_SCHEMA}"
                    " (re-run the ingest, or clear the result cache that served it)"
                )
            if data["sketch"] != CentroidSketch.kind:
                raise StreamError(
                    f"unsupported snapshot sketch kind {data['sketch']!r}; "
                    f"expected {CentroidSketch.kind!r}"
                )
            width, budget = data["window_minutes"], data["max_centroids"]
            window_minutes = _window_width(width)  # type: ignore[arg-type]
            max_centroids = require_int(budget, "max_centroids", StreamError)
            CentroidSketch(max_centroids)  # refuses a budget below 8
            sessions = _count(data["sessions"], "sessions")
            entries: List[Tuple[Key, int, Mapping[str, object]]] = []
            total = 0
            for row in data["entries"]:  # type: ignore[attr-defined]
                key = (row["pop"], row["prefix"], _count(row["route"], "route"))
                if not (isinstance(key[0], str) and isinstance(key[1], str)):
                    raise StreamError(f"pop and prefix must be strings: {key}")
                window = require_int(row["window"], "window", StreamError)
                if entries and (key, window) <= entries[-1][:2]:
                    raise StreamError(
                        "entries must strictly increase by key and window: "
                        f"{(key, window)} follows {entries[-1][:2]}"
                    )
                payload = row["sketch"]
                total += _count(payload["count"], "sketch count")
                entries.append((key, window, payload))
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(f"malformed ingest snapshot: {exc}") from exc
        if total != sessions:
            raise StreamError(
                f"sessions {sessions} is not the cells' count total {total}"
            )
        return cls(
            window_minutes=window_minutes,
            max_centroids=max_centroids,
            sessions=sessions,
            entries=tuple(entries),
        )

    @classmethod
    def from_json(cls, text: str) -> "IngestSnapshot":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise StreamError(f"snapshot is not valid JSON: {exc}") from exc
        if not isinstance(data, Mapping):
            raise StreamError("snapshot JSON must be an object")
        return cls.from_dict(data)


class SessionIngestor:
    """Folds session batches into one centroid sketch per ⟨key, window⟩.

    Args:
        window_minutes: Window width; the measurement's own (15 in the
            paper's protocol).
        max_centroids: Centroid budget of each cell's sketch.
    """

    def __init__(self, window_minutes: float, max_centroids: int = 64) -> None:
        self.window_minutes = _window_width(window_minutes)
        # A throwaway sketch checks the budget before any cell needs one.
        self.max_centroids = CentroidSketch(max_centroids).max_centroids
        self._cells: Dict[Tuple[Key, int], CentroidSketch] = {}
        self.sessions = 0
        self.batches = 0

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def feed(self, batch: SessionBatch) -> None:
        """Fold one batch: each session updates its ⟨key, window⟩ cell.

        One stable sort by (key id, window) groups the batch; each
        group is one ``update_batch``, in the batch's own row order.
        """
        if batch.n_sessions:
            windows = _window_index(batch.times_h, self.window_minutes)
            order = np.lexsort((windows, batch.key_ids))
            ids = batch.key_ids[order]
            windows = windows[order]
            rtts = batch.rtt_ms[order]
            # A cell's run starts wherever the key id or the window changes.
            starts = np.flatnonzero(np.diff(ids) | np.diff(windows)) + 1
            los = [0, *starts.tolist()]
            his = [*los[1:], ids.size]
            firsts = zip(ids[los].tolist(), windows[los].tolist())
            for lo, hi, (kid, window) in zip(los, his, firsts):
                cell = (batch.key_table[kid], window)
                sketch = self._cells.get(cell)
                if sketch is None:
                    sketch = self._cells[cell] = CentroidSketch(self.max_centroids)
                sketch.update_batch(rtts[lo:hi])
        self.sessions += batch.n_sessions
        self.batches += 1
        counter("stream.ingest.sessions", batch.n_sessions)
        counter("stream.ingest.batches", 1)

    def snapshot(self) -> IngestSnapshot:
        return IngestSnapshot(
            window_minutes=self.window_minutes,
            max_centroids=self.max_centroids,
            sessions=self.sessions,
            entries=tuple(
                (key, window, self._cells[key, window].to_dict())
                for key, window in sorted(self._cells)
            ),
        )


def merge_snapshots(snapshots: Sequence[IngestSnapshot]) -> IngestSnapshot:
    """Deterministically fold shard snapshots into one.

    All snapshots must share one window width and centroid budget.
    Per-cell sketches are merged in sorted ⟨key, window⟩ order; for the
    disjoint-key sharding the campaign layer uses, the result is
    byte-identical to a single ingestor having consumed every shard's
    stream.
    """
    if not snapshots:
        raise StreamError("cannot merge zero snapshots")
    first = snapshots[0]
    config = (first.window_minutes, first.max_centroids)
    for snap in snapshots[1:]:
        other = (snap.window_minutes, snap.max_centroids)
        if other != config:
            raise StreamError(
                "cannot merge snapshots with different configs "
                f"(window_minutes, max_centroids): {config} vs {other}"
            )
    cells: Dict[Tuple[Key, int], CentroidSketch] = {}
    for snap in snapshots:
        for key, window, payload in snap.entries:
            cell = (key, window)
            incoming = sketch_from_dict(payload)
            existing = cells.get(cell)
            if existing is None:
                cells[cell] = incoming
            else:
                existing.merge(incoming)
    return IngestSnapshot(
        window_minutes=first.window_minutes,
        max_centroids=first.max_centroids,
        sessions=sum(snap.sessions for snap in snapshots),
        entries=tuple(
            (key, window, cells[key, window].to_dict())
            for key, window in sorted(cells)
        ),
    )
