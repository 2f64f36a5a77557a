"""Synthesize an edge-fabric session stream and ingest it, one chunk at a time.

Batch synthesis (:func:`repro.edgefabric.sampler.synthesize_dataset`)
materializes the full ⟨pairs × windows × routes⟩ floor tensor and applies
an *analytic* approximation of the sampled median.  This module is the
session-level view of the same model: it draws every individual session
MinRTT (floor plus an exponential residual, exactly
:func:`repro.netmodel.rtt.sample_min_rtts`'s distribution) and yields
them as :class:`~repro.stream.ingest.SessionBatch` slabs in time order,
a chunk of windows at a time — so peak memory is O(chunk), never
O(sessions).  :func:`ingest_plan` is the one streaming path: it folds
a plan's stream into a :class:`~repro.stream.ingest.SessionIngestor`
for ``repro-bgp ingest`` and its shard jobs.

Determinism notes:

* The per-pair last-mile draw happens first, exactly like batch
  synthesis — so the latency *floors* under both are bit-identical;
  only the residual handling differs (real exponential samples here,
  analytic median + normal estimation noise there).
* The residual stream draws one ``rng.exponential`` per window, so the
  generated sessions are independent of ``chunk_windows`` — resizing
  chunks reorders nothing.
* The congestion rows come from the code batch synthesis runs
  (:func:`repro.edgefabric.sampler.congestion_rows`), evaluated once
  over the whole horizon (O(pairs × windows) memory, the same order as
  the snapshot being built) and *sliced* per chunk.  Every cell is an
  exact sum of its key's events, so slicing gives the bits a per-chunk
  evaluation would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.errors import MeasurementError
from repro.netmodel import CongestionModel
from repro.obs.trace import counter, traced
from repro.edgefabric.dataset import EgressDataset, window_times
from repro.edgefabric.sampler import (
    MeasurementConfig,
    MeasurementPlan,
    congestion_rows,
    dataset_from_medians,
    window_grid,
)
from repro.stream.ingest import (
    IngestSnapshot,
    Key,
    SessionBatch,
    SessionIngestor,
)


@traced("stream.sessions")
def stream_sessions(
    plan: MeasurementPlan,
    config: Optional[MeasurementConfig] = None,
    chunk_windows: int = 16,
    congestion: Optional[CongestionModel] = None,
    dest_congestion: Optional[CongestionModel] = None,
) -> Iterator[SessionBatch]:
    """Yield the campaign's sessions as batches, one chunk of windows each.

    Args:
        plan: Output of :func:`repro.edgefabric.sampler.plan_measurement`.
        config: Campaign parameters (same object batch synthesis takes).
        chunk_windows: Windows per yielded batch; bounds peak memory.
        congestion: Optional pre-built route-specific congestion model
            (must match the config's seed/parameters, as in batch
            synthesis).
        dest_congestion: Same, for the destination-side model.
    """
    cfg = config or MeasurementConfig()
    if chunk_windows < 1:
        raise MeasurementError("chunk_windows must be >= 1")
    pairs = list(plan.pairs)
    if not pairs:
        raise MeasurementError("empty measurement plan")
    rng = np.random.default_rng(cfg.seed)
    times, _, sessions = window_grid(plan, cfg)
    if congestion is None:
        congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    if dest_congestion is None:
        dest_congestion = CongestionModel(cfg.seed, cfg.dest_congestion_config())

    slots = plan.slots()
    pi = slots.pair_of
    n_slots = pi.size
    lo, hi = cfg.last_mile_ms_range
    last_mile = rng.uniform(lo, hi, size=len(pairs))

    key_table = session_key_table(plan)
    slot_index = np.arange(n_slots)
    half_window_h = 0.5 * cfg.window_minutes / 60.0

    # Full-horizon rows, identical to batch synthesis's; chunks slice
    # columns out of them.
    shared_full, link_full = congestion_rows(plan, times, congestion, dest_congestion)

    for w0 in range(0, times.size, chunk_windows):
        t_chunk = times[w0 : w0 + chunk_windows]
        cols = slice(w0, w0 + t_chunk.size)
        floor = shared_full[:, cols][pi]
        floor = floor + (slots.base_rtt + last_mile[pi])[:, None]
        floor += link_full[:, cols][slots.link_of]
        floor += link_full[:, cols][slots.interior_of]

        id_parts: List[np.ndarray] = []
        time_parts: List[np.ndarray] = []
        rtt_parts: List[np.ndarray] = []
        for wi in range(t_chunk.size):
            counts = sessions[pi, w0 + wi]
            total = int(counts.sum())
            if total == 0:
                continue
            ids = np.repeat(slot_index, counts)
            floors = np.repeat(floor[:, wi], counts)
            # One residual draw per window keeps the stream identical
            # for every chunk_windows setting.
            rtts = floors + rng.exponential(cfg.min_rtt_noise_ms, size=total)
            id_parts.append(ids)
            time_parts.append(np.full(total, t_chunk[wi] + half_window_h))
            rtt_parts.append(rtts)
        if not id_parts:
            continue
        batch = SessionBatch(
            key_table=key_table,
            key_ids=np.concatenate(id_parts),
            times_h=np.concatenate(time_parts),
            rtt_ms=np.concatenate(rtt_parts),
        )
        counter("stream.sessions.synthesized", batch.n_sessions)
        yield batch


def session_key_table(plan: MeasurementPlan) -> tuple:
    """The ⟨PoP, prefix, route⟩ key per spray slot, in slot order."""
    slots = plan.slots()
    pairs = plan.pairs
    keys: List[Key] = []
    for s in range(slots.pair_of.size):
        pair = pairs[slots.pair_of[s]]
        keys.append((pair.pop_code, pair.prefix.pid, int(slots.route_of[s])))
    return tuple(keys)


@dataclass(frozen=True)
class PlanIngest:
    """A plan's session stream, folded through one :class:`SessionIngestor`.

    Attributes:
        plan: The measurement plan that was streamed.
        config: Campaign parameters of the stream.
        ingestor: The ingestor after the last batch (session, batch
            and cell counters).
        snapshot: The ingestor's final snapshot.
        elapsed_s: Monotonic seconds spent synthesizing and feeding the
            session batches.
    """

    plan: MeasurementPlan
    config: MeasurementConfig
    ingestor: SessionIngestor
    snapshot: IngestSnapshot
    elapsed_s: float

    def dataset(self) -> EgressDataset:
        """The streamed :class:`EgressDataset`: sketch medians per cell.

        Built on demand, since shard jobs need only the snapshot.  CI
        half-widths and volumes come from the sampler
        (:func:`repro.edgefabric.sampler.dataset_from_medians`), so they
        equal :func:`~repro.edgefabric.sampler.synthesize_dataset`'s
        bit for bit.
        """
        cfg = self.config
        times = window_times(cfg.days, cfg.window_minutes)
        medians = self.snapshot.median_matrix(self.plan.pairs, times, cfg.max_routes)
        return dataset_from_medians(self.plan, medians, cfg)


@traced("stream.ingest_plan")
def ingest_plan(
    plan: MeasurementPlan,
    config: Optional[MeasurementConfig] = None,
    max_centroids: int = 64,
    chunk_windows: int = 16,
) -> PlanIngest:
    """Stream a plan's sessions into a :class:`SessionIngestor`.

    Args:
        plan: Output of :func:`repro.edgefabric.sampler.plan_measurement`;
            an empty plan (a shard with no pairs) streams nothing.
        config: Campaign parameters (same object batch synthesis takes);
            its window width is the ingest's.
        max_centroids: Centroid budget of each cell's sketch.
        chunk_windows: Windows per session batch; the snapshot is
            invariant to it.
    """
    cfg = config or MeasurementConfig()
    ingestor = SessionIngestor(cfg.window_minutes, max_centroids)
    start = time.perf_counter()
    if plan.pairs:
        for batch in stream_sessions(plan, cfg, chunk_windows=chunk_windows):
            ingestor.feed(batch)
    elapsed_s = time.perf_counter() - start
    return PlanIngest(
        plan=plan,
        config=cfg,
        ingestor=ingestor,
        snapshot=ingestor.snapshot(),
        elapsed_s=elapsed_s,
    )
