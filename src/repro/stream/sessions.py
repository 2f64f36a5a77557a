"""Synthesize an edge-fabric session stream, one batch per window chunk.

The batch lane (:func:`repro.edgefabric.sampler.synthesize_dataset`)
materializes the full ⟨pairs × windows × routes⟩ floor tensor and applies
an *analytic* approximation of the sampled median.  This module is the
session-level view of the same model: it draws every individual session
MinRTT (floor plus an exponential residual, exactly
:func:`repro.netmodel.rtt.sample_min_rtts`'s distribution) and yields
them as :class:`~repro.stream.ingest.SessionBatch` slabs in time order,
a chunk of windows at a time — so peak memory is O(chunk), never
O(sessions).

Determinism notes:

* The per-pair last-mile draw happens first, exactly like the batch
  lane — so the latency *floors* under both lanes are
  bit-identical; only the residual handling differs (real exponential
  samples here, analytic median + normal estimation noise there).
* The residual stream draws one ``rng.exponential`` per window, so the
  generated sessions are independent of ``chunk_windows`` — resizing
  chunks reorders nothing.
* The congestion models are evaluated once over the whole horizon
  (O(pairs × windows) memory — the same order as the snapshot being
  built) and *sliced* per chunk.  Evaluating them chunk-by-chunk
  instead would perturb floors by an ulp (numpy's reductions are
  length-dependent), silently breaking chunk-size invariance.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from repro.errors import MeasurementError
from repro.netmodel import CongestionModel
from repro.obs.trace import counter, traced
from repro.workloads import diurnal_volume_matrix, sessions_matrix
from repro.edgefabric.dataset import window_times
from repro.edgefabric.sampler import MeasurementConfig, MeasurementPlan
from repro.stream.ingest import Key, SessionBatch


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
        config: Campaign parameters (same object the batch lane takes).
        chunk_windows: Windows per yielded batch; bounds peak memory.
        congestion: Optional pre-built route-specific congestion model
            (must match the config's seed/parameters, as in the batch
            lane).
        dest_congestion: Same, for the destination-side model.
    """
    cfg = config or MeasurementConfig()
    if chunk_windows < 1:
        raise MeasurementError("chunk_windows must be >= 1")
    pairs = list(plan.pairs)
    if not pairs:
        raise MeasurementError("empty measurement plan")
    rng = np.random.default_rng(cfg.seed)
    times = window_times(cfg.days, cfg.window_minutes)
    if congestion is None:
        congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    if dest_congestion is None:
        dest_congestion = CongestionModel(cfg.seed, cfg.dest_congestion_config())

    slots = plan.slots()
    pi = slots.pair_of
    n_slots = pi.size
    lo, hi = cfg.last_mile_ms_range
    last_mile = rng.uniform(lo, hi, size=len(pairs))

    dest_keys = [f"dest:{p.prefix.pid}" for p in pairs]
    lons = np.array([p.prefix.city.location.lon for p in pairs])
    cycle = diurnal_volume_matrix(
        times, np.array([p.city.location.lon for p in plan.prefixes])
    )
    sessions = sessions_matrix(
        plan.prefixes, times, sessions_at_peak=cfg.sessions_at_peak, cycle=cycle
    )

    key_table = session_key_table(plan)
    slot_index = np.arange(n_slots)
    half_window_h = 0.5 * cfg.window_minutes / 60.0

    # Full-horizon model evaluation, identical to the batch lane's
    # calls — chunks slice columns out of these, so the floors are
    # bit-identical for every chunk_windows setting.
    shared_full = dest_congestion.shared_delay_batch(dest_keys, lons, times)
    link_full = congestion.link_delay_batch(list(slots.keys), times)

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
