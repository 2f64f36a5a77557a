"""The measurement driver: spray sessions across top-k routes, windowed.

Reproduces the protocol of Section 3.1: "A sampled subset of client HTTP
sessions are sprayed across different egress routes, including BGP's
most preferred, second-most preferred, and third-most preferred path ...
Within each 15 minute window, we group the measurements by ⟨PoP, prefix,
route⟩ to find the median MinRTT for each route and weigh the results by
total traffic volume."

Latency decomposition per route and window::

    RTT = 2 * propagation(route)          # geography, per route
        + last_mile(prefix)               # access delay, per prefix
        + shared(prefix, t)               # diurnal + destination events,
                                          #   hits ALL routes (§3.1.1)
        + link_events(route, t)           # egress interconnect events
        + interior_events(route, t)       # next-hop network events
        + MinRTT sampling residual        # session noise -> median + CI
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import MeasurementError
from repro.faults.domain import ProbeLoss
from repro.obs.trace import gauge, traced
from repro.netmodel import CongestionConfig, CongestionModel
from repro.netmodel.rtt import (
    median_min_rtt_ci_halfwidth,
    sampled_median_matrix,
)
from repro.topology import Internet
from repro.workloads import (
    ClientPrefix,
    diurnal_volume_matrix,
    traffic_matrix,
    sessions_matrix,
)
from repro.edgefabric.dataset import EgressDataset, PairKey, window_times
from repro.edgefabric.routes import (
    egress_routes_at_pop,
    serving_pop,
    tables_for_destinations,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MeasurementConfig:
    """Parameters of an Edge Fabric style measurement campaign.

    Attributes:
        days: Campaign length in simulated days (the paper used 10).
        window_minutes: Aggregation window (the paper used 15).
        max_routes: Spray width k (the paper sprayed over 3).
        seed: Master randomness seed.
        sessions_at_peak: Sampled sessions per route per window at the
            destination's traffic peak.
        min_rtt_noise_ms: Scale of the session MinRTT residual.
        last_mile_ms_range: Uniform range of the per-prefix access RTT.
        congestion: Route-specific (link/interior) congestion parameters;
            ``None`` derives a default sized to the campaign horizon.
        dest_congestion: Destination-side (shared) congestion parameters;
            ``None`` derives a default with a *higher* event rate than
            the route-specific one — the paper's Section 3.1.1 finding is
            that degradations mostly hit all routes to a destination at
            once, which happens when the bottleneck is the last mile or
            the destination network.
        probe_loss: Optional :class:`~repro.faults.ProbeLoss` fault
            model.  Lost ⟨pair, window, route⟩ cells come back NaN in
            the dataset — exactly the holes unrouted spray slots
            already leave.  The loss mask is applied *after* either
            synthesis lane runs, so the surviving cells stay
            bit-identical across lanes and across loss-free runs.
    """

    days: float = 10.0
    window_minutes: float = 15.0
    max_routes: int = 3
    seed: int = 0
    sessions_at_peak: int = 40
    min_rtt_noise_ms: float = 1.5
    last_mile_ms_range: tuple = (2.0, 10.0)
    congestion: Optional[CongestionConfig] = None
    dest_congestion: Optional[CongestionConfig] = None
    probe_loss: Optional[ProbeLoss] = None

    def __post_init__(self) -> None:
        if self.days <= 0 or self.window_minutes <= 0:
            raise MeasurementError("days and window_minutes must be positive")
        if self.max_routes < 1:
            raise MeasurementError("max_routes must be >= 1")
        lo, hi = self.last_mile_ms_range
        if lo < 0 or hi < lo:
            raise MeasurementError("invalid last_mile_ms_range")

    def congestion_config(self) -> CongestionConfig:
        """Effective route-specific congestion configuration."""
        if self.congestion is not None:
            return self.congestion
        return CongestionConfig(
            horizon_hours=self.days * 24.0,
            event_rate_per_day=0.55,
            event_magnitude_median_ms=9.0,
        )

    def dest_congestion_config(self) -> CongestionConfig:
        """Effective destination-side (shared) congestion configuration."""
        if self.dest_congestion is not None:
            return self.dest_congestion
        return CongestionConfig(
            horizon_hours=self.days * 24.0,
            event_rate_per_day=1.2,
            event_mean_duration_hours=1.0,
            event_magnitude_median_ms=10.0,
        )


@dataclass(frozen=True)
class PlanSlots:
    """Flattened (pair, route) slot arrays for the vectorized lane.

    Attributes:
        pair_of: Pair index per slot, shape (S,).
        route_of: Route index within the pair per slot, shape (S,).
        base_rtt: Propagation RTT per slot (2 × one-way), shape (S,).
        keys: Deduplicated congestion entity keys, order of first use.
        link_of: Index into ``keys`` of each slot's egress link.
        interior_of: Index into ``keys`` of each slot's interior network.
    """

    pair_of: np.ndarray
    route_of: np.ndarray
    base_rtt: np.ndarray
    keys: tuple
    link_of: np.ndarray
    interior_of: np.ndarray


@dataclass(frozen=True)
class MeasurementPlan:
    """The routing-dependent half of a campaign: who gets sprayed where.

    Produced by :func:`plan_measurement` (BGP propagation + route
    selection, identical for both synthesis lanes) and consumed by
    :func:`synthesize_dataset`.  Splitting the two lets benchmarks time
    dataset synthesis alone and lets callers reuse one plan across
    configurations that only change the synthesis parameters.

    Attributes:
        pairs: Surviving ⟨PoP, prefix⟩ pairs with their sprayed routes.
        prefixes: The client prefixes behind ``pairs``, index-aligned.
    """

    pairs: tuple
    prefixes: tuple

    def slots(self) -> PlanSlots:
        """Flattened slot arrays, computed once per plan and cached."""
        cached = getattr(self, "_slots", None)
        if cached is not None:
            return cached
        key_index: dict = {}
        pair_of: List[int] = []
        route_of: List[int] = []
        base_rtt: List[float] = []
        link_of: List[int] = []
        interior_of: List[int] = []
        for i, pair in enumerate(self.pairs):
            for j, route in enumerate(pair.routes):
                pair_of.append(i)
                route_of.append(j)
                base_rtt.append(2.0 * route.base_one_way_ms)
                link_of.append(
                    key_index.setdefault(route.link_key, len(key_index))
                )
                interior_of.append(
                    key_index.setdefault(route.interior_key, len(key_index))
                )
        slots = PlanSlots(
            pair_of=np.asarray(pair_of, dtype=np.intp),
            route_of=np.asarray(route_of, dtype=np.intp),
            base_rtt=np.asarray(base_rtt),
            keys=tuple(key_index),
            link_of=np.asarray(link_of, dtype=np.intp),
            interior_of=np.asarray(interior_of, dtype=np.intp),
        )
        object.__setattr__(self, "_slots", slots)
        return slots


@traced("edgefabric.plan")
def plan_measurement(
    internet: Internet,
    prefixes: Sequence[ClientPrefix],
    config: Optional[MeasurementConfig] = None,
) -> MeasurementPlan:
    """Resolve serving PoPs and sprayed egress routes for a population.

    Pairs with fewer than two egress routes at their serving PoP are
    dropped (no alternate to compare against), matching the paper's
    framing that most prefixes have at least three routes.
    """
    cfg = config or MeasurementConfig()
    if not prefixes:
        raise MeasurementError("no client prefixes")
    tables = tables_for_destinations(internet, [p.asn for p in prefixes])

    pairs: List[PairKey] = []
    kept_prefixes: List[ClientPrefix] = []
    for prefix in prefixes:
        pop = serving_pop(internet, prefix)
        routes = egress_routes_at_pop(
            internet, tables[prefix.asn], pop, prefix, k=cfg.max_routes
        )
        if len(routes) < 2:
            continue
        pairs.append(PairKey(pop_code=pop.code, prefix=prefix, routes=tuple(routes)))
        kept_prefixes.append(prefix)
    if not pairs:
        raise MeasurementError("no ⟨PoP, prefix⟩ pair has two or more routes")
    logger.info(
        "planned %d pairs (%d prefixes dropped for lacking alternates)",
        len(pairs),
        len(prefixes) - len(pairs),
    )
    return MeasurementPlan(pairs=tuple(pairs), prefixes=tuple(kept_prefixes))


def _ci_half_grid(
    pair_of: np.ndarray,
    route_of: np.ndarray,
    sessions: np.ndarray,
    cfg: MeasurementConfig,
    ci_half: np.ndarray,
) -> np.ndarray:
    """Fill the CI half-width tensor; returns ``sqrt(sessions)``.

    CI half-widths are constant across a pair's routes, so a masked
    broadcast replaces a per-route scatter: z·scale / sqrt(n), NaN
    where no route.  Shared by the batch and streaming lanes so their CI
    planes cannot drift apart.
    """
    n_pairs, _, k = ci_half.shape
    root_n = np.sqrt(sessions)
    has_route = np.zeros((n_pairs, 1, k), dtype=bool)
    has_route[pair_of, 0, route_of] = True
    halfwidth = median_min_rtt_ci_halfwidth(cfg.min_rtt_noise_ms, 1) / root_n
    ci_half[...] = np.where(has_route, halfwidth[:, :, None], np.nan)
    return root_n


def _synthesize_streaming(
    plan: MeasurementPlan,
    times: np.ndarray,
    sessions: np.ndarray,
    cfg: MeasurementConfig,
    congestion: CongestionModel,
    dest_congestion: CongestionModel,
    medians: np.ndarray,
    ci_half: np.ndarray,
    ingest_config,
    chunk_windows: int,
) -> None:
    """Streaming lane: per-session synthesis folded through sketches.

    Draws every individual session MinRTT (floor + exponential
    residual) and aggregates window medians incrementally with
    :class:`repro.stream.SessionIngestor` — O(windows) state instead of
    the batch lane's O(pairs × windows × routes) analytic draw.  Window
    medians are *sketch estimates* of the session median; they agree
    with the batch lane statistically (see ``docs/streaming.md`` for
    the tolerance), not bit-for-bit.  CI half-widths reuse the batch
    lane's analytic expression bit-identically.
    """
    # Imported lazily: repro.stream imports this module for the session
    # synthesizer, so a top-level import would be circular.
    from repro.stream.ingest import IngestConfig, SessionIngestor
    from repro.stream.sessions import stream_sessions

    if ingest_config is None:
        ingest_config = IngestConfig(window_minutes=cfg.window_minutes)
    elif ingest_config.window_minutes != cfg.window_minutes:
        raise MeasurementError(
            "ingest_config.window_minutes "
            f"({ingest_config.window_minutes}) must match the measurement "
            f"window ({cfg.window_minutes})"
        )
    ingestor = SessionIngestor(ingest_config)
    for batch in stream_sessions(
        plan,
        cfg,
        chunk_windows=chunk_windows,
        congestion=congestion,
        dest_congestion=dest_congestion,
    ):
        ingestor.feed(batch)
    gauge("edgefabric.stream_sessions", ingestor.sessions)
    gauge("edgefabric.stream_peak_open_cells", ingestor.peak_open_cells)
    medians[...] = ingestor.snapshot().median_matrix(
        plan.pairs, times, cfg.max_routes
    )
    slots = plan.slots()
    _ci_half_grid(slots.pair_of, slots.route_of, sessions, cfg, ci_half)


def _synthesize_fast(
    plan: MeasurementPlan,
    times: np.ndarray,
    sessions: np.ndarray,
    cfg: MeasurementConfig,
    rng: np.random.Generator,
    congestion: CongestionModel,
    dest_congestion: CongestionModel,
    medians: np.ndarray,
    ci_half: np.ndarray,
) -> None:
    """Batch lane: one batched kernel call per latency term.

    Each cell's floor is base RTT + last mile + destination-shared and
    route-specific congestion, and its median comes from the analytic
    MinRTT approximation (:func:`repro.netmodel.rtt.sampled_median_matrix`)
    for all pairs and routes at once.
    """
    pairs = plan.pairs
    lo, hi = cfg.last_mile_ms_range
    last_mile = rng.uniform(lo, hi, size=len(pairs))

    dest_keys = [f"dest:{p.prefix.pid}" for p in pairs]
    lons = np.array([p.prefix.city.location.lon for p in pairs])
    shared = dest_congestion.shared_delay_batch(dest_keys, lons, times)

    # One flat slot per sprayed (pair, route); congestion keys deduped so
    # each entity's event series is materialized exactly once.
    slots = plan.slots()
    link_delays = congestion.link_delay_batch(list(slots.keys), times)

    pi = slots.pair_of
    ri = slots.route_of
    # Accumulate the floor in place; the slot arrays are large enough
    # that avoiding temporaries is measurable.
    floor = shared[pi]
    floor += (slots.base_rtt + last_mile[pi])[:, None]
    floor += link_delays[slots.link_of]
    floor += link_delays[slots.interior_of]
    # One square root on the (pairs × windows) session grid yields both
    # the per-slot noise sd and the CI half-widths.
    root_n = _ci_half_grid(pi, ri, sessions, cfg, ci_half)
    sd_pairs = cfg.min_rtt_noise_ms / root_n
    rows = sampled_median_matrix(
        floor, rng=rng, noise_scale_ms=cfg.min_rtt_noise_ms, sd=sd_pairs[pi]
    )
    # Scatter into route-major scratch so each slot's window series lands
    # in contiguous memory (the window-major target would stride every
    # write by max_routes), then transpose-copy once into the output.
    n_pairs, n_windows, k = medians.shape
    scratch = np.full((n_pairs, k, n_windows), np.nan)
    scratch[pi, ri] = rows
    medians[...] = scratch.transpose(0, 2, 1)


@traced("edgefabric.synthesize")
def synthesize_dataset(
    plan: MeasurementPlan,
    config: Optional[MeasurementConfig] = None,
    congestion: Optional[CongestionModel] = None,
    dest_congestion: Optional[CongestionModel] = None,
    streaming: bool = False,
    ingest_config=None,
    chunk_windows: int = 16,
) -> EgressDataset:
    """Synthesize the windowed medians for a planned campaign.

    Args:
        plan: Output of :func:`plan_measurement`.
        config: Campaign parameters (must match the planning config where
            they overlap, e.g. ``max_routes``).
        congestion: Optional pre-built route-specific congestion model.
            Passing a model reuses its event cache across synthesis
            calls (parameter sweeps, lane comparisons); it must have
            been built with this config's seed and congestion
            parameters, or determinism is lost.
        dest_congestion: Same, for the destination-side model.
        streaming: Synthesize per-session MinRTTs and aggregate the
            window medians through :mod:`repro.stream` quantile
            sketches instead of the batch lane's analytic draw.
            Medians agree with the batch lane within the sketch
            tolerance (``docs/streaming.md``); CI half-widths stay
            bit-identical.
        ingest_config: Optional :class:`repro.stream.IngestConfig` for
            the streaming lane (sketch kind, centroid budget); its
            window width must match the measurement window.
        chunk_windows: Streaming-lane batch granularity; output is
            invariant to it.

    Returns:
        The windowed :class:`EgressDataset`.
    """
    cfg = config or MeasurementConfig()
    pairs = list(plan.pairs)
    kept_prefixes = list(plan.prefixes)
    if not pairs:
        raise MeasurementError("empty measurement plan")
    rng = np.random.default_rng(cfg.seed)
    times = window_times(cfg.days, cfg.window_minutes)
    if congestion is None:
        congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    if dest_congestion is None:
        dest_congestion = CongestionModel(cfg.seed, cfg.dest_congestion_config())
    lane_name = "streaming" if streaming else "batch"
    logger.info(
        "synthesizing %d pairs over %d windows (%s lane)",
        len(pairs),
        times.size,
        lane_name,
    )
    gauge("edgefabric.n_pairs", len(pairs))
    gauge("edgefabric.n_windows", int(times.size))

    n_pairs = len(pairs)
    n_windows = times.size
    k = cfg.max_routes
    medians = np.full((n_pairs, n_windows, k), np.nan)
    ci_half = np.full((n_pairs, n_windows, k), np.nan)
    cycle = diurnal_volume_matrix(
        times, np.array([p.city.location.lon for p in kept_prefixes])
    )
    volumes = traffic_matrix(kept_prefixes, times, cycle=cycle)
    sessions = sessions_matrix(
        kept_prefixes, times, sessions_at_peak=cfg.sessions_at_peak, cycle=cycle
    )

    if streaming:
        _synthesize_streaming(
            plan,
            times,
            sessions,
            cfg,
            congestion,
            dest_congestion,
            medians,
            ci_half,
            ingest_config,
            chunk_windows,
        )
    else:
        _synthesize_fast(
            plan,
            times,
            sessions,
            cfg,
            rng,
            congestion,
            dest_congestion,
            medians,
            ci_half,
        )

    if cfg.probe_loss is not None:
        # Post-lane so losses only blank cells: the measurement streams
        # under every surviving cell are untouched, keeping loss-free
        # runs bit-identical where data survives.
        lost = cfg.probe_loss.lost_mask(
            [f"{p.pop_code}:{p.prefix.pid}" for p in pairs], n_windows, k
        )
        medians[lost] = np.nan
        ci_half[lost] = np.nan
        gauge("edgefabric.cells_lost", int(lost.sum()))

    return EgressDataset(
        pairs=pairs,
        times_h=times,
        medians=medians,
        ci_half=ci_half,
        volumes=volumes,
        max_routes=k,
    )


@traced("edgefabric.measure")
def run_measurement(
    internet: Internet,
    prefixes: Sequence[ClientPrefix],
    config: Optional[MeasurementConfig] = None,
    streaming: bool = False,
) -> EgressDataset:
    """Run the spray-and-measure campaign over a client population.

    Composes :func:`plan_measurement` (route discovery, shared by both
    lanes) with :func:`synthesize_dataset` (windowed-median synthesis,
    batched by default; ``streaming=True`` for per-session sketch
    aggregation).

    Returns:
        The windowed :class:`EgressDataset`.
    """
    cfg = config or MeasurementConfig()
    plan = plan_measurement(internet, prefixes, cfg)
    return synthesize_dataset(plan, cfg, streaming=streaming)
