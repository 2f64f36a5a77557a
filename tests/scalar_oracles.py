"""The original scalar loops, kept as test oracles.

Synthesis, episode extraction, catchment geometry, redirection
training, the beacon and cloudtiers campaigns, congestion draws and
lookups, nearest-PoP lookups, city-pair distances, the WAN's
shortest paths and the figure analyses each run one batched, pruned or
memoised implementation, and the hashed unit draw builds its sha256
input in one ``map``.  This module keeps the
per-item loops they replaced, so ``tests/test_lane_agreement.py`` can
check each against an independent implementation of the same
computation, as :mod:`bgp_oracle` does for propagation.

Where the batched code is one step inside a public entry point (the
synthesis lane, the catchment geometry, the event-delay kernel, the
nearest-PoP memo, the distance memos), the oracle is a context manager
that swaps only that step, so everything around it — planning,
aggregation, the RNG streams — is the same code on both sides of the
comparison.
"""

from __future__ import annotations

import hashlib
import math
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np

import repro.analysis.stats as stats_module
import repro.cdn.catchment as catchment_module
import repro.cdn.dns_redirection as redirection_module
import repro.edgefabric.sampler as sampler_module
import repro.netmodel.congestion as congestion_module
import repro.topology.generator as generator_module
from repro.analysis import Cdf
from repro.bgp import RouteClass
from repro.cdn.analysis import Fig4Result
from repro.cdn.deployment import CdnDeployment
from repro.cdn.dns_redirection import ANYCAST, RedirectionPolicy, evaluation_slice
from repro.cdn.measurement import BeaconConfig, BeaconDataset
from repro.cloudtiers import (
    CampaignConfig,
    SpeedcheckerPlatform,
    Tier,
    TierDataset,
    TracerouteResult,
    VantagePoint,
)
from repro.cloudtiers.analysis import Fig5Result, GoodputResult
from repro.cloudtiers.campaign import VpDayRecord
from repro.cloudtiers.speedchecker import PING_CREDITS
from repro.edgefabric.analysis import PersistenceResult
from repro.edgefabric.dataset import EgressDataset
from repro.edgefabric.episodes import Episode, EpisodeStudyResult
from repro.errors import AnalysisError, MeasurementError, RoutingError, TopologyError
from repro.geo import (
    City,
    CityDistanceCache,
    GeoPoint,
    Region,
    great_circle_km,
    propagation_one_way_ms,
    region_of_country,
)
from repro.netmodel import CongestionModel
from repro.netmodel.tcp import TcpPath, goodput_mbps
from repro.netmodel.rtt import median_min_rtt, median_min_rtt_ci_halfwidth
from repro.topology import PointOfPresence, PrivateWan
from repro.workloads import ClientPrefix

# --- edgefabric synthesis --------------------------------------------------


def _synthesize_per_pair(
    plan, times, sessions, cfg, rng, congestion, dest_congestion, medians, ci_half
) -> None:
    """The per-pair, per-route loop, with ``_draw_medians``'s signature."""
    lo, hi = cfg.last_mile_ms_range
    for i, pair in enumerate(plan.pairs):
        prefix = pair.prefix
        last_mile = float(rng.uniform(lo, hi))
        shared = dest_congestion.diurnal_delay(times, prefix.city.location.lon)
        shared = shared + key_delay(dest_congestion, f"dest:{prefix.pid}", times)
        n = sessions[i]
        sd = cfg.min_rtt_noise_ms / np.sqrt(n)
        halfwidth = median_min_rtt_ci_halfwidth(cfg.min_rtt_noise_ms, 1) / np.sqrt(n)
        for j, route in enumerate(pair.routes):
            base = 2.0 * route.base_one_way_ms + last_mile
            specific = key_delay(congestion, route.link_key, times)
            specific = specific + key_delay(congestion, route.interior_key, times)
            floor = base + shared + specific
            medians[i, :, j] = median_min_rtt(
                floor, cfg.min_rtt_noise_ms
            ) + rng.normal(0.0, sd)
            ci_half[i, :, j] = halfwidth


def per_pair_synthesis():
    """Inside the block, synthesis draws its medians pair by pair.

    The loop interleaves its noise draws per pair, so single medians
    differ from the batched draw's while their distribution does not;
    the NaN mask, CI half-widths and volumes do not depend on the draws.
    """
    return mock.patch.object(sampler_module, "_draw_medians", _synthesize_per_pair)


# --- edgefabric episodes ---------------------------------------------------


def _runs(mask: np.ndarray, excess: np.ndarray, pair_index: int) -> List[Episode]:
    episodes = []
    start: Optional[int] = None
    for w, active in enumerate(mask):
        if active and start is None:
            start = w
        elif not active and start is not None:
            episodes.append(
                Episode(
                    pair_index=pair_index,
                    start=start,
                    length=w - start,
                    peak_ms=float(np.nanmax(excess[start:w])),
                )
            )
            start = None
    if start is not None:
        episodes.append(
            Episode(
                pair_index=pair_index,
                start=start,
                length=mask.size - start,
                peak_ms=float(np.nanmax(excess[start:])),
            )
        )
    return episodes


def extract_episodes_reference(
    dataset, threshold_ms: float = 5.0
) -> EpisodeStudyResult:
    """:func:`repro.edgefabric.extract_episodes`, one pair at a time."""
    window_minutes = float((dataset.times_h[1] - dataset.times_h[0]) * 60.0)
    bgp = dataset.medians[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"):
        best_alt = np.nanmin(dataset.medians[:, :, 1:], axis=2)

    degradations: List[Episode] = []
    opportunities: List[Episode] = []
    degraded_windows = opportunity_windows = total_windows = escapes = 0
    for i in range(dataset.n_pairs):
        series = bgp[i]
        valid = ~np.isnan(series)
        if valid.sum() < 8:
            continue
        baseline = float(np.nanmedian(series))
        excess = series - baseline
        degraded = valid & (excess > threshold_ms)
        improvement = series - best_alt[i]
        opportunity = valid & ~np.isnan(best_alt[i]) & (improvement > threshold_ms)
        total_windows += int(valid.sum())
        degraded_windows += int(degraded.sum())
        opportunity_windows += int(opportunity.sum())
        pair_degradations = _runs(degraded, excess, i)
        degradations.extend(pair_degradations)
        opportunities.extend(_runs(opportunity, improvement, i))
        for episode in pair_degradations:
            window = slice(episode.start, episode.start + episode.length)
            if opportunity[window].mean() >= 0.5:
                escapes += 1

    def median_minutes(episodes: Sequence[Episode]) -> float:
        if not episodes:
            return 0.0
        return float(np.median([e.length for e in episodes]) * window_minutes)

    return EpisodeStudyResult(
        degradation_episodes=tuple(degradations),
        opportunity_episodes=tuple(opportunities),
        degradation_window_share=degraded_windows / total_windows,
        opportunity_window_share=opportunity_windows / total_windows,
        frac_degradations_with_escape=(
            escapes / len(degradations) if degradations else 0.0
        ),
        median_degradation_minutes=median_minutes(degradations),
        median_opportunity_minutes=median_minutes(opportunities),
        threshold_ms=threshold_ms,
    )


# --- cdn catchment geometry ------------------------------------------------


def _catchment_geometry_per_prefix(
    deployment: CdnDeployment, reached, catchments
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-prefix (km-to-catchment, misdirected) by scalar great circles."""
    kms: List[float] = []
    misdirected: List[bool] = []
    for prefix, catchment in zip(reached, catchments):
        km = great_circle_km(prefix.city.location, catchment.city.location)
        nearest = min(
            deployment.front_ends,
            key=lambda p: (
                great_circle_km(prefix.city.location, p.city.location),
                p.code,
            ),
        )
        kms.append(km)
        misdirected.append(nearest.code != catchment.code)
    return np.asarray(kms), np.asarray(misdirected, dtype=bool)


def per_prefix_catchment_geometry():
    """Inside the block, catchment distances come from scalar loops.

    numpy's haversine agrees with the scalar one to round-off, so
    distances match at a relative 1e-9; shares and misdirection exactly.
    """
    return mock.patch.object(
        catchment_module, "_catchment_geometry", _catchment_geometry_per_prefix
    )


# --- cdn redirection training ----------------------------------------------


def train_redirection_reference(
    dataset: BeaconDataset,
    ecs_resolvers: Optional[AbstractSet[str]] = None,
    train_fraction: float = 0.5,
    margin_ms: float = 1.0,
    max_train_samples: int = 8,
) -> RedirectionPolicy:
    """:func:`repro.cdn.train_redirection_policy` by per-code
    concatenation: each median is taken over the same sample multiset
    as the aligned-array blocks, so the policies must be identical."""
    n_train = max(1, int(dataset.n_requests * train_fraction))
    n_train_used = min(n_train, max_train_samples)
    by_ldns: Dict[str, List[int]] = {}
    for i, prefix in enumerate(dataset.prefixes):
        by_ldns.setdefault(prefix.ldns, []).append(i)
    sample_idx = np.unique(
        np.linspace(0, n_train - 1, n_train_used).round().astype(int)
    )

    choices: Dict[str, str] = {}
    for ldns, members in by_ldns.items():
        any_samples = dataset.anycast_rtt[members][:, sample_idx].ravel()
        anycast_median = float(np.median(any_samples))
        fe_medians: Dict[str, float] = {}
        # Only the first member's code list counts.
        for code in dataset.fe_codes[members[0]]:
            samples = []
            for m in members:
                col = dataset.column_of(m, code)
                if col is None:
                    continue
                s = dataset.unicast_rtt[m, sample_idx, col]
                s = s[~np.isnan(s)]
                if s.size:
                    samples.append(s)
            if samples:
                fe_medians[code] = float(np.median(np.concatenate(samples)))
        if not fe_medians:
            choices[ldns] = ANYCAST
            continue
        best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
        if fe_medians[best_code] + margin_ms < anycast_median:
            choices[ldns] = best_code
        else:
            choices[ldns] = ANYCAST

    prefix_choices: Dict[str, str] = {}
    for ldns, members in by_ldns.items():
        if not ecs_resolvers or ldns not in ecs_resolvers:
            continue
        for m in members:
            anycast_median = float(np.median(dataset.anycast_rtt[m, sample_idx]))
            fe_medians = {}
            for code in dataset.fe_codes[m]:
                col = dataset.column_of(m, code)
                if col is None:
                    continue
                s = dataset.unicast_rtt[m, sample_idx, col]
                s = s[~np.isnan(s)]
                if s.size:
                    fe_medians[code] = float(np.median(s))
            if not fe_medians:
                continue
            best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
            if fe_medians[best_code] + margin_ms < anycast_median:
                prefix_choices[dataset.prefixes[m].pid] = best_code
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


# --- cloudtiers campaign ---------------------------------------------------


@dataclass(frozen=True)
class PingResult:
    """RTT samples from one ping round."""

    vp_id: str
    tier: Tier
    time_h: float
    rtts_ms: Tuple[float, ...]


def ping(
    platform: SpeedcheckerPlatform,
    vp: VantagePoint,
    tier: Tier,
    time_h: float,
    count: int = 5,
) -> Optional[PingResult]:
    """One ping round from ``vp`` to ``tier``'s VM, priced on its own:
    single-key congestion lookups and its own noise draw.  Credits are
    spent either way; a VP with no route gets ``None`` and draws no
    noise."""
    if count < 1:
        raise MeasurementError("ping count must be >= 1")
    platform._spend(PING_CREDITS * count)
    path = platform._path(vp, tier)
    if path is None:
        return None
    times = np.full(count, time_h)
    base = 2.0 * path.one_way_ms + platform._vp_last_mile(vp)
    congestion = platform._congestion
    shared = congestion.diurnal_delay(times, vp.city.location.lon)
    shared = shared + key_delay(congestion, f"vp:{vp.vp_id}", times)
    route = key_delay(congestion, f"tierpath:{vp.vp_id}:{tier.value}", times)
    samples = base + shared + route + platform._rng.exponential(1.2, size=count)
    return PingResult(
        vp_id=vp.vp_id,
        tier=tier,
        time_h=time_h,
        rtts_ms=tuple(float(x) for x in samples),
    )


def run_campaign_reference(
    platform: SpeedcheckerPlatform, config: Optional[CampaignConfig] = None
) -> TierDataset:
    """:func:`repro.cloudtiers.run_campaign`, one (VP, tier) burst at a
    time: each VP's traceroutes and bursts go out in turn, Premium
    first, and every round of a burst is one :func:`ping`."""
    cfg = config or CampaignConfig()
    deployment = platform.deployment
    rng = np.random.default_rng(cfg.seed)
    vps: Dict[str, VantagePoint] = {}
    records: List[VpDayRecord] = []
    traceroutes: Dict[Tuple[str, Tier], TracerouteResult] = {}
    eligible: Set[str] = set()
    checked: Set[str] = set()

    for day in range(cfg.days):
        panel = platform.select_vantage_points(day, cfg.vps_per_day)
        round_times = day * 24.0 + np.sort(rng.uniform(0.0, 24.0, cfg.rounds_per_day))
        for vp in panel:
            medians: Dict[Tier, List[float]] = {Tier.PREMIUM: [], Tier.STANDARD: []}
            for tier in (Tier.PREMIUM, Tier.STANDARD):
                if (vp.vp_id, tier) not in traceroutes:
                    tr = platform.traceroute(vp, tier, float(round_times[0]))
                    if tr is not None:
                        traceroutes[(vp.vp_id, tier)] = tr
                rounds = [
                    ping(platform, vp, tier, float(t), count=cfg.pings_per_round)
                    for t in round_times
                ]
                if all(r is not None for r in rounds):
                    burst = np.array([r.rtts_ms for r in rounds])
                    medians[tier] = list(np.median(burst, axis=1))
            if not medians[Tier.PREMIUM] or not medians[Tier.STANDARD]:
                continue
            vps[vp.vp_id] = vp
            records.append(
                VpDayRecord(
                    vp_id=vp.vp_id,
                    day=day,
                    median_ms={
                        tier: float(np.median(ms)) for tier, ms in medians.items()
                    },
                )
            )
            if vp.vp_id not in checked:
                checked.add(vp.vp_id)
                premium_direct = deployment.enters_directly(Tier.PREMIUM, vp.asn)
                standard_direct = deployment.enters_directly(Tier.STANDARD, vp.asn)
                if premium_direct is True and standard_direct is False:
                    eligible.add(vp.vp_id)
    if not records:
        raise MeasurementError("campaign produced no measurements")
    return TierDataset(
        vps=vps, records=records, traceroutes=traceroutes, eligible=eligible
    )


# --- cdn beacon campaign ---------------------------------------------------


def run_beacon_campaign_reference(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
    config: Optional[BeaconConfig] = None,
) -> BeaconDataset:
    """:func:`repro.cdn.measurement.run_beacon_campaign`, one target at a
    time: every path key is seeded and priced on its own, and each
    target draws its own noise."""
    cfg = config or BeaconConfig()
    if not prefixes:
        raise MeasurementError("no client prefixes")
    rng = np.random.default_rng(cfg.seed)
    congestion = CongestionModel(cfg.seed, cfg.congestion_config())
    horizon = cfg.days * 24.0

    kept: List[ClientPrefix] = []
    catchments: List[str] = []
    fe_codes: List[Tuple[str, ...]] = []
    base_any: List[float] = []
    base_uni: List[List[float]] = []
    path_keys: List[Tuple[str, List[str]]] = []
    for prefix in prefixes:
        try:
            any_path = deployment.anycast_path(prefix)
        except RoutingError:
            continue
        catchment = deployment.internet.wan.nearest_pop(
            any_path.ingress_city.location
        )
        ordered = deployment.nearby_front_ends(prefix, len(deployment.front_ends))
        codes = [catchment.code] + [
            p.code for p in ordered if p.code != catchment.code
        ]
        uni_bases: List[float] = []
        uni_keys: List[str] = []
        for code in codes:
            path = deployment.unicast_path(prefix, code)
            if path is None:
                uni_bases.append(float("nan"))
            else:
                uni_bases.append(2.0 * path.one_way_ms)
            uni_keys.append(f"cdnpath:{prefix.pid}->{code}")
        kept.append(prefix)
        catchments.append(catchment.code)
        fe_codes.append(tuple(codes))
        base_any.append(2.0 * any_path.one_way_ms)
        base_uni.append(uni_bases)
        path_keys.append((f"cdnpath:{prefix.pid}->anycast", uni_keys))
    if not kept:
        raise MeasurementError("no prefix could reach the anycast prefix")

    n_p = len(kept)
    n_r = cfg.requests_per_prefix
    k = len(deployment.front_ends)
    times = np.empty((n_p, n_r))
    anycast_rtt = np.empty((n_p, n_r))
    unicast_rtt = np.full((n_p, n_r, k), np.nan)
    lo, hi = cfg.last_mile_ms_range
    for i, prefix in enumerate(kept):
        t = np.sort(rng.uniform(0.0, horizon, size=n_r))
        times[i] = t
        last_mile = float(rng.uniform(lo, hi))
        shared = (
            last_mile
            + (
                congestion.diurnal_delay(t, prefix.city.location.lon)
                + key_delay(congestion, f"dest:{prefix.pid}", t)
            )
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        any_key, uni_keys = path_keys[i]
        anycast_rtt[i] = (
            base_any[i]
            + shared
            + key_delay(congestion, any_key, t)
            + key_delay(congestion, any_key, t, shift=True)
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        for j, code in enumerate(fe_codes[i]):
            base = base_uni[i][j]
            if np.isnan(base):
                continue
            unicast_rtt[i, :, j] = (
                base
                + shared
                + key_delay(congestion, uni_keys[j], t)
                + key_delay(congestion, uni_keys[j], t, shift=True)
                + rng.exponential(cfg.rtt_noise_ms, size=n_r)
            )
    return BeaconDataset(
        prefixes=kept,
        catchments=catchments,
        fe_codes=fe_codes,
        times_h=times,
        anycast_rtt=anycast_rtt,
        unicast_rtt=unicast_rtt,
        n_nearby=cfg.nearby_front_ends,
    )


# --- congestion delay lookups ----------------------------------------------


def key_delay(
    model: CongestionModel, key: str, times_h, shift: bool = False
) -> np.ndarray:
    """One key's event delay at each time, or its baseline-shift delay
    with ``shift``: the single-key row of ``event_and_shift_delays``,
    in the shape of ``times_h``.  Only that one series is drawn."""
    times = np.asarray(times_h, dtype=float)
    event_keys, shift_keys = ((), (key,)) if shift else ((key,), ())
    events, shifts = model.event_and_shift_delays(event_keys, shift_keys, times)
    return (shifts if shift else events)[0].reshape(times.shape)


def draw_series_reference(
    rng: np.random.Generator,
    horizon: float,
    rate_per_day: float,
    mean_duration_hours: float,
    magnitude_median_ms: float,
    magnitude_sigma: float,
) -> List[Tuple[float, float, float]]:
    """Poisson-many events over the horizon from one key's stream, as
    ``(start_h, duration_h, extra_ms)`` tuples in start order: the draw
    the model made before it stored its variates as drawn.

    One array draw per attribute; the lexsort gives the order of
    ``sorted(zip(starts, durations, magnitudes))``."""
    count = int(rng.poisson(rate_per_day * horizon / 24.0))
    if count == 0:
        return []
    starts = rng.uniform(0.0, horizon, size=count)
    durations = rng.exponential(mean_duration_hours, size=count)
    magnitudes = magnitude_median_ms * np.exp(
        rng.normal(0.0, magnitude_sigma, size=count)
    )
    order = np.lexsort((magnitudes, durations, starts))
    return list(
        zip(
            starts[order].tolist(),
            durations[order].tolist(),
            magnitudes[order].tolist(),
        )
    )


def key_events(
    model: CongestionModel, key: str, shift: bool = False
) -> List[Tuple[float, float, float]]:
    """One key's events, or with ``shift`` its baseline shifts, as
    :func:`draw_series_reference` draws them from the key's own
    ``default_rng`` stream; the model's storage is not read."""
    stream = ("shifts:" if shift else "events:") + key
    rng = np.random.default_rng(
        [model.seed & 0xFFFFFFFF, zlib.crc32(stream.encode("utf-8"))]
    )
    cfg = model.config
    if shift:
        process = (
            congestion_module.SHIFT_RATE_PER_DAY,
            congestion_module.SHIFT_MEAN_DURATION_HOURS,
            congestion_module.SHIFT_MAGNITUDE_MEDIAN_MS,
            congestion_module.SHIFT_MAGNITUDE_SIGMA,
        )
    else:
        process = (
            cfg.event_rate_per_day,
            cfg.event_mean_duration_hours,
            cfg.event_magnitude_median_ms,
            cfg.event_magnitude_sigma,
        )
    return draw_series_reference(rng, cfg.horizon_hours, *process)


def _scaled_events(draw, horizon, process) -> List[Tuple[float, float, float]]:
    """A stored draw's events as ``(start_h, duration_h, extra_ms)``
    tuples, scaled by ``process`` and put in start order by ``sorted``."""
    uniform, exponential, normal = draw
    starts = uniform * horizon
    durations = exponential * process.mean_duration_hours
    magnitudes = process.magnitude_median_ms * np.exp(
        process.magnitude_sigma * normal
    )
    return sorted(zip(starts.tolist(), durations.tolist(), magnitudes.tolist()))


def stored_events(
    model: CongestionModel, key: str, shift: bool = False
) -> List[Tuple[float, float, float]]:
    """The events the model stores for one key (its baseline shifts with
    ``shift``), scaled and sorted here, drawn first if need be."""
    key_delay(model, key, (), shift)
    draws = model._shifts if shift else model._events
    process = congestion_module._SHIFTS if shift else model._process
    return _scaled_events(draws[key], model.config.horizon_hours, process)


def scan_events(events, times_h) -> np.ndarray:
    """Extra delay at each time from a ``(start_h, duration_h, extra_ms)``
    list, visiting every event of the horizon in list order."""
    times = np.asarray(times_h, dtype=float)
    delay = np.zeros_like(times)
    for start, duration, magnitude in events:
        active = (times >= start) & (times < start + duration)
        if active.any():
            delay[active] += magnitude
    return delay


def _scan_series(horizon, segments, times) -> np.ndarray:
    """``_series_delays`` by one full :func:`scan_events` per row."""
    flat = np.asarray(times, dtype=float).ravel()
    rows = [(process, draw) for process, block in segments for draw in block]
    delay = np.zeros((len(rows), flat.size))
    for row, (process, draw) in zip(delay, rows):
        row[:] = scan_events(_scaled_events(draw, horizon, process), flat)
    return delay


def full_event_scans():
    """Inside the block, every row of ``event_and_shift_delays`` — every
    congestion event and baseline-shift delay of the three settings —
    scans every event of the key's series, row by row.  The block
    yields a mock that counts the kernel calls it replaced."""
    return mock.patch.object(
        congestion_module, "_series_delays", mock.Mock(side_effect=_scan_series)
    )


# --- nearest PoP -----------------------------------------------------------


def nearest_pop_scan(wan: PrivateWan, location: GeoPoint) -> PointOfPresence:
    """The PoP nearest ``location`` by a fresh scan in construction
    order; a tie keeps the earlier PoP."""
    best: Optional[PointOfPresence] = None
    best_km = float("inf")
    for pop in wan.pops:
        km = great_circle_km(location, pop.city.location)
        if km < best_km:
            best_km = km
            best = pop
    assert best is not None
    return best


def unmemoised_nearest_pops():
    """Inside the block, every ``PrivateWan.nearest_pop`` call scans."""
    return mock.patch.object(PrivateWan, "nearest_pop", nearest_pop_scan)


# --- city-pair distances ---------------------------------------------------


def _scalar_km(memo: CityDistanceCache, a: City, b: City) -> float:
    return great_circle_km(a.location, b.location)


#: The generator's process-wide rankings of the city dataset.
_RANKING_MEMOS = ("_HOMES", "_RANKED", "_ROWS", "_HUBS", "_NEAREST", "_MESHES")


@contextmanager
def uncached_distances():
    """Inside the block, every :class:`~repro.geo.CityDistanceCache` —
    the process's one memo, :data:`~repro.geo.CITY_DISTANCES`, that the
    generator, serialization and traces share — computes every city-pair
    distance afresh, in the caller's argument order, and the generator
    ranks the city dataset afresh into memos dropped at the end."""
    fresh = {name: {} for name in _RANKING_MEMOS}
    with mock.patch.object(CityDistanceCache, "__call__", _scalar_km):
        with mock.patch.multiple(generator_module, **fresh):
            yield


# --- WAN shortest paths ----------------------------------------------------


def wan_shortest_paths(
    pops: Sequence[PointOfPresence],
    backbone_edges: Sequence[Tuple[str, str]],
    inflation: float = 1.08,
) -> Tuple[List[List[float]], List[List[Optional[int]]]]:
    """:class:`PrivateWan`'s latencies and next hops (``_dist`` and
    ``_next``) by the scalar Floyd-Warshall loop, one (i, j) at a time.
    A disconnected backbone raises the ``TopologyError`` naming the first
    PoP pair, in row order, that has no path."""
    codes = [pop.code for pop in pops]
    index = {code: i for i, code in enumerate(codes)}
    n = len(codes)
    inf = math.inf
    dist = [[inf] * n for _ in range(n)]
    nxt: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
        nxt[i][i] = i
    for x, y in backbone_edges:
        i, j = index[x], index[y]
        km = great_circle_km(pops[i].city.location, pops[j].city.location)
        ms = propagation_one_way_ms(km, inflation)
        if ms < dist[i][j]:
            dist[i][j] = dist[j][i] = ms
            nxt[i][j] = j
            nxt[j][i] = i
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
                    nxt[i][j] = nxt[i][k]
    for i in range(n):
        for j in range(n):
            if dist[i][j] == inf:
                raise TopologyError(
                    "WAN backbone is disconnected: no path "
                    f"{codes[i]!r} -> {codes[j]!r}"
                )
    return dist, nxt


# --- hashed unit draws -----------------------------------------------------


def unit_draw_reference(*parts: object) -> float:
    """:func:`repro.faults.plan.unit_draw` with its sha256 input joined
    from a generator expression, one ``str(part)`` at a time."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


# --- figure analyses -------------------------------------------------------


def weighted_cdf_reference(values, weights=None) -> Cdf:
    """:func:`repro.analysis.weighted_cdf` by a stable sort and
    ``np.unique``, whatever the sample holds."""
    v, w = stats_module._validate(values, weights)
    order = np.argsort(v, kind="stable")
    v = v[order]
    w = w[order]
    xs, first = np.unique(v, return_index=True)
    cum = np.cumsum(w)
    last = np.append(first[1:], len(v)) - 1
    return Cdf(xs=xs, ps=cum[last] / cum[-1])


def class_best_medians_reference(
    dataset: EgressDataset, route_class: RouteClass
) -> np.ndarray:
    """:meth:`EgressDataset.class_best_medians`, one pair at a time."""
    out = np.full((dataset.n_pairs, dataset.n_windows), np.nan)
    for i, pair in enumerate(dataset.pairs):
        idx = [j for j, r in enumerate(pair.routes) if r.route_class is route_class]
        if idx:
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out[i] = np.nanmin(dataset.medians[i][:, idx], axis=1)
    return out


def static_best_choice_reference(dataset: EgressDataset) -> np.ndarray:
    """:func:`repro.edgefabric.static_best_choice` by ``np.nanmedian``."""
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        overall = np.nanmedian(dataset.medians, axis=1)
        best = np.nanargmin(overall, axis=1)
    return np.repeat(best[:, None], dataset.n_windows, axis=1)


def persistence_decomposition_reference(
    dataset: EgressDataset, threshold_ms: float = 5.0
) -> PersistenceResult:
    """:func:`repro.edgefabric.persistence_decomposition`, one pair at a
    time."""
    bgp = dataset.medians[:, :, 0]
    with np.errstate(invalid="ignore", all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        best_alt = np.nanmin(dataset.medians[:, :, 1:], axis=2)
    valid = ~np.isnan(bgp) & ~np.isnan(best_alt)
    win = (bgp - best_alt) > threshold_ms

    frac_never = frac_persistent = frac_transient = 0
    correlations = []
    co_degraded = []
    n_classified = 0
    for i in range(dataset.n_pairs):
        mask = valid[i]
        if mask.sum() < 8:
            continue
        n_classified += 1
        win_frac = win[i][mask].mean()
        if win_frac < 0.05:
            frac_never += 1
        elif win_frac > 0.80:
            frac_persistent += 1
        else:
            frac_transient += 1
        b = bgp[i][mask]
        a = best_alt[i][mask]
        if b.std() > 0 and a.std() > 0:
            correlations.append(float(np.corrcoef(b, a)[0, 1]))
        b_degraded = b > np.median(b) + threshold_ms
        if b_degraded.any():
            a_degraded = a > np.median(a) + threshold_ms
            co_degraded.append(float(a_degraded[b_degraded].mean()))
    if n_classified == 0:
        raise AnalysisError("no pair has enough valid windows")
    return PersistenceResult(
        frac_pairs_never=frac_never / n_classified,
        frac_pairs_persistent=frac_persistent / n_classified,
        frac_pairs_transient=frac_transient / n_classified,
        degradation_co_occurrence=(
            float(np.mean(co_degraded)) if co_degraded else float("nan")
        ),
        median_route_correlation=(
            float(np.median(correlations)) if correlations else float("nan")
        ),
        threshold_ms=threshold_ms,
    )


def train_redirection_per_resolver(
    dataset: BeaconDataset,
    train_fraction: float = 0.5,
    margin_ms: float = 1.0,
    max_train_samples: int = 8,
    ecs_resolvers: Optional[AbstractSet[str]] = None,
) -> RedirectionPolicy:
    """:func:`repro.cdn.train_redirection_policy` with one ``nanmedian``
    block per resolver and one per ECS resolver's members."""
    n_train = max(1, int(dataset.n_requests * train_fraction))
    n_train_used = min(n_train, max_train_samples)
    by_ldns: Dict[str, List[int]] = {}
    for i, prefix in enumerate(dataset.prefixes):
        by_ldns.setdefault(prefix.ldns, []).append(i)
    sample_idx = np.unique(
        np.linspace(0, n_train - 1, n_train_used).round().astype(int)
    )
    choices: Dict[str, str] = {}
    prefix_choices: Dict[str, str] = {}
    codes, col_of, aligned = redirection_module._aligned_training_rtts(
        dataset, sample_idx
    )
    any_train = dataset.anycast_rtt[:, sample_idx]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for ldns, members in by_ldns.items():
            pooled = aligned[members].reshape(-1, len(codes))
            medians = np.nanmedian(pooled, axis=0)
            medians[col_of[members[0]] < 0] = np.nan
            anycast_median = float(np.median(any_train[members]))
            if np.isnan(medians).all():
                choices[ldns] = ANYCAST
                continue
            best = int(np.nanargmin(medians))
            if float(medians[best]) + margin_ms < anycast_median:
                choices[ldns] = codes[best]
            else:
                choices[ldns] = ANYCAST
        if ecs_resolvers:
            for ldns, members in by_ldns.items():
                if ldns not in ecs_resolvers:
                    continue
                member_medians = np.nanmedian(aligned[members], axis=1)
                anycast_medians = np.median(any_train[members], axis=1)
                for row, m in enumerate(members):
                    medians = member_medians[row]
                    if np.isnan(medians).all():
                        continue
                    best = int(np.nanargmin(medians))
                    if float(medians[best]) + margin_ms < float(anycast_medians[row]):
                        prefix_choices[dataset.prefixes[m].pid] = codes[best]
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


def redirection_improvement_reference(
    dataset: BeaconDataset,
    policy: RedirectionPolicy,
    train_fraction: float = 0.5,
    threshold_ms: float = 1.0,
) -> Fig4Result:
    """:func:`repro.cdn.redirection_improvement`, one prefix at a time,
    with :func:`weighted_cdf_reference`."""
    window = evaluation_slice(dataset, train_fraction)
    med = np.full(dataset.n_prefixes, np.nan)
    p75 = np.full(dataset.n_prefixes, np.nan)
    for i, prefix in enumerate(dataset.prefixes):
        choice = policy.choice_for(prefix.ldns, pid=prefix.pid)
        anycast = dataset.anycast_rtt[i, window]
        if choice == ANYCAST:
            chosen = anycast
        else:
            col = dataset.column_of(i, choice)
            if col is None:
                chosen = anycast
            else:
                chosen = dataset.unicast_rtt[i, window, col]
        improvement = anycast - chosen
        improvement = improvement[~np.isnan(improvement)]
        if improvement.size == 0:
            continue
        med[i] = float(np.median(improvement))
        p75[i] = float(np.quantile(improvement, 0.75))
    valid = ~np.isnan(med)
    if not valid.any():
        raise AnalysisError("no prefix has evaluation measurements")
    weights = dataset.slash24_weights()[valid]
    med = med[valid]
    p75 = p75[valid]
    total = weights.sum()
    return Fig4Result(
        median_cdf=weighted_cdf_reference(med, weights),
        p75_cdf=weighted_cdf_reference(p75, weights),
        frac_improved=float(weights[med >= threshold_ms].sum() / total),
        frac_hurt=float(weights[med <= -threshold_ms].sum() / total),
        frac_redirected=policy.frac_redirected,
        threshold_ms=threshold_ms,
    )


def country_medians_reference(dataset: TierDataset, min_vps: int = 2) -> Fig5Result:
    """:func:`repro.cloudtiers.country_medians` with one ``np.median``
    per country, tier and region."""
    by_country: Dict[str, Dict[Tier, List[float]]] = {}
    vp_sets: Dict[str, set] = {}
    for record in dataset.eligible_records():
        country = dataset.vps[record.vp_id].city.country
        bucket = by_country.setdefault(country, {Tier.PREMIUM: [], Tier.STANDARD: []})
        for tier, value in record.median_ms.items():
            bucket[tier].append(value)
        vp_sets.setdefault(country, set()).add(record.vp_id)
    diffs: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for country, bucket in by_country.items():
        if len(vp_sets[country]) < min_vps:
            continue
        premium = float(np.median(bucket[Tier.PREMIUM]))
        standard = float(np.median(bucket[Tier.STANDARD]))
        diffs[country] = standard - premium
        counts[country] = len(vp_sets[country])
    if not diffs:
        raise AnalysisError("no country has enough eligible vantage points")
    values = np.array(list(diffs.values()))
    region_values: Dict[Region, List[float]] = {}
    for country, diff in diffs.items():
        region_values.setdefault(region_of_country(country), []).append(diff)
    return Fig5Result(
        country_diff_ms=diffs,
        country_vp_count=counts,
        frac_within_10ms=float((np.abs(values) <= 10.0).mean()),
        premium_better=tuple(sorted(c for c, d in diffs.items() if d > 10.0)),
        standard_better=tuple(sorted(c for c, d in diffs.items() if d < -10.0)),
        region_medians={
            region: float(np.median(vals)) for region, vals in region_values.items()
        },
    )


def goodput_comparison_reference(
    dataset: TierDataset,
    transfer_mb: float = 10.0,
    bottleneck_mbps: float = 50.0,
    initial_window_kb: float = 14.6,
) -> GoodputResult:
    """:func:`repro.cloudtiers.goodput_comparison` with one ``np.median``
    per VP and tier."""
    per_vp: Dict[str, Dict[Tier, List[float]]] = {}
    for record in dataset.eligible_records():
        bucket = per_vp.setdefault(record.vp_id, {Tier.PREMIUM: [], Tier.STANDARD: []})
        for tier, value in record.median_ms.items():
            bucket[tier].append(value)
    goodputs: Dict[Tier, List[float]] = {Tier.PREMIUM: [], Tier.STANDARD: []}
    ratios: List[float] = []
    for bucket in per_vp.values():
        vp_goodput: Dict[Tier, float] = {}
        for tier, rtts in bucket.items():
            if not rtts:
                continue
            path = TcpPath(
                rtt_ms=float(np.median(rtts)), bottleneck_mbps=bottleneck_mbps
            )
            vp_goodput[tier] = goodput_mbps(path, transfer_mb, iw_kb=initial_window_kb)
            goodputs[tier].append(vp_goodput[tier])
        if Tier.PREMIUM in vp_goodput and Tier.STANDARD in vp_goodput:
            ratios.append(vp_goodput[Tier.PREMIUM] / vp_goodput[Tier.STANDARD])
    if not ratios:
        raise AnalysisError("no VP has goodput on both tiers")
    return GoodputResult(
        median_goodput_mbps={
            tier: float(np.median(vals)) for tier, vals in goodputs.items() if vals
        },
        median_ratio=float(np.median(ratios)),
    )
