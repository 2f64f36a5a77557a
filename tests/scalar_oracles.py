"""The original scalar loops, kept as test oracles.

Synthesis, episode extraction, catchment geometry, redirection
training, the beacon and cloudtiers campaigns, congestion-delay
lookups, nearest-PoP lookups and city-pair distances each run one
batched, pruned or memoised implementation.  This module keeps the
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

from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

import repro.cdn.catchment as catchment_module
import repro.edgefabric.sampler as sampler_module
import repro.netmodel.congestion as congestion_module
from repro.cdn.deployment import CdnDeployment
from repro.cdn.dns_redirection import ANYCAST, RedirectionPolicy
from repro.cdn.measurement import BeaconConfig, BeaconDataset
from repro.cloudtiers import SpeedcheckerPlatform
from repro.edgefabric.episodes import Episode, EpisodeStudyResult
from repro.errors import MeasurementError, RoutingError
from repro.geo import City, CityDistanceCache, GeoPoint, great_circle_km
from repro.netmodel import CongestionModel
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
        shared = dest_congestion.shared_delay(
            f"dest:{prefix.pid}", prefix.city.location.lon, times
        )
        n = sessions[i]
        sd = cfg.min_rtt_noise_ms / np.sqrt(n)
        halfwidth = median_min_rtt_ci_halfwidth(cfg.min_rtt_noise_ms, 1) / np.sqrt(n)
        for j, route in enumerate(pair.routes):
            base = 2.0 * route.base_one_way_ms + last_mile
            specific = congestion.link_delay(route.link_key, times)
            specific = specific + congestion.link_delay(route.interior_key, times)
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


class PerRoundPingPlatform(SpeedcheckerPlatform):
    """A platform that serves every ping burst as per-round :meth:`ping`
    calls, each drawing its own noise."""

    def ping_burst(self, vp, tier, times_h, count=5):
        rounds = [self.ping(vp, tier, float(t), count=count) for t in times_h]
        if any(r is None for r in rounds):
            return None
        return np.array([r.rtts_ms for r in rounds])


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
            + congestion.shared_delay(f"dest:{prefix.pid}", prefix.city.location.lon, t)
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        any_key, uni_keys = path_keys[i]
        anycast_rtt[i] = (
            base_any[i]
            + shared
            + congestion.link_delay(any_key, t)
            + congestion.baseline_shift_delay(any_key, t)
            + rng.exponential(cfg.rtt_noise_ms, size=n_r)
        )
        for j, code in enumerate(fe_codes[i]):
            base = base_uni[i][j]
            if np.isnan(base):
                continue
            unicast_rtt[i, :, j] = (
                base
                + shared
                + congestion.link_delay(uni_keys[j], t)
                + congestion.baseline_shift_delay(uni_keys[j], t)
                + rng.exponential(cfg.rtt_noise_ms, size=n_r)
            )
    if cfg.drain is not None:
        for i in range(n_p):
            for j, code in enumerate(fe_codes[i]):
                mask = cfg.drain.drained_mask(code, times[i])
                if mask.any():
                    unicast_rtt[i, mask, j] = np.nan
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


def _scan_series(series, times) -> np.ndarray:
    """``_series_delays`` by one full :func:`scan_events` per row."""
    flat = np.asarray(times, dtype=float).ravel()
    delay = np.zeros((len(series), flat.size))
    for row, one in zip(delay, series):
        row[:] = scan_events(one.as_list(), flat)
    return delay


def full_event_scans():
    """Inside the block, every event and baseline-shift lookup —
    ``event_delay``, ``baseline_shift_delay`` and the rows of
    ``event_and_shift_delays`` — scans every event of the key's series,
    row by row, instead of only the events near the queried times."""
    return mock.patch.object(congestion_module, "_series_delays", _scan_series)


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


def uncached_distances():
    """Inside the block, every :class:`~repro.geo.CityDistanceCache` —
    the process's one memo, :data:`~repro.geo.CITY_DISTANCES`, that the
    generator, serialization and traces share — computes every city-pair
    distance afresh, in the caller's argument order."""
    return mock.patch.object(CityDistanceCache, "__call__", _scalar_km)
