"""The original scalar loops, kept as test oracles.

Synthesis, episode extraction, catchment geometry, redirection
training, the cloudtiers campaign, congestion-delay lookups,
nearest-PoP lookups and city-pair distances each run one batched,
pruned or memoised implementation.  This module keeps the per-item
loops they replaced, so ``tests/test_lane_agreement.py`` can check each
against an independent implementation of the same computation, as
:mod:`bgp_oracle` does for propagation.

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
from repro.cdn.measurement import BeaconDataset
from repro.cloudtiers import SpeedcheckerPlatform
from repro.edgefabric.episodes import Episode, EpisodeStudyResult
from repro.geo import City, CityDistanceCache, GeoPoint, great_circle_km
from repro.netmodel.rtt import median_min_rtt, median_min_rtt_ci_halfwidth
from repro.topology import PointOfPresence, PrivateWan

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


def full_event_scans():
    """Inside the block, ``event_delay`` and ``baseline_shift_delay``
    scan every event of the key's series instead of only the events
    near the queried times."""
    return mock.patch.object(
        congestion_module,
        "_series_delay",
        lambda series, times: scan_events(series.as_list(), times),
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


def uncached_distances():
    """Inside the block, every :class:`~repro.geo.CityDistanceCache` —
    the generator's and each graph's — computes every city-pair
    distance afresh, in the caller's argument order."""
    return mock.patch.object(CityDistanceCache, "__call__", _scalar_km)
