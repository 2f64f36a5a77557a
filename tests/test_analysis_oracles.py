"""Bit-for-bit agreement between the figure analyses and their oracles.

The analyses behind Figures 1-5 run as array steps: one sort per
weighted CDF, one sort-based nan-median, and axis reductions where
loops ran per pair, per resolver, per prefix and per vantage point.
``tests/scalar_oracles.py`` keeps the loops they replaced.  These
properties hold each rewrite to its loop bit for bit, comparing float
bits (``float.hex``, which reads every NaN alike and tells -0.0 from
0.0) or array bytes, on samples drawn to hold ties, ±0.0, ±inf, single
elements, zero weights, NaN cells, all-NaN rows and columns, and rows
of odd and even length.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scalar_oracles import (
    class_best_medians_reference,
    country_medians_reference,
    goodput_comparison_reference,
    persistence_decomposition_reference,
    redirection_improvement_reference,
    static_best_choice_reference,
    train_redirection_per_resolver,
    weighted_cdf_reference,
)

import repro.analysis.stats as stats_module
from repro.analysis import nanmedian, weighted_cdf
from repro.bgp import RouteClass
from repro.cdn import CdnDeployment, redirection_improvement, train_redirection_policy
from repro.cdn.dns_redirection import ANYCAST, RedirectionPolicy
from repro.cdn.measurement import BeaconConfig, BeaconDataset, run_beacon_campaign
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    Tier,
    TierDataset,
    country_medians,
    goodput_comparison,
    run_campaign,
)
from repro.cloudtiers.campaign import VpDayRecord
from repro.edgefabric import MeasurementConfig, persistence_decomposition
from repro.edgefabric.controller import static_best_choice
from repro.edgefabric.dataset import EgressDataset
from repro.edgefabric.sampler import plan_measurement, synthesize_dataset
from repro.errors import AnalysisError

#: Values that stress sorting and the median's sum: ties, signed zeros
#: and infinities.
SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5])
#: Values on a 0.5 grid collide often.
TIED = st.integers(-40, 40).map(lambda k: k / 2.0)
CELL = st.one_of(SPECIAL, TIED, st.floats(-1e6, 1e6), st.just(np.nan))
#: Few values, one threshold apart: wins and degradations hit the edge.
EDGE = st.sampled_from([0.0, 0.5, 1.0, 5.0, 5.5, 10.0, np.nan])
#: Positive RTTs, tied, with an occasional infinity or NaN.
RTT = st.one_of(st.integers(1, 30).map(float), st.sampled_from([np.inf, np.nan]))

QUIET = dict(deadline=None)


def _bits(value) -> list:
    """Every float of ``value`` as ``float.hex`` (all NaNs read alike)."""
    return [float(x).hex() for x in np.ravel(np.asarray(value, dtype=float))]


def _cdf_bits(cdf) -> tuple:
    return cdf.xs.tobytes(), cdf.ps.tobytes()


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of its library error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return fn(*args, **kwargs)
    except (AnalysisError, ValueError) as exc:
        return type(exc), str(exc)


def _blank_lines(data, a: np.ndarray) -> np.ndarray:
    """Maybe NaN out a whole row and a whole column of ``a``."""
    if a.size == 0:
        return a
    if data.draw(st.booleans()):
        a[data.draw(st.integers(0, a.shape[0] - 1))] = np.nan
    if data.draw(st.booleans()):
        a[:, data.draw(st.integers(0, a.shape[1] - 1))] = np.nan
    return a


# --- weighted CDF ----------------------------------------------------------


class TestWeightedCdf:
    @settings(max_examples=200, **QUIET)
    @given(
        st.lists(
            st.tuples(CELL, st.one_of(st.just(0.0), st.floats(0.0, 10.0))),
            min_size=1,
            max_size=30,
        ),
        st.booleans(),
    )
    def test_equals_two_sort_build(self, cells, weighted):
        values = [v for v, _ in cells]
        weights = [w for _, w in cells] if weighted else None
        if weights is not None and not sum(weights) > 0:
            weights[-1] = 1.0
        assert _cdf_bits(weighted_cdf(values, weights)) == _cdf_bits(
            weighted_cdf_reference(values, weights)
        )

    def test_distinct_sample_sorts_once(self):
        values = np.random.default_rng(0).normal(size=1000)
        with mock.patch.object(
            stats_module.np, "argsort", wraps=np.argsort
        ) as argsort, mock.patch.object(
            stats_module.np, "unique", side_effect=AssertionError
        ):
            weighted_cdf(values)
            assert argsort.call_count == 1
            weighted_cdf(np.append(values, values[0]))
            assert argsort.call_count == 3


# --- nan-median ------------------------------------------------------------


class TestNanmedian:
    @settings(max_examples=150, **QUIET)
    @given(
        st.lists(st.integers(0, 7), min_size=2, max_size=3).flatmap(
            lambda shape: hnp.arrays(np.float64, tuple(shape), elements=CELL)
        ),
        st.data(),
    )
    def test_equals_numpy(self, a, data):
        a = _blank_lines(data, a)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for axis in range(a.ndim):
                assert _bits(nanmedian(a, axis)) == _bits(np.nanmedian(a, axis=axis))

    @settings(max_examples=10, **QUIET)
    @given(st.integers(0, 2**32 - 1), st.integers(600, 620))
    def test_equals_numpy_on_long_lanes(self, seed, width):
        # numpy takes another path from 600 values per lane on.
        rng = np.random.default_rng(seed)
        pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 2.5])
        a = np.where(
            rng.random((4, width)) < 0.6,
            rng.choice(pool, (4, width)),
            rng.normal(size=(4, width)).round(1),
        )
        a[3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert _bits(nanmedian(a, 1)) == _bits(np.nanmedian(a, axis=1))


# --- Setting A -------------------------------------------------------------


@pytest.fixture(scope="module")
def egress(small_internet, small_prefixes) -> EgressDataset:
    plan = plan_measurement(small_internet, small_prefixes, MeasurementConfig(days=0.5))
    return synthesize_dataset(plan, MeasurementConfig(days=0.5, seed=0))


def _drawn_egress(base: EgressDataset, data, elements=CELL) -> EgressDataset:
    """``base``'s route inventories under drawn medians."""
    pairs = st.integers(0, base.n_pairs - 1)
    picks = data.draw(st.lists(pairs, min_size=1, max_size=6))
    n_windows = data.draw(st.integers(1, 20))
    shape = (len(picks), n_windows, base.max_routes)
    medians = data.draw(hnp.arrays(np.float64, shape, elements=elements))
    if data.draw(st.booleans()):
        medians[:, :, data.draw(st.integers(0, base.max_routes - 1))] = np.nan
    medians[:, :, 0] = _blank_lines(data, medians[:, :, 0].copy())
    return EgressDataset(
        pairs=[base.pairs[i] for i in picks],
        times_h=base.times_h[:n_windows],
        medians=medians,
        ci_half=np.zeros(shape),
        volumes=np.ones(shape[:2]),
        max_routes=base.max_routes,
    )


class TestEdgefabricAnalysis:
    @settings(max_examples=60, **QUIET)
    @given(st.data())
    def test_persistence_equals_pair_loop(self, egress, data):
        dataset = _drawn_egress(egress, data, data.draw(st.sampled_from([CELL, EDGE])))
        threshold = data.draw(st.sampled_from([0.5, 5.0]))
        new = _outcome(persistence_decomposition, dataset, threshold)
        old = _outcome(persistence_decomposition_reference, dataset, threshold)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert _bits(list(vars(new).values())) == _bits(list(vars(old).values()))

    @settings(max_examples=60, **QUIET)
    @given(st.data())
    def test_class_best_medians_equal_pair_loop(self, egress, data):
        dataset = _drawn_egress(egress, data)
        # -0.0 is drawn as +0.0 here: the oracle's nanmin over a
        # fancy-indexed (column-major) block breaks a tie between them
        # by the window's SIMD lane, so its sign depends on the host.
        dataset.medians += 0.0
        for route_class in RouteClass:
            assert dataset.class_best_medians(route_class).tobytes() == (
                class_best_medians_reference(dataset, route_class).tobytes()
            )

    @settings(max_examples=60, **QUIET)
    @given(st.data())
    def test_static_best_choice_equals_nanmedian(self, egress, data):
        dataset = _drawn_egress(egress, data)
        new = _outcome(static_best_choice, dataset)
        old = _outcome(static_best_choice_reference, dataset)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert new.tobytes() == old.tobytes()


# --- Setting B -------------------------------------------------------------


@pytest.fixture(scope="module")
def beacons(small_internet, small_prefixes) -> BeaconDataset:
    return run_beacon_campaign(
        CdnDeployment(small_internet),
        small_prefixes,
        BeaconConfig(days=1.0, requests_per_prefix=4, seed=0),
    )


RESOLVERS = ("r0", "r1", "r2")


def _drawn_beacons(base: BeaconDataset, data) -> BeaconDataset:
    """``base``'s prefixes and front-ends under drawn RTTs and resolvers."""
    prefixes = st.integers(0, base.n_prefixes - 1)
    picks = data.draw(st.lists(prefixes, min_size=1, max_size=6))
    n_requests = data.draw(st.integers(2, 9))
    n_codes = base.unicast_rtt.shape[2]
    anycast = data.draw(hnp.arrays(np.float64, (len(picks), n_requests), elements=CELL))
    unicast = data.draw(
        hnp.arrays(np.float64, (len(picks), n_requests, n_codes), elements=CELL)
    )
    if data.draw(st.booleans()):
        unicast[:, :, data.draw(st.integers(0, n_codes - 1))] = np.nan
    unicast[:, :, 0] = _blank_lines(data, unicast[:, :, 0].copy())
    return BeaconDataset(
        prefixes=[
            base.prefixes[i].with_ldns(data.draw(st.sampled_from(RESOLVERS)))
            for i in picks
        ],
        catchments=[base.catchments[i] for i in picks],
        fe_codes=[base.fe_codes[i] for i in picks],
        times_h=np.zeros((len(picks), n_requests)),
        anycast_rtt=anycast,
        unicast_rtt=unicast,
        n_nearby=base.n_nearby,
    )


class TestCdnAnalysis:
    @settings(max_examples=50, **QUIET)
    @given(st.data())
    def test_training_equals_resolver_loop(self, beacons, data):
        dataset = _drawn_beacons(beacons, data)
        ecs = frozenset(data.draw(st.sets(st.sampled_from(RESOLVERS))))
        kwargs = dict(
            margin_ms=data.draw(st.sampled_from([0.0, 0.5])),
            max_train_samples=data.draw(st.integers(1, 5)),
            ecs_resolvers=ecs,
        )
        new = train_redirection_policy(dataset, **kwargs)
        old = train_redirection_per_resolver(dataset, **kwargs)
        assert new == old

    def test_training_on_no_prefix_equals_resolver_loop(self):
        dataset = BeaconDataset(
            prefixes=[],
            catchments=[],
            fe_codes=[],
            times_h=np.zeros((0, 4)),
            anycast_rtt=np.zeros((0, 4)),
            unicast_rtt=np.zeros((0, 4, 0)),
        )
        assert train_redirection_policy(dataset) == train_redirection_per_resolver(
            dataset
        )

    @settings(max_examples=50, **QUIET)
    @given(st.data())
    def test_improvement_equals_prefix_loop(self, beacons, data):
        dataset = _drawn_beacons(beacons, data)
        targets = st.sampled_from(sorted(set(beacons.fe_codes[0])) + [ANYCAST, "zzz"])
        policy = RedirectionPolicy(
            choices={r: data.draw(targets) for r in RESOLVERS},
            margin_ms=0.5,
            prefix_choices={
                p.pid: data.draw(targets)
                for p in dataset.prefixes
                if data.draw(st.booleans())
            },
        )
        new = _outcome(redirection_improvement, dataset, policy)
        old = _outcome(redirection_improvement_reference, dataset, policy)
        if isinstance(old, tuple):
            assert new == old
            return
        assert _cdf_bits(new.median_cdf) == _cdf_bits(old.median_cdf)
        assert _cdf_bits(new.p75_cdf) == _cdf_bits(old.p75_cdf)
        assert _bits([new.frac_improved, new.frac_hurt, new.frac_redirected]) == _bits(
            [old.frac_improved, old.frac_hurt, old.frac_redirected]
        )


# --- Setting C -------------------------------------------------------------


@pytest.fixture(scope="module")
def tiers(small_internet) -> TierDataset:
    return run_campaign(
        SpeedcheckerPlatform(CloudDeployment(small_internet), seed=4),
        CampaignConfig(days=2, vps_per_day=25, rounds_per_day=4, seed=4),
    )


def _drawn_tiers(base: TierDataset, data) -> TierDataset:
    """``base``'s vantage points under drawn VP-day records."""
    vp_ids = sorted(base.vps)
    records = [
        VpDayRecord(
            vp_id=data.draw(st.sampled_from(vp_ids[:12])),
            day=day,
            median_ms=(
                {Tier.PREMIUM: data.draw(RTT), Tier.STANDARD: data.draw(RTT)}
                if data.draw(st.integers(0, 5))
                else {Tier.PREMIUM: data.draw(RTT)}
            ),
        )
        for day in range(data.draw(st.integers(1, 30)))
    ]
    return TierDataset(
        vps=base.vps,
        records=records,
        traceroutes={},
        eligible=set(data.draw(st.sets(st.sampled_from(vp_ids[:12]), min_size=1))),
    )


class TestCloudtiersAnalysis:
    @settings(max_examples=50, **QUIET)
    @given(st.data())
    def test_goodput_equals_vp_loop(self, tiers, data):
        dataset = _drawn_tiers(tiers, data)
        new = _outcome(goodput_comparison, dataset)
        old = _outcome(goodput_comparison_reference, dataset)
        if isinstance(old, tuple):
            assert new == old
            return
        assert list(new.median_goodput_mbps) == list(old.median_goodput_mbps)
        assert _bits(list(new.median_goodput_mbps.values())) == _bits(
            list(old.median_goodput_mbps.values())
        )
        assert _bits(new.median_ratio) == _bits(old.median_ratio)

    @settings(max_examples=50, **QUIET)
    @given(st.data())
    def test_country_medians_equal_country_loop(self, tiers, data):
        dataset = _drawn_tiers(tiers, data)
        min_vps = data.draw(st.integers(1, 2))
        new = _outcome(country_medians, dataset, min_vps)
        old = _outcome(country_medians_reference, dataset, min_vps)
        if isinstance(old, tuple):
            assert new == old
            return
        for name in ("country_diff_ms", "region_medians"):
            assert list(getattr(new, name)) == list(getattr(old, name))
            assert _bits(list(getattr(new, name).values())) == _bits(
                list(getattr(old, name).values())
            )
        assert new.country_vp_count == old.country_vp_count
        assert (new.premium_better, new.standard_better) == (
            old.premium_better,
            old.standard_better,
        )
        assert _bits(new.frac_within_10ms) == _bits(old.frac_within_10ms)
