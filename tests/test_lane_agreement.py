"""Agreement between the implementations that compute the same state.

* **Batched vs the scalar oracles** (``tests/scalar_oracles.py``): the
  original per-item loops, kept in tests.  **Bit-identical** where the
  computation is deterministic or consumes the same RNG stream
  positions: episode extraction, CDN redirection training, the
  cloudtiers campaign against its per-burst loop, edgefabric CI
  half-widths, topology generation, congestion-delay lookups, the
  beacon campaign against its per-target loop, and the beacon and
  cloudtiers campaigns with every event scanned and no geometry
  memoised.
  **Documented tolerance** where the batched code reorders
  floating-point work (catchment distances: numpy vs ``math`` trig
  round-off) or batches RNG draws (edgefabric medians: same noise
  distribution, different draw order — statistics agree, individual
  samples do not).
* **Streamed vs synthesized**: the session stream's sketch medians
  (:func:`repro.stream.ingest_plan`) against batch synthesis —
  deterministic structure bit-identical, sketch medians within the
  documented tolerance.
* **CSR propagation vs the heap oracle** (``tests/bgp_oracle.py``):
  identical tables, route for route, for every table of a mixed
  ``propagate_many`` batch that spans several blocks; and every row of
  a batched ``propagate_states`` pass equals a one-row pass.
* **Memoised vs fresh exit choices**: a trace through a warm exit memo
  equals the same trace with the memo dropped, after graph mutations
  too.
* **Event-driven dynamics vs static propagation**: the converged
  end-state equals the three-phase construction.
* **Event-driven dynamics vs the per-hop engine**
  (``tests/dynamics_oracle.py``): the curated scenarios write the same
  ``to_json()`` bytes.

The batch outputs themselves are pinned by ``tests/test_golden_lock.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import zlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from bgp_oracle import propagate_reference
from conftest import small_client_prefixes, small_topology_config
from dynamics_oracle import DynamicsEngine as OracleDynamicsEngine
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import (
    extract_episodes_reference,
    full_event_scans,
    key_delay,
    key_events,
    per_pair_synthesis,
    per_prefix_catchment_geometry,
    run_beacon_campaign_reference,
    run_campaign_reference,
    scan_events,
    stored_events,
    train_redirection_reference,
    uncached_distances,
    unmemoised_nearest_pops,
    wan_shortest_paths,
)

from repro.availability import fail_pop_site
from repro.bgp import (
    SCENARIOS,
    PropagationRequest,
    propagate,
    propagate_many,
    propagate_states,
    run_scenario,
    scenarios,
)
from repro.bgp import propagation
from repro.bgp.dynamics import DynamicsConfig
from repro.cdn import CdnDeployment
from repro.cdn.catchment import catchment_map
from repro.cdn.dns_redirection import train_redirection_policy
from repro.cdn.measurement import BeaconConfig, run_beacon_campaign
from repro.core.configs import EDGE_FABRIC_POPS, cdn_topology, cloud_topology
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    Tier,
    run_campaign,
)
from repro.errors import MeasurementError, RoutingError, TopologyError
from repro.edgefabric.analysis import bgp_vs_best_alternate
from repro.netmodel import CongestionConfig, CongestionModel, trace
from repro.edgefabric.episodes import extract_episodes
from repro.edgefabric.routes import tables_for_destinations
from repro.geo import city_named
from repro.topology import (
    PointOfPresence,
    PrivateWan,
    Relationship,
    TopologyConfig,
    build_internet,
)
from repro.topology.asgraph import link_between
from repro.topology.generator import (
    DEFAULT_POP_CITIES,
    DEFAULT_WAN_BACKBONE,
    _nearest_mesh,
)
from repro.workloads import generate_client_prefixes
from repro.edgefabric.sampler import (
    MeasurementConfig,
    plan_measurement,
    run_measurement,
    synthesize_dataset,
)
from repro.stream import ingest_plan

SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def egress_plan(small_internet, small_prefixes):
    config = MeasurementConfig(days=2.0)
    return plan_measurement(small_internet, small_prefixes, config)


class TestEdgefabricLanes:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig1_statistics_agree(self, egress_plan, seed):
        """Fig-1 fractions agree with the per-pair synthesis at the
        statistic level.

        The batch lane draws its noise in a different order, so
        individual medians differ; the Figure 1 statistics — fractions
        over ~10k weighted pair-windows — must agree within sampling
        noise.
        """
        config = MeasurementConfig(days=2.0, seed=seed)
        with per_pair_synthesis():
            slow = bgp_vs_best_alternate(synthesize_dataset(egress_plan, config))
        fast = bgp_vs_best_alternate(synthesize_dataset(egress_plan, config))
        assert fast.frac_alternate_better_5ms == pytest.approx(
            slow.frac_alternate_better_5ms, abs=0.05
        )
        assert fast.frac_bgp_within_1ms == pytest.approx(
            slow.frac_bgp_within_1ms, abs=0.05
        )
        assert fast.frac_bgp_strictly_better == pytest.approx(
            slow.frac_bgp_strictly_better, abs=0.05
        )

    def test_structure_and_ci_bit_identical(self, egress_plan):
        """Everything deterministic matches the per-pair synthesis
        exactly.

        The NaN mask (which pair-window-route slots were measured) and
        the CI half-widths depend only on the plan and session counts,
        not on noise draws.
        """
        config = MeasurementConfig(days=2.0, seed=0)
        with per_pair_synthesis():
            slow = synthesize_dataset(egress_plan, config)
        fast = synthesize_dataset(egress_plan, config)
        assert np.array_equal(np.isnan(slow.medians), np.isnan(fast.medians))
        assert np.array_equal(slow.ci_half, fast.ci_half, equal_nan=True)
        assert np.array_equal(slow.volumes, fast.volumes)

    def test_episode_extraction_bit_identical(self, egress_plan):
        config = MeasurementConfig(days=2.0, seed=1)
        dataset = synthesize_dataset(egress_plan, config)
        assert extract_episodes(dataset) == extract_episodes_reference(dataset)

    def test_synthesis_and_stream_equal_full_scans(self, egress_plan):
        """Synthesis and the session stream price congestion with the
        one exact kernel: with every event scanned in its place, the
        medians keep every bit and the snapshot every byte."""
        config = MeasurementConfig(days=2.0, seed=3)
        with full_event_scans() as scans:
            slow = synthesize_dataset(egress_plan, config)
            slow_snapshot = ingest_plan(egress_plan, config).snapshot.to_json()
        # Each side prices its destination and its link keys once.
        assert scans.call_count == 4
        fast = synthesize_dataset(egress_plan, config)
        assert fast.medians.tobytes() == slow.medians.tobytes()
        assert ingest_plan(egress_plan, config).snapshot.to_json() == slow_snapshot

    def test_run_measurement_composes_both_lanes(self, small_internet, small_prefixes):
        """The end-to-end entry point inherits synthesis's contract.

        ``run_measurement`` is plan + synthesis; the deterministic parts
        of its output (measurement mask, CI half-widths, volumes) must
        match the per-pair synthesis bit for bit, exactly like
        :meth:`test_structure_and_ci_bit_identical` but through the
        public composition.
        """
        config = MeasurementConfig(days=1.0, seed=2)
        with per_pair_synthesis():
            slow = run_measurement(small_internet, small_prefixes, config)
        fast = run_measurement(small_internet, small_prefixes, config)
        assert np.array_equal(np.isnan(slow.medians), np.isnan(fast.medians))
        assert np.array_equal(slow.ci_half, fast.ci_half, equal_nan=True)
        assert np.array_equal(slow.volumes, fast.volumes)


class TestCdnLanes:
    @pytest.fixture(scope="class")
    def deployment(self, small_internet):
        return CdnDeployment(small_internet)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_catchment_fractions_agree(self, deployment, small_prefixes, seed):
        """Catchment shares/fractions exact; distances to round-off.

        The seed perturbs prefix weights through rotation of the list,
        exercising different per-PoP groupings from one topology.
        """
        rotated = small_prefixes[seed:] + small_prefixes[:seed]
        with per_prefix_catchment_geometry():
            slow = catchment_map(deployment, rotated)
        fast = catchment_map(deployment, rotated)
        assert fast.frac_unreachable == slow.frac_unreachable
        assert fast.global_frac_misdirected == slow.global_frac_misdirected
        assert fast.global_median_km == pytest.approx(slow.global_median_km, rel=1e-9)
        assert len(fast.entries) == len(slow.entries)
        for fe, se in zip(fast.entries, slow.entries):
            assert fe.pop_code == se.pop_code
            assert fe.traffic_share == se.traffic_share
            assert fe.n_prefixes == se.n_prefixes
            assert fe.frac_misdirected == se.frac_misdirected
            assert fe.median_client_km == pytest.approx(se.median_client_km, rel=1e-9)
            assert fe.p90_client_km == pytest.approx(se.p90_client_km, rel=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_redirection_policy_bit_identical(self, deployment, small_prefixes, seed):
        """The aligned-array blocks and the per-code concatenation pool
        the same sample multisets, so the trained policy — every
        per-LDNS choice and ECS override — is identical."""
        dataset = run_beacon_campaign(
            deployment, small_prefixes, BeaconConfig(seed=seed)
        )
        resolvers = {p.ldns for p in dataset.prefixes if p.ldns}
        slow = train_redirection_reference(dataset, ecs_resolvers=resolvers)
        fast = train_redirection_policy(dataset, ecs_resolvers=resolvers)
        assert dict(fast.choices) == dict(slow.choices)
        assert dict(fast.prefix_choices) == dict(slow.prefix_choices)


class TestStreamingLanes:
    """The session stream (:func:`repro.stream.ingest_plan`) against
    batch synthesis.

    The stream replaces the analytic median draw with mergeable
    quantile sketches over every session (:mod:`repro.stream`).
    Deterministic structure — NaN masks, CI half-widths, volumes — must
    stay bit-identical; the medians are estimates from an independent
    session-noise stream and agree at the statistic level within the
    documented tolerance (``docs/streaming.md``).
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig1_statistics_agree(self, egress_plan, seed):
        config = MeasurementConfig(days=2.0, seed=seed)
        batch = bgp_vs_best_alternate(
            synthesize_dataset(egress_plan, config)
        )
        streaming = bgp_vs_best_alternate(ingest_plan(egress_plan, config).dataset())
        assert streaming.frac_alternate_better_5ms == pytest.approx(
            batch.frac_alternate_better_5ms, abs=0.05
        )
        assert streaming.frac_bgp_within_1ms == pytest.approx(
            batch.frac_bgp_within_1ms, abs=0.05
        )
        assert streaming.frac_bgp_strictly_better == pytest.approx(
            batch.frac_bgp_strictly_better, abs=0.05
        )

    def test_structure_and_ci_bit_identical(self, egress_plan):
        """The CI plane is shared code (``_ci_half_grid``), so it cannot
        drift between synthesized and streamed datasets; the
        measurement mask and volumes are plan-determined."""
        config = MeasurementConfig(days=2.0, seed=0)
        batch = synthesize_dataset(egress_plan, config)
        streaming = ingest_plan(egress_plan, config).dataset()
        assert np.array_equal(
            np.isnan(batch.medians), np.isnan(streaming.medians)
        )
        assert np.array_equal(batch.ci_half, streaming.ci_half, equal_nan=True)
        assert np.array_equal(batch.volumes, streaming.volumes)

    def test_medians_close_in_value(self, egress_plan):
        """Per-cell medians: two independent samplings of the same
        session model, so differences are sampling noise around the
        same floor + ln2·scale median — well under a couple ms at the
        paper's session counts."""
        config = MeasurementConfig(days=2.0, seed=1)
        batch = synthesize_dataset(egress_plan, config)
        streaming = ingest_plan(egress_plan, config).dataset()
        mask = ~np.isnan(batch.medians)
        diff = np.abs(batch.medians[mask] - streaming.medians[mask])
        assert float(np.median(diff)) < 1.0
        assert float(diff.max()) < 10.0


def _strand_standard(internet) -> int:
    """Cut an eyeball AS that links to the provider off from its one
    transit: its Premium route stays, direct, its Standard route goes.
    Returns the AS."""
    provider = internet.provider_asn
    for asn in internet.eyeball_asns:
        neighbors = set(internet.graph.neighbors(asn))
        if provider in neighbors and len(neighbors) == 2:
            (transit,) = neighbors - {provider}
            internet.graph.remove_link(asn, transit)
            return asn
    raise AssertionError("no eyeball AS with one transit and a provider link")


def _record_bits(dataset):
    return [
        (r.vp_id, r.day, [(tier, ms.hex()) for tier, ms in r.median_ms.items()])
        for r in dataset.records
    ]


class TestCampaignPricingLanes:
    """``run_campaign`` prices each day's panel as one block: one
    ``ping_panel`` call, batch-seeded congestion streams, one noise
    draw and two median reductions.  ``run_campaign_reference`` prices
    every (VP, tier) burst round by round.  On the same deployment both
    must give the same dataset, spend the same credits and leave the
    noise stream in the same state."""

    SMALL = CampaignConfig(days=2, vps_per_day=25, rounds_per_day=4, seed=4)

    @pytest.mark.parametrize("case", ["small-4", "small-9", "cloud-4", "unrouted"])
    def test_campaign_equals_burst_oracle(self, case, small_internet):
        if case == "cloud-4":
            # report-all's Setting C at seed 4: 3 days x 150 VPs.
            internet = build_internet(cloud_topology(4))
            platform_seed = 5
            cfg = CampaignConfig(days=3, vps_per_day=150, seed=6)
        elif case == "unrouted":
            internet = build_internet(small_topology_config())
            stranded = _strand_standard(internet)
            platform_seed = 4
            # Two days over the whole inventory: every VP of the
            # stranded AS is pinged on both.
            cfg = dataclasses.replace(self.SMALL, vps_per_day=10_000)
        else:
            internet = small_internet
            platform_seed = int(case.split("-")[1])
            cfg = dataclasses.replace(self.SMALL, seed=platform_seed)
        deployment = CloudDeployment(internet)
        runs = []
        for campaign in (run_campaign_reference, run_campaign):
            platform = SpeedcheckerPlatform(deployment, seed=platform_seed)
            runs.append((platform, campaign(platform, cfg)))
        (ref_platform, reference), (platform, dataset) = runs
        assert _record_bits(dataset) == _record_bits(reference)
        assert dataset.traceroutes == reference.traceroutes
        assert dataset.eligible == reference.eligible
        assert dataset.vps == reference.vps
        assert platform.credits == ref_platform.credits
        state = platform._rng.bit_generator.state
        assert state == ref_platform._rng.bit_generator.state
        assert set(platform._congestion._events) == set(
            ref_platform._congestion._events
        )
        if case == "unrouted":
            # The stranded VPs' Premium rows routed and drew noise, yet
            # the VPs have no record.
            stranded_ids = {
                vp.vp_id for vp in platform.vantage_points if vp.asn == stranded
            }
            assert stranded_ids
            for vp_id in stranded_ids:
                assert (vp_id, Tier.PREMIUM) in dataset.traceroutes
                assert (vp_id, Tier.STANDARD) not in dataset.traceroutes
            assert not stranded_ids & set(dataset.vps)

    def test_budget_out_mid_panel(self, small_internet):
        """A budget that runs out halfway through day 1's panel stops
        both campaigns with a MeasurementError."""
        deployment = CloudDeployment(small_internet)
        one_day = dataclasses.replace(self.SMALL, days=1)
        spent = []
        for cfg in (one_day, self.SMALL):
            platform = SpeedcheckerPlatform(deployment, seed=4)
            run_campaign_reference(platform, cfg)
            spent.append(10_000_000 - platform.credits)
        first_day, both_days = spent
        credits = first_day + (both_days - first_day) // 2
        for campaign in (run_campaign_reference, run_campaign):
            platform = SpeedcheckerPlatform(deployment, credits=credits, seed=4)
            with pytest.raises(MeasurementError, match="credit budget exhausted"):
                campaign(platform, self.SMALL)


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


#: Long enough for several baseline shifts per key (0.12 a day, 48 h
#: each), with frequent, long transient events so many overlap.
SCAN_CONFIG = CongestionConfig(
    horizon_hours=2400.0, event_rate_per_day=2.0, event_mean_duration_hours=6.0
)


def _edges(events):
    return sorted(
        {t for start, duration, _ in events for t in (start, start + duration)}
    )


class TestCongestionLookupLanes:
    """The rows of ``event_and_shift_delays``, one key's or many keys',
    sum only the events whose run of the sorted times is not empty;
    scanning every event of the horizon, in order, must give the same
    bits."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        key=st.text(alphabet="abcdef:0123456789", min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookups_equal_full_scan(self, seed, key, data):
        model = CongestionModel(seed, SCAN_CONFIG)
        events = key_events(model, key)
        shifts = key_events(model, key, shift=True)
        special = st.sampled_from(
            [np.nan, np.inf, -np.inf, 0.0, SCAN_CONFIG.horizon_hours]
        )
        point = st.one_of(st.floats(min_value=-100.0, max_value=2500.0), special)
        edges = _edges(events + shifts)
        if edges:
            point = st.one_of(point, st.sampled_from(edges))
        times = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        if data.draw(st.booleans()):
            times = np.concatenate([times, times[::-1]])
        assert_same_bits(key_delay(model, key, times), scan_events(events, times))
        assert_same_bits(
            key_delay(model, key, times, shift=True), scan_events(shifts, times)
        )

    @pytest.mark.parametrize(
        "case",
        [
            "empty",
            "edges",
            "latest-on-a-start",
            "earliest-on-an-end",
            "edges-reversed",
            "outside-horizon",
            "nan",
            "infinities",
            "one-burst",
            "scalar",
        ],
    )
    def test_corner_cases_equal_full_scan(self, case):
        model = CongestionModel(3, SCAN_CONFIG)
        key = "tierpath:vp-1:premium"
        events = key_events(model, key)
        shifts = key_events(model, key, shift=True)
        assert events and shifts
        edges = np.array(_edges(events + shifts))
        start, duration, _ = events[len(events) // 2]
        times = {
            "empty": np.array([]),
            "edges": edges,
            "latest-on-a-start": np.array([start - 1.0, start]),
            "earliest-on-an-end": np.array([start + duration + 1.0, start + duration]),
            "edges-reversed": np.repeat(edges[::-1], 2),
            "outside-horizon": np.array([-48.0, -1e-9, 2400.0, 2400.5, 1e6]),
            "nan": np.concatenate([edges[:20], [np.nan], edges[20:40]]),
            "infinities": np.array([np.inf, -np.inf, edges[3], np.inf]),
            "one-burst": np.repeat(100.0 + np.arange(0.0, 24.0, 2.5), 5),
            "scalar": np.asarray(edges[5]),
        }[case]
        assert_same_bits(key_delay(model, key, times), scan_events(events, times))
        assert_same_bits(
            key_delay(model, key, times, shift=True), scan_events(shifts, times)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        horizon=st.sampled_from([24.0, 240.0, 2400.0]),
        keys=st.lists(
            st.text(alphabet="abcdef:0123456789", max_size=12),
            max_size=40,
        ),
        layout=st.sampled_from(
            ["random", "short-window", "all-nan", "window-on-edges"]
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_rows_equal_full_scan(self, seed, horizon, keys, layout, data):
        """Every row of ``event_and_shift_delays`` is the full scan of
        its key's series, drawn one key at a time; at a 24 h horizon
        most shift series and some event series are empty, and a block
        may have no key at all.

        The kernel searches only the events that overlap the priced
        window, in stored order.  Beside random times, the window is a
        few hours of a long horizon, or every time is NaN (no event is
        searched), or the earliest time is an event's end (that event is
        not searched) and the latest another's start (that one is)."""
        config = dataclasses.replace(SCAN_CONFIG, horizon_hours=horizon)
        lone = CongestionModel(seed, config)
        events = [key_events(lone, key) for key in keys]
        shift_keys = (
            data.draw(st.lists(st.sampled_from(keys), max_size=40)) if keys else []
        )
        shifts = [key_events(lone, key, shift=True) for key in shift_keys]
        block_events = [e for series in events + shifts for e in series]
        if layout == "all-nan":
            times = np.full(data.draw(st.integers(min_value=0, max_value=5)), np.nan)
        elif layout == "short-window":
            opens = data.draw(st.floats(min_value=0.0, max_value=horizon - 3.0))
            offsets = data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=30
                )
            )
            times = opens + np.array(offsets)
        elif layout == "window-on-edges" and block_events:
            start, duration, _ = data.draw(st.sampled_from(block_events))
            earliest = start + duration
            later = [e for e in block_events if e[0] >= earliest]
            latest = data.draw(st.sampled_from(later))[0] if later else earliest
            inside = data.draw(
                st.lists(st.floats(min_value=earliest, max_value=latest), max_size=20)
            )
            times = np.array([latest, *inside, earliest])
        else:
            special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, horizon])
            point = st.one_of(
                st.floats(min_value=-100.0, max_value=horizon + 100), special
            )
            edges = _edges(block_events)
            if edges:
                point = st.one_of(point, st.sampled_from(edges))
            times = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        block = CongestionModel(seed, config)
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            event_rows, shift_rows = block.event_and_shift_delays(
                keys, shift_keys, times
            )
        assert event_rows.shape == (len(keys), times.size)
        assert shift_rows.shape == (len(shift_keys), times.size)
        for row, series in zip(event_rows, events):
            assert_same_bits(row, scan_events(series, times))
        for row, series in zip(shift_rows, shifts):
            assert_same_bits(row, scan_events(series, times))
        priced = times[~np.isnan(times)]
        in_window = [
            start
            for start, duration, _ in block_events
            if priced.size and start + duration > priced.min() and start <= priced.max()
        ]
        searched = search.call_args_list[0].args[1].tolist() if search.called else []
        assert searched == in_window

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        horizon=st.sampled_from([24.0, 72.0, 240.0, 2400.0, 7200.0]),
        median=st.sampled_from([0.0, 8.0]),
        sigma=st.sampled_from([0.0, 0.6]),
        keys=st.lists(
            st.text(alphabet="abcdef:0123456789", max_size=12),
            min_size=1,
            max_size=20,
        ),
        one_day=st.booleans(),
        tied=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_drawn_variates_price_as_reference_draw(
        self, seed, horizon, median, sigma, keys, one_day, tied, data
    ):
        """The model keeps each key's variates as the stream drew them
        and scales and orders only the events a call reaches.  Every
        row of a block of event and shift rows is still the full scan
        of the sorted reference draw (``key_events``), bit for bit: over
        a spread of times with NaN, +-inf and event edges, or over one
        day of the horizon (of 300 days at 7,200 h), with zero
        magnitudes (median 0) and equal ones (sigma 0).  A hand-built
        draw whose first three events start together, two of them
        lasting as long, takes the exact lexsort."""
        config = dataclasses.replace(
            SCAN_CONFIG,
            horizon_hours=horizon,
            event_magnitude_median_ms=median,
            event_magnitude_sigma=sigma,
        )
        model = CongestionModel(seed, config)
        shift_keys = data.draw(st.lists(st.sampled_from(keys), max_size=20))
        if one_day:
            opens = data.draw(
                st.floats(min_value=0.0, max_value=max(horizon - 24.0, 0.0))
            )
            offsets = data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=24.0), min_size=1, max_size=30
                )
            )
            times = opens + np.array(offsets)
        else:
            block = [
                event
                for series in [key_events(model, key) for key in keys]
                + [key_events(model, key, shift=True) for key in shift_keys]
                for event in series
            ]
            special = [np.nan, np.inf, -np.inf, 0.0, horizon] + _edges(block)
            point = st.one_of(
                st.floats(min_value=-100.0, max_value=horizon + 100.0),
                st.sampled_from(special),
            )
            times = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        if tied:
            start = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
            # Magnitudes far apart, so that the order of a sum shows.
            normal = st.floats(min_value=-40.0, max_value=40.0)
            model._events[keys[0]] = np.array(
                [
                    [start, start, start, start / 2],
                    [0.5, 0.25, 0.5, 1.0],
                    data.draw(st.lists(normal, min_size=4, max_size=4)),
                ]
            )
            times = np.append(times, start * horizon)
        reference = {key: key_events(model, key) for key in keys}
        if tied:
            reference[keys[0]] = stored_events(model, keys[0])
        events = [reference[key] for key in keys]
        shifts = [key_events(model, key, shift=True) for key in shift_keys]
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            event_rows, shift_rows = model.event_and_shift_delays(
                keys, shift_keys, times
            )
        assert lexsort.called or not tied
        for row, series in zip(event_rows, events):
            assert_same_bits(row, scan_events(series, times))
        for row, series in zip(shift_rows, shifts):
            assert_same_bits(row, scan_events(series, times))

    def test_equal_starts_take_the_exact_order(self):
        """Events that start together are added in (duration, magnitude)
        order, as the sorted reference adds them.  A magnitude of
        exp(37), about 1.2e16 (float spacing 2 there), swallows a 1 added
        after it but not 1 + 1 + 1 added before it, so the stored order,
        or the reversed one, gives other bits."""
        config = CongestionConfig(
            horizon_hours=240.0,
            event_mean_duration_hours=4.0,
            event_magnitude_median_ms=1.0,
            event_magnitude_sigma=1.0,
        )
        model = CongestionModel(0, config)
        model._events["tied"] = np.array(
            [
                [0.5, 0.5, 0.5, 0.5, 0.25],
                [1.0, 1.0, 0.5, 1.0, 1.0],
                [37.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        times = np.array([120.0, 121.0, 123.0, 60.0])
        expected = stored_events(model, "tied")
        with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
            row = key_delay(model, "tied", times)
        assert lexsort.called
        assert_same_bits(row, scan_events(expected, times))
        assert row[0] != scan_events(expected[::-1], times)[0]

    def test_pricing_scales_and_sorts_only_the_window(self):
        """A one-day window of a key drawn over 300 days exponentiates
        and sorts only the events that overlap the window, and drawing
        the key does neither: as with ``searchsorted``'s needles in
        :meth:`test_block_rows_equal_full_scan`, every size is the
        window's.  The first argsort orders the times."""
        model = CongestionModel(4, CongestionConfig(horizon_hours=7200.0))
        key = "tierpath:vp-1:premium"
        events = key_events(model, key)
        # The day around the two closest starts.
        gaps = [b[0] - a[0] for a, b in zip(events, events[1:])]
        start = events[gaps.index(min(gaps))][0]
        times = start - 12.0 + np.linspace(0.0, 24.0, 97)
        window = [e for e in events if e[0] + e[1] > times[0] and e[0] <= times[-1]]
        assert len(events) > 100 and 1 < len(window) < 10
        with mock.patch.object(
            np, "argsort", wraps=np.argsort
        ) as argsort, mock.patch.object(
            np, "lexsort", wraps=np.lexsort
        ) as lexsort, mock.patch.object(np, "exp", wraps=np.exp) as exp:
            row = key_delay(model, key, times)
        assert_same_bits(row, scan_events(events, times))
        sorted_sizes = [call.args[0].size for call in argsort.call_args_list]
        assert sorted_sizes == [times.size, len(window)]
        assert not lexsort.called
        assert [call.args[0].size for call in exp.call_args_list] == [len(window)]


@contextlib.contextmanager
def reference_lookups():
    """Every event scanned, every nearest PoP scanned, every city-pair
    distance computed afresh."""
    with full_event_scans(), unmemoised_nearest_pops(), uncached_distances():
        yield


def _world(seed):
    """A fresh small Internet and its clients: cold memos on each side."""
    internet = build_internet(dataclasses.replace(small_topology_config(), seed=seed))
    return internet, small_client_prefixes(internet)


def _cut_unicast_paths(deployment: CdnDeployment, isolated_pid: str) -> None:
    """Make a third of the (prefix, front-end) pairs, and every
    front-end of one prefix, unreachable by unicast."""
    unicast_path = deployment.unicast_path

    def cut(prefix, code):
        pair = f"{prefix.pid}->{code}".encode()
        if prefix.pid == isolated_pid or zlib.crc32(pair) % 3 == 0:
            return None
        return unicast_path(prefix, code)

    deployment.unicast_path = cut


class TestProbePricingLanes:
    """The Setting B and C campaigns with the reference lookups patched
    in must give exactly the output of the pruned, memoised code."""

    @pytest.mark.parametrize("seed", (7, 8))
    def test_beacon_campaign_bit_identical(self, seed):
        cfg = BeaconConfig(days=3.0, requests_per_prefix=16, seed=seed)
        with reference_lookups():
            internet, prefixes = _world(seed)
            reference = run_beacon_campaign(CdnDeployment(internet), prefixes, cfg)
        internet, prefixes = _world(seed)
        memoised = run_beacon_campaign(CdnDeployment(internet), prefixes, cfg)
        assert memoised.prefixes == reference.prefixes
        assert memoised.catchments == reference.catchments
        assert memoised.fe_codes == reference.fe_codes
        for name in ("times_h", "anycast_rtt", "unicast_rtt"):
            assert np.array_equal(
                getattr(memoised, name), getattr(reference, name), equal_nan=True
            ), name

    @pytest.mark.parametrize("case", ["seed-7", "seed-8", "unreachable"])
    def test_beacon_campaign_equals_per_target_oracle(self, case):
        """The per-prefix blocks (batch-seeded streams, one pricing
        kernel pass, one noise draw) give exactly the output of seeding,
        pricing and drawing noise one target at a time."""
        seed = 8 if case == "seed-8" else 7
        cfg = BeaconConfig(days=3.0, requests_per_prefix=16, seed=seed)
        results = []
        for campaign in (run_beacon_campaign_reference, run_beacon_campaign):
            internet, prefixes = _world(seed)
            deployment = CdnDeployment(internet)
            if case == "unreachable":
                _cut_unicast_paths(deployment, prefixes[0].pid)
            results.append(campaign(deployment, prefixes, cfg))
        reference, blocked = results
        assert blocked.prefixes == reference.prefixes
        assert blocked.catchments == reference.catchments
        assert blocked.fe_codes == reference.fe_codes
        for name in ("times_h", "anycast_rtt", "unicast_rtt"):
            assert np.array_equal(
                getattr(blocked, name), getattr(reference, name), equal_nan=True
            ), name
        if case == "unreachable":
            assert np.isnan(blocked.unicast_rtt).any()

    @pytest.mark.parametrize("seed", (7, 8))
    def test_cloudtiers_campaign_bit_identical(self, seed):
        cfg = CampaignConfig(days=3, vps_per_day=30, rounds_per_day=6, seed=seed)
        with reference_lookups():
            internet, _ = _world(seed)
            platform = SpeedcheckerPlatform(CloudDeployment(internet), seed=seed)
            reference = run_campaign(platform, cfg)
        internet, _ = _world(seed)
        platform = SpeedcheckerPlatform(CloudDeployment(internet), seed=seed)
        memoised = run_campaign(platform, cfg)
        assert memoised.records == reference.records
        assert memoised.eligible == reference.eligible
        assert memoised.traceroutes == reference.traceroutes
        assert memoised.vps == reference.vps


class TestBgpPropagationLanes:
    """CSR propagation is *bit-identical* to the heap oracle: same best
    route (path, pref, advertised length) at every AS, for every origin
    and every grooming variant.  Random valley-free worlds are covered
    by ``tests/test_properties_bgp.py``'s stability oracle, which also
    compares against the heap oracle."""

    def test_propagate_bit_identical_all_origins(self, small_internet):
        graph = small_internet.graph
        for asys in graph.ases():
            oracle = propagate_reference(graph, asys.asn)
            table = propagate(graph, asys.asn)
            assert oracle._routes == table._routes, f"origin {asys.asn}"

    def test_propagate_bit_identical_randomized(self):
        """Generator-randomized graphs across seeds and random origins."""
        for seed in SEEDS:
            internet = build_internet(
                TopologyConfig(seed=seed, n_tier1=3, n_transit=12, n_eyeball=30)
            )
            graph = internet.graph
            asns = [asys.asn for asys in graph.ases()]
            rng = np.random.default_rng(seed)
            for origin in rng.choice(asns, size=8, replace=False):
                origin = int(origin)
                oracle = propagate_reference(graph, origin)
                table = propagate(graph, origin)
                assert oracle._routes == table._routes, f"origin {origin}"

    def test_propagate_grooming_bit_identical(self, small_internet):
        """Prepends, suppression, and city scoping hit the same origin
        edges in both implementations."""
        graph = small_internet.graph
        origin = small_internet.provider_asn
        for kwargs in _grooming_variants(small_internet):
            oracle = propagate_reference(graph, origin, **kwargs)
            table = propagate(graph, origin, **kwargs)
            assert oracle._routes == table._routes, kwargs

    def test_propagate_many_matches_per_origin_calls(self, small_internet):
        graph = small_internet.graph
        origins = [asys.asn for asys in graph.ases()][:10]
        batched = propagate_many(graph, origins)
        for origin, table in zip(origins, batched):
            assert table.origin == origin
            assert table._routes == propagate(graph, origin)._routes
            assert table._routes == propagate_reference(graph, origin)._routes

    def test_tables_for_destinations_lanes_agree(self, small_internet):
        graph = small_internet.graph
        asns = [asys.asn for asys in graph.ases()][:8]
        tables = tables_for_destinations(small_internet, asns + asns[:3])
        assert list(tables) == asns
        for asn, table in tables.items():
            assert table._routes == propagate_reference(graph, asn)._routes


def _grooming_variants(internet):
    """Prepends, suppression, both at once, and city scoping."""
    neighbors = sorted(internet.graph.neighbors(internet.provider_asn))
    return [
        dict(prepends={neighbors[0]: 3}),
        dict(suppressed=frozenset(neighbors[:2])),
        dict(
            prepends={neighbors[0]: 2, neighbors[-1]: 1},
            suppressed=frozenset({neighbors[1]}),
        ),
        dict(origin_cities=frozenset({internet.wan.pops[0].city})),
    ]


def _cdn_world():
    """A fresh Setting B Internet (tests here mutate it) and 60 clients."""
    internet = build_internet(cdn_topology(0))
    return internet, generate_client_prefixes(internet, 60, seed=1)


def _outcome(call):
    """A trace, or the message of the RoutingError it raised."""
    try:
        return call()
    except RoutingError as exc:
        return str(exc)


def _setting_b_traces(deployment, prefixes):
    """Every trace the beacon campaign makes: each client's anycast path
    and its path to every front-end's unicast prefix."""
    calls = []
    for prefix in prefixes:
        calls.append(lambda p=prefix: deployment.anycast_path(p))
        calls.extend(
            lambda p=prefix, code=pop.code: deployment.unicast_path(p, code)
            for pop in deployment.front_ends
        )
    return calls


def _traces_with_cleared_memo(graph, calls):
    """Each call's outcome with the graph's exit memo dropped first."""
    outcomes = []
    for call in calls:
        graph._exits = None
        outcomes.append(_outcome(call))
    return outcomes


class TestBatchedPropagationLanes:
    """``propagate_many`` runs one ``propagate_states`` pass per block of
    origins.  Every table of a batch equals the heap oracle for its own
    request, whatever else shares the batch, and every row of a pass
    equals a one-row pass."""

    @pytest.mark.parametrize("world", ["small", "cdn"])
    def test_mixed_batch_matches_oracle(self, world, small_internet):
        internet = small_internet if world == "small" else _cdn_world()[0]
        graph = internet.graph
        asns = [asys.asn for asys in graph.ases()]
        provider = internet.provider_asn
        requests = asns[:10] + [asns[3]]
        requests += [
            PropagationRequest(provider, **kwargs)
            for kwargs in _grooming_variants(internet)
        ]
        tables = propagate_many(graph, requests)
        assert len(tables) == len(requests)
        for request, table in zip(requests, tables):
            if isinstance(request, int):
                request = PropagationRequest(request)
            oracle = propagate_reference(
                graph,
                request.origin,
                origin_cities=request.origin_cities,
                prepends=request.prepends,
                suppressed=request.suppressed,
            )
            assert table.origin == request.origin
            assert table._routes == oracle._routes, request

    def test_batch_across_blocks_matches_oracle(self):
        graph = _cdn_world()[0].graph
        asns = [asys.asn for asys in graph.ases()]
        assert len(asns) > 2 * propagation._BLOCK
        for asn, table in zip(asns, propagate_many(graph, asns)):
            assert table.origin == asn
            assert table._routes == propagate_reference(graph, asn)._routes, asn

    def test_empty_batch(self, small_internet):
        assert propagate_many(small_internet.graph, []) == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_one_row_passes(self, seed):
        csr = _cdn_world()[0].graph.csr()
        n = len(csr)
        rng = np.random.default_rng(seed)
        origins = rng.choice(n, size=propagation._BLOCK + 12)
        allow = rng.random((origins.size, n)) < 0.7
        extra = rng.integers(0, 4, size=(origins.size, n))
        batch = propagate_states(csr, origins, allow, extra)
        for r, origin in enumerate(origins):
            row = propagate_states(csr, [origin], allow[r : r + 1], extra[r : r + 1])
            for name, rows, one in zip(("parent", "pref", "adv"), batch, row):
                assert np.array_equal(rows[r], one[0]), (r, name)


class TestExitMemoLanes:
    """``trace`` memoises each hop's exit city on the graph.  A trace
    through a warm memo equals the same trace with the memo dropped, and
    every graph mutation drops it."""

    def test_warm_memo_equals_cleared_memo(self):
        internet, prefixes = _cdn_world()
        calls = _setting_b_traces(CdnDeployment(internet), prefixes)
        for call in calls:
            _outcome(call)
        assert internet.graph._exits
        warm = [_outcome(call) for call in calls]
        assert warm == _traces_with_cleared_memo(internet.graph, calls)

    def test_memo_dropped_by_fail_pop_site(self):
        """The anycast table stays unscoped, so each hop into the
        provider keeps its memo key across the failure; only dropping
        the memo moves the exit off the failed city."""
        internet, prefixes = _cdn_world()
        graph, provider = internet.graph, internet.provider_asn
        table = propagate(graph, provider)
        before = [trace(graph, table, p.asn, p.city) for p in prefixes]
        busiest = Counter(path.ingress_city for path in before).most_common(1)[0][0]
        failed = next(pop for pop in internet.wan.pops if pop.city == busiest)
        fail_pop_site(internet, failed.code)
        table = propagate(graph, provider)
        calls = [
            lambda p=prefix: trace(graph, table, p.asn, p.city) for prefix in prefixes
        ]
        after = [_outcome(call) for call in calls]
        assert after == _traces_with_cleared_memo(graph, calls)
        assert all(path.ingress_city != busiest for path in after)
        assert any(
            old.ingress_city == busiest and new.as_path[-2] == old.as_path[-2]
            for old, new in zip(before, after)
        )

    def test_memo_dropped_by_relinking(self):
        """Re-adding a link with its exit city removed must move the
        exit to one of the remaining cities."""
        internet, prefixes = _cdn_world()
        graph, provider = internet.graph, internet.provider_asn
        table = propagate(graph, provider)
        paths = [trace(graph, table, p.asn, p.city) for p in prefixes]
        path = next(
            path for path in paths if len(graph.link(*path.as_path[-2:]).cities) > 1
        )
        link = graph.link(*path.as_path[-2:])
        remaining = tuple(c for c in link.cities if c != path.ingress_city)
        graph.remove_link(link.a, link.b)
        graph.add_link(dataclasses.replace(link, cities=remaining))
        table = propagate(graph, provider)
        calls = [
            lambda p=prefix: trace(graph, table, p.asn, p.city) for prefix in prefixes
        ]
        after = [_outcome(call) for call in calls]
        assert after == _traces_with_cleared_memo(graph, calls)
        moved = after[paths.index(path)]
        assert moved.as_path == path.as_path
        assert moved.ingress_city in remaining

    def test_mutators_drop_every_cache(self):
        graph = _cdn_world()[0].graph
        asys = next(iter(graph.ases()))
        new_asn = max(a.asn for a in graph.ases()) + 1
        mutations = [
            lambda: graph.add_as(dataclasses.replace(asys, asn=new_asn)),
            lambda: graph.add_link(
                link_between(new_asn, asys.asn, Relationship.PEER, asys.cities[:1])
            ),
            lambda: graph.remove_link(new_asn, asys.asn),
        ]
        for mutate in mutations:
            graph.csr()
            graph._baselines = {"opened": True}
            graph._exits = {"exit": asys.home_city}
            mutate()
            assert graph._csr is None
            assert graph._baselines is None
            assert graph._exits is None


class TestTopologyLanes:
    """build_internet takes city-pair distances from the process's one
    memo, ``repro.geo.CITY_DISTANCES``, and its rankings of the city
    dataset from memos kept for the process, which earlier builds and
    traces have filled; a build that computes every distance with the
    scalar haversine and ranks afresh must be bit-identical."""

    def test_build_internet_bit_identical(self):
        from repro.topology.serialization import internet_to_dict

        for seed in SEEDS:
            cfg = TopologyConfig(seed=seed, n_tier1=4, n_transit=16, n_eyeball=40)
            with uncached_distances():
                scalar = build_internet(cfg)
            fast = build_internet(cfg)
            assert internet_to_dict(scalar) == internet_to_dict(fast), seed

    def test_build_internet_custom_backbone_mesh(self):
        """The nearest-mesh fallback path (custom PoP set) also agrees."""
        from repro.topology.serialization import internet_to_dict

        cfg = TopologyConfig(
            seed=1,
            n_tier1=3,
            n_transit=8,
            n_eyeball=20,
            pop_cities=DEFAULT_POP_CITIES[:12],
            dc_pop_code=DEFAULT_POP_CITIES[0][0],
        )
        with uncached_distances():
            scalar = build_internet(cfg)
        fast = build_internet(cfg)
        assert internet_to_dict(scalar) == internet_to_dict(fast)


def _pops(pairs):
    return [PointOfPresence(code, city_named(name)) for code, name in pairs]


@st.composite
def _connected_backbones(draw):
    """A PoP subset, a random spanning tree over it in a random order,
    and extra edges that may repeat or reverse an edge."""
    chosen = draw(
        st.lists(
            st.sampled_from(DEFAULT_POP_CITIES), min_size=1, max_size=14, unique=True
        )
    )
    codes = [code for code, _ in chosen]
    edges = [
        (codes[i], codes[draw(st.integers(0, i - 1))]) for i in range(1, len(codes))
    ]
    if len(codes) > 1:
        extra = st.tuples(st.sampled_from(codes), st.sampled_from(codes))
        edges += [e for e in draw(st.lists(extra, max_size=20)) if e[0] != e[1]]
    edges = draw(st.permutations(edges))
    inflation = draw(st.floats(1.0, 2.0))
    return _pops(chosen), edges, inflation


class TestWanShortestPathLanes:
    """PrivateWan solves Floyd-Warshall in one array step per
    intermediate PoP; its latencies (to the bit) and next hops must equal
    the scalar loop's, kept in ``scalar_oracles.wan_shortest_paths``."""

    @staticmethod
    def _assert_equal(pops, edges, inflation=1.08):
        wan = PrivateWan(pops, edges, inflation=inflation)
        dist, nxt = wan_shortest_paths(pops, edges, inflation)
        hexes = [[d.hex() for d in row] for row in wan._dist]
        assert hexes == [[d.hex() for d in row] for row in dist]
        assert wan._next == nxt

    def test_default_pops_and_backbone(self):
        self._assert_equal(_pops(DEFAULT_POP_CITIES), DEFAULT_WAN_BACKBONE)

    def test_edgefabric_pops_and_nearest_mesh(self):
        pops = _pops(EDGE_FABRIC_POPS)
        self._assert_equal(pops, _nearest_mesh(pops))

    @given(_connected_backbones())
    @settings(max_examples=60, deadline=None)
    def test_drawn_connected_backbones(self, backbone):
        self._assert_equal(*backbone)

    def test_disconnected_backbone_names_the_same_pair(self):
        pops = _pops(DEFAULT_POP_CITIES[:6])
        edges = [("iad", "lga"), ("ord", "cbf"), ("cbf", "dfw"), ("lga", "mia")]
        with pytest.raises(TopologyError) as wan_error:
            PrivateWan(pops, edges)
        with pytest.raises(TopologyError) as scalar_error:
            wan_shortest_paths(pops, edges)
        assert str(wan_error.value) == str(scalar_error.value)
        assert "'iad' -> 'ord'" in str(wan_error.value)


class TestBgpDynamicsLanes:
    """The event-driven engine against static propagation: once the
    event queue drains
    after a lone announcement, the dynamics end-state is *bit-identical*
    to static ``propagate()`` on the same graph — the event-driven
    fixpoint and the three-phase construction are the same unique
    stable state.  Random schedules are covered by
    ``tests/test_bgp_dynamics.py``'s hypothesis suite."""

    def test_dynamics_end_state_bit_identical(self, small_internet):
        from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine

        graph = small_internet.graph
        asns = [asys.asn for asys in graph.ases()]
        for origin in asns[:: max(1, len(asns) // 8)]:
            engine = DynamicsEngine(graph, DynamicsConfig(seed=0))
            engine.schedule_announce(0.0, origin)
            engine.run()
            assert engine.converged
            static = propagate(graph, origin)
            assert engine.routes() == static._routes, f"origin {origin}"
            assert engine.routing_table()._routes == static._routes

    def test_dynamics_grooming_bit_identical(self, small_internet):
        from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine

        graph = small_internet.graph
        origin = small_internet.provider_asn
        neighbors = sorted(graph.neighbors(origin))
        kwargs = dict(
            prepends={neighbors[0]: 2, neighbors[-1]: 1},
            suppressed=frozenset({neighbors[1]}),
        )
        engine = DynamicsEngine(graph, DynamicsConfig(seed=0))
        engine.schedule_announce(0.0, origin, **kwargs)
        engine.run()
        static = propagate(graph, origin, **kwargs)
        assert engine.routes() == static._routes

    def test_dynamics_after_failure_matches_static_on_effective_graph(
        self, small_internet
    ):
        from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine

        graph = small_internet.graph
        origin = small_internet.provider_asn
        neighbor = sorted(graph.neighbors(origin))[0]
        engine = DynamicsEngine(graph, DynamicsConfig(seed=1))
        engine.schedule_announce(0.0, origin)
        engine.run()
        engine.schedule_link_down(engine.now + 1.0, origin, neighbor)
        engine.run()
        assert engine.converged
        static = propagate(engine.effective_graph(), origin)
        assert engine.routes() == static._routes

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scenarios_bit_identical_to_oracle_engine(self, seed, monkeypatch):
        """Each curated scenario, run as perfbench's scenario-sweep runs
        it, writes the same bytes as on the per-hop oracle engine.

        The scenarios of one Internet share a converged opening phase
        keyed by the engine class, so the oracle runs must build (and
        then fork) their own: the spy proves that the oracle ran the
        opening phase rather than forking the shipped engine's."""
        built = []

        class SpyOracleEngine(OracleDynamicsEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        internet = build_internet(cdn_topology(seed))
        config = DynamicsConfig(seed=seed, mrai_s=5.0)
        for name in sorted(SCENARIOS):
            fast = run_scenario(name, seed=seed, config=config, internet=internet)
            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "DynamicsEngine", SpyOracleEngine)
                oracle = run_scenario(name, seed=seed, config=config, internet=internet)
            assert fast.to_json() == oracle.to_json(), name
        (opened,) = built
        assert opened.timeline[0]["kind"] == "announce"
        assert opened.events_processed > 0
