"""Agreement between the implementations that compute the same state.

* **Batched vs the scalar oracles** (``tests/scalar_oracles.py``): the
  original per-item loops, kept in tests.  **Bit-identical** where the
  computation is deterministic or consumes the same RNG stream
  positions: episode extraction, CDN redirection training, the
  cloudtiers campaign, edgefabric CI half-widths, topology generation,
  congestion-delay lookups, the beacon campaign against its
  per-target loop, and the beacon and cloudtiers campaigns with every
  event scanned and no geometry memoised.
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
  identical tables, route for route.
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

import numpy as np
import pytest
from bgp_oracle import propagate_reference
from conftest import small_client_prefixes, small_topology_config
from dynamics_oracle import DynamicsEngine as OracleDynamicsEngine
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import (
    PerRoundPingPlatform,
    extract_episodes_reference,
    full_event_scans,
    per_pair_synthesis,
    per_prefix_catchment_geometry,
    run_beacon_campaign_reference,
    scan_events,
    train_redirection_reference,
    uncached_distances,
    unmemoised_nearest_pops,
)

from repro.bgp import SCENARIOS, propagate, propagate_many, run_scenario, scenarios
from repro.bgp.dynamics import DynamicsConfig
from repro.cdn import CdnDeployment
from repro.cdn.catchment import catchment_map
from repro.cdn.dns_redirection import train_redirection_policy
from repro.cdn.measurement import BeaconConfig, run_beacon_campaign
from repro.core.configs import cdn_topology
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    run_campaign,
)
from repro.edgefabric.analysis import bgp_vs_best_alternate
from repro.faults import FrontEndDrain
from repro.netmodel import CongestionConfig, CongestionModel
from repro.edgefabric.episodes import extract_episodes
from repro.edgefabric.routes import tables_for_destinations
from repro.topology import TopologyConfig, build_internet
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


class TestCloudtiersLanes:
    def test_campaign_bit_identical(self, small_internet):
        """Ping bursts consume the same noise-stream positions as the
        per-round calls, so the datasets match sample for sample."""
        deployment = CloudDeployment(small_internet)
        cfg = CampaignConfig(days=2, vps_per_day=25, rounds_per_day=4, seed=4)
        slow = run_campaign(PerRoundPingPlatform(deployment, seed=4), cfg)
        fast = run_campaign(SpeedcheckerPlatform(deployment, seed=4), cfg)
        assert len(slow.records) == len(fast.records)
        for a, b in zip(slow.records, fast.records):
            assert a.vp_id == b.vp_id and a.day == b.day
            assert a.median_ms == b.median_ms
        assert slow.eligible == fast.eligible
        assert set(slow.traceroutes) == set(fast.traceroutes)


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
    """``event_delay``, ``baseline_shift_delay`` and the rows of
    ``event_and_shift_delays`` visit only the events that overlap the
    queried times; scanning every event of the horizon, in order, must
    give the same bits."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        key=st.text(alphabet="abcdef:0123456789", min_size=1, max_size=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookups_equal_full_scan(self, seed, key, data):
        model = CongestionModel(seed, SCAN_CONFIG)
        events = model.events(key)
        shifts = model.baseline_shifts(key)
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
        assert_same_bits(model.event_delay(key, times), scan_events(events, times))
        assert_same_bits(
            model.baseline_shift_delay(key, times), scan_events(shifts, times)
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
        events = model.events(key)
        shifts = model.baseline_shifts(key)
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
        assert_same_bits(model.event_delay(key, times), scan_events(events, times))
        assert_same_bits(
            model.baseline_shift_delay(key, times), scan_events(shifts, times)
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        horizon=st.sampled_from([24.0, 240.0, 2400.0]),
        keys=st.lists(
            st.text(alphabet="abcdef:0123456789", max_size=12),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_rows_equal_full_scan(self, seed, horizon, keys, data):
        """Every row of ``event_and_shift_delays`` is the full scan of
        its key's series, drawn one key at a time; at a 24 h horizon
        most shift series and some event series are empty."""
        config = dataclasses.replace(SCAN_CONFIG, horizon_hours=horizon)
        lone = CongestionModel(seed, config)
        events = [lone.events(key) for key in keys]
        shift_keys = data.draw(st.lists(st.sampled_from(keys), max_size=40))
        shifts = [lone.baseline_shifts(key) for key in shift_keys]
        special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, horizon])
        point = st.one_of(st.floats(min_value=-100.0, max_value=horizon + 100), special)
        edges = _edges([e for series in events + shifts for e in series])
        if edges:
            point = st.one_of(point, st.sampled_from(edges))
        times = np.array(data.draw(st.lists(point, max_size=30)), dtype=float)
        block = CongestionModel(seed, config)
        event_rows, shift_rows = block.event_and_shift_delays(keys, shift_keys, times)
        assert event_rows.shape == (len(keys), times.size)
        assert shift_rows.shape == (len(shift_keys), times.size)
        for row, series in zip(event_rows, events):
            assert_same_bits(row, scan_events(series, times))
        for row, series in zip(shift_rows, shifts):
            assert_same_bits(row, scan_events(series, times))


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

    @pytest.mark.parametrize("case", ["seed-7", "seed-8", "drain", "unreachable"])
    def test_beacon_campaign_equals_per_target_oracle(self, case):
        """The per-prefix blocks (batch-seeded streams, one pricing
        kernel pass, one noise draw) give exactly the output of seeding,
        pricing and drawing noise one target at a time."""
        seed = 8 if case == "seed-8" else 7
        cfg = BeaconConfig(days=3.0, requests_per_prefix=16, seed=seed)
        if case == "drain":
            cfg = dataclasses.replace(
                cfg, drain=FrontEndDrain(daily_rate=0.5, seed=seed)
            )
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
        if case in ("drain", "unreachable"):
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
        neighbors = sorted(graph.neighbors(origin))
        variants = [
            dict(prepends={neighbors[0]: 3}),
            dict(suppressed=frozenset(neighbors[:2])),
            dict(
                prepends={neighbors[0]: 2, neighbors[-1]: 1},
                suppressed=frozenset({neighbors[1]}),
            ),
            dict(
                origin_cities=frozenset({small_internet.wan.pops[0].city})
            ),
        ]
        for kwargs in variants:
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


class TestTopologyLanes:
    """build_internet takes city-pair distances from the process's one
    memo, ``repro.geo.CITY_DISTANCES``, which earlier builds and traces
    have filled; a build that computes every distance afresh with the
    scalar haversine must be bit-identical.  (The per-build ranking
    memos are not switched off here; the golden lock pins their
    output.)"""

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
        from repro.topology.generator import DEFAULT_POP_CITIES
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
        it, writes the same bytes as on the per-hop oracle engine."""
        internet = build_internet(cdn_topology(seed))
        config = DynamicsConfig(seed=seed, mrai_s=5.0)
        for name in sorted(SCENARIOS):
            fast = run_scenario(name, seed=seed, config=config, internet=internet)
            with monkeypatch.context() as patch:
                patch.setattr(scenarios, "DynamicsEngine", OracleDynamicsEngine)
                oracle = run_scenario(name, seed=seed, config=config, internet=internet)
            assert fast.to_json() == oracle.to_json(), name
