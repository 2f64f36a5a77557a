"""Agreement between the implementations that compute the same state.

* **Batched vs the scalar oracles** (``tests/scalar_oracles.py``): the
  original per-item loops, kept in tests.  **Bit-identical** where the
  computation is deterministic or consumes the same RNG stream
  positions: episode extraction, CDN redirection training, the
  cloudtiers campaign, edgefabric CI half-widths, topology generation.
  **Documented tolerance** where the batched code reorders
  floating-point work (catchment distances: numpy vs ``math`` trig
  round-off) or batches RNG draws (edgefabric medians: same noise
  distribution, different draw order — statistics agree, individual
  samples do not).
* **Streaming vs batch** (LANE002): the sketch-backed ``streaming=True``
  lanes against the batch lanes — deterministic structure
  bit-identical, sketch medians within the documented tolerance.
* **CSR propagation vs the heap oracle** (``tests/bgp_oracle.py``):
  identical tables, route for route.
* **Event-driven dynamics vs static propagation**: the converged
  end-state equals the three-phase construction.

The batch outputs themselves are pinned by ``tests/test_golden_lock.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from bgp_oracle import propagate_reference
from scalar_oracles import (
    PerRoundPingPlatform,
    extract_episodes_reference,
    per_pair_synthesis,
    per_prefix_catchment_geometry,
    train_redirection_reference,
    uncached_distances,
)

from repro.bgp import propagate, propagate_many
from repro.cdn import CdnDeployment
from repro.cdn.catchment import catchment_map
from repro.cdn.dns_redirection import train_redirection_policy
from repro.cdn.measurement import BeaconConfig, run_beacon_campaign
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    run_campaign,
)
from repro.edgefabric.analysis import bgp_vs_best_alternate
from repro.edgefabric.episodes import extract_episodes
from repro.edgefabric.routes import tables_for_destinations
from repro.topology import TopologyConfig, build_internet
from repro.edgefabric.sampler import (
    MeasurementConfig,
    plan_measurement,
    run_measurement,
    synthesize_dataset,
)

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
    """Sketch-backed ``streaming=True`` lanes against their batch twins.

    The streaming lane replaces stored-sample medians with mergeable
    quantile sketches (:mod:`repro.stream`).  Deterministic structure —
    NaN masks, CI half-widths, volumes — must stay bit-identical; the
    medians are estimates from an independent session-noise stream and
    agree at the statistic level within the documented tolerance
    (``docs/streaming.md``).
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fig1_statistics_agree(self, egress_plan, seed):
        config = MeasurementConfig(days=2.0, seed=seed)
        batch = bgp_vs_best_alternate(
            synthesize_dataset(egress_plan, config)
        )
        streaming = bgp_vs_best_alternate(
            synthesize_dataset(egress_plan, config, streaming=True)
        )
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
        drift between the batch and streaming lanes; the measurement
        mask and volumes are plan-determined."""
        config = MeasurementConfig(days=2.0, seed=0)
        batch = synthesize_dataset(egress_plan, config)
        streaming = synthesize_dataset(egress_plan, config, streaming=True)
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
        streaming = synthesize_dataset(egress_plan, config, streaming=True)
        mask = ~np.isnan(batch.medians)
        diff = np.abs(batch.medians[mask] - streaming.medians[mask])
        assert float(np.median(diff)) < 1.0
        assert float(diff.max()) < 10.0

    def test_run_measurement_composes_streaming_lane(
        self, small_internet, small_prefixes
    ):
        config = MeasurementConfig(days=1.0, seed=2)
        batch = run_measurement(small_internet, small_prefixes, config)
        streaming = run_measurement(
            small_internet, small_prefixes, config, streaming=True
        )
        assert np.array_equal(
            np.isnan(batch.medians), np.isnan(streaming.medians)
        )
        assert np.array_equal(batch.ci_half, streaming.ci_half, equal_nan=True)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_redirection_policy_matches_batch(
        self, small_internet, small_prefixes, seed
    ):
        """Training pools stay far below the centroid budget on this
        fixture, where the sketch is exact up to interpolation — the
        trained policy matches the batch lanes choice for choice."""
        deployment = CdnDeployment(small_internet)
        dataset = run_beacon_campaign(
            deployment, small_prefixes, BeaconConfig(seed=seed)
        )
        resolvers = {p.ldns for p in dataset.prefixes if p.ldns}
        batch = train_redirection_policy(dataset, ecs_resolvers=resolvers)
        streaming = train_redirection_policy(
            dataset, ecs_resolvers=resolvers, streaming=True
        )
        assert dict(streaming.choices) == dict(batch.choices)
        assert dict(streaming.prefix_choices) == dict(batch.prefix_choices)

    def test_campaign_day_medians_match_batch(self, small_internet):
        """A VP-day has ``rounds_per_day`` medians — far below the
        centroid budget — so the streaming aggregation reproduces the
        batch day medians to float precision."""
        deployment = CloudDeployment(small_internet)
        cfg = CampaignConfig(days=2, vps_per_day=20, rounds_per_day=4, seed=4)
        batch = run_campaign(SpeedcheckerPlatform(deployment, seed=4), cfg)
        streaming = run_campaign(
            SpeedcheckerPlatform(deployment, seed=4), cfg, streaming=True
        )
        assert len(batch.records) == len(streaming.records)
        for a, b in zip(batch.records, streaming.records):
            assert a.vp_id == b.vp_id and a.day == b.day
            for tier, value in a.median_ms.items():
                assert b.median_ms[tier] == pytest.approx(value, abs=1e-9)


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
    """build_internet memoizes city-pair distances in
    ``_CityDistanceCache``; a build that computes every distance afresh
    with the scalar haversine must be bit-identical.  (The per-region
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
