"""Scenario library: hijacks, cascades, recovery."""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from conftest import E2, PROVIDER, build_toy_graph, small_topology_config
from repro import obs
from repro.availability import scenario_recovery
from repro.bgp import (
    SCENARIOS,
    prefix_hijack,
    more_specific_hijack,
    run_scenario,
    withdrawal_cascade,
)
from repro.bgp.dynamics import (
    COUNTER_EVENTS,
    HIST_CONVERGENCE,
    SPAN_RUN,
    DynamicsConfig,
)
from repro.bgp.scenarios import (
    MORE_SPECIFIC_PREFIX,
    VICTIM_PREFIX,
    pick_attacker,
)
from repro.core import cdn_topology
from repro.errors import RoutingError
from repro.topology import build_internet


@pytest.fixture(scope="module")
def toy():
    return build_toy_graph()


class TestPrefixHijack:
    def test_attacker_captures_some_catchment(self, toy):
        result = prefix_hijack(toy, PROVIDER, E2)
        assert result.converged
        assert result.name == "hijack"
        assert result.metrics["captured_ases"] >= 1
        assert 0 < result.metrics["captured_fraction"] <= 1
        assert result.time_to_reconverge_s > 0
        assert result.timeline

    def test_same_attacker_and_victim_rejected(self, toy):
        with pytest.raises(RoutingError, match="must differ"):
            prefix_hijack(toy, PROVIDER, PROVIDER)


class TestMoreSpecificHijack:
    def test_specific_prefix_wins_by_lpm(self, toy):
        result = more_specific_hijack(toy, PROVIDER, E2)
        assert result.converged
        # Every AS reached by the /25 counts as captured.
        assert (
            result.metrics["captured_ases"]
            == result.metrics["specific_reach"] - 1
        )
        assert result.metrics["covering_reach"] == len(toy)


class TestWithdrawalCascade:
    def test_recovers_baseline_bit_identical(self, toy):
        result = withdrawal_cascade(toy, PROVIDER)
        assert result.converged
        assert result.recovered is True
        assert result.metrics["stranded_routes"] == 0
        assert result.metrics["cascade_s"] > 0
        assert result.metrics["time_to_recover_s"] > 0

    def test_recovery_metrics_integrate_outage(self, toy):
        result = withdrawal_cascade(toy, PROVIDER)
        recovery = scenario_recovery(result, toy)
        assert recovery.fully_recovered
        assert recovery.affected_ases == len(toy)
        assert recovery.unrecovered_ases == 0
        assert recovery.max_outage_s > 0
        assert recovery.outage_user_seconds > 0
        assert recovery.time_to_recover_s == pytest.approx(
            result.metrics["time_to_recover_s"]
        )


class TestRegistry:
    def test_names_pinned(self):
        """The CLI hardcodes these (SCENARIO_NAMES) — keep in sync."""
        assert sorted(SCENARIOS) == [
            "hijack",
            "more-specific-hijack",
            "withdrawal-cascade",
        ]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(RoutingError, match="unknown scenario"):
            run_scenario("nope")

    def test_prefixes_distinct(self):
        assert VICTIM_PREFIX != MORE_SPECIFIC_PREFIX

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_runs_deterministically_on_topology(self, name):
        """One (name, seed) pair fixes the full JSON artifact."""
        first = run_scenario(name, seed=1)
        again = run_scenario(name, seed=1)
        assert first.converged
        assert first.timeline
        assert first.to_json() == again.to_json()
        if name == "withdrawal-cascade":
            assert first.recovered is True

    def test_seed_changes_the_timeline(self):
        a = run_scenario("hijack", seed=0)
        b = run_scenario("hijack", seed=2)
        assert a.to_json() != b.to_json()


class TestPickAttacker:
    def test_never_adjacent_to_victim(self, toy):
        attacker = pick_attacker(toy, PROVIDER, seed=0)
        assert attacker != PROVIDER
        assert not toy.has_link(PROVIDER, attacker)

    def test_deterministic_per_seed(self, toy):
        assert pick_attacker(toy, PROVIDER, 5) == pick_attacker(toy, PROVIDER, 5)


class TestResultSerialization:
    def test_summary_round_trips_as_json(self, toy):
        result = prefix_hijack(toy, PROVIDER, E2)
        payload = json.loads(result.to_json())
        assert payload["name"] == "hijack"
        assert payload["victim"] == PROVIDER
        assert payload["attacker"] == E2
        assert payload["timeline_entries"] == len(payload["timeline"])
        assert payload["metrics"]["captured_ases"] >= 1


def _fresh(name, seed, config, edit=None):
    """``to_json()`` of ``name`` on a freshly built ``cdn_topology(0)``,
    after ``edit`` (if given) changed its graph."""
    internet = build_internet(cdn_topology(0))
    if edit is not None:
        edit(internet.graph)
    return run_scenario(name, seed=seed, config=config, internet=internet).to_json()


class TestSharedBaseline:
    """The scenarios run on one graph share its converged opening phase:
    one engine per (engine class, victim, config), forked for each
    scenario.  Every result must equal a run on a fresh build."""

    CONFIG = DynamicsConfig(seed=0, mrai_s=5.0)

    def test_reversed_order_matches_fresh_builds(self):
        internet = build_internet(cdn_topology(0))
        for name in sorted(SCENARIOS, reverse=True):
            shared = run_scenario(name, seed=0, config=self.CONFIG, internet=internet)
            assert shared.to_json() == _fresh(name, 0, self.CONFIG), name

    def test_interleaved_seeds_match_fresh_builds(self):
        internet = build_internet(cdn_topology(0))
        for name in sorted(SCENARIOS):
            for seed in (1, 0):
                config = DynamicsConfig(seed=seed, mrai_s=5.0)
                shared = run_scenario(name, seed=seed, config=config, internet=internet)
                assert shared.to_json() == _fresh(name, seed, config), (name, seed)

    def test_graph_edits_drop_the_baseline(self):
        internet = build_internet(cdn_topology(0))
        graph, victim = internet.graph, internet.provider_asn
        neighbor = sorted(graph.neighbors(victim))[0]
        name = "withdrawal-cascade"

        def run():
            return run_scenario(
                name, seed=0, config=self.CONFIG, internet=internet
            ).to_json()

        def cut(g):
            return g.remove_link(victim, neighbor)

        before = run()
        link = cut(graph)
        after_cut = run()
        assert after_cut != before
        assert after_cut == _fresh(name, 0, self.CONFIG, cut)
        graph.add_link(link)
        restored = run()
        assert restored == _fresh(name, 0, self.CONFIG, lambda g: g.add_link(cut(g)))
        assert restored == before

    def test_result_edits_do_not_reach_later_scenarios(self):
        internet = build_internet(cdn_topology(0))
        first = run_scenario("hijack", seed=0, config=self.CONFIG, internet=internet)
        first.timeline[0]["t"] = -1.0
        first.timeline[0]["kind"] = "edited"
        del first.timeline[1]["asn"]
        for name in ("more-specific-hijack", "hijack"):
            later = run_scenario(name, seed=0, config=self.CONFIG, internet=internet)
            assert later.to_json() == _fresh(name, 0, self.CONFIG), name

    def test_configs_do_not_share_a_baseline(self):
        internet = build_internet(cdn_topology(0))
        setups = []
        for mrai_s in (5.0, 30.0):
            config = DynamicsConfig(seed=0, mrai_s=mrai_s)
            result = run_scenario("hijack", seed=0, config=config, internet=internet)
            assert result.to_json() == _fresh("hijack", 0, config), mrai_s
            setups.append(result.setup_converged_s)
        assert setups[0] != setups[1]

    def test_errors_come_first_and_store_nothing(self):
        graph = build_toy_graph()
        with pytest.raises(RoutingError, match="must differ"):
            prefix_hijack(graph, 999999, 999999)
        with pytest.raises(RoutingError, match="must differ"):
            more_specific_hijack(graph, 999999, 999999)
        with pytest.raises(RoutingError, match="victim AS 999999 not in graph"):
            withdrawal_cascade(graph, 999999)
        with pytest.raises(RoutingError, match="victim AS 999999 not in graph"):
            prefix_hijack(graph, 999999, PROVIDER)
        assert not graph._baselines
        assert withdrawal_cascade(graph, PROVIDER).to_json() == (
            withdrawal_cascade(build_toy_graph(), PROVIDER).to_json()
        )

    @pytest.mark.parametrize(
        "role, value",
        [
            ("victim", 1.0),
            ("victim", True),
            ("victim", "1"),
            ("attacker", 2.0),
            ("attacker", True),
            ("attacker", 2.5),
        ],
    )
    def test_non_integer_asn_refused_before_lookup(self, role, value):
        """``1.0 == 1`` and ``True == 1``, so a victim given as either
        would reach the engine kept for victim 1, and the result would
        record the ASN as given.  Each scenario refuses it first, and
        keeps no engine for it."""
        graph = build_toy_graph()
        withdrawal_cascade(graph, PROVIDER)
        kept = list(graph._baselines)
        if role == "victim":
            calls = [
                lambda: prefix_hijack(graph, value, E2),
                lambda: more_specific_hijack(graph, value, E2),
                lambda: withdrawal_cascade(graph, value),
            ]
        else:
            calls = [
                lambda: prefix_hijack(graph, PROVIDER, value),
                lambda: more_specific_hijack(graph, PROVIDER, value),
            ]
        for call in calls:
            with pytest.raises(RoutingError) as caught:
                call()
            assert str(caught.value) == f"{role} must be an integer, got {value!r}"
        assert list(graph._baselines) == kept

    @pytest.mark.parametrize("role", ["victim", "attacker"])
    def test_asn_not_in_graph_refused_before_opening(self, role):
        """An attacker outside the graph was refused by the engine only
        after the victim's opening phase had converged and been kept,
        with an error that named no attacker."""
        graph = build_toy_graph()
        missing = 999999
        assert missing not in graph
        if role == "victim":
            calls = [
                lambda: prefix_hijack(graph, missing, E2),
                lambda: more_specific_hijack(graph, missing, E2),
                lambda: withdrawal_cascade(graph, missing),
            ]
        else:
            calls = [
                lambda: prefix_hijack(graph, PROVIDER, missing),
                lambda: more_specific_hijack(graph, PROVIDER, missing),
            ]
        for call in calls:
            with pytest.raises(RoutingError) as caught:
                call()
            assert str(caught.value) == f"{role} AS {missing} not in graph"
        assert not graph._baselines

    def test_numpy_integer_asns_are_stored_as_int(self):
        """A numpy-integer victim or attacker was stored as given, and
        ``to_json()`` then raised ``TypeError``."""
        graph = build_toy_graph()
        for run in (prefix_hijack, more_specific_hijack):
            plain = run(graph, PROVIDER, E2)
            given = run(graph, np.int64(PROVIDER), np.int32(E2))
            assert type(given.victim) is int and type(given.attacker) is int
            assert given.to_json() == plain.to_json()
        given = withdrawal_cascade(graph, np.int64(PROVIDER))
        assert type(given.victim) is int
        assert given.to_json() == withdrawal_cascade(graph, PROVIDER).to_json()

    def test_kept_engine_does_not_keep_its_graph_alive(self):
        """A kept engine that referenced its graph would make a cycle,
        and every dropped Internet would wait for the cyclic collector."""
        internet = build_internet(small_topology_config())
        run_scenario("hijack", seed=0, config=self.CONFIG, internet=internet)
        graph = weakref.ref(internet.graph)
        gc.disable()
        try:
            del internet
            assert graph() is None
        finally:
            gc.enable()

    def test_opening_phase_telemetry_emitted_once(self):
        internet = build_internet(small_topology_config())
        with obs.capture() as captured:
            results = [
                run_scenario(name, seed=0, config=self.CONFIG, internet=internet)
                for name in sorted(SCENARIOS)
            ]
        runs = [
            e for e in captured.events if e["kind"] == "span_end" and e["name"] == SPAN_RUN
        ]
        counts = [
            e["value"]
            for e in captured.events
            if e["kind"] == "counter" and e["name"] == COUNTER_EVENTS
        ]
        (hist,) = [
            e for e in captured.events if e["kind"] == "hist" and e["name"] == HIST_CONVERGENCE
        ]
        # The opening once, then the hijacks' one phase each and the
        # cascade's two.
        assert len(runs) == len(counts) == hist["sketch"]["count"] == 5
        opening = counts[0]
        simulated = sum(r.metrics["events_processed"] for r in results)
        assert sum(counts) == simulated - 2 * opening
