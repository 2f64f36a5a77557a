"""Curated routing scenarios: hijacks and the origin-outage cascade.

The paper asks whether anything beats BGP on a *static converged*
snapshot; this module exercises the regime its comparisons skip — the
window while routes are in flux.  Each scenario is a
:class:`~repro.faults.routing.ScenarioFaultPlan` (a phased, seeded
event schedule — first-class alongside the infrastructure fault plans
in :mod:`repro.faults`) executed on a
:class:`~repro.bgp.dynamics.DynamicsEngine`, and yields a
:class:`ScenarioResult` with a time-to-reconverge timeline:

* ``hijack`` — an attacker originates the victim's exact prefix; the
  Gao-Rexford decision splits the Internet into two catchments, and the
  result measures how much of it (AS-count and user-weighted) the
  attacker captures.
* ``more-specific-hijack`` — the attacker originates a *more specific*
  prefix instead; longest-prefix match means every AS the announcement
  reaches is captured, but valley-free export limits how far it
  spreads.
* ``withdrawal-cascade`` — the victim withdraws entirely (origin
  outage), the withdrawal cascades to a blackout, then a re-announce
  restores service; the result checks the recovered state is
  bit-identical to the pre-outage baseline and reports time-to-recover.

Every scenario opens with the same phase: the victim announces
:data:`VICTIM_PREFIX` at t = 0.  The scenarios run on one graph converge
it once and run their later phases on forks of that engine.

Determinism contract: one ``(scenario, topology seed, engine seed)``
triple fixes the timeline bit for bit — ``to_json()`` output is
byte-stable across reruns, whichever scenarios ran on the graph before,
which is what the ``scenario-smoke`` CI lane pins.  Time-to-recover
analysis over these results lives in
:func:`repro.availability.scenario_recovery`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.topology import ASGraph, Internet
from repro.faults.routing import RouteEvent, ScenarioFaultPlan
from repro.faults.plan import unit_draw
from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine

#: The address space under attack, shared by every scenario.
VICTIM_PREFIX = "203.0.113.0/24"

#: The covered half an attacker steals via longest-prefix match.
MORE_SPECIFIC_PREFIX = "203.0.113.128/25"

#: Seconds between one phase's quiescence and the next phase's events.
PHASE_GAP_S = 5.0


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run.

    Attributes:
        name: Registry name (see :data:`SCENARIOS`).
        seed: Engine seed (jitter); also the topology seed under
            :func:`run_scenario` defaults.
        victim: The AS whose prefix is attacked or withdrawn.
        attacker: The hijacking AS (``None`` for the cascade).
        converged: The engine reached quiescence after the last phase.
        recovered: Post-recovery routes equal the pre-outage baseline
            bit for bit (``None`` for scenarios without a recovery
            phase).
        setup_converged_s: Quiescence time of the baseline
            announcement.
        inject_s: When the disruption (hijack or withdrawal) fired.
        reconverged_s: Last best-route change the disruption caused.
        time_to_reconverge_s: ``reconverged_s - inject_s``.
        end_s: Engine clock at the end of the run.
        metrics: Scenario-specific numbers (capture shares, cascade
            widths, message counts).
        timeline: The engine's decision-level event history, JSON-ready.
    """

    name: str
    seed: int
    victim: int
    attacker: Optional[int]
    converged: bool
    recovered: Optional[bool]
    setup_converged_s: float
    inject_s: float
    reconverged_s: float
    time_to_reconverge_s: float
    end_s: float
    metrics: Dict[str, float] = field(default_factory=dict)
    timeline: List[Dict[str, Any]] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        """Everything but the timeline, as one JSON-ready dict."""
        return {
            "name": self.name,
            "seed": self.seed,
            "victim": self.victim,
            "attacker": self.attacker,
            "converged": self.converged,
            "recovered": self.recovered,
            "setup_converged_s": self.setup_converged_s,
            "inject_s": self.inject_s,
            "reconverged_s": self.reconverged_s,
            "time_to_reconverge_s": self.time_to_reconverge_s,
            "end_s": self.end_s,
            "timeline_entries": len(self.timeline),
            "metrics": dict(self.metrics),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON (sorted keys): byte-stable for a given seed."""
        payload = self.summary()
        payload["timeline"] = self.timeline
        return json.dumps(payload, sort_keys=True, indent=indent)


# --- fault-plan builders -------------------------------------------------


def _opening_phase(victim: int) -> Tuple[RouteEvent, ...]:
    """The phase every scenario opens with: the victim announces
    :data:`VICTIM_PREFIX` at t = 0."""
    return (RouteEvent("announce", 0.0, victim, prefix=VICTIM_PREFIX),)


def hijack_plan(victim: int, attacker: int) -> ScenarioFaultPlan:
    """Exact-prefix hijack: attacker originates the victim's prefix."""
    return ScenarioFaultPlan(
        name="hijack",
        phases=(
            _opening_phase(victim),
            (
                RouteEvent(
                    "announce", PHASE_GAP_S, attacker, prefix=VICTIM_PREFIX
                ),
            ),
        ),
    )


def more_specific_hijack_plan(victim: int, attacker: int) -> ScenarioFaultPlan:
    """Sub-prefix hijack: attacker originates a covered /25."""
    return ScenarioFaultPlan(
        name="more-specific-hijack",
        phases=(
            _opening_phase(victim),
            (
                RouteEvent(
                    "announce",
                    PHASE_GAP_S,
                    attacker,
                    prefix=MORE_SPECIFIC_PREFIX,
                ),
            ),
        ),
    )


def withdrawal_cascade_plan(victim: int) -> ScenarioFaultPlan:
    """Origin outage: announce, full withdrawal, then re-announce."""
    return ScenarioFaultPlan(
        name="withdrawal-cascade",
        phases=(
            _opening_phase(victim),
            (RouteEvent("withdraw", PHASE_GAP_S, victim, prefix=VICTIM_PREFIX),),
            (RouteEvent("announce", PHASE_GAP_S, victim, prefix=VICTIM_PREFIX),),
        ),
    )


# --- execution -----------------------------------------------------------


def _apply_phase(
    engine: DynamicsEngine, plan: ScenarioFaultPlan, index: int
) -> Tuple[float, float]:
    """Run one phase of ``plan`` to quiescence; return its boundary."""
    sub = ScenarioFaultPlan(
        name=f"{plan.name}[{index}]", phases=(plan.phases[index],)
    )
    return sub.apply(engine)[0]


def _after_opening(
    graph: ASGraph, plan: ScenarioFaultPlan, config: DynamicsConfig
) -> Tuple[DynamicsEngine, float]:
    """An engine that has run ``plan``'s opening phase on ``graph`` to
    quiescence, and the phase's quiescence time.

    Every scenario opens with the same phase, so the converged engine
    is kept on the graph, keyed by the engine class (looked up when
    called), the phase and ``config``, and each caller gets a
    :meth:`~repro.bgp.dynamics.DynamicsEngine.fork` of it: the phase
    runs, and emits its telemetry, once per key.  The graph drops what
    it keeps on any mutation.  The kept engine holds no reference to the
    graph, so a graph nothing else holds is freed at once rather than
    by the cyclic collector; each fork gets the caller's graph.
    """
    key = (DynamicsEngine, plan.phases[0], config)
    if graph._baselines is None:
        graph._baselines = {}
    opened = graph._baselines.get(key)
    if opened is None:
        engine = DynamicsEngine(graph, config)
        _, setup_s = _apply_phase(engine, plan, 0)
        engine.graph = None
        opened = graph._baselines[key] = (engine, setup_s)
    engine, setup_s = opened
    twin = engine.fork()
    twin.graph = graph
    return twin, setup_s


def _user_share(graph: ASGraph, ases: List[int]) -> float:
    """Fraction of total user weight hosted by ``ases``."""
    total = sum(a.user_weight for a in graph.ases())
    if total <= 0:
        return 0.0
    captured = sum(graph.get(asn).user_weight for asn in ases)
    return captured / total


def _wire_metrics(engine: DynamicsEngine) -> Dict[str, float]:
    return {
        "events_processed": float(engine.events_processed),
        "updates_sent": float(engine.updates_sent),
        "withdrawals_sent": float(engine.withdrawals_sent),
        "mrai_deferrals": float(engine.mrai_deferrals),
    }


def prefix_hijack(
    graph: ASGraph,
    victim: int,
    attacker: int,
    config: Optional[DynamicsConfig] = None,
) -> ScenarioResult:
    """Run the exact-prefix hijack on ``graph``.

    After the victim's announcement converges, the attacker originates
    the same prefix; both origins then hold their own catchment (each
    AS keeps whichever route Gao-Rexford prefers).  Capture metrics
    count the attacker's catchment by AS and by user weight.
    """
    if victim == attacker:
        raise RoutingError("attacker and victim must differ")
    config = config or DynamicsConfig()
    plan = hijack_plan(victim, attacker)
    engine, setup_s = _after_opening(graph, plan, config)
    baseline = engine.best_routes(VICTIM_PREFIX)
    inject_s, reconverged_s = _apply_phase(engine, plan, 1)
    routes = engine.best_routes(VICTIM_PREFIX)
    captured = sorted(
        asn for asn, (origin, _) in routes.items() if origin == attacker
    )
    moved = sum(1 for asn in captured if asn in baseline)
    metrics = {
        "captured_ases": float(len(captured)),
        "captured_fraction": len(captured) / len(routes) if routes else 0.0,
        "captured_user_share": _user_share(graph, captured),
        "moved_from_victim": float(moved),
        **_wire_metrics(engine),
    }
    return ScenarioResult(
        name="hijack",
        seed=config.seed,
        victim=victim,
        attacker=attacker,
        converged=engine.converged,
        recovered=None,
        setup_converged_s=setup_s,
        inject_s=inject_s,
        reconverged_s=reconverged_s,
        time_to_reconverge_s=reconverged_s - inject_s,
        end_s=engine.now,
        metrics=metrics,
        timeline=engine.timeline_events(),
    )


def more_specific_hijack(
    graph: ASGraph,
    victim: int,
    attacker: int,
    config: Optional[DynamicsConfig] = None,
) -> ScenarioResult:
    """Run the sub-prefix hijack on ``graph``.

    The attacker originates :data:`MORE_SPECIFIC_PREFIX` under the
    victim's :data:`VICTIM_PREFIX`.  Longest-prefix match means *every*
    AS that learns the /25 sends that half of the space to the
    attacker, regardless of how good its /24 route is — capture is
    limited only by valley-free export reach.
    """
    if victim == attacker:
        raise RoutingError("attacker and victim must differ")
    config = config or DynamicsConfig()
    plan = more_specific_hijack_plan(victim, attacker)
    engine, setup_s = _after_opening(graph, plan, config)
    covering = engine.best_routes(VICTIM_PREFIX)
    inject_s, reconverged_s = _apply_phase(engine, plan, 1)
    specific = engine.best_routes(MORE_SPECIFIC_PREFIX)
    # Longest-prefix match: holding any /25 route is capture.
    captured = sorted(asn for asn in specific if asn != attacker)
    metrics = {
        "captured_ases": float(len(captured)),
        "captured_fraction": (
            len(captured) / len(covering) if covering else 0.0
        ),
        "captured_user_share": _user_share(graph, captured),
        "covering_reach": float(len(covering)),
        "specific_reach": float(len(specific)),
        **_wire_metrics(engine),
    }
    return ScenarioResult(
        name="more-specific-hijack",
        seed=config.seed,
        victim=victim,
        attacker=attacker,
        converged=engine.converged,
        recovered=None,
        setup_converged_s=setup_s,
        inject_s=inject_s,
        reconverged_s=reconverged_s,
        time_to_reconverge_s=reconverged_s - inject_s,
        end_s=engine.now,
        metrics=metrics,
        timeline=engine.timeline_events(),
    )


def withdrawal_cascade(
    graph: ASGraph,
    victim: int,
    config: Optional[DynamicsConfig] = None,
) -> ScenarioResult:
    """Run the origin-outage cascade on ``graph``.

    The victim withdraws its prefix entirely; the withdrawal cascades
    until no AS holds a route (the blackout), then a re-announcement
    restores service.  ``recovered`` asserts the restored routes equal
    the pre-outage baseline bit for bit, and
    ``metrics["time_to_recover_s"]`` measures the re-announce phase.
    """
    config = config or DynamicsConfig()
    plan = withdrawal_cascade_plan(victim)
    engine, setup_s = _after_opening(graph, plan, config)
    baseline = engine.best_routes(VICTIM_PREFIX)
    inject_s, blackout_s = _apply_phase(engine, plan, 1)
    stranded = engine.best_routes(VICTIM_PREFIX)
    recover_inject_s, recovered_s = _apply_phase(engine, plan, 2)
    recovered_routes = engine.best_routes(VICTIM_PREFIX)
    metrics = {
        "baseline_reach": float(len(baseline)),
        "stranded_routes": float(len(stranded)),
        "cascade_s": blackout_s - inject_s,
        "time_to_recover_s": recovered_s - recover_inject_s,
        **_wire_metrics(engine),
    }
    return ScenarioResult(
        name="withdrawal-cascade",
        seed=config.seed,
        victim=victim,
        attacker=None,
        converged=engine.converged,
        recovered=(not stranded) and recovered_routes == baseline,
        setup_converged_s=setup_s,
        inject_s=inject_s,
        reconverged_s=blackout_s,
        time_to_reconverge_s=blackout_s - inject_s,
        end_s=engine.now,
        metrics=metrics,
        timeline=engine.timeline_events(),
    )


# --- the registry and topology-level driver ------------------------------


def pick_attacker(graph: ASGraph, victim: int, seed: int) -> int:
    """Deterministic attacker choice: a non-adjacent AS, seed-indexed.

    Excludes the victim's direct neighbors so the hijack has to win on
    routing policy, not on a one-hop adjacency.
    """
    candidates = sorted(
        asys.asn
        for asys in graph.ases()
        if asys.asn != victim and not graph.has_link(victim, asys.asn)
    )
    if not candidates:
        raise RoutingError(f"no AS eligible to attack {victim}")
    return candidates[int(unit_draw(seed, "attacker") * len(candidates))]


def _run_hijack(
    graph: ASGraph, victim: int, seed: int, config: DynamicsConfig
) -> ScenarioResult:
    return prefix_hijack(graph, victim, pick_attacker(graph, victim, seed), config)


def _run_more_specific(
    graph: ASGraph, victim: int, seed: int, config: DynamicsConfig
) -> ScenarioResult:
    return more_specific_hijack(
        graph, victim, pick_attacker(graph, victim, seed), config
    )


def _run_cascade(
    graph: ASGraph, victim: int, seed: int, config: DynamicsConfig
) -> ScenarioResult:
    return withdrawal_cascade(graph, victim, config)


#: Scenario registry: name -> runner over (graph, victim, seed, config).
SCENARIOS: Dict[
    str, Callable[[ASGraph, int, int, DynamicsConfig], ScenarioResult]
] = {
    "hijack": _run_hijack,
    "more-specific-hijack": _run_more_specific,
    "withdrawal-cascade": _run_cascade,
}


def run_scenario(
    name: str,
    seed: int = 0,
    config: Optional[DynamicsConfig] = None,
    internet: Optional[Internet] = None,
) -> ScenarioResult:
    """Run a named scenario on the CDN topology (or a given Internet).

    The victim is the content provider; hijack scenarios pick a
    deterministic non-adjacent attacker from the seed.  One
    ``(name, seed)`` pair fixes the whole timeline.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise RoutingError(f"unknown scenario {name!r}; known: {known}")
    if internet is None:
        # Deferred: repro.core reaches repro.bgp through the analysis
        # modules, so a module-level import here would be circular.
        from repro.core.configs import cdn_topology
        from repro.topology import build_internet

        internet = build_internet(cdn_topology(seed))
    config = config or DynamicsConfig(seed=seed)
    return SCENARIOS[name](internet.graph, internet.provider_asn, seed, config)
