"""Curated routing scenarios: hijacks and the origin-outage cascade.

The paper asks whether anything beats BGP on a *static converged*
snapshot; this module exercises the regime its comparisons skip — the
window while routes are in flux.  Each scenario schedules its events
on a :class:`~repro.bgp.dynamics.DynamicsEngine` one phase at a time
(a phase's event fires :data:`PHASE_GAP_S` after the previous phase
quiesced, and the engine runs to quiescence again), and yields a
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
:data:`VICTIM_PREFIX` at t = 0.  The scenarios run on one graph with one
victim and config converge it once and run their later phases on forks
of that engine.  Each scenario function stores its victim and attacker
as plain ints (a numpy integer included) and refuses any other value,
a ``bool`` too, with :class:`~repro.errors.RoutingError` before it
looks that engine up.

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

from repro.errors import RoutingError, require_int
from repro.topology import ASGraph, Internet
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


# --- execution -----------------------------------------------------------


def _after_opening(
    graph: ASGraph, victim: int, config: DynamicsConfig
) -> Tuple[DynamicsEngine, float]:
    """An engine in which ``victim``'s t = 0 announcement of
    :data:`VICTIM_PREFIX` has converged on ``graph``, and the time of
    that quiescence.

    Every scenario opens with this phase, so the converged engine is
    kept on the graph, keyed by the engine class (looked up when
    called), ``victim`` and ``config``, and each caller gets a
    :meth:`~repro.bgp.dynamics.DynamicsEngine.fork` of it: the phase
    runs, and emits its telemetry, once per key.  The graph drops what
    it keeps on any mutation.  The kept engine holds no reference to the
    graph, so a graph nothing else holds is freed at once rather than
    by the cyclic collector; each fork gets the caller's graph.
    """
    key = (DynamicsEngine, victim, config)
    if graph._baselines is None:
        graph._baselines = {}
    engine = graph._baselines.get(key)
    if engine is None:
        engine = DynamicsEngine(graph, config)
        engine.schedule_announce(0.0, victim, VICTIM_PREFIX)
        engine.run()
        engine.graph = None
        graph._baselines[key] = engine
    twin = engine.fork()
    twin.graph = graph
    return twin, twin.last_change_s


def _next_phase(
    engine: DynamicsEngine,
    schedule: Callable[[float, int, str], None],
    origin: int,
    prefix: str = VICTIM_PREFIX,
) -> Tuple[float, float]:
    """Run one later phase: ``schedule`` (the engine's
    ``schedule_announce`` or ``schedule_withdraw``) fires ``origin``'s
    event :data:`PHASE_GAP_S` after the engine quiesced, and the engine
    runs to quiescence again.  Returns when the event fired and the time
    of the last best-route change it caused."""
    inject_s = engine.now + PHASE_GAP_S
    schedule(inject_s, origin, prefix)
    engine.run()
    return inject_s, engine.last_change_s


def _user_share(graph: ASGraph, ases: List[int]) -> float:
    """Fraction of total user weight hosted by ``ases``."""
    total = sum(a.user_weight for a in graph.ases())
    if total <= 0:
        return 0.0
    captured = sum(graph.get(asn).user_weight for asn in ases)
    return captured / total


def _result(
    name: str,
    engine: DynamicsEngine,
    victim: int,
    attacker: Optional[int],
    setup_s: float,
    inject_s: float,
    reconverged_s: float,
    metrics: Dict[str, float],
    recovered: Optional[bool] = None,
) -> ScenarioResult:
    """The :class:`ScenarioResult` of a finished run on ``engine``;
    the engine's message counts follow the scenario's own ``metrics``."""
    return ScenarioResult(
        name=name,
        seed=engine.config.seed,
        victim=victim,
        attacker=attacker,
        converged=engine.converged,
        recovered=recovered,
        setup_converged_s=setup_s,
        inject_s=inject_s,
        reconverged_s=reconverged_s,
        time_to_reconverge_s=reconverged_s - inject_s,
        end_s=engine.now,
        metrics={
            **metrics,
            "events_processed": float(engine.events_processed),
            "updates_sent": float(engine.updates_sent),
            "withdrawals_sent": float(engine.withdrawals_sent),
            "mrai_deferrals": float(engine.mrai_deferrals),
        },
        timeline=engine.timeline_events(),
    )


def _in_graph(graph: ASGraph, role: str, asn: int) -> int:
    """``asn``, checked to be in ``graph`` before any phase runs;
    ``role`` names it in the error."""
    if asn not in graph:
        raise RoutingError(f"{role} AS {asn} not in graph")
    return asn


def _hijack_pair(graph: ASGraph, victim: int, attacker: int) -> Tuple[int, int]:
    """``victim`` and ``attacker`` as plain ints of ``graph``, checked
    to differ."""
    victim = require_int(victim, "victim", RoutingError)
    attacker = require_int(attacker, "attacker", RoutingError)
    if victim == attacker:
        raise RoutingError("attacker and victim must differ")
    return _in_graph(graph, "victim", victim), _in_graph(graph, "attacker", attacker)


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
    victim, attacker = _hijack_pair(graph, victim, attacker)
    engine, setup_s = _after_opening(graph, victim, config or DynamicsConfig())
    baseline = engine.best_routes(VICTIM_PREFIX)
    inject_s, reconverged_s = _next_phase(engine, engine.schedule_announce, attacker)
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
    }
    return _result(
        "hijack", engine, victim, attacker, setup_s, inject_s, reconverged_s, metrics
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
    victim, attacker = _hijack_pair(graph, victim, attacker)
    engine, setup_s = _after_opening(graph, victim, config or DynamicsConfig())
    covering = engine.best_routes(VICTIM_PREFIX)
    inject_s, reconverged_s = _next_phase(
        engine, engine.schedule_announce, attacker, MORE_SPECIFIC_PREFIX
    )
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
    }
    return _result(
        "more-specific-hijack",
        engine,
        victim,
        attacker,
        setup_s,
        inject_s,
        reconverged_s,
        metrics,
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
    victim = _in_graph(graph, "victim", require_int(victim, "victim", RoutingError))
    engine, setup_s = _after_opening(graph, victim, config or DynamicsConfig())
    baseline = engine.best_routes(VICTIM_PREFIX)
    inject_s, blackout_s = _next_phase(engine, engine.schedule_withdraw, victim)
    stranded = engine.best_routes(VICTIM_PREFIX)
    recover_inject_s, recovered_s = _next_phase(
        engine, engine.schedule_announce, victim
    )
    recovered_routes = engine.best_routes(VICTIM_PREFIX)
    metrics = {
        "baseline_reach": float(len(baseline)),
        "stranded_routes": float(len(stranded)),
        "cascade_s": blackout_s - inject_s,
        "time_to_recover_s": recovered_s - recover_inject_s,
    }
    return _result(
        "withdrawal-cascade",
        engine,
        victim,
        None,
        setup_s,
        inject_s,
        blackout_s,
        metrics,
        recovered=(not stranded) and recovered_routes == baseline,
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


#: Scenario registry: name -> scenario function.
SCENARIOS: Dict[str, Callable[..., ScenarioResult]] = {
    "hijack": prefix_hijack,
    "more-specific-hijack": more_specific_hijack,
    "withdrawal-cascade": withdrawal_cascade,
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
    graph, victim = internet.graph, internet.provider_asn
    config = config or DynamicsConfig(seed=seed)
    scenario = SCENARIOS[name]
    if scenario is withdrawal_cascade:
        return scenario(graph, victim, config)
    return scenario(graph, victim, pick_attacker(graph, victim, seed), config)
