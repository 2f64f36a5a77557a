"""Event-driven BGP dynamics: determinism, convergence, session logic.

The lane-agreement contract (dynamics quiescent state == static
``propagate()``) is pinned on generator topologies in
``test_lane_agreement.py``; here the hypothesis suite extends it to
random graphs and random schedules, and holds the engine to the
original per-hop engine kept in ``tests/dynamics_oracle.py`` on the
same schedules.  The unit tests cover the event-loop mechanics the
static lane has no analogue for: MRAI pacing, link flaps, session
epochs, and timeline recording.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import E1, E2, PROVIDER, T1A, TR2, build_toy_graph
from dynamics_oracle import DynamicsEngine as OracleEngine
from repro.bgp import propagate
from repro.bgp.dynamics import (
    DEFAULT_PREFIX,
    DynamicsConfig,
    DynamicsEngine,
)
from repro.errors import RoutingError
from repro.geo import WORLD_CITIES
from repro.topology import ASGraph, ASRole, AutonomousSystem, Relationship
from repro.topology.asgraph import link_between


def run_to_quiescence(graph, origin, seed=0, **config_kwargs):
    engine = DynamicsEngine(graph, DynamicsConfig(seed=seed, **config_kwargs))
    engine.schedule_announce(0.0, origin)
    engine.run()
    return engine


class TestConvergence:
    def test_matches_static_propagate(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        assert engine.converged
        static = propagate(toy_graph, PROVIDER)
        assert engine.routes() == static._routes

    def test_routing_table_snapshot_bit_identical(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        table = engine.routing_table()
        static = propagate(toy_graph, PROVIDER)
        assert table._routes == static._routes
        assert table.origin == static.origin

    def test_every_origin_agrees(self, toy_graph):
        for asys in toy_graph.ases():
            engine = run_to_quiescence(toy_graph, asys.asn)
            static = propagate(toy_graph, asys.asn)
            assert engine.routes() == static._routes, f"origin {asys.asn}"

    def test_mrai_zero_still_agrees(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER, mrai_s=0.0)
        assert engine.routes() == propagate(toy_graph, PROVIDER)._routes

    def test_withdraw_drains_everything(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        engine.schedule_withdraw(engine.now + 1.0, PROVIDER)
        engine.run()
        assert engine.converged
        assert engine.routes() == {}
        assert engine.withdrawals_sent > 0

    def test_run_until_gives_partial_state(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        engine.schedule_announce(0.0, PROVIDER)
        engine.run(until=0.0)
        # Only the origin has decided; no UPDATE has been delivered yet.
        assert set(engine.routes()) == {PROVIDER}
        assert not engine.converged
        engine.run()
        assert engine.converged
        assert engine.routes() == propagate(toy_graph, PROVIDER)._routes


class TestLinkEvents:
    def test_link_down_matches_effective_graph(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        engine.schedule_link_down(engine.now + 1.0, PROVIDER, E1)
        engine.run()
        assert engine.converged
        static = propagate(engine.effective_graph(), PROVIDER)
        assert engine.routes() == static._routes

    def test_link_up_restores_original_fixpoint(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        baseline = engine.routes()
        engine.schedule_link_down(engine.now + 1.0, PROVIDER, E1)
        engine.run()
        assert engine.routes() != baseline
        engine.schedule_link_up(engine.now + 1.0, PROVIDER, E1)
        engine.run()
        assert engine.converged
        assert engine.routes() == baseline

    def test_flap_during_delivery_drops_ghost_updates(self, toy_graph):
        """A flap faster than the link delay must not resurrect routes
        from the pre-flap session (the epoch guard)."""
        engine = DynamicsEngine(
            toy_graph,
            DynamicsConfig(link_delay_s=1.0, link_delay_jitter_s=0.0),
        )
        engine.schedule_announce(0.0, PROVIDER)
        # Down and straight back up, inside the first UPDATE's flight.
        engine.schedule_link_down(0.5, PROVIDER, T1A)
        engine.schedule_link_up(0.6, PROVIDER, T1A)
        engine.run()
        assert engine.converged
        assert engine.routes() == propagate(toy_graph, PROVIDER)._routes

    def test_double_down_rejected(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        engine.schedule_link_down(engine.now + 1.0, PROVIDER, E1)
        engine.schedule_link_down(engine.now + 2.0, PROVIDER, E1)
        with pytest.raises(RoutingError, match="already down"):
            engine.run()

    def test_up_without_down_rejected(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        engine.schedule_link_up(0.0, PROVIDER, E1)
        with pytest.raises(RoutingError, match="not down"):
            engine.run()


class TestMrai:
    def test_pacing_defers_updates(self, toy_graph):
        """With a long MRAI, churn between two origins is rate-limited;
        deferrals must be observed and the end state still correct."""
        engine = DynamicsEngine(toy_graph, DynamicsConfig(mrai_s=30.0))
        engine.schedule_announce(0.0, PROVIDER)
        engine.schedule_withdraw(2.0, PROVIDER)
        engine.schedule_announce(4.0, PROVIDER)
        engine.run()
        assert engine.converged
        assert engine.mrai_deferrals > 0
        assert engine.routes() == propagate(toy_graph, PROVIDER)._routes

    def test_withdrawals_bypass_mrai_by_default(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig(mrai_s=30.0))
        engine.schedule_announce(0.0, PROVIDER)
        engine.schedule_withdraw(0.5, PROVIDER)
        engine.run()
        assert engine.converged
        assert engine.routes() == {}

    def test_wrate_mode_also_converges_empty(self, toy_graph):
        engine = DynamicsEngine(
            toy_graph, DynamicsConfig(mrai_s=30.0, withdraw_mrai=True)
        )
        engine.schedule_announce(0.0, PROVIDER)
        engine.schedule_withdraw(0.5, PROVIDER)
        engine.run()
        assert engine.converged
        assert engine.routes() == {}

    def test_jitter_varies_by_session_not_by_time(self):
        config = DynamicsConfig(seed=3, mrai_s=10.0, mrai_jitter=0.5)
        engine = DynamicsEngine(build_toy_graph(), config)
        one = engine._mrai_interval((PROVIDER, T1A))
        other = engine._mrai_interval((PROVIDER, E1))
        assert one == engine._mrai_interval((PROVIDER, T1A))
        assert one != other
        assert 5.0 <= one <= 10.0


class TestDeterminism:
    def test_timeline_bit_identical_across_reruns(self, toy_graph):
        timelines = []
        for _ in range(2):
            engine = DynamicsEngine(
                build_toy_graph(), DynamicsConfig(seed=7, record_messages=True)
            )
            engine.schedule_announce(0.0, PROVIDER)
            engine.schedule_withdraw(3.0, PROVIDER)
            engine.schedule_announce(6.0, E2)
            engine.run()
            timelines.append(json.dumps(engine.timeline, sort_keys=True))
        assert timelines[0] == timelines[1]

    def test_seed_changes_timings_not_outcome(self, toy_graph):
        a = run_to_quiescence(build_toy_graph(), PROVIDER, seed=0)
        b = run_to_quiescence(build_toy_graph(), PROVIDER, seed=1)
        assert a.routes() == b.routes()
        times_a = [e["t"] for e in a.timeline]
        times_b = [e["t"] for e in b.timeline]
        assert times_a != times_b


class TestHijackState:
    def test_two_origins_split_the_graph(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        engine.schedule_announce(engine.now + 1.0, E2)
        engine.run()
        assert engine.converged
        assert engine.origins() == (PROVIDER, E2)
        routes = engine.routes()
        origins = {route.origin for route in routes.values()}
        assert origins == {PROVIDER, E2}
        # E2's own decision is its ORIGIN route; its transit follows.
        assert routes[E2].origin == E2
        assert routes[TR2].origin == E2

    def test_routing_table_rejects_contested_prefix(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        engine.schedule_announce(engine.now + 1.0, E2)
        engine.run()
        with pytest.raises(RoutingError, match="2 active origins"):
            engine.routing_table()


class TestValidation:
    def test_schedule_in_past_rejected(self, toy_graph):
        engine = run_to_quiescence(toy_graph, PROVIDER)
        with pytest.raises(RoutingError, match="in the past"):
            engine.schedule_announce(engine.now - 1.0, E1)

    def test_unknown_origin_rejected(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        with pytest.raises(RoutingError, match="not in graph"):
            engine.schedule_announce(0.0, 999999)

    def test_withdraw_without_announce_rejected(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        engine.schedule_withdraw(0.0, PROVIDER)
        with pytest.raises(RoutingError, match="does not originate"):
            engine.run()

    def test_unknown_link_rejected(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        with pytest.raises(RoutingError, match="no link"):
            engine.schedule_link_down(0.0, E1, E2)

    def test_bad_config_rejected(self):
        with pytest.raises(RoutingError):
            DynamicsConfig(mrai_s=-1.0)
        with pytest.raises(RoutingError):
            DynamicsConfig(link_delay_s=0.0)
        with pytest.raises(RoutingError):
            DynamicsConfig(mrai_jitter=1.5)
        with pytest.raises(RoutingError):
            DynamicsConfig(max_events=0)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", ["mrai_s", "link_delay_s", "link_delay_jitter_s"])
    def test_non_finite_timing_rejected(self, name, value):
        """An infinite MRAI would report ``inf``/``nan`` convergence
        times, and a NaN delay would corrupt the heap order."""
        # A NaN fails the older sign check first, where one exists.
        if value == "nan" and name != "link_delay_jitter_s":
            message = "mrai_s must be >= 0 and link_delay_s must be positive"
        else:
            message = "mrai_s, link_delay_s and link_delay_jitter_s must be finite"
        with pytest.raises(RoutingError) as caught:
            DynamicsConfig(**{name: float(value)})
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed", 1.5),
            ("seed", 4.0),
            ("seed", True),
            ("seed", "4"),
            ("max_events", 2.5),
            ("max_events", 10.0),
            ("max_events", True),
        ],
    )
    def test_non_integer_config_rejected(self, name, value):
        """Jitter hashes ``str(seed)`` while configs compare by value, so
        ``seed=4.0`` and ``seed=True`` would draw other jitter than the
        equal ``seed=4`` and ``seed=1``."""
        with pytest.raises(RoutingError) as caught:
            DynamicsConfig(**{name: value})
        assert str(caught.value) == f"{name} must be an integer, got {value!r}"

    def test_numpy_integer_seed_is_a_plain_int(self, toy_graph):
        config = DynamicsConfig(seed=np.int64(4), max_events=np.int32(500))
        assert type(config.seed) is int and type(config.max_events) is int
        assert config == DynamicsConfig(seed=4, max_events=500)
        timelines = []
        for seed in (np.int64(4), 4):
            engine = DynamicsEngine(toy_graph, DynamicsConfig(seed=seed))
            engine.schedule_announce(0.0, PROVIDER)
            engine.schedule_withdraw(3.0, PROVIDER)
            engine.run()
            timelines.append(json.dumps(engine.timeline, sort_keys=True))
        assert timelines[0] == timelines[1]

    @pytest.mark.parametrize("value", [float(PROVIDER), True])
    @pytest.mark.parametrize("call", ["announce", "withdraw", "link_down", "link_up"])
    def test_non_integer_asn_rejected(self, toy_graph, call, value):
        """An ASN equal to a graph ASN passed the graph check and was
        recorded as given: ``"asn": 1.0`` or ``"asn": true``."""
        assert value == PROVIDER
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        schedule = {
            "announce": lambda: engine.schedule_announce(0.0, value),
            "withdraw": lambda: engine.schedule_withdraw(0.0, value),
            "link_down": lambda: engine.schedule_link_down(0.0, value, E1),
            "link_up": lambda: engine.schedule_link_up(0.0, E1, value),
        }[call]
        with pytest.raises(RoutingError, match="must be an integer"):
            schedule()

    def test_numpy_integer_asns_write_the_int_timeline(self, toy_graph):
        timelines = []
        for provider, e1 in ((np.int64(PROVIDER), np.int32(E1)), (PROVIDER, E1)):
            engine = DynamicsEngine(toy_graph, DynamicsConfig())
            engine.schedule_announce(0.0, provider)
            engine.schedule_link_down(2.0, provider, e1)
            engine.schedule_link_up(4.0, e1, provider)
            engine.schedule_withdraw(6.0, provider)
            engine.run()
            timelines.append(json.dumps(engine.timeline, sort_keys=True))
        assert timelines[0] == timelines[1]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            "announce",
            "withdraw",
            "link_down",
            "link_up",
            "run-until",
        ],
    )
    def test_non_finite_time_rejected(self, toy_graph, call, value):
        """A NaN time passed the "in the past" check, broke the heap
        order and wrote ``NaN`` into the timeline; an infinite one moved
        the clock to ``inf``; ``run(until=nan)`` did nothing."""
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        engine.schedule_announce(0.0, PROVIDER)
        schedule = {
            "announce": lambda: engine.schedule_announce(value, E1),
            "withdraw": lambda: engine.schedule_withdraw(value, PROVIDER),
            "link_down": lambda: engine.schedule_link_down(value, PROVIDER, E1),
            "link_up": lambda: engine.schedule_link_up(value, PROVIDER, E1),
            "run-until": lambda: engine.run(until=value),
        }[call]
        with pytest.raises(RoutingError, match="finite"):
            schedule()
        # Nothing was queued or run: the engine goes on as if unasked.
        engine.run()
        assert engine.routes() == propagate(toy_graph, PROVIDER)._routes
        assert all(math.isfinite(entry["t"]) for entry in engine.timeline)

    def test_max_events_guard_fires(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig(max_events=3))
        engine.schedule_announce(0.0, PROVIDER)
        with pytest.raises(RoutingError, match="no quiescence"):
            engine.run()


class TestGrooming:
    def test_grooming_matches_static_lane(self, toy_graph):
        neighbors = sorted(toy_graph.neighbors(PROVIDER))
        prepends = {neighbors[0]: 2}
        suppressed = frozenset({neighbors[-1]})
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        engine.schedule_announce(
            0.0, PROVIDER, prepends=prepends, suppressed=suppressed
        )
        engine.run()
        static = propagate(
            toy_graph, PROVIDER, prepends=prepends, suppressed=suppressed
        )
        assert engine.routes() == static._routes

    def test_bad_grooming_rejected_at_schedule_time(self, toy_graph):
        engine = DynamicsEngine(toy_graph, DynamicsConfig())
        with pytest.raises(RoutingError):
            engine.schedule_announce(0.0, PROVIDER, prepends={E2: 1})


# --- the hypothesis suite ------------------------------------------------

#: The second prefix of the random schedules; its origins come and go
#: independently of the default prefix's.
OTHER_PREFIX = "other"


@dataclass(frozen=True)
class World:
    """A random graph plus everything one random run schedules.

    ``events`` are ``(kind, at_s, *args)``: ``announce`` carries
    ``(asn, prefix, grooming kwargs)``, ``withdraw`` ``(asn, prefix)``
    and the link events ``(x, y)``.  Every flap ends with its link up,
    and exactly one origin of :data:`DEFAULT_PREFIX` survives.
    """

    graph: ASGraph
    events: Tuple[tuple, ...]
    origin: int
    grooming: Dict[str, Any]
    seed: int
    config: Dict[str, Any]
    stops: Tuple[float, ...]


def _draw_grooming(rng, graph, asn):
    """Random prepends, suppression and city scoping for ``asn``."""

    def subset(items):
        size = int(rng.integers(1, len(items) + 1))
        return [items[int(i)] for i in rng.choice(len(items), size=size, replace=False)]

    neighbors = sorted(graph.neighbors(asn))
    grooming: Dict[str, Any] = {}
    if not neighbors or rng.random() < 0.5:
        return grooming
    if rng.random() < 0.6:
        grooming["prepends"] = {n: int(rng.integers(1, 4)) for n in subset(neighbors)}
    if rng.random() < 0.4:
        grooming["suppressed"] = frozenset(subset(neighbors)[:1])
    if rng.random() < 0.4:
        cities = {c for n in neighbors for c in graph.link(asn, n).cities}
        grooming["origin_cities"] = frozenset(subset(sorted(cities, key=lambda c: c.name)))
    return grooming


@st.composite
def world_and_schedule(draw):
    """A random valley-free graph plus a random schedule over it.

    The schedule announces (sometimes groomed) and withdraws two
    prefixes, flaps links (some flaps shorter than the link delay,
    right behind an announcement), draws an MRAI / WRATE / message
    recording config and stops the run part-way at random instants.
    It ends with exactly one active origin of the default prefix."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    n_top = draw(st.integers(min_value=1, max_value=3))
    n_mid = draw(st.integers(min_value=1, max_value=4))
    n_leaf = draw(st.integers(min_value=1, max_value=6))
    cities = list(WORLD_CITIES[:20])
    graph = ASGraph()
    tops = list(range(10, 10 + n_top))
    mids = list(range(100, 100 + n_mid))
    leaves = list(range(1000, 1000 + n_leaf))

    def city_sample(k):
        idx = rng.choice(len(cities), size=min(k, len(cities)), replace=False)
        return tuple(cities[i] for i in sorted(idx))

    for asn in tops:
        graph.add_as(AutonomousSystem(asn, f"t{asn}", ASRole.TIER1, city_sample(4)))
    for asn in mids:
        graph.add_as(AutonomousSystem(asn, f"m{asn}", ASRole.TRANSIT, city_sample(3)))
    for asn in leaves:
        graph.add_as(AutonomousSystem(asn, f"l{asn}", ASRole.EYEBALL, city_sample(2)))
    for i, x in enumerate(tops):
        for y in tops[i + 1 :]:
            graph.add_link(link_between(x, y, Relationship.PEER, city_sample(2)))
    for asn in mids:
        ups = rng.choice(tops, size=min(len(tops), int(rng.integers(1, 3))), replace=False)
        for up in sorted(int(u) for u in ups):
            graph.add_link(
                link_between(asn, up, Relationship.CUSTOMER, city_sample(1), customer_asn=asn)
            )
    for asn in leaves:
        pool = mids if mids else tops
        ups = rng.choice(pool, size=min(len(pool), int(rng.integers(1, 3))), replace=False)
        for up in sorted(int(u) for u in ups):
            graph.add_link(
                link_between(asn, up, Relationship.CUSTOMER, city_sample(1), customer_asn=asn)
            )

    asns = tops + mids + leaves
    links = sorted(link.key() for link in graph.links())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_events = draw(st.integers(min_value=1, max_value=8))
    active: Dict[str, set] = {DEFAULT_PREFIX: set(), OTHER_PREFIX: set()}
    grooming_of: Dict[int, Dict[str, Any]] = {}
    link_free_at = {key: 0.0 for key in links}
    events = []
    t = last_at = 0.0
    last_asn = None
    for _ in range(n_events):
        t += float(rng.uniform(0.1, 3.0))
        roll = rng.random()
        if roll < 0.25:
            # A flap.  Often it hits a link of the AS that announced or
            # withdrew last, right behind that event and shorter than
            # the link delay (0.01-0.05 s by default), so an UPDATE is
            # still in flight when the link comes back up.
            if roll < 0.15 and last_asn is not None:
                down = round(last_at + float(rng.uniform(0.0, 0.01)), 3)
                up = round(down + float(rng.uniform(0.001, 0.03)), 3)
                candidates = [key for key in links if last_asn in key]
            else:
                down = round(t, 3)
                up = round(down + float(rng.uniform(0.1, 2.0)), 3)
                candidates = links
            free = [key for key in candidates if link_free_at[key] < down]
            if not free:
                continue
            x, y = free[int(rng.integers(len(free)))]
            link_free_at[(x, y)] = up
            events.append(("link_down", down, x, y))
            events.append(("link_up", up, x, y))
            continue
        prefix = OTHER_PREFIX if roll < 0.45 else DEFAULT_PREFIX
        origins = active[prefix]
        if origins and rng.random() < 0.4:
            asn = sorted(origins)[int(rng.integers(len(origins)))]
            events.append(("withdraw", round(t, 3), asn, prefix))
            origins.discard(asn)
            last_at, last_asn = round(t, 3), asn
        else:
            asn = asns[int(rng.integers(len(asns)))]
            if asn in origins:
                continue
            grooming = _draw_grooming(rng, graph, asn)
            if prefix == DEFAULT_PREFIX:
                grooming_of[asn] = grooming
            events.append(("announce", round(t, 3), asn, prefix, grooming))
            origins.add(asn)
            last_at, last_asn = round(t, 3), asn
    survivors = sorted(active[DEFAULT_PREFIX])
    if not survivors:
        t += 1.0
        events.append(("announce", round(t, 3), asns[0], DEFAULT_PREFIX, {}))
        grooming_of[asns[0]] = {}
        survivors = [asns[0]]
    for extra in survivors[1:]:
        t += 1.0
        events.append(("withdraw", round(t, 3), extra, DEFAULT_PREFIX))
    config = {
        "mrai_s": float(draw(st.sampled_from([0.0, 0.5, 5.0, 30.0]))),
        "withdraw_mrai": draw(st.booleans()),
        "record_messages": draw(st.booleans()),
    }
    n_stops = draw(st.integers(min_value=0, max_value=3))
    stops = tuple(sorted(round(float(rng.uniform(0.0, t + 2.0)), 3) for _ in range(n_stops)))
    return World(
        graph=graph,
        events=tuple(events),
        origin=survivors[0],
        grooming=grooming_of[survivors[0]],
        seed=seed,
        config=config,
        stops=stops,
    )


def _scheduled(world, engine_cls=DynamicsEngine, extra=(), **config):
    """An engine of ``engine_cls`` with every event of ``world`` (and
    ``extra``) queued, its config overridden by ``config``."""
    engine = engine_cls(
        world.graph, DynamicsConfig(seed=world.seed, **{**world.config, **config})
    )
    for kind, at_s, *args in (*world.events, *extra):
        if kind == "announce":
            asn, prefix, grooming = args
            engine.schedule_announce(at_s, asn, prefix, **grooming)
        elif kind == "withdraw":
            engine.schedule_withdraw(at_s, *args)
        elif kind == "link_down":
            engine.schedule_link_down(at_s, *args)
        else:
            engine.schedule_link_up(at_s, *args)
    return engine


def _finish(engine, stops=()):
    """Run ``engine`` through each of ``stops``, then to quiescence."""
    for stop in stops:
        engine.run(until=stop)
    engine.run()
    return engine


def _run_schedule(world, engine_cls=DynamicsEngine):
    return _finish(_scheduled(world, engine_cls), world.stops)


@given(world_and_schedule())
@settings(max_examples=40, deadline=None)
def test_random_schedule_ends_at_static_fixpoint(world):
    """Any quiescent history with one surviving origin lands on exactly
    the static ``propagate()`` state, and the full event timeline is
    bit-identical across same-seed reruns."""
    world.graph.validate()
    engine = _run_schedule(world)
    assert engine.converged
    static = propagate(world.graph, world.origin, **world.grooming)
    assert engine.routes() == static._routes
    assert engine.routing_table()._routes == static._routes
    rerun = _run_schedule(world)
    assert json.dumps(engine.timeline, sort_keys=True) == json.dumps(
        rerun.timeline, sort_keys=True
    )


@given(world_and_schedule())
@settings(max_examples=15, deadline=None)
def test_random_schedule_then_withdraw_all_drains(world):
    engine = _run_schedule(world)
    engine.schedule_withdraw(engine.now + 1.0, world.origin)
    engine.run()
    assert engine.converged
    assert engine.routes() == {}
    assert engine.origins() == ()


def _observed(engine) -> Dict[str, Any]:
    """Everything a caller can see of an engine, for the oracle tests."""
    return {
        "timeline": engine.timeline,
        "now": engine.now,
        "last_change_s": engine.last_change_s,
        "events_processed": engine.events_processed,
        "updates_sent": engine.updates_sent,
        "withdrawals_sent": engine.withdrawals_sent,
        "mrai_deferrals": engine.mrai_deferrals,
        "converged": engine.converged,
        "routes": {p: engine.routes(p) for p in (DEFAULT_PREFIX, OTHER_PREFIX)},
        "origins": {p: engine.origins(p) for p in (DEFAULT_PREFIX, OTHER_PREFIX)},
    }


@given(world_and_schedule())
@settings(max_examples=60, deadline=None)
def test_engine_agrees_with_oracle(world):
    """The engine matches the per-hop ``Route`` engine kept in
    ``tests/dynamics_oracle.py`` after every partial and the final run."""
    engine = _scheduled(world)
    oracle = _scheduled(world, OracleEngine)
    for stop in (*world.stops, None):
        assert engine.run(until=stop) == oracle.run(until=stop)
        assert _observed(engine) == _observed(oracle), stop


@given(world_and_schedule())
@settings(max_examples=30, deadline=None)
def test_best_routes_follow_routes(world):
    """In both engines ``best_routes`` holds an AS exactly when
    ``routes`` does, with that route's origin, and two snapshots of a
    run compare equal exactly when the routes they were taken from do."""
    for engine_cls in (DynamicsEngine, OracleEngine):
        engine = _scheduled(world, engine_cls)
        taken = []
        for stop in (*world.stops, None):
            engine.run(until=stop)
            for prefix in (DEFAULT_PREFIX, OTHER_PREFIX):
                routes, snapshot = engine.routes(prefix), engine.best_routes(prefix)
                assert {asn: origin for asn, (origin, _) in snapshot.items()} == {
                    asn: route.origin for asn, route in routes.items()
                }
                taken.append((routes, snapshot))
        for i, (routes, snapshot) in enumerate(taken):
            for other_routes, other_snapshot in taken[i + 1 :]:
                assert (snapshot == other_snapshot) == (routes == other_routes)


@given(
    world_and_schedule(),
    st.sampled_from(["double-down", "stray-withdraw", "max-events"]),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_engine_errors_match_oracle(world, fault, data):
    """A second ``link_down``, a withdrawal by a non-origin or a tripped
    ``max_events`` guard raises the same error at the same event in
    both engines, leaving equal state and an equal event count."""
    last = max(at_s for _, at_s, *_ in world.events)
    at_s = round(data.draw(st.floats(min_value=0.0, max_value=last)), 3)
    extra, config = [], {}
    if fault == "double-down":
        flapped = {(e[2], e[3]) for e in world.events if e[0] == "link_down"}
        idle = sorted(link.key() for link in world.graph.links() if link.key() not in flapped)
        assume(idle)
        x, y = data.draw(st.sampled_from(idle))
        extra = [("link_down", at_s, x, y), ("link_down", at_s + 0.5, x, y)]
        message = f"link {x}-{y} is already down"
    elif fault == "stray-withdraw":
        announcers = {
            e[2] for e in world.events if e[0] == "announce" and e[3] == OTHER_PREFIX
        }
        strays = sorted(a.asn for a in world.graph.ases() if a.asn not in announcers)
        assume(strays)
        extra = [("withdraw", at_s, data.draw(st.sampled_from(strays)), OTHER_PREFIX)]
        message = "does not originate"
    else:
        config = {"max_events": data.draw(st.integers(min_value=1, max_value=3))}
        message = "no quiescence"
    outcomes = []
    for engine_cls in (DynamicsEngine, OracleEngine):
        engine = _scheduled(world, engine_cls, extra, **config)
        try:
            for stop in (*world.stops, None):
                engine.run(until=stop)
            error = None
        except RoutingError as exc:
            error = (type(exc), str(exc))
        outcomes.append((error, _observed(engine)))
    assert outcomes[0] == outcomes[1]
    error = outcomes[0][0]
    if fault == "max-events" and error is None:
        return  # every partial run stayed under the guard
    assert error is not None and message in error[1]


@given(world_and_schedule())
@settings(max_examples=40, deadline=None)
def test_fork_continues_as_the_original_would(world):
    """Forked before the first run and at every stop, where the queue,
    pending MRAI sets, down links and epochs are live, a twin runs on
    to exactly the unforked run's end; running the twin first changes
    nothing the original shows, nor where the original ends up."""
    expected = _observed(_run_schedule(world))
    engine = _scheduled(world)
    for i in range(len(world.stops) + 1):
        if i:
            engine.run(until=world.stops[i - 1])
        before = copy.deepcopy(_observed(engine))
        twin = _finish(engine.fork(), world.stops[i:])
        assert _observed(twin) == expected
        assert _observed(engine) == before
    assert _observed(_finish(engine)) == expected


#: Every attribute of an engine, by how :meth:`DynamicsEngine.fork`
#: treats it.  A new attribute fails the inventory test until ``fork``
#: handles it and it is listed here.
FORK_COPIED = {
    "now",
    "last_change_s",
    "events_processed",
    "updates_sent",
    "withdrawals_sent",
    "mrai_deferrals",
    "timeline",
    "_queue",
    "_seq",
    "_adj_in",
    "_best",
    "_origins",
    "_advertised",
    "_mrai_until",
    "_pending",
    "_down",
    "_epoch",
}
FORK_SHARED = {"graph", "config", "_rows", "_delays", "_mrai_intervals"}


def _containers(value):
    """Every list, dict and set reachable from ``value`` through lists,
    dicts, sets and tuples."""
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    elif isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    else:
        return []
    found = [value] if isinstance(value, (list, dict, set)) else []
    for item in items:
        found.extend(_containers(item))
    return found


def test_fork_copies_state_and_shares_the_rest(toy_graph):
    engine = DynamicsEngine(
        toy_graph, DynamicsConfig(mrai_s=30.0, record_messages=True)
    )
    engine.schedule_announce(0.0, PROVIDER)
    engine.schedule_withdraw(2.0, PROVIDER)
    engine.schedule_announce(4.0, PROVIDER)
    engine.schedule_link_down(4.0, PROVIDER, E1)
    engine.schedule_link_up(6.0, PROVIDER, E1)
    engine.run(until=5.0)
    assert engine._queue and engine._down and engine._epoch
    assert any(engine._pending.values())
    assert set(vars(engine)) == FORK_COPIED | FORK_SHARED
    twin = engine.fork()
    assert type(twin) is DynamicsEngine
    assert set(vars(twin)) == set(vars(engine))
    for name in FORK_SHARED:
        assert getattr(twin, name) is getattr(engine, name), name
    for name in FORK_COPIED:
        mine, theirs = getattr(engine, name), getattr(twin, name)
        assert theirs == mine, name
        shared = {id(c) for c in _containers(mine)} & {
            id(c) for c in _containers(theirs)
        }
        assert not shared, name


def test_fork_timeline_edits_stay_apart(toy_graph):
    engine = run_to_quiescence(toy_graph, PROVIDER)
    kept = json.dumps(engine.timeline, sort_keys=True)
    twin = engine.fork()
    twin.timeline[0]["t"] = -1.0
    twin.timeline_events()[1]["kind"] = "edited"
    twin.timeline.append({"t": 0.0, "kind": "extra"})
    assert json.dumps(engine.timeline, sort_keys=True) == kept


def test_default_prefix_is_stable():
    """Scenario artifacts embed the prefix key; keep it pinned."""
    assert DEFAULT_PREFIX == "prefix"
