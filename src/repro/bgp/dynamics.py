"""Event-driven BGP dynamics: churn, withdrawals, and link flaps.

:func:`~repro.bgp.propagation.propagate` computes the *static* stable
state of one announcement — the regime the paper's comparisons run in.
This module opens the other regime: what the routing system looks like
*between* stable states, while announcements, withdrawals, and link
events are still rippling outward.  The engine is a discrete-event
simulator over the same :class:`~repro.topology.ASGraph`:

* a deterministic event queue (heap keyed on ``(time, sequence)``) over
  announce / withdraw / link-up / link-down external events plus the
  internal UPDATE-delivery and MRAI-expiry events they spawn;
* per-``(sender, receiver)`` MRAI timers with seeded jitter — jitter is
  a pure function of ``(seed, sender, receiver)`` via
  :func:`repro.faults.plan.unit_draw`, the same no-hidden-RNG
  discipline as :class:`repro.faults.FaultPlan`, so one seed fixes the
  entire timeline bit for bit;
* the Gao-Rexford decision and export rules of the static lane:
  customer > peer > provider, shortest advertised path, lowest next-hop
  ASN, valley-free exports, origin grooming (prepends, suppression,
  city scoping);
* convergence detection by quiescence, with
  :meth:`DynamicsEngine.routing_table` yielding a
  :class:`~repro.bgp.propagation.RoutingTable` snapshot at any event
  time.

**Lane-agreement contract** (pinned in ``tests/test_lane_agreement.py``
and by the hypothesis suite in ``tests/test_bgp_dynamics.py``): once the
queue drains after a lone announcement, the snapshot is *bit-identical*
to ``propagate()`` on the same graph — the event-driven fixpoint and
the static three-phase construction are the same unique stable state.

Multiple concurrent origins of the same prefix are allowed — that is
what a prefix hijack *is* — and multiple prefixes share one event loop
and one set of MRAI timers, which is how a more-specific hijack
interleaves with the victim's own announcement.  Scenario drivers live
in :mod:`repro.bgp.scenarios`.

Inside the event loop routes are plain tuples (:data:`RouteTuple`) and
each AS's sessions are rows built once per engine; :meth:`routes` and
:meth:`routing_table` turn the tuples into validated
:class:`~repro.bgp.routes.Route` objects at the boundary, and
:meth:`best_routes` hands them out as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import (
    Any,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import RoutingError, require_int
from repro.faults.plan import unit_draw
from repro.geo import City
from repro.obs.trace import counter, histogram, span
from repro.topology import ASGraph, Link
from repro.topology.asgraph import REL_CUSTOMER, REL_PEER, REL_PROVIDER
from repro.bgp.propagation import RoutingTable, _validate_grooming
from repro.bgp.routes import Route, RoutePref

#: Default prefix key when a scenario only needs one prefix.
DEFAULT_PREFIX = "prefix"

#: External event kinds accepted by the scheduling API, in no order.
EXTERNAL_EVENT_KINDS = ("announce", "withdraw", "link_down", "link_up")

# Telemetry names (static per OBS001).
SPAN_RUN = "bgp.dynamics.run"
COUNTER_EVENTS = "bgp.dynamics.events"
HIST_CONVERGENCE = "bgp.dynamics.convergence_s"

# Event kinds of the heap entries ``(time, seq, kind, *payload)``,
# named by ``_KIND_NAMES``.
_ANNOUNCE, _WITHDRAW, _LINK_DOWN, _LINK_UP, _UPDATE, _MRAI = range(6)
_KIND_NAMES = EXTERNAL_EVENT_KINDS + ("update", "mrai")

#: A route inside the engine: ``(-pref, advertised_length, next_hop,
#: path)``.  Tuple order is the decision order (customer > peer >
#: provider, shortest advertised path, lowest next-hop ASN), so an AS's
#: best offer is ``min()`` of its offers; each offer comes from a
#: different neighbour, so paths are never compared.
RouteTuple = Tuple[int, int, int, Tuple[int, ...]]

_ORIGIN = -int(RoutePref.ORIGIN)
_CUSTOMER = -int(RoutePref.CUSTOMER)

#: ``-pref`` a neighbour learns a route under, by the sender's CSR
#: relationship code: my customer learns it from its provider, my peer
#: from a peer, my provider from its customer.
_LEARNED_PREF = {
    REL_CUSTOMER: -int(RoutePref.PROVIDER),
    REL_PEER: -int(RoutePref.PEER),
    REL_PROVIDER: -int(RoutePref.CUSTOMER),
}

#: One session of an AS: ``(neighbor, exports_to_customer,
#: -learned_pref)``.
SessionRow = Tuple[int, bool, int]


def _session_rows(graph: ASGraph) -> Dict[int, Dict[int, SessionRow]]:
    """Every AS's session rows, keyed by neighbour in ASN order.

    Read from the graph's CSR view, whose neighbour order is ASN order.
    """
    csr = graph.csr()
    asns = csr.asns.tolist()
    indptr = csr.indptr.tolist()
    neighbors = csr.neighbors.tolist()
    rels = csr.rel.tolist()
    rows: Dict[int, Dict[int, SessionRow]] = {}
    for i, asn in enumerate(asns):
        rows[asn] = {}
        for k in range(indptr[i], indptr[i + 1]):
            neighbor = asns[neighbors[k]]
            rows[asn][neighbor] = (
                neighbor,
                rels[k] == REL_CUSTOMER,
                _LEARNED_PREF[rels[k]],
            )
    return rows


def _as_route(route: RouteTuple) -> Route:
    """The validated :class:`Route` a caller sees for an engine route."""
    neg_pref, advertised_length, _, path = route
    return Route(
        path=path,
        pref=RoutePref(-neg_pref),
        advertised_length=advertised_length,
    )


@dataclass(frozen=True)
class DynamicsConfig:
    """Timing model of the event-driven engine.

    Attributes:
        seed: Seed of every jitter draw (MRAI intervals, link delays).
            Two engines with equal seeds and equal schedules produce
            bit-identical timelines.  An integer (a numpy integer is
            stored as ``int``; a ``bool`` is refused).
        mrai_s: Base Min Route Advertisement Interval per
            ``(sender, receiver)`` session.  ``0`` disables pacing.
        mrai_jitter: Fraction of ``mrai_s`` randomized away per session
            (the classic 0.75-1.0 spread uses ``0.25``).
        link_delay_s: Base propagation delay of an UPDATE message.
        link_delay_jitter_s: Additive seeded per-link delay spread.
            Delay is fixed per adjacency, so per-session message order
            is FIFO by construction.
        withdraw_mrai: Rate-limit withdrawals too (BGP's WRATE knob).
            Off by default: withdrawals travel immediately, matching
            common implementations.
        record_messages: Also record every UPDATE send in the timeline
            (off by default — message volume dwarfs decision churn).
        max_events: Hard cap on processed events per :meth:`run`; the
            guard that turns an unexpected oscillation into a loud
            :class:`~repro.errors.RoutingError` instead of a hang.  An
            integer, like ``seed``.
    """

    seed: int = 0
    mrai_s: float = 5.0
    mrai_jitter: float = 0.25
    link_delay_s: float = 0.01
    link_delay_jitter_s: float = 0.04
    withdraw_mrai: bool = False
    record_messages: bool = False
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        # Jitter draws hash ``str(seed)``, and a shared scenario baseline
        # is keyed by config equality, under which ``4.0 == 4`` and
        # ``True == 1``: so both fields are stored as plain ints.
        for name in ("seed", "max_events"):
            number = require_int(getattr(self, name), name, RoutingError)
            object.__setattr__(self, name, number)
        if not (self.mrai_s >= 0 and self.link_delay_s > 0):
            raise RoutingError(
                "mrai_s must be >= 0 and link_delay_s must be positive"
            )
        if not 0.0 <= self.mrai_jitter <= 1.0:
            raise RoutingError("mrai_jitter must be in [0, 1]")
        if self.link_delay_jitter_s < 0:
            raise RoutingError("link_delay_jitter_s must be non-negative")
        if not all(
            math.isfinite(value)
            for value in (self.mrai_s, self.link_delay_s, self.link_delay_jitter_s)
        ):
            raise RoutingError(
                "mrai_s, link_delay_s and link_delay_jitter_s must be finite"
            )
        if self.max_events < 1:
            raise RoutingError("max_events must be positive")


@dataclass(frozen=True)
class OriginSpec:
    """Grooming attached to one origin of one prefix."""

    origin_cities: Optional[FrozenSet[City]] = None
    prepends: Mapping[int, int] = field(default_factory=dict)
    suppressed: FrozenSet[int] = frozenset()

    def export_allowed(self, link: Link, neighbor: int) -> bool:
        """Whether the origin announces over ``link`` at all."""
        if neighbor in self.suppressed:
            return False
        if self.origin_cities is None:
            return True
        return any(c in self.origin_cities for c in link.cities)


class DynamicsEngine:
    """Deterministic event-driven BGP over one :class:`ASGraph`.

    The graph itself is never mutated: link failures are an overlay
    (:attr:`down` set) so the same graph object can keep serving the
    static lane, and :meth:`effective_graph` materializes the overlay
    when a static comparison is wanted.  The engine reads the graph's
    sessions once, when it is built, so the graph must not change while
    the engine (or any :meth:`fork` of it) is in use.

    Typical use::

        engine = DynamicsEngine(graph, DynamicsConfig(seed=1))
        engine.schedule_announce(0.0, origin)
        engine.run()                       # to quiescence
        table = engine.routing_table()     # == propagate(graph, origin)
    """

    def __init__(
        self, graph: ASGraph, config: Optional[DynamicsConfig] = None
    ):
        self.graph = graph
        self.config = config or DynamicsConfig()
        self.now = 0.0
        #: Simulated time of the most recent best-route change.
        self.last_change_s = 0.0
        self.events_processed = 0
        self.updates_sent = 0
        self.withdrawals_sent = 0
        self.mrai_deferrals = 0
        #: Decision-level history: external events plus best-route
        #: changes (and raw messages when ``record_messages``), each a
        #: JSON-ready dict.
        self.timeline: List[Dict[str, Any]] = []
        self._queue: List[tuple] = []
        self._seq = 0
        # prefix -> asn -> neighbor -> route (as seen by asn).
        self._adj_in: Dict[str, Dict[int, Dict[int, RouteTuple]]] = {}
        # prefix -> asn -> selected best route.
        self._best: Dict[str, Dict[int, RouteTuple]] = {}
        # prefix -> origin asn -> grooming.
        self._origins: Dict[str, Dict[int, OriginSpec]] = {}
        # (sender, receiver) -> prefix -> last advertised route (None
        # once withdrawn; absent = never advertised).
        self._advertised: Dict[
            Tuple[int, int], Dict[str, Optional[RouteTuple]]
        ] = {}
        self._mrai_until: Dict[Tuple[int, int], float] = {}
        self._pending: Dict[Tuple[int, int], Set[str]] = {}
        self._down: Set[Tuple[int, int]] = set()
        # Per-direction session generation, bumped at link_down: an
        # UPDATE from a previous session that was still in flight when
        # the link flapped must not be delivered into the new session.
        self._epoch: Dict[Tuple[int, int], int] = {}
        self._rows = _session_rows(graph)
        # Jitter memos: each draw is a pure function of (seed, pair).
        self._delays: Dict[Tuple[int, int], float] = {}
        self._mrai_intervals: Dict[Tuple[int, int], float] = {}

    def fork(self) -> "DynamicsEngine":
        """An independent engine in exactly this engine's state.

        Running either engine afterwards leaves the other as it was, and
        each continues exactly as this one would have.  The routing
        state, the session timers, the link overlay, the event queue,
        the clock and counters are copied; so is every timeline entry,
        so a caller that edits one engine's timeline leaves the other's
        alone.  The graph, the config and the session rows never change
        and are shared, and so are the jitter memos: each draw is a pure
        function of ``(config.seed, pair)``, so it does not matter which
        engine fills an entry first.  A fork emits no telemetry.
        """
        twin = object.__new__(type(self))
        twin.graph = self.graph
        twin.config = self.config
        twin.now = self.now
        twin.last_change_s = self.last_change_s
        twin.events_processed = self.events_processed
        twin.updates_sent = self.updates_sent
        twin.withdrawals_sent = self.withdrawals_sent
        twin.mrai_deferrals = self.mrai_deferrals
        twin.timeline = [dict(entry) for entry in self.timeline]
        # Heap entries are immutable tuples: a list copy keeps the order.
        twin._queue = list(self._queue)
        twin._seq = self._seq
        twin._adj_in = {
            prefix: {asn: dict(offers) for asn, offers in holders.items()}
            for prefix, holders in self._adj_in.items()
        }
        twin._best = {
            prefix: dict(holders) for prefix, holders in self._best.items()
        }
        twin._origins = {
            prefix: dict(origins) for prefix, origins in self._origins.items()
        }
        twin._advertised = {
            key: dict(routes) for key, routes in self._advertised.items()
        }
        twin._mrai_until = dict(self._mrai_until)
        twin._pending = {
            key: set(prefixes) for key, prefixes in self._pending.items()
        }
        twin._down = set(self._down)
        twin._epoch = dict(self._epoch)
        twin._rows = self._rows
        twin._delays = self._delays
        twin._mrai_intervals = self._mrai_intervals
        return twin

    # --- scheduling (the external API) --------------------------------

    def _push(self, at_s: float, kind: int, *payload: Any) -> None:
        if not math.isfinite(at_s):
            raise RoutingError(
                f"cannot schedule {_KIND_NAMES[kind]!r} at a non-finite "
                f"time ({at_s!r})"
            )
        if at_s < self.now:
            raise RoutingError(
                f"cannot schedule {_KIND_NAMES[kind]!r} at {at_s:.3f}s in "
                f"the past (now {self.now:.3f}s)"
            )
        heappush(self._queue, (at_s, self._seq, kind, *payload))
        self._seq += 1

    def schedule_announce(
        self,
        at_s: float,
        origin: int,
        prefix: str = DEFAULT_PREFIX,
        origin_cities: Optional[FrozenSet[City]] = None,
        prepends: Optional[Mapping[int, int]] = None,
        suppressed: Optional[FrozenSet[int]] = None,
    ) -> None:
        """Origin starts announcing ``prefix`` at ``at_s`` seconds.

        Grooming arguments match :func:`~repro.bgp.propagation.propagate`
        and are validated eagerly, at schedule time.
        """
        origin = require_int(origin, "origin", RoutingError)
        if origin not in self.graph:
            raise RoutingError(f"origin AS {origin} not in graph")
        suppressed_set = frozenset(suppressed or ())
        prepends = _validate_grooming(
            self.graph, origin, prepends or {}, suppressed_set
        )
        spec = OriginSpec(
            origin_cities=frozenset(origin_cities) if origin_cities else None,
            prepends=prepends,
            suppressed=suppressed_set,
        )
        self._push(at_s, _ANNOUNCE, origin, prefix, spec)

    def schedule_withdraw(
        self, at_s: float, origin: int, prefix: str = DEFAULT_PREFIX
    ) -> None:
        """Origin stops announcing ``prefix`` at ``at_s`` seconds."""
        origin = require_int(origin, "origin", RoutingError)
        if origin not in self.graph:
            raise RoutingError(f"origin AS {origin} not in graph")
        self._push(at_s, _WITHDRAW, origin, prefix)

    def schedule_link_down(self, at_s: float, x: int, y: int) -> None:
        """The adjacency between ``x`` and ``y`` fails at ``at_s``."""
        x, y = require_int(x, "x", RoutingError), require_int(y, "y", RoutingError)
        if not self.graph.has_link(x, y):
            raise RoutingError(f"no link between {x} and {y}")
        self._push(at_s, _LINK_DOWN, min(x, y), max(x, y))

    def schedule_link_up(self, at_s: float, x: int, y: int) -> None:
        """A previously failed adjacency recovers at ``at_s``."""
        x, y = require_int(x, "x", RoutingError), require_int(y, "y", RoutingError)
        if not self.graph.has_link(x, y):
            raise RoutingError(f"no link between {x} and {y}")
        self._push(at_s, _LINK_UP, min(x, y), max(x, y))

    # --- the event loop ------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Process queued events (to quiescence, or through ``until``).

        Returns the number of events processed.  With ``until`` given
        (a finite time), events at times ``<= until`` are processed and
        the clock is advanced to ``until`` so a snapshot reflects that
        instant.
        """
        if until is not None and not math.isfinite(until):
            raise RoutingError(f"run until must be finite, got {until!r}")
        processed = 0
        started_at = self.now
        change_before = self.last_change_s
        queue = self._queue
        max_events = self.config.max_events
        # Handlers change these containers in place, never rebind them.
        down = self._down
        epochs = self._epoch
        adj_in = self._adj_in
        pending_on = self._pending
        mrai_until = self._mrai_until
        best_of = self._best
        redecide = self._redecide
        with span(SPAN_RUN, until=until):
            try:
                while queue and (until is None or queue[0][0] <= until):
                    event = heappop(queue)
                    self.now = event[0]
                    kind = event[2]
                    if kind == _UPDATE:
                        _, _, _, sender, receiver, prefix, route, epoch = event
                        if down and self._is_down(sender, receiver):
                            pass  # delivery raced a link failure: lost
                        elif epoch != epochs.get((sender, receiver), 0):
                            pass  # sent before a flap: the old session's ghost
                        else:
                            offers = adj_in.setdefault(prefix, {}).setdefault(
                                receiver, {}
                            )
                            # The best route is the least offer (an
                            # origin's own route beats every offer), so
                            # an offer that loses to a best from another
                            # neighbour, or the loss of an offer that is
                            # not the best, leaves the decision as it is.
                            holders = best_of.get(prefix)
                            best = holders.get(receiver) if holders else None
                            kept = best is not None and best[2] != sender
                            if route is not None:
                                offers[sender] = route
                                if not (kept and best < route):
                                    redecide(receiver, prefix)
                            elif offers.pop(sender, None) is not None:
                                if not kept:
                                    redecide(receiver, prefix)
                    elif kind == _MRAI:
                        key = event[3:]
                        # A timer restarted since this one was set is stale.
                        if self.now + 1e-12 >= mrai_until.get(key, 0.0):
                            pending = pending_on.pop(key, None)
                            if pending:
                                self._on_mrai(key, pending)
                    else:
                        self._dispatch(kind, event[3:])
                    processed += 1
                    if processed > max_events:
                        raise RoutingError(
                            f"no quiescence after {max_events} "
                            "events — raise DynamicsConfig.max_events or "
                            "check the schedule for an oscillation"
                        )
            finally:
                # A raising handler's event is not counted.
                self.events_processed += processed
            if until is not None and until > self.now:
                self.now = until
            counter(COUNTER_EVENTS, processed)
            if self.last_change_s > change_before:
                histogram(
                    HIST_CONVERGENCE, self.last_change_s - started_at
                )
        return processed

    @property
    def converged(self) -> bool:
        """True when nothing can change state any more.

        The queue may still hold MRAI-expiry no-ops; those never alter
        routes, so convergence means "no update, external event, or
        pending re-advertisement remains".
        """
        if any(self._pending.values()):
            return False
        return all(event[2] == _MRAI for event in self._queue)

    def _dispatch(self, kind: int, payload: tuple) -> None:
        if kind == _ANNOUNCE:
            origin, prefix, spec = payload
            self._origins.setdefault(prefix, {})[origin] = spec
            self._record("announce", asn=origin, prefix=prefix)
            self._redecide(origin, prefix)
        elif kind == _WITHDRAW:
            origin, prefix = payload
            if self._origins.get(prefix, {}).pop(origin, None) is None:
                raise RoutingError(
                    f"AS {origin} does not originate {prefix!r}"
                )
            self._record("withdraw", asn=origin, prefix=prefix)
            self._redecide(origin, prefix)
        elif kind == _LINK_DOWN:
            self._on_link_down(*payload)
        elif kind == _LINK_UP:
            self._on_link_up(*payload)
        else:  # pragma: no cover - internal invariant
            raise RoutingError(f"unknown event kind {kind!r}")

    # --- event handlers ------------------------------------------------

    def _on_link_down(self, a: int, b: int) -> None:
        key = (a, b)
        if key in self._down:
            raise RoutingError(f"link {a}-{b} is already down")
        self._down.add(key)
        self._record("link_down", a=a, b=b)
        # Session reset: both sides forget everything learned over (and
        # advertised over) the adjacency, then re-run their decisions.
        for sender, receiver in ((a, b), (b, a)):
            key = (sender, receiver)
            self._advertised.pop(key, None)
            self._pending.pop(key, None)
            self._mrai_until.pop(key, None)
            self._epoch[key] = self._epoch.get(key, 0) + 1
        for prefix in sorted(self._adj_in):
            for sender, receiver in ((a, b), (b, a)):
                offers = self._adj_in[prefix].get(receiver)
                if offers is not None and offers.pop(sender, None) is not None:
                    self._redecide(receiver, prefix)

    def _on_link_up(self, a: int, b: int) -> None:
        key = (a, b)
        if key not in self._down:
            raise RoutingError(f"link {a}-{b} is not down")
        self._down.discard(key)
        self._record("link_up", a=a, b=b)
        # Session restart: each side offers its current best for every
        # live prefix (advertised state was cleared at link_down, so
        # the session starts fresh).
        prefixes = sorted(set(self._best) | set(self._origins))
        for sender, receiver in ((a, b), (b, a)):
            rows = (self._rows[sender][receiver],)
            for prefix in prefixes:
                best = self._best.get(prefix, {}).get(sender)
                self._offer(sender, rows, prefix, best)

    def _on_mrai(self, key: Tuple[int, int], pending: Set[str]) -> None:
        """Session ``key``'s timer expired: send what waited for it, then
        restart the timer once if an announcement went out."""
        sender, receiver = key
        rows = (self._rows[sender][receiver],)
        announced = False
        for prefix in sorted(pending):
            best = self._best.get(prefix, {}).get(sender)
            if self._offer(sender, rows, prefix, best, expired=True):
                announced = True
        if announced:
            self._restart_mrai(key)

    # --- decision process ----------------------------------------------

    def _redecide(self, asn: int, prefix: str) -> None:
        """Re-select ``asn``'s best route for ``prefix``; on a change,
        record it and offer the new route to every neighbour."""
        origins = self._origins.get(prefix)
        if origins and asn in origins:
            new: Optional[RouteTuple] = (_ORIGIN, 0, -1, (asn,))
        else:
            offers = self._adj_in.get(prefix, {}).get(asn)
            new = min(offers.values()) if offers else None
        holders = self._best.setdefault(prefix, {})
        if new == holders.get(asn):
            return
        now = self.now
        self.last_change_s = now
        if new is None:
            del holders[asn]
            origin = next_hop = length = None
        else:
            holders[asn] = new
            length, path = new[1], new[3]
            origin = path[-1]
            next_hop = new[2] if len(path) > 1 else None
        self.timeline.append(
            {
                "t": round(now, 9),
                "kind": "best_change",
                "asn": asn,
                "prefix": prefix,
                "origin": origin,
                "next_hop": next_hop,
                "advertised_length": length,
            }
        )
        self._offer(asn, self._rows[asn].values(), prefix, new)

    def _exports(
        self,
        route: Optional[RouteTuple],
        sender: int,
        rows: Collection[SessionRow],
        prefix: str,
    ) -> List[Optional[RouteTuple]]:
        """What ``sender``, holding ``route``, advertises over each row.

        Mirrors :meth:`RoutingTable.exported_route` — valley-free export
        filters, loop suppression, and origin grooming — against the
        engine's live state instead of a static table.  Every offer the
        engine makes is decided here.
        """
        if route is None:
            return [None] * len(rows)
        neg_pref, advertised_length, _, path = route
        if neg_pref == _ORIGIN:
            spec = self._origins.get(prefix, {}).get(sender)
            if spec is None:
                return [None] * len(rows)  # withdrawal still settling
            # An origin's path is itself alone: no neighbour is on it.
            link = self.graph.link
            return [
                (
                    learned_pref,
                    advertised_length + int(spec.prepends.get(receiver, 0)) + 1,
                    sender,
                    (receiver,) + path,
                )
                if spec.export_allowed(link(sender, receiver), receiver)
                else None
                for receiver, _, learned_pref in rows
            ]
        # Valley-free: only a customer route goes to peers and providers.
        # Loop prevention: never to a neighbour already on the path.
        to_all = neg_pref == _CUSTOMER
        length = advertised_length + 1
        return [
            (learned_pref, length, sender, (receiver,) + path)
            if (to_all or to_customer) and receiver not in path
            else None
            for receiver, to_customer, learned_pref in rows
        ]

    # --- the wire -------------------------------------------------------

    def _offer(
        self,
        sender: int,
        rows: Collection[SessionRow],
        prefix: str,
        route: Optional[RouteTuple],
        expired: bool = False,
    ) -> bool:
        """Offer ``route``'s exports over each live session of ``rows``.

        A changed export goes on the wire at once when the session's
        MRAI timer is open, and each announcement restarts the timer (a
        withdrawal need not wait unless ``withdraw_mrai``); otherwise
        ``prefix`` waits in the session's pending set for the timer.  An
        unchanged export drops ``prefix`` from that set.  With
        ``expired`` the sessions' timers have just run out: every
        changed export goes out and the caller restarts the timers.
        Returns whether an announcement went out.
        """
        now = self.now
        down = self._down
        advertised_on = self._advertised
        pending_on = self._pending
        mrai_until = self._mrai_until
        queue = self._queue
        config = self.config
        announced = False
        for row, export in zip(rows, self._exports(route, sender, rows, prefix)):
            receiver = row[0]
            if down and self._is_down(sender, receiver):
                continue
            key = (sender, receiver)
            advertised = advertised_on.get(key)
            if advertised is None:
                # Nothing sent on the session yet, so nothing waits on
                # its timer: an unchanged withdrawal is a no-op.
                if export is None:
                    continue
            elif export == advertised.get(prefix):
                pending = pending_on.get(key)
                if pending:
                    pending.discard(prefix)
                continue
            if not (
                expired
                or now >= mrai_until.get(key, 0.0)
                or (export is None and not config.withdraw_mrai)
            ):
                pending_on.setdefault(key, set()).add(prefix)
                self.mrai_deferrals += 1
                continue
            if advertised is None:
                advertised = advertised_on[key] = {}
            advertised[prefix] = export
            pending = pending_on.get(key)
            if pending:
                pending.discard(prefix)
            delay = self._delays.get(key)
            if delay is None:
                delay = self._link_delay(sender, receiver)
            heappush(
                queue,
                (
                    now + delay,
                    self._seq,
                    _UPDATE,
                    sender,
                    receiver,
                    prefix,
                    export,
                    self._epoch.get(key, 0),
                ),
            )
            self._seq += 1
            if export is None:
                self.withdrawals_sent += 1
            else:
                self.updates_sent += 1
                announced = True
                if not expired:
                    self._restart_mrai(key)
            if config.record_messages:
                self._record(
                    "msg",
                    sender=sender,
                    receiver=receiver,
                    prefix=prefix,
                    withdraw=export is None,
                )
        return announced

    def _is_down(self, x: int, y: int) -> bool:
        return ((x, y) if x < y else (y, x)) in self._down

    def _link_delay(self, x: int, y: int) -> float:
        delay = self._delays.get((x, y))
        if delay is None:
            a, b = (x, y) if x < y else (y, x)
            jitter = self.config.link_delay_jitter_s * unit_draw(
                self.config.seed, a, b, "delay"
            )
            delay = self.config.link_delay_s + jitter
            self._delays[(a, b)] = self._delays[(b, a)] = delay
        return delay

    def _mrai_interval(self, key: Tuple[int, int]) -> float:
        interval = self._mrai_intervals.get(key)
        if interval is None:
            spread = self.config.mrai_jitter * unit_draw(
                self.config.seed, key[0], key[1], "mrai"
            )
            interval = self.config.mrai_s * (1.0 - spread)
            self._mrai_intervals[key] = interval
        return interval

    def _restart_mrai(self, key: Tuple[int, int]) -> None:
        if self.config.mrai_s <= 0:
            return
        interval = self._mrai_intervals.get(key)
        if interval is None:
            interval = self._mrai_interval(key)
        until = self.now + interval
        self._mrai_until[key] = until
        heappush(self._queue, (until, self._seq, _MRAI, *key))
        self._seq += 1

    # --- observation ----------------------------------------------------

    def _record(self, kind: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {"t": round(self.now, 9), "kind": kind}
        entry.update(fields)
        self.timeline.append(entry)

    def routes(self, prefix: str = DEFAULT_PREFIX) -> Dict[int, Route]:
        """Best route per AS for ``prefix`` (a copy), origins included.

        Each route is built by the validating :class:`Route`
        constructor.
        """
        return {
            asn: _as_route(route)
            for asn, route in self._best.get(prefix, {}).items()
        }

    def best_routes(
        self, prefix: str = DEFAULT_PREFIX
    ) -> Dict[int, Tuple[int, RouteTuple]]:
        """Each AS's ``(origin, route)`` for ``prefix`` (a copy), origins
        included.

        ``route`` is the engine's own tuple, not a validated
        :class:`Route`: the snapshot is for callers that count routes,
        read origins and compare states, and two snapshots are equal
        exactly when every AS holds the same route.
        """
        return {
            asn: (route[3][-1], route)
            for asn, route in self._best.get(prefix, {}).items()
        }

    def origins(self, prefix: str = DEFAULT_PREFIX) -> Tuple[int, ...]:
        """ASes currently originating ``prefix``, ascending."""
        return tuple(sorted(self._origins.get(prefix, {})))

    def routing_table(self, prefix: str = DEFAULT_PREFIX) -> RoutingTable:
        """Snapshot the current state as a static :class:`RoutingTable`.

        Requires exactly one active origin (a hijacked prefix has two
        states of the world; use :meth:`routes` for those).  After
        quiescence following a lone announcement, the result is
        bit-identical to :func:`~repro.bgp.propagation.propagate` —
        the lane-agreement contract.
        """
        active = self._origins.get(prefix, {})
        if len(active) != 1:
            raise RoutingError(
                f"prefix {prefix!r} has {len(active)} active origins; "
                "a RoutingTable snapshot needs exactly one"
            )
        ((origin, spec),) = active.items()
        table = RoutingTable(
            graph=self.graph,
            origin=origin,
            origin_cities=spec.origin_cities,
            prepends=dict(spec.prepends),
            suppressed=spec.suppressed,
        )
        table._routes.update(self.routes(prefix))
        return table

    def effective_graph(self) -> ASGraph:
        """The topology minus currently failed links, as a new graph.

        This is what the static lane must be run over to reproduce the
        engine's post-failure fixpoint.
        """
        graph = ASGraph()
        for asys in self.graph.ases():
            graph.add_as(asys)
        for link in self.graph.links():
            if link.key() not in self._down:
                graph.add_link(link)
        return graph

    def timeline_events(
        self, kinds: Optional[Iterable[str]] = None
    ) -> List[Dict[str, Any]]:
        """The timeline (optionally filtered to ``kinds``), JSON-ready."""
        if kinds is None:
            return list(self.timeline)
        wanted = set(kinds)
        return [e for e in self.timeline if e["kind"] in wanted]
