"""The event-driven BGP engine before its tuple rewrite, kept as an oracle.

:class:`repro.bgp.dynamics.DynamicsEngine` runs its inner loop on route
tuples, per-AS session rows and memoised jitter.  This module keeps the
original engine, which builds and validates a
:class:`~repro.bgp.Route` at every hop, re-sorts neighbours and looks up
each link, so tests can demand that the two agree on every timeline,
counter, clock, route and error, on random schedules and on the curated
scenarios.
"""

from __future__ import annotations

import copy
import heapq
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.bgp.dynamics import (
    COUNTER_EVENTS,
    DEFAULT_PREFIX,
    HIST_CONVERGENCE,
    SPAN_RUN,
    DynamicsConfig,
    OriginSpec,
)
from repro.bgp.propagation import (
    RoutingTable,
    _pref_at_receiver,
    _validate_grooming,
)
from repro.bgp.routes import Route, RoutePref
from repro.errors import RoutingError
from repro.faults.plan import unit_draw as _unit_draw
from repro.geo import City
from repro.obs.trace import counter, histogram, span
from repro.topology import ASGraph, Relationship


def _selection_key(route: Route) -> Tuple[int, int, int]:
    """Lower is better: the static lane's decision order."""
    return (-int(route.pref), route.advertised_length, route.next_hop)


class DynamicsEngine:
    """Deterministic event-driven BGP over one :class:`ASGraph`.

    The graph itself is never mutated: link failures are an overlay
    (:attr:`down` set) so the same graph object can keep serving the
    static lane, and :meth:`effective_graph` materializes the overlay
    when a static comparison is wanted.

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
        self._queue: List[Tuple[float, int, str, tuple]] = []
        self._seq = 0
        # prefix -> asn -> neighbor -> route (as seen by asn).
        self._adj_in: Dict[str, Dict[int, Dict[int, Route]]] = {}
        # prefix -> asn -> selected best route.
        self._best: Dict[str, Dict[int, Route]] = {}
        # prefix -> origin asn -> grooming.
        self._origins: Dict[str, Dict[int, OriginSpec]] = {}
        # (sender, receiver) -> prefix -> last advertised route (None
        # once withdrawn; absent = never advertised).
        self._advertised: Dict[Tuple[int, int], Dict[str, Optional[Route]]] = {}
        self._mrai_until: Dict[Tuple[int, int], float] = {}
        self._pending: Dict[Tuple[int, int], Set[str]] = {}
        self._down: Set[Tuple[int, int]] = set()
        # Per-direction session generation, bumped at link_down: an
        # UPDATE from a previous session that was still in flight when
        # the link flapped must not be delivered into the new session.
        self._epoch: Dict[Tuple[int, int], int] = {}

    def fork(self) -> "DynamicsEngine":
        """An independent engine in exactly this engine's state.

        A deep copy of everything but the graph, which is shared: written
        apart from the shipped engine's field-by-field copy, so the
        scenario oracle test does not trust the code it checks.
        """
        return copy.deepcopy(self, {id(self.graph): self.graph})

    # --- scheduling (the external API) --------------------------------

    def _push(self, at_s: float, kind: str, payload: tuple) -> None:
        if at_s < self.now:
            raise RoutingError(
                f"cannot schedule {kind!r} at {at_s:.3f}s in the past "
                f"(now {self.now:.3f}s)"
            )
        heapq.heappush(self._queue, (at_s, self._seq, kind, payload))
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
        if origin not in self.graph:
            raise RoutingError(f"origin AS {origin} not in graph")
        prepends = dict(prepends or {})
        suppressed_set = frozenset(suppressed or ())
        _validate_grooming(self.graph, origin, prepends, suppressed_set)
        spec = OriginSpec(
            origin_cities=frozenset(origin_cities) if origin_cities else None,
            prepends=prepends,
            suppressed=suppressed_set,
        )
        self._push(at_s, "announce", (origin, prefix, spec))

    def schedule_withdraw(
        self, at_s: float, origin: int, prefix: str = DEFAULT_PREFIX
    ) -> None:
        """Origin stops announcing ``prefix`` at ``at_s`` seconds."""
        if origin not in self.graph:
            raise RoutingError(f"origin AS {origin} not in graph")
        self._push(at_s, "withdraw", (origin, prefix))

    def schedule_link_down(self, at_s: float, x: int, y: int) -> None:
        """The adjacency between ``x`` and ``y`` fails at ``at_s``."""
        if not self.graph.has_link(x, y):
            raise RoutingError(f"no link between {x} and {y}")
        self._push(at_s, "link_down", (min(x, y), max(x, y)))

    def schedule_link_up(self, at_s: float, x: int, y: int) -> None:
        """A previously failed adjacency recovers at ``at_s``."""
        if not self.graph.has_link(x, y):
            raise RoutingError(f"no link between {x} and {y}")
        self._push(at_s, "link_up", (min(x, y), max(x, y)))

    # --- the event loop ------------------------------------------------

    def run(self, until: Optional[float] = None) -> int:
        """Process queued events (to quiescence, or through ``until``).

        Returns the number of events processed.  With ``until`` given,
        events at times ``<= until`` are processed and the clock is
        advanced to ``until`` so a snapshot reflects that instant.
        """
        processed = 0
        started_at = self.now
        change_before = self.last_change_s
        with span(SPAN_RUN, until=until):
            while self._queue and (
                until is None or self._queue[0][0] <= until
            ):
                at_s, _, kind, payload = heapq.heappop(self._queue)
                self.now = at_s
                self._dispatch(kind, payload)
                processed += 1
                self.events_processed += 1
                if processed > self.config.max_events:
                    raise RoutingError(
                        f"no quiescence after {self.config.max_events} "
                        "events — raise DynamicsConfig.max_events or "
                        "check the schedule for an oscillation"
                    )
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
        return all(kind == "mrai" for _, _, kind, _ in self._queue)

    def _dispatch(self, kind: str, payload: tuple) -> None:
        if kind == "announce":
            origin, prefix, spec = payload
            self._origins.setdefault(prefix, {})[origin] = spec
            self._record(kind, asn=origin, prefix=prefix)
            self._redecide(origin, prefix)
        elif kind == "withdraw":
            origin, prefix = payload
            if self._origins.get(prefix, {}).pop(origin, None) is None:
                raise RoutingError(
                    f"AS {origin} does not originate {prefix!r}"
                )
            self._record(kind, asn=origin, prefix=prefix)
            self._redecide(origin, prefix)
        elif kind == "link_down":
            self._on_link_down(*payload)
        elif kind == "link_up":
            self._on_link_up(*payload)
        elif kind == "update":
            self._on_update(*payload)
        elif kind == "mrai":
            self._on_mrai(*payload)
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
        # _maybe_send treats the neighbor as fresh).
        prefixes = sorted(set(self._best) | set(self._origins))
        for sender, receiver in ((a, b), (b, a)):
            for prefix in prefixes:
                self._maybe_send(sender, receiver, prefix)

    def _on_update(
        self,
        sender: int,
        receiver: int,
        prefix: str,
        route: Optional[Route],
        epoch: int,
    ) -> None:
        if self._is_down(sender, receiver):
            return  # delivery raced a link failure: the message is lost
        if epoch != self._epoch.get((sender, receiver), 0):
            return  # sent before a flap: the old session's ghost
        offers = self._adj_in.setdefault(prefix, {}).setdefault(receiver, {})
        if route is None:
            if offers.pop(sender, None) is None:
                return
        else:
            offers[sender] = route
        self._redecide(receiver, prefix)

    def _on_mrai(self, sender: int, receiver: int) -> None:
        key = (sender, receiver)
        if self.now + 1e-12 < self._mrai_until.get(key, 0.0):
            return  # stale timer superseded by a later restart
        pending = sorted(self._pending.pop(key, ()))
        sent_announce = False
        for prefix in pending:
            if self._transmit_if_changed(sender, receiver, prefix):
                sent_announce = True
        if sent_announce:
            self._restart_mrai(key)

    # --- decision process ----------------------------------------------

    def _decide(self, asn: int, prefix: str) -> Optional[Route]:
        if asn in self._origins.get(prefix, {}):
            return Route(
                path=(asn,), pref=RoutePref.ORIGIN, advertised_length=0
            )
        offers = self._adj_in.get(prefix, {}).get(asn)
        if not offers:
            return None
        best: Optional[Route] = None
        for neighbor in sorted(offers):
            route = offers[neighbor]
            if best is None or _selection_key(route) < _selection_key(best):
                best = route
        return best

    def _redecide(self, asn: int, prefix: str) -> None:
        new = self._decide(asn, prefix)
        holders = self._best.setdefault(prefix, {})
        old = holders.get(asn)
        if new == old:
            return
        if new is None:
            del holders[asn]
        else:
            holders[asn] = new
        self.last_change_s = self.now
        self._record(
            "best_change",
            asn=asn,
            prefix=prefix,
            origin=None if new is None else new.origin,
            next_hop=(
                None if new is None or new.as_hops == 0 else new.next_hop
            ),
            advertised_length=(
                None if new is None else new.advertised_length
            ),
        )
        for neighbor in sorted(self.graph.neighbors(asn)):
            if self._is_down(asn, neighbor):
                continue
            self._maybe_send(asn, neighbor, prefix)

    def _export(
        self, sender: int, receiver: int, prefix: str
    ) -> Optional[Route]:
        """What ``sender`` advertises to ``receiver`` right now.

        Mirrors :meth:`RoutingTable.exported_route` — valley-free export
        filters, loop suppression, and origin grooming — against the
        engine's live state instead of a static table.
        """
        route = self._best.get(prefix, {}).get(sender)
        if route is None:
            return None
        if receiver in route.path:
            return None  # loop prevention
        link = self.graph.link(sender, receiver)
        extra = 0
        if route.pref is RoutePref.ORIGIN:
            spec = self._origins.get(prefix, {}).get(sender)
            if spec is None:
                return None  # withdrawal still settling
            if not spec.export_allowed(link, receiver):
                return None
            extra = int(spec.prepends.get(receiver, 0))
        exporting_to_customer = (
            link.relationship is Relationship.CUSTOMER
            and link.customer_asn == receiver
        )
        if not exporting_to_customer and route.pref not in (
            RoutePref.CUSTOMER,
            RoutePref.ORIGIN,
        ):
            return None
        learned_pref = _pref_at_receiver(link, receiver)
        return route.extended_to(receiver, learned_pref, extra_length=extra)

    # --- the wire -------------------------------------------------------

    def _is_down(self, x: int, y: int) -> bool:
        return (min(x, y), max(x, y)) in self._down

    def _link_delay(self, x: int, y: int) -> float:
        a, b = (x, y) if x < y else (y, x)
        jitter = self.config.link_delay_jitter_s * _unit_draw(
            self.config.seed, a, b, "delay"
        )
        return self.config.link_delay_s + jitter

    def _mrai_interval(self, key: Tuple[int, int]) -> float:
        spread = self.config.mrai_jitter * _unit_draw(
            self.config.seed, key[0], key[1], "mrai"
        )
        return self.config.mrai_s * (1.0 - spread)

    def _restart_mrai(self, key: Tuple[int, int]) -> None:
        if self.config.mrai_s <= 0:
            return
        until = self.now + self._mrai_interval(key)
        self._mrai_until[key] = until
        self._push(until, "mrai", key)

    def _transmit_if_changed(
        self, sender: int, receiver: int, prefix: str
    ) -> bool:
        """Send the current export if it differs from the last one sent.

        Returns True when an *announcement* (not a withdrawal) went out,
        which is what restarts the MRAI timer.
        """
        export = self._export(sender, receiver, prefix)
        advertised = self._advertised.setdefault((sender, receiver), {})
        if export == advertised.get(prefix):
            return False
        advertised[prefix] = export
        self._pending.get((sender, receiver), set()).discard(prefix)
        self._push(
            self.now + self._link_delay(sender, receiver),
            "update",
            (
                sender,
                receiver,
                prefix,
                export,
                self._epoch.get((sender, receiver), 0),
            ),
        )
        if export is None:
            self.withdrawals_sent += 1
        else:
            self.updates_sent += 1
        if self.config.record_messages:
            self._record(
                "msg",
                sender=sender,
                receiver=receiver,
                prefix=prefix,
                withdraw=export is None,
            )
        return export is not None

    def _maybe_send(self, sender: int, receiver: int, prefix: str) -> None:
        key = (sender, receiver)
        export = self._export(sender, receiver, prefix)
        if export == self._advertised.get(key, {}).get(prefix):
            self._pending.get(key, set()).discard(prefix)
            return
        timer_open = self.now >= self._mrai_until.get(key, 0.0)
        is_withdrawal = export is None
        if timer_open or (is_withdrawal and not self.config.withdraw_mrai):
            if self._transmit_if_changed(sender, receiver, prefix):
                self._restart_mrai(key)
            return
        self._pending.setdefault(key, set()).add(prefix)
        self.mrai_deferrals += 1

    # --- observation ----------------------------------------------------

    def _record(self, kind: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {"t": round(self.now, 9), "kind": kind}
        entry.update(fields)
        self.timeline.append(entry)

    def routes(self, prefix: str = DEFAULT_PREFIX) -> Dict[int, Route]:
        """Best route per AS for ``prefix`` (a copy), origins included."""
        return dict(self._best.get(prefix, {}))

    def best_routes(
        self, prefix: str = DEFAULT_PREFIX
    ) -> Dict[int, Tuple[int, Route]]:
        """Each AS's ``(origin, route)`` for ``prefix`` (a copy), origins
        included."""
        return {
            asn: (route.origin, route)
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
        table._routes.update(self._best.get(prefix, {}))
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
