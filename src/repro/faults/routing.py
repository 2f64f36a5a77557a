"""Routing-plane fault plans: scheduled BGP scenario events.

The rest of :mod:`repro.faults` injects *infrastructure* failure —
crashed workers, timeouts, torn cache writes.  This module
adds the routing plane: a :class:`ScenarioFaultPlan` is a deterministic
schedule of announce / withdraw / link-flap events, grouped into phases
that each run to quiescence before the next phase fires.  It is plain
data (no engine import), so a plan can be hashed, shipped across a
worker boundary, or embedded in a campaign spec exactly like a
:class:`~repro.faults.plan.FaultPlan`; the event-driven engine that
executes it lives in :mod:`repro.bgp.dynamics`, and the curated
scenarios built on top (prefix hijack, more-specific hijack, the
withdrawal "origin outage" cascade) in :mod:`repro.bgp.scenarios`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import FaultError, require_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.bgp.dynamics import DynamicsEngine

#: Event kinds a routing fault plan may schedule, mirroring the
#: external API of :class:`repro.bgp.dynamics.DynamicsEngine`.
ROUTE_EVENT_KINDS = ("announce", "withdraw", "link_down", "link_up")


@dataclass(frozen=True)
class RouteEvent:
    """One scheduled routing event inside a plan phase.

    Attributes:
        kind: One of :data:`ROUTE_EVENT_KINDS`.
        offset_s: Seconds after the phase starts (phase start is the
            quiescence instant of the previous phase).
        asn: The origin (announce/withdraw) or one link endpoint.
        peer: The other link endpoint; required for link events.  Both
            are integers (a numpy integer is stored as ``int``; a
            ``bool`` is refused).
        prefix: Prefix key the event applies to (ignored by link
            events, which affect every prefix crossing the adjacency).
    """

    kind: str
    offset_s: float
    asn: int
    peer: Optional[int] = None
    prefix: str = "prefix"

    def __post_init__(self) -> None:
        if self.kind not in ROUTE_EVENT_KINDS:
            raise FaultError(
                f"unknown route event kind {self.kind!r}; "
                f"expected one of {ROUTE_EVENT_KINDS}"
            )
        if not (math.isfinite(self.offset_s) and self.offset_s >= 0):
            raise FaultError(
                f"offset_s must be finite and non-negative, got {self.offset_s!r}"
            )
        if self.kind in ("link_down", "link_up") and self.peer is None:
            raise FaultError(f"{self.kind} events need a peer endpoint")
        # The timeline records these numbers as given, and scenarios
        # share an opening phase by event equality, under which
        # ``1.0 == 1`` and ``True == 1``: so both are stored as ints.
        for name in ("asn", "peer"):
            value = getattr(self, name)
            if value is None and name == "peer":
                continue
            object.__setattr__(self, name, require_int(value, name, FaultError))


@dataclass(frozen=True)
class ScenarioFaultPlan:
    """A phased, deterministic routing-fault schedule.

    Each phase's events are scheduled relative to the engine clock at
    phase start, then the engine runs to quiescence — so "inject the
    hijack *after* the victim's announcement has converged" is
    expressible without guessing convergence times.  Applying the same
    plan to the same graph and engine seed reproduces the timeline bit
    for bit.
    """

    name: str
    phases: Tuple[Tuple[RouteEvent, ...], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultError("plan name cannot be empty")
        if not self.phases or any(not phase for phase in self.phases):
            raise FaultError("plan needs at least one non-empty phase")

    @property
    def events(self) -> Tuple[RouteEvent, ...]:
        """All events across phases, in schedule order."""
        return tuple(e for phase in self.phases for e in phase)

    def apply(self, engine: DynamicsEngine) -> List[Tuple[float, float]]:
        """Run every phase on a :class:`~repro.bgp.dynamics.DynamicsEngine`.

        Returns one ``(inject_s, quiesce_s)`` pair per phase: the engine
        time the phase's first event fired, and the time of the last
        state change it caused (the phase's reconvergence instant).
        """
        boundaries: List[Tuple[float, float]] = []
        for phase in self.phases:
            start = engine.now
            for event in phase:
                at_s = start + event.offset_s
                if event.kind == "announce":
                    engine.schedule_announce(at_s, event.asn, event.prefix)
                elif event.kind == "withdraw":
                    engine.schedule_withdraw(at_s, event.asn, event.prefix)
                elif event.kind == "link_down":
                    engine.schedule_link_down(at_s, event.asn, event.peer)
                else:
                    engine.schedule_link_up(at_s, event.asn, event.peer)
            engine.run()
            inject = start + min(event.offset_s for event in phase)
            boundaries.append((inject, engine.last_change_s))
        return boundaries

    def describe(self) -> str:
        """Short human-readable summary, e.g. for logs and reports."""
        counts = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return (
            f"ScenarioFaultPlan({self.name}, {len(self.phases)} "
            f"phase(s), {inner})"
        )
