"""repro.faults — deterministic fault injection for campaigns.

Campaigns live with partial failure (worker crashes, timeouts,
transient errors, corrupt cache entries); this package makes that
failure *reproducible* so the runner's recovery machinery can be
exercised on demand:

* :mod:`repro.faults.plan` — :class:`FaultPlan`, seeded per-attempt
  fault decisions (timeout, crash, transient error, slowdown) plus
  per-spec cache corruption, pure in ``(seed, spec hash, attempt)``.
* :mod:`repro.faults.inject` — the side effects behind each decision,
  and :class:`InjectedFault`, the transient-error type.
* :mod:`repro.faults.chaos_smoke` — the end-to-end chaos scenario CI
  runs: a campaign under a seeded plan, SIGKILL'd mid-run, resumed,
  and checked byte-for-byte against an uninterrupted reference.
* :mod:`repro.faults.routing` — the routing plane:
  :class:`ScenarioFaultPlan`, a phased schedule of announce / withdraw
  / link-flap events executed by the event-driven engine in
  :mod:`repro.bgp.dynamics` (curated scenarios: hijack, more-specific
  hijack, withdrawal cascade — see :mod:`repro.bgp.scenarios`).

See ``docs/robustness.md`` for the fault model and resume semantics.
"""

from repro.faults.plan import (
    CORRUPT_KIND,
    FAULT_KINDS,
    FaultPlan,
    parse_fault_spec,
)
from repro.faults.inject import (
    CRASH_EXIT_STATUS,
    InjectedFault,
    apply_fault,
    corrupt_file,
    maybe_inject,
)
from repro.faults.routing import (
    ROUTE_EVENT_KINDS,
    RouteEvent,
    ScenarioFaultPlan,
)

__all__ = [
    "CORRUPT_KIND",
    "CRASH_EXIT_STATUS",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "ROUTE_EVENT_KINDS",
    "RouteEvent",
    "ScenarioFaultPlan",
    "apply_fault",
    "corrupt_file",
    "maybe_inject",
    "parse_fault_spec",
]
