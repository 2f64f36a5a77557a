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

Routing-plane events (hijacks, withdrawals) are not faults of the
runner: :mod:`repro.bgp.scenarios` schedules them on the event engine.
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

__all__ = [
    "CORRUPT_KIND",
    "CRASH_EXIT_STATUS",
    "FAULT_KINDS",
    "FaultPlan",
    "InjectedFault",
    "apply_fault",
    "corrupt_file",
    "maybe_inject",
    "parse_fault_spec",
]
