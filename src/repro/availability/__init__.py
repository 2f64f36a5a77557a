"""Availability analyses (Section 4 of the paper).

"End-to-end latency and throughput are not the only (or even most
important) metrics. Availability is the primary concern of content and
cloud providers."  This subpackage implements the failure studies the
section sketches:

* :func:`anycast_vs_dns_failover` — "Anycast provides resilience
  against site outages and avoids availability problems that can be
  induced by DNS caching": fail a front-end and compare how anycast
  reconverges versus how DNS-redirected clients stay pinned until their
  TTL expires.
* :func:`peering_failure_study` — "a larger fraction of the capacity to
  a small peer may be concentrated on a single interconnection or
  router as compared to the redundant capacity to large providers, and
  so a failure can have an outsized impact": quantify per-peer-link
  traffic at risk and its relationship to interconnect redundancy.
"""

from repro.availability.failures import fail_pop_site
from repro.availability.analysis import (
    FailoverResult,
    PeerRisk,
    PeeringRiskResult,
    RecoveryResult,
    anycast_vs_dns_failover,
    peering_failure_study,
    scenario_recovery,
)

__all__ = [
    "fail_pop_site",
    "FailoverResult",
    "PeerRisk",
    "PeeringRiskResult",
    "RecoveryResult",
    "anycast_vs_dns_failover",
    "peering_failure_study",
    "scenario_recovery",
]
