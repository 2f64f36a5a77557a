"""BGP simulator: route propagation, decision process, grooming.

The simulator works at AS granularity with the standard Gao-Rexford
model: routes learned from customers are exported to everyone; routes
learned from peers or providers are exported only to customers.  Route
selection prefers customer routes over peer routes over provider routes,
then shorter (prepend-adjusted) AS paths, then the lowest next-hop ASN —
a deterministic stand-in for the protocol's arbitrary final tie-breaks.

Announcements can be restricted to a set of origination cities
(:func:`~repro.bgp.propagation.propagate`'s ``origin_cities``), which is
how unicast front-end prefixes, DC-scoped Standard-tier prefixes, and
grooming by selective announcement are all expressed.

Beyond the static stable state, :mod:`repro.bgp.dynamics` runs the same
decision process event-by-event (announce, withdraw, link flaps, MRAI
pacing), and :mod:`repro.bgp.scenarios` packages hijack and
withdrawal-cascade scenarios on top of it; see ``docs/dynamics.md``.
"""

from repro.bgp.routes import Route, RoutePref, NeighborRoute
from repro.bgp.propagation import (
    PropagationRequest,
    RoutingTable,
    propagate,
    propagate_many,
    propagate_states,
)
from repro.bgp.decision import EgressDecisionProcess, RouteClass, classify_route
from repro.bgp.grooming import Grooming
from repro.bgp.sweep_study import PropagationSweepStudy, propagation_shared_inputs
from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine, OriginSpec
from repro.bgp.scenarios import (
    SCENARIOS,
    ScenarioResult,
    more_specific_hijack,
    prefix_hijack,
    run_scenario,
    withdrawal_cascade,
)

__all__ = [
    "Route",
    "RoutePref",
    "NeighborRoute",
    "PropagationRequest",
    "RoutingTable",
    "propagate",
    "propagate_many",
    "propagate_states",
    "EgressDecisionProcess",
    "RouteClass",
    "classify_route",
    "Grooming",
    "PropagationSweepStudy",
    "propagation_shared_inputs",
    "DynamicsConfig",
    "DynamicsEngine",
    "OriginSpec",
    "SCENARIOS",
    "ScenarioResult",
    "more_specific_hijack",
    "prefix_hijack",
    "run_scenario",
    "withdrawal_cascade",
]
