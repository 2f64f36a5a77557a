"""Failure injection on a generated Internet.

Failures mutate the :class:`~repro.topology.generator.Internet` in
place, so inject into a fresh instance (rebuild via the topology
config) rather than a shared fixture.  (Routing scenarios that only
need an adjacency to disappear from the *BGP* view use the
non-mutating overlay in :class:`repro.bgp.dynamics.DynamicsEngine`,
which never touches the graph at all.)

A PoP *site* failure takes down the provider's presence at one city:
every provider interconnect at that city disappears and the anycast/
unicast announcements there stop.  The WAN fiber through the city is
assumed to keep passing traffic — a site outage is a building problem,
not a cable cut.
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.errors import TopologyError
from repro.geo import City
from repro.topology import Internet
from repro.topology.asgraph import link_between


def fail_pop_site(internet: Internet, pop_code: str) -> FrozenSet[City]:
    """Take the provider's site at ``pop_code`` offline.

    Removes the PoP's city from every provider interconnect; links whose
    only interconnect was that city disappear.  Returns the set of
    cities the provider still announces from, which callers pass as the
    post-failure ``origin_cities`` (surviving announcement sites).

    Raises:
        TopologyError: if the PoP is unknown or it is the provider's
            last site.
    """
    pop = internet.wan.pop(pop_code)  # raises on unknown code
    survivors = frozenset(
        p.city for p in internet.wan.pops if p.code != pop_code
    )
    if not survivors:
        raise TopologyError("cannot fail the provider's last site")
    provider = internet.provider_asn
    graph = internet.graph
    for neighbor in list(graph.neighbors(provider)):
        link = graph.link(provider, neighbor)
        if pop.city not in link.cities:
            continue
        remaining: List[City] = [c for c in link.cities if c != pop.city]
        graph.remove_link(provider, neighbor)
        if not remaining:
            continue  # the peer only met us at the failed site
        graph.add_link(
            link_between(
                provider,
                neighbor,
                link.relationship,
                remaining,
                kind=link.kind,
                customer_asn=link.customer_asn,
                capacity_gbps=link.capacity_gbps,
            )
        )
    return survivors
