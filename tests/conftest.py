"""Shared fixtures: a hand-built toy AS graph and small generated worlds.

Expensive fixtures are session-scoped; tests must treat them as
read-only (anything mutating a topology builds its own).
"""

from __future__ import annotations

import pytest

from repro.geo import city_named
from repro.topology import (
    ASGraph,
    ASRole,
    AutonomousSystem,
    Internet,
    PeeringKind,
    Relationship,
    TopologyConfig,
    build_internet,
)
from repro.topology.asgraph import link_between
from repro.topology.generator import DEFAULT_POP_CITIES
from repro.workloads import assign_ldns, generate_client_prefixes

#: A compact PoP set for tests that do not need the full footprint.
SMALL_POPS = tuple(
    (code, name)
    for code, name in DEFAULT_POP_CITIES
    if code in ("iad", "ord", "cbf", "sfo", "lhr", "fra", "bom", "sin", "nrt", "gru", "syd", "jnb")
)

# Toy-graph ASNs, referenced throughout the BGP tests.
PROVIDER = 1
T1A, T1B = 10, 11
TR1, TR2 = 100, 101
E1, E2 = 1000, 1001


def build_toy_graph() -> ASGraph:
    """A small, hand-wired topology with known-best routes.

    Shape::

        T1A ---peer--- T1B          Tier-1 clique
         |  \\           |
        TR1  \\         TR2         transits (customers of one Tier-1)
         |    provider   |
         E1   /    \\    E2          eyeballs (customers of transits)
          peer      public peer
        (E1-provider PNI, TR2-provider public peering)

    The provider buys transit from T1A.  E1 additionally has a PNI with
    the provider; TR2 peers with it over a public exchange.
    """
    graph = ASGraph()
    ny = city_named("New York")
    chi = city_named("Chicago")
    lon = city_named("London")
    fra = city_named("Frankfurt")
    graph.add_as(
        AutonomousSystem(PROVIDER, "provider", ASRole.CONTENT, (ny, lon))
    )
    graph.add_as(AutonomousSystem(T1A, "t1a", ASRole.TIER1, (ny, chi, lon, fra)))
    graph.add_as(AutonomousSystem(T1B, "t1b", ASRole.TIER1, (ny, chi, lon, fra)))
    graph.add_as(AutonomousSystem(TR1, "tr1", ASRole.TRANSIT, (ny, chi)))
    graph.add_as(AutonomousSystem(TR2, "tr2", ASRole.TRANSIT, (lon, fra)))
    graph.add_as(AutonomousSystem(E1, "e1", ASRole.EYEBALL, (chi,), user_weight=5.0))
    graph.add_as(AutonomousSystem(E2, "e2", ASRole.EYEBALL, (fra,), user_weight=3.0))

    graph.add_link(link_between(T1A, T1B, Relationship.PEER, [ny, lon]))
    graph.add_link(
        link_between(TR1, T1A, Relationship.CUSTOMER, [ny, chi], customer_asn=TR1)
    )
    graph.add_link(
        link_between(TR2, T1B, Relationship.CUSTOMER, [lon, fra], customer_asn=TR2)
    )
    graph.add_link(
        link_between(E1, TR1, Relationship.CUSTOMER, [chi], customer_asn=E1)
    )
    graph.add_link(
        link_between(E2, TR2, Relationship.CUSTOMER, [fra], customer_asn=E2)
    )
    graph.add_link(
        link_between(
            PROVIDER, T1A, Relationship.CUSTOMER, [ny, lon], customer_asn=PROVIDER
        )
    )
    graph.add_link(
        link_between(
            PROVIDER,
            E1,
            Relationship.PEER,
            [ny],
            kind=PeeringKind.PRIVATE,
        )
    )
    graph.add_link(
        link_between(
            PROVIDER,
            TR2,
            Relationship.PEER,
            [lon],
            kind=PeeringKind.PUBLIC,
        )
    )
    return graph


@pytest.fixture
def toy_graph() -> ASGraph:
    """A fresh toy graph per test (mutation-safe)."""
    return build_toy_graph()


def small_topology_config() -> TopologyConfig:
    """Small generated-Internet configuration shared by many tests."""
    return TopologyConfig(
        seed=7,
        n_tier1=4,
        n_transit=21,
        n_eyeball=60,
        pop_cities=SMALL_POPS,
        # Curated backbone preserving the Section 3.3.2 property: India
        # attaches to the WAN only via Singapore and the Pacific.
        wan_backbone=(
            ("iad", "ord"),
            ("ord", "cbf"),
            ("cbf", "sfo"),
            ("iad", "gru"),
            ("iad", "lhr"),
            ("lhr", "fra"),
            ("lhr", "jnb"),
            ("bom", "sin"),
            ("sin", "nrt"),
            ("nrt", "sfo"),
            ("sin", "syd"),
        ),
        # Guarantee a private/public route-class mix for the Figure 2
        # analyses even on this small world.
        transit_public_peering_prob=1.0,
    )


@pytest.fixture(scope="session")
def small_config() -> TopologyConfig:
    return small_topology_config()


@pytest.fixture(scope="session")
def small_internet(small_config) -> Internet:
    """A small generated Internet (treat as read-only)."""
    return build_internet(small_config)


@pytest.fixture(scope="session")
def small_prefixes(small_internet):
    return small_client_prefixes(small_internet)


def small_client_prefixes(internet: Internet) -> list:
    """Client prefixes with LDNS assignments over the small Internet."""
    prefixes = generate_client_prefixes(internet, 60, seed=11)
    prefixes, _resolvers = assign_ldns(prefixes, internet, seed=11)
    return prefixes
