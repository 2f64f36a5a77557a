"""Tests for the synthetic Internet generator."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.geo import city_named
from repro.topology import (
    ASRole,
    AutonomousSystem,
    PeeringKind,
    PointOfPresence,
    PrivateWan,
    Relationship,
    TopologyConfig,
    build_internet,
)
from repro.topology.generator import EYEBALL_ASN_BASE, PROVIDER_ASN
from repro.topology.serialization import internet_to_dict


def _stub_as(inflation):
    return AutonomousSystem(
        asn=1,
        name="stub",
        role=ASRole.STUB,
        cities=(city_named("London"),),
        backbone_inflation=inflation,
    )


def _one_pop_wan(inflation):
    return PrivateWan([PointOfPresence("lhr", city_named("London"))], [], inflation)


def _backbone_config(backbone):
    """A small config over the default PoPs with an explicit backbone."""
    return TopologyConfig(n_tier1=2, n_transit=7, n_eyeball=10, wan_backbone=backbone)


class TestConfigValidation:
    def test_defaults_valid(self):
        TopologyConfig()

    def test_duplicate_pop_codes(self):
        with pytest.raises(TopologyError):
            TopologyConfig(pop_cities=(("aaa", "London"), ("aaa", "Paris")))

    def test_dc_must_be_a_pop(self):
        with pytest.raises(TopologyError):
            TopologyConfig(
                pop_cities=(("lhr", "London"),), dc_pop_code="xxx"
            )

    def test_fraction_bounds(self):
        with pytest.raises(TopologyError):
            TopologyConfig(pni_fraction=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(TopologyError, match="seed must be >= 0, got -1"):
            TopologyConfig(seed=-1)

    def test_positive_counts(self):
        with pytest.raises(TopologyError):
            TopologyConfig(n_eyeball=0)

    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(
                lambda: TopologyConfig(tier1_inflation=math.nan),
                "tier1_inflation",
                id="tier1-inflation-nan",
            ),
            pytest.param(
                lambda: TopologyConfig(transit_inflation=math.inf),
                "transit_inflation",
                id="transit-inflation-inf",
            ),
            pytest.param(
                lambda: TopologyConfig(eyeball_inflation=0.9),
                "eyeball_inflation",
                id="eyeball-inflation-below-1",
            ),
            pytest.param(
                lambda: TopologyConfig(wan_inflation=math.nan),
                "wan_inflation",
                id="wan-inflation-nan",
            ),
            pytest.param(
                lambda: TopologyConfig(provider_transit_count=-1),
                "provider_transit_count",
                id="negative-provider-transit-count",
            ),
            pytest.param(
                lambda: TopologyConfig(n_tier1=2.5), "n_tier1", id="fractional-n-tier1"
            ),
            pytest.param(
                lambda: TopologyConfig(n_eyeball=math.nan),
                "n_eyeball",
                id="nan-n-eyeball",
            ),
            pytest.param(
                lambda: TopologyConfig(seed=1.5), "seed", id="fractional-seed"
            ),
            pytest.param(lambda: TopologyConfig(seed=True), "seed", id="bool-seed"),
            pytest.param(
                lambda: TopologyConfig(n_transit=False), "n_transit", id="bool-count"
            ),
            pytest.param(
                lambda: TopologyConfig(
                    pop_cities=(("lhr", "London"), ("xxx", "Atlantis")),
                    dc_pop_code="lhr",
                ),
                "pop_cities",
                id="unknown-pop-city",
            ),
            pytest.param(
                lambda: TopologyConfig(ixp_city_names=("London", "Atlantis")),
                "ixp_city_names",
                id="unknown-ixp-city",
            ),
            pytest.param(
                lambda: _backbone_config((("iad", "xxx"),)),
                "wan_backbone",
                id="backbone-unknown-pop",
            ),
            pytest.param(
                lambda: _backbone_config((("lhr", "lhr"),)),
                "wan_backbone",
                id="backbone-self-loop",
            ),
            pytest.param(
                lambda: _backbone_config((("iad",),)),
                "wan_backbone",
                id="backbone-one-ended-edge",
            ),
            pytest.param(
                lambda: _stub_as(math.nan), "backbone_inflation", id="as-inflation-nan"
            ),
            pytest.param(
                lambda: _stub_as(math.inf), "backbone_inflation", id="as-inflation-inf"
            ),
            pytest.param(lambda: _one_pop_wan(math.nan), "inflation", id="wan-nan"),
            pytest.param(lambda: _one_pop_wan(math.inf), "inflation", id="wan-inf"),
        ],
    )
    def test_bad_values_raise_topology_error(self, make, field):
        with pytest.raises(TopologyError, match=field):
            make()

    def test_numpy_integers_stay_legal(self):
        counts = dict(
            seed=3, n_tier1=3, n_transit=8, n_eyeball=20, provider_transit_count=2
        )
        plain = build_internet(TopologyConfig(**counts))
        numpy_ints = TopologyConfig(**{k: np.int64(v) for k, v in counts.items()})
        assert all(type(getattr(numpy_ints, k)) is int for k in counts)
        assert internet_to_dict(build_internet(numpy_ints)) == internet_to_dict(plain)


class TestGeneratedStructure:
    def test_role_partition(self, small_internet):
        graph = small_internet.graph
        assert graph.get(small_internet.provider_asn).role is ASRole.CONTENT
        for asn in small_internet.tier1_asns:
            assert graph.get(asn).role is ASRole.TIER1
        for asn in small_internet.transit_asns:
            assert graph.get(asn).role is ASRole.TRANSIT
        for asn in small_internet.eyeball_asns:
            assert graph.get(asn).role is ASRole.EYEBALL

    def test_counts_match_config(self, small_internet, small_config):
        assert len(small_internet.tier1_asns) == small_config.n_tier1
        assert len(small_internet.transit_asns) == small_config.n_transit
        # Eyeball allocation rounds per-country with a minimum of one per
        # country, so the realised count can exceed a small target by up
        # to the number of countries.
        from repro.geo import COUNTRY_REGIONS

        n = len(small_internet.eyeball_asns)
        assert n >= min(small_config.n_eyeball, len(COUNTRY_REGIONS))
        assert n <= small_config.n_eyeball + len(COUNTRY_REGIONS)

    def test_tier1_clique(self, small_internet):
        graph = small_internet.graph
        tier1s = small_internet.tier1_asns
        for i, x in enumerate(tier1s):
            for y in tier1s[i + 1 :]:
                link = graph.link(x, y)
                assert link.relationship is Relationship.PEER

    def test_tier1s_are_transit_free(self, small_internet):
        graph = small_internet.graph
        for asn in small_internet.tier1_asns:
            assert graph.providers(asn) == []

    def test_every_transit_has_tier1_provider(self, small_internet):
        graph = small_internet.graph
        for asn in small_internet.transit_asns:
            providers = graph.providers(asn)
            assert providers
            assert all(p in small_internet.tier1_asns for p in providers)

    def test_every_eyeball_has_a_provider(self, small_internet):
        graph = small_internet.graph
        for asn in small_internet.eyeball_asns:
            assert graph.providers(asn)

    def test_acyclic_economics(self, small_internet):
        small_internet.graph.validate()

    def test_provider_buys_transit_from_tier1s(self, small_internet, small_config):
        graph = small_internet.graph
        providers = graph.providers(small_internet.provider_asn)
        assert len(providers) == small_config.provider_transit_count
        assert all(p in small_internet.tier1_asns for p in providers)

    def test_provider_transit_covers_all_pops(self, small_internet):
        graph = small_internet.graph
        pop_cities = {p.city for p in small_internet.wan.pops}
        for t1 in graph.providers(small_internet.provider_asn):
            link = graph.link(small_internet.provider_asn, t1)
            assert pop_cities <= set(link.cities)

    def test_provider_has_both_peering_kinds(self, small_internet):
        graph = small_internet.graph
        kinds = {
            graph.link(small_internet.provider_asn, p).kind
            for p in graph.peers(small_internet.provider_asn)
        }
        assert PeeringKind.PRIVATE in kinds
        assert PeeringKind.PUBLIC in kinds

    def test_eyeball_user_weights_positive(self, small_internet):
        for asn in small_internet.eyeball_asns:
            assert small_internet.graph.get(asn).user_weight > 0

    def test_asn_blocks(self, small_internet):
        assert small_internet.provider_asn == PROVIDER_ASN
        assert all(a >= EYEBALL_ASN_BASE for a in small_internet.eyeball_asns)


class TestDeterminism:
    def test_same_seed_same_topology(self, small_config):
        a = build_internet(small_config)
        b = build_internet(small_config)
        assert [x.asn for x in a.graph.ases()] == [x.asn for x in b.graph.ases()]
        links_a = [(l.a, l.b, l.relationship, tuple(c.name for c in l.cities)) for l in a.graph.links()]
        links_b = [(l.a, l.b, l.relationship, tuple(c.name for c in l.cities)) for l in b.graph.links()]
        assert links_a == links_b

    def test_different_seed_different_topology(self, small_config):
        import dataclasses

        a = build_internet(small_config)
        b = build_internet(dataclasses.replace(small_config, seed=small_config.seed + 1))
        links_a = [(l.a, l.b) for l in a.graph.links()]
        links_b = [(l.a, l.b) for l in b.graph.links()]
        assert links_a != links_b


class TestWanDefaults:
    def test_default_backbone_used_for_default_pops(self):
        internet = build_internet(TopologyConfig(n_eyeball=10, n_transit=7, n_tier1=2))
        # One default edge spot-checked through the WAN distances.
        assert internet.wan.one_way_ms("iad", "lga") > 0

    def test_india_attaches_eastward_only(self):
        """The curated backbone must not shortcut India to Europe."""
        internet = build_internet(TopologyConfig(n_eyeball=10, n_transit=7, n_tier1=2))
        path = internet.wan.path("bom", "cbf")
        codes = [p.code for p in path]
        # The WAN route from Mumbai to the US data center goes via
        # Singapore and the Pacific, never via Europe.
        assert "sin" in codes
        assert not {"lhr", "cdg", "fra", "ams", "mad"} & set(codes)

    def test_custom_pops_get_mesh_backbone(self):
        config = TopologyConfig(
            n_eyeball=10,
            n_transit=7,
            n_tier1=2,
            pop_cities=(("lhr", "London"), ("cdg", "Paris"), ("nrt", "Tokyo")),
            dc_pop_code="lhr",
        )
        internet = build_internet(config)
        # Connectivity is guaranteed by construction.
        assert internet.wan.one_way_ms("lhr", "nrt") > 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pops_without_an_exchange_build(self, seed):
        """No PoP city hosts an exchange: the provider peers publicly
        with no one, and privately as usual."""
        config = TopologyConfig(
            seed=seed,
            n_tier1=3,
            n_transit=8,
            n_eyeball=20,
            pop_cities=(("cbf", "Council Bluffs"), ("tpe", "Taipei")),
            dc_pop_code="cbf",
        )
        internet = build_internet(config)
        graph = internet.graph
        kinds = [graph.link(PROVIDER_ASN, n).kind for n in graph.peers(PROVIDER_ASN)]
        assert PeeringKind.PRIVATE in kinds
        assert PeeringKind.PUBLIC not in kinds



_DUMP_LAST_BUILD = """
import json, sys
from repro.core import configs
from repro.topology import TopologyConfig, build_internet
from repro.topology.generator import DEFAULT_IXP_CITY_NAMES, DEFAULT_POP_CITIES
from repro.topology.serialization import internet_to_dict

def custom_topology(seed):
    return TopologyConfig(
        seed=seed,
        n_tier1=3,
        n_transit=12,
        n_eyeball=30,
        pop_cities=DEFAULT_POP_CITIES[10:40],
        dc_pop_code=DEFAULT_POP_CITIES[10][0],
        ixp_city_names=DEFAULT_IXP_CITY_NAMES[::2],
    )

for build in sys.argv[1:]:
    setting, seed = build.split(":")
    make = getattr(configs, setting + "_topology", custom_topology)
    world = build_internet(make(int(seed)))
doc = internet_to_dict(world)
doc["adjacency"] = [[a.asn, world.graph.neighbors(a.asn)] for a in world.graph.ases()]
wan = world.wan
doc["wan"] = [
    [wan.one_way_ms(a, b).hex(), [pop.code for pop in wan.path(a, b)]]
    for a in wan.pop_codes
    for b in wan.pop_codes
]
json.dump(doc, sys.stdout)
"""


def _last_build_in_fresh_process(*builds):
    """Run ``builds`` ("setting:seed", where setting ``custom`` has its
    own PoPs and exchanges) in order in a new interpreter and return the
    last one's dump, with every AS's neighbour order and the WAN's
    latencies and paths."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    child = subprocess.run(
        [sys.executable, "-c", _DUMP_LAST_BUILD, *builds],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout)


class TestSharedDistanceMemo:
    """Every build in a process shares ``repro.geo.CITY_DISTANCES`` and
    the generator's rankings of the city dataset, so the memos a build
    finds depend on the builds before it."""

    def test_build_order_does_not_matter(self):
        warm = _last_build_in_fresh_process("cloud:0", "edgefabric:1", "cdn:3")
        cold = _last_build_in_fresh_process("cdn:3")
        assert warm == cold

    def test_cloud_build_after_other_pop_sets(self):
        warm = _last_build_in_fresh_process(
            "custom:2", "edgefabric:1", "cdn:3", "cloud:2"
        )
        cold = _last_build_in_fresh_process("cloud:2")
        assert warm == cold
