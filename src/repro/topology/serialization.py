"""Topology serialization: save and load a generated Internet as JSON.

Round-tripping lets users version-control a topology, hand-edit one
(add a peer, move a PoP), or ship a reproduction bundle alongside a
saved measurement dataset.  Cities are referenced by name against the
embedded dataset so files stay small and human-readable.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.errors import TopologyError
from repro.geo import CityDistanceCache, city_named
from repro.topology.asgraph import (
    ASGraph,
    ASRole,
    AutonomousSystem,
    ExitPolicy,
    PeeringKind,
    Relationship,
    link_between,
)
from repro.topology.generator import Internet, TopologyConfig
from repro.topology.wan import PointOfPresence, PrivateWan

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def internet_to_dict(internet: Internet) -> Dict:
    """Serialize an :class:`Internet` to plain JSON-compatible data."""
    ases = []
    for asys in internet.graph.ases():
        ases.append(
            {
                "asn": asys.asn,
                "name": asys.name,
                "role": asys.role.value,
                "cities": [c.name for c in asys.cities],
                "exit_policy": asys.exit_policy.value,
                "backbone_inflation": asys.backbone_inflation,
                "user_weight": asys.user_weight,
            }
        )
    links = []
    for link in internet.graph.links():
        links.append(
            {
                "a": link.a,
                "b": link.b,
                "relationship": link.relationship.value,
                "cities": [c.name for c in link.cities],
                "kind": link.kind.value,
                "customer_asn": link.customer_asn,
                "capacity_gbps": link.capacity_gbps,
            }
        )
    # The WAN's backbone edges are reconstructed from its shortest-path
    # structure being unavailable; instead we store the PoPs and rebuild
    # with the *direct* edges recorded at generation time.  Serialization
    # therefore keeps the config, whose backbone (explicit or derived)
    # regenerates the same WAN.
    return {
        "schema": SCHEMA_VERSION,
        "provider_asn": internet.provider_asn,
        "dc_pop_code": internet.dc_pop_code,
        "tier1_asns": list(internet.tier1_asns),
        "transit_asns": list(internet.transit_asns),
        "eyeball_asns": list(internet.eyeball_asns),
        "ixp_cities": [c.name for c in internet.ixp_cities],
        "pops": [
            {"code": p.code, "city": p.city.name} for p in internet.wan.pops
        ],
        "wan_backbone": [list(edge) for edge in _wan_edges(internet)],
        "wan_inflation": internet.wan.inflation,
        "ases": ases,
        "links": links,
    }


def _wan_edges(internet: Internet) -> List:
    """The backbone adjacency the WAN was built from."""
    cfg = internet.config
    if cfg.wan_backbone is not None:
        return [tuple(e) for e in cfg.wan_backbone]
    from repro.topology.generator import (
        DEFAULT_POP_CITIES,
        DEFAULT_WAN_BACKBONE,
        _nearest_mesh,
    )

    if cfg.pop_cities == DEFAULT_POP_CITIES:
        return [tuple(e) for e in DEFAULT_WAN_BACKBONE]
    edges = _nearest_mesh(internet.wan.pops, CityDistanceCache())
    return [tuple(e) for e in edges]


def internet_from_dict(data: Dict) -> Internet:
    """Rebuild an :class:`Internet` from :func:`internet_to_dict` output."""
    if data.get("schema") != SCHEMA_VERSION:
        raise TopologyError(
            f"unsupported topology schema {data.get('schema')!r}"
        )
    graph = ASGraph()
    for entry in data["ases"]:
        graph.add_as(
            AutonomousSystem(
                asn=int(entry["asn"]),
                name=entry["name"],
                role=ASRole(entry["role"]),
                cities=tuple(city_named(n) for n in entry["cities"]),
                exit_policy=ExitPolicy(entry["exit_policy"]),
                backbone_inflation=float(entry["backbone_inflation"]),
                user_weight=float(entry["user_weight"]),
            )
        )
    for entry in data["links"]:
        graph.add_link(
            link_between(
                int(entry["a"]),
                int(entry["b"]),
                Relationship(entry["relationship"]),
                [city_named(n) for n in entry["cities"]],
                kind=PeeringKind(entry["kind"]),
                customer_asn=(
                    int(entry["customer_asn"])
                    if entry["customer_asn"] is not None
                    else None
                ),
                capacity_gbps=float(entry["capacity_gbps"]),
            )
        )
    pops = [
        PointOfPresence(code=p["code"], city=city_named(p["city"]))
        for p in data["pops"]
    ]
    wan = PrivateWan(
        pops,
        [tuple(edge) for edge in data["wan_backbone"]],
        inflation=float(data["wan_inflation"]),
    )
    pop_entries = tuple((p["code"], p["city"]) for p in data["pops"])
    config = TopologyConfig(
        pop_cities=pop_entries,
        wan_backbone=tuple(tuple(e) for e in data["wan_backbone"]),
        dc_pop_code=data["dc_pop_code"],
    )
    return Internet(
        graph=graph,
        provider_asn=int(data["provider_asn"]),
        wan=wan,
        tier1_asns=tuple(int(a) for a in data["tier1_asns"]),
        transit_asns=tuple(int(a) for a in data["transit_asns"]),
        eyeball_asns=tuple(int(a) for a in data["eyeball_asns"]),
        ixp_cities=tuple(city_named(n) for n in data["ixp_cities"]),
        dc_pop_code=data["dc_pop_code"],
        config=config,
    )


def save_internet(internet: Internet, path: PathLike) -> None:
    """Write an Internet to a JSON file."""
    with open(Path(path), "w", encoding="utf-8") as handle:
        json.dump(internet_to_dict(internet), handle, indent=1)


def load_internet(path: PathLike) -> Internet:
    """Read an Internet from a JSON file written by :func:`save_internet`."""
    with open(Path(path), "r", encoding="utf-8") as handle:
        return internet_from_dict(json.load(handle))
