"""Golden behaviour lock for the batched and memoised computations.

Topology generation, propagation, episode extraction, catchment
geometry, redirection training, the cloudtiers campaign, edgefabric
synthesis, the session-stream ingest and the event-driven routing
scenarios each have one implementation.
This module pins their output on small fixed worlds, plus two
full-size topologies, against a recording in
``tests/data/golden_lock.json``, so a refactor that changes any of it
fails tier-1 and names what moved.

Each recorded *entry* is one named piece of output, split in two:

* its exact part — integers, strings, routes, the structure around
  them and the positions of NaNs — compared through a sha256 digest;
* its floats, in walk order, compared at a relative tolerance of 1e-9.
  numpy's vectorised trig can differ by one ULP between CPUs, so floats
  are never hashed.

The synthesis tensors are too large to store: their NaN masks stay in
the exact part, and their CI half-widths and volumes are locked through
per-pair and per-window sums.  Streamed datasets and ingest snapshots
add their sketch medians the same way; a snapshot's exact part (cells,
counts, sketch shapes) is locked by one digest.  A routing scenario's
exact part is the sha256 of its ``to_json()`` bytes, next to its
summary, whose floats are compared one by one.

The entries are computed in a child process with ``PYTHONHASHSEED=0``.
The cloudtiers last-mile draw seeds from ``hash(vp_id)`` (a known
defect, pinned in ``tests/test_cloudtiers_speedchecker.py``), so the
campaign records only reproduce with str hashing fixed.

After an intended behaviour change, re-record from the repo root with::

    PYTHONPATH=src python tests/test_golden_lock.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np
import pytest
from conftest import small_client_prefixes, small_topology_config

from repro.bgp import SCENARIOS, PropagationRequest, propagate_many, run_scenario
from repro.bgp.dynamics import DynamicsConfig
from repro.cdn import CdnDeployment
from repro.cdn.catchment import catchment_map
from repro.cdn.dns_redirection import train_redirection_policy
from repro.cdn.measurement import BeaconConfig, run_beacon_campaign
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    run_campaign,
)
from repro.core.configs import cdn_topology, cloud_topology, edgefabric_topology
from repro.edgefabric.episodes import extract_episodes
from repro.edgefabric.sampler import (
    MeasurementConfig,
    plan_measurement,
    run_measurement,
    synthesize_dataset,
)
from repro.stream import IngestConfig, ingest_plan
from repro.topology import TopologyConfig, build_internet
from repro.topology.generator import DEFAULT_POP_CITIES
from repro.topology.serialization import internet_to_dict
from repro.workloads import generate_client_prefixes

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_lock.json"
REL_TOL = 1e-9

#: Entry-name prefixes, one test per computation.
GROUPS = (
    "topology",
    "routes",
    "episodes",
    "catchment",
    "redirection",
    "cloudtiers",
    "synthesis",
    "ingest",
    "scenario",
)

SEEDS = (0, 1, 2)


# --- splitting output into an exact part and floats -----------------------


def _split(value: Any, path: str, floats: List[Tuple[str, float]]) -> Any:
    """The exact skeleton of ``value``; its finite floats go to ``floats``."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        floats.append((path, value))
        return "<float>"
    if isinstance(value, dict):
        return {
            str(key): _split(item, f"{path}.{key}", floats)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_split(item, f"{path}[{i}]", floats) for i, item in enumerate(value)]
    return value


def _fingerprint(value: Any) -> Tuple[str, List[Tuple[str, float]]]:
    floats: List[Tuple[str, float]] = []
    skeleton = _split(value, "", floats)
    canonical = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), floats


def _record(value: Any) -> Dict[str, Any]:
    digest, floats = _fingerprint(value)
    return {"exact": digest, "floats": [x for _, x in floats]}


# --- the locked computations ---------------------------------------------


def _routes(table) -> list:
    return [
        [asn, int(route.pref), route.advertised_length, list(route.path)]
        for asn, route in sorted(
            (asn, table.best(asn)) for asn in table.reachable_asns()
        )
    ]


def _egress_tensors(dataset) -> Dict[str, Any]:
    return {
        "nan-mask": np.isnan(dataset.medians).tolist(),
        "ci-half": {
            "nan-mask": np.isnan(dataset.ci_half).tolist(),
            "by-pair": np.nansum(dataset.ci_half, axis=(1, 2)).tolist(),
            "by-window": np.nansum(dataset.ci_half, axis=(0, 2)).tolist(),
        },
        "volumes": {
            "by-pair": dataset.volumes.sum(axis=1).tolist(),
            "by-window": dataset.volumes.sum(axis=0).tolist(),
        },
    }


def _median_sums(medians: np.ndarray) -> Dict[str, Any]:
    return {
        "by-pair": np.nansum(medians, axis=(1, 2)).tolist(),
        "by-window": np.nansum(medians, axis=(0, 2)).tolist(),
    }


def _streamed_tensors(dataset) -> Dict[str, Any]:
    return dict(_egress_tensors(dataset), medians=_median_sums(dataset.medians))


def _cli_ingest(sketch: str) -> Dict[str, Any]:
    """``repro-bgp ingest --scale 25 --days 0.25 --sketch SKETCH`` at seed 0."""
    cfg = MeasurementConfig(days=0.25, seed=2)
    internet = build_internet(edgefabric_topology(0))
    prefixes = generate_client_prefixes(internet, 25, seed=1)
    plan = plan_measurement(internet, prefixes, cfg)
    run = ingest_plan(
        plan, cfg, IngestConfig(window_minutes=cfg.window_minutes, sketch=sketch)
    )
    digest, _ = _fingerprint(run.snapshot.to_dict())
    return {"snapshot": digest, "medians": _median_sums(run.dataset().medians)}


def compute_outputs() -> Dict[str, Any]:
    """Every locked output, keyed by entry name (plain JSON-like data)."""
    out: Dict[str, Any] = {}

    topologies = {
        f"seed-{seed}": TopologyConfig(seed=seed, n_tier1=4, n_transit=16, n_eyeball=40)
        for seed in SEEDS
    }
    # A custom PoP set takes the nearest-mesh backbone path.
    topologies["custom-mesh"] = TopologyConfig(
        seed=1,
        n_tier1=3,
        n_transit=8,
        n_eyeball=20,
        pop_cities=DEFAULT_POP_CITIES[:12],
        dc_pop_code=DEFAULT_POP_CITIES[0][0],
    )
    for label, config in topologies.items():
        doc = internet_to_dict(build_internet(config))
        out[f"topology/{label}/ases"] = doc.pop("ases")
        out[f"topology/{label}/links"] = doc.pop("links")
        out[f"topology/{label}/network"] = doc
    # Two full-size worlds as the studies build them.  internet_to_dict
    # omits each AS's neighbour order, which neighbors(), customers() and
    # the generator's re-wire step read, so it is locked on its own.
    for label, config in (("cdn-0", cdn_topology(0)), ("cloud-0", cloud_topology(0))):
        world = build_internet(config)
        doc = internet_to_dict(world)
        out[f"topology/{label}/ases"] = doc.pop("ases")
        out[f"topology/{label}/links"] = doc.pop("links")
        out[f"topology/{label}/network"] = doc
        out[f"topology/{label}/adjacency"] = [
            [asys.asn, world.graph.neighbors(asys.asn)]
            for asys in world.graph.ases()
        ]

    internet = build_internet(small_topology_config())
    prefixes = small_client_prefixes(internet)
    graph = internet.graph

    origins = sorted(asys.asn for asys in graph.ases())
    for origin, table in zip(origins, propagate_many(graph, origins)):
        out[f"routes/origin-{origin}"] = _routes(table)
    provider = internet.provider_asn
    neighbors = sorted(graph.neighbors(provider))
    grooming = {
        "prepend": PropagationRequest(provider, prepends={neighbors[0]: 3}),
        "suppress": PropagationRequest(provider, suppressed=frozenset(neighbors[:2])),
        "prepend-and-suppress": PropagationRequest(
            provider,
            prepends={neighbors[0]: 2, neighbors[-1]: 1},
            suppressed=frozenset({neighbors[1]}),
        ),
        "city-scoped": PropagationRequest(
            provider, origin_cities=frozenset({internet.wan.pops[0].city})
        ),
    }
    tables = propagate_many(graph, list(grooming.values()))
    for label, table in zip(grooming, tables):
        out[f"routes/grooming-{label}"] = _routes(table)

    plan = plan_measurement(internet, prefixes, MeasurementConfig(days=2.0))
    out["synthesis/synthesize-seed-0"] = _egress_tensors(
        synthesize_dataset(plan, MeasurementConfig(days=2.0, seed=0))
    )
    out["synthesis/run-measurement-seed-2"] = _egress_tensors(
        run_measurement(internet, prefixes, MeasurementConfig(days=1.0, seed=2))
    )

    for seed in (0, 1):
        out[f"ingest/streamed-seed-{seed}"] = _streamed_tensors(
            ingest_plan(plan, MeasurementConfig(days=2.0, seed=seed)).dataset()
        )
    for sketch in ("centroid", "p2"):
        out[f"ingest/cli-{sketch}"] = _cli_ingest(sketch)

    episodes = extract_episodes(
        synthesize_dataset(plan, MeasurementConfig(days=2.0, seed=1))
    )
    for kind in ("degradation", "opportunity"):
        out[f"episodes/{kind}"] = [
            [e.pair_index, e.start, e.length, e.peak_ms]
            for e in getattr(episodes, f"{kind}_episodes")
        ]
    summary = asdict(episodes)
    del summary["degradation_episodes"], summary["opportunity_episodes"]
    out["episodes/summary"] = summary

    deployment = CdnDeployment(internet)
    for seed in SEEDS:
        # Rotating the prefix list regroups the per-PoP aggregation.
        rotated = prefixes[seed:] + prefixes[:seed]
        out[f"catchment/rotation-{seed}"] = asdict(catchment_map(deployment, rotated))
    for seed in SEEDS:
        beacons = run_beacon_campaign(deployment, prefixes, BeaconConfig(seed=seed))
        resolvers = {p.ldns for p in beacons.prefixes if p.ldns}
        policy = train_redirection_policy(beacons, ecs_resolvers=resolvers)
        out[f"redirection/seed-{seed}"] = {
            "choices": dict(policy.choices),
            "prefix_choices": dict(policy.prefix_choices),
        }

    campaign = run_campaign(
        SpeedcheckerPlatform(CloudDeployment(internet), seed=4),
        CampaignConfig(days=2, vps_per_day=25, rounds_per_day=4, seed=4),
    )
    out["cloudtiers/records"] = [
        [r.vp_id, r.day, {tier.value: ms for tier, ms in r.median_ms.items()}]
        for r in campaign.records
    ]
    out["cloudtiers/eligible"] = sorted(campaign.eligible)
    out["cloudtiers/traceroutes"] = sorted(
        [vp_id, tier.value] for vp_id, tier in campaign.traceroutes
    )

    # The scenarios as perfbench's scenario-sweep runs them.
    for seed in SEEDS:
        world = build_internet(cdn_topology(seed))
        for name in sorted(SCENARIOS):
            result = run_scenario(
                name,
                seed=seed,
                config=DynamicsConfig(seed=seed, mrai_s=5.0),
                internet=world,
            )
            out[f"scenario/{name}/seed-{seed}"] = {
                "to-json-sha256": hashlib.sha256(result.to_json().encode()).hexdigest(),
                "summary": result.summary(),
            }
    return out


def _outputs_in_pinned_process() -> Dict[str, Any]:
    """:func:`compute_outputs` run in a child with str hashing fixed."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
    )
    child = subprocess.run(
        [sys.executable, __file__, "--emit"],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"golden computation failed:\n{child.stderr}")
    return json.loads(child.stdout)


# --- the lock -------------------------------------------------------------


def _differences(name: str, recorded: Dict[str, Any], value: Any) -> List[str]:
    digest, floats = _fingerprint(value)
    problems = []
    if digest != recorded["exact"]:
        problems.append(f"{name}: exact fields changed (structure, ints, strings or NaNs)")
    # Floats are named even when the exact part moved too, so a drift
    # points at the fields that carry it.
    for (path, now), then in zip(floats, recorded["floats"]):
        if not math.isclose(now, then, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{name}{path}: recorded {then!r}, now {now!r}")
    return problems


@pytest.fixture(scope="module")
def recording() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outputs() -> Dict[str, Any]:
    return _outputs_in_pinned_process()


def test_entry_names_match(recording, outputs):
    assert sorted(outputs) == sorted(recording)


@pytest.mark.parametrize("group", GROUPS)
def test_matches_recording(group, recording, outputs):
    names = sorted(n for n in recording if n.split("/")[0] == group)
    assert names, f"no recorded entries for {group}"
    problems = [
        problem
        for name in names
        if name in outputs
        for problem in _differences(name, recording[name], outputs[name])
    ]
    assert not problems, "\n".join(problems[:20])


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        json.dump(compute_outputs(), sys.stdout)
    else:
        outputs = _outputs_in_pinned_process()
        # One entry per line, so a re-recording diffs entry by entry.
        lines = [
            f"{json.dumps(name)}: {json.dumps(_record(outputs[name]))}"
            for name in sorted(outputs)
        ]
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        print(f"recorded {len(lines)} entries to {GOLDEN}")
