"""Golden behaviour lock for the batched and memoised computations.

Topology generation, propagation, episode extraction, catchment
geometry, redirection training, the cloudtiers campaign, edgefabric
synthesis, the session-stream ingest, the event-driven routing
scenarios and the figure analyses each have one implementation.
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
summary, whose floats are compared one by one.  A figure's CDF is
locked by its number of distinct values and its quantiles on a 0.01
grid (a CCDF by its values and survival fractions at 101 evenly spaced
indices), next to the figure's fractions and medians.

The entries are computed in a child process that inherits the caller's
``PYTHONHASHSEED`` (a fresh random salt when it is unset), so no entry
may depend on the salt of ``hash()``.

After an intended behaviour change, re-record from the repo root with::

    PYTHONPATH=src python tests/test_golden_lock.py [PREFIX ...]

With prefixes, only the entries whose names start with one of them are
recorded afresh (added, replaced or dropped); every other line of the
recording is kept byte for byte.  Without, every entry is recorded.
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
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
import pytest
from conftest import small_client_prefixes, small_topology_config

from repro.bgp import SCENARIOS, PropagationRequest, propagate_many, run_scenario
from repro.bgp.dynamics import DynamicsConfig
from repro.cdn import (
    CdnDeployment,
    anycast_vs_best_unicast,
    redirection_improvement,
)
from repro.cdn.catchment import catchment_map
from repro.cdn.dns_redirection import train_redirection_policy
from repro.cdn.measurement import BeaconConfig, run_beacon_campaign
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    country_medians,
    goodput_comparison,
    india_case_study,
    ingress_distance_cdf,
    run_campaign,
)
from repro.core.configs import cdn_topology, cloud_topology, edgefabric_topology
from repro.core.schemes import compare_schemes
from repro.edgefabric.analysis import (
    bgp_vs_best_alternate,
    persistence_decomposition,
    route_class_comparison,
)
from repro.edgefabric.episodes import extract_episodes
from repro.geo import WORLD_CITIES
from repro.errors import AnalysisError
from repro.edgefabric.sampler import (
    MeasurementConfig,
    plan_measurement,
    run_measurement,
    synthesize_dataset,
)
from repro.stream import ingest_plan
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
    "analysis",
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


def _cli_ingest() -> Dict[str, Any]:
    """``repro-bgp ingest --scale 25 --days 0.25`` at seed 0."""
    cfg = MeasurementConfig(days=0.25, seed=2)
    internet = build_internet(edgefabric_topology(0))
    prefixes = generate_client_prefixes(internet, 25, seed=1)
    plan = plan_measurement(internet, prefixes, cfg)
    run = ingest_plan(plan, cfg)
    digest, _ = _fingerprint(run.snapshot.to_dict())
    return {"snapshot": digest, "medians": _median_sums(run.dataset().medians)}


_GRID = np.linspace(0.0, 1.0, 101)


def _cdf_grid(cdf) -> Dict[str, Any]:
    """A CDF's size and its quantiles at q = 0, 0.01, ..., 1."""
    return {"n": len(cdf.xs), "quantiles": [cdf.quantile(q) for q in _GRID]}


def _ccdf_grid(ccdf) -> Dict[str, Any]:
    """A CCDF's size and its (x, P(value > x)) at 101 spread indices."""
    idx = np.linspace(0, len(ccdf.xs) - 1, 101).round().astype(int)
    return {"n": len(ccdf.xs), "xs": ccdf.xs[idx].tolist(), "ps": ccdf.ps[idx].tolist()}


def _fields(result, grids=()) -> Dict[str, Any]:
    """A figure's fields as plain data, its CDFs as quantile grids."""
    doc = {}
    for name, value in vars(result).items():
        if name in grids:
            doc[name] = _cdf_grid(value)
        elif isinstance(value, dict):
            doc[name] = {getattr(k, "value", k): v for k, v in value.items()}
        else:
            doc[name] = value
    return doc


def _edgefabric_figures(dataset) -> Dict[str, Any]:
    """Figures 1 and 2, Section 3.1.1 and the scheme comparison."""
    out: Dict[str, Any] = {}
    fig1 = bgp_vs_best_alternate(dataset)
    out["analysis/fig1"] = _fields(fig1, grids=("cdf", "cdf_lower", "cdf_upper"))
    try:
        fig2 = _fields(
            route_class_comparison(dataset),
            grids=("peer_vs_transit", "private_vs_public"),
        )
    except AnalysisError as exc:
        fig2 = {"error": str(exc)}
    out["analysis/fig2"] = fig2
    out["analysis/persistence"] = asdict(persistence_decomposition(dataset))
    out["analysis/schemes"] = compare_schemes(dataset)
    return out


def _cdn_figures(beacons, policy) -> Dict[str, Any]:
    """Figure 3 per group and Figure 4 of one beacon campaign."""
    fig3 = anycast_vs_best_unicast(beacons)
    fig4 = redirection_improvement(beacons, policy)
    return {
        "fig3": {
            "ccdfs": {g: _ccdf_grid(c) for g, c in fig3.ccdfs.items()},
            "frac_within_10ms": fig3.frac_within_10ms,
            "frac_beyond_100ms": fig3.frac_beyond_100ms,
        },
        "fig4": _fields(fig4, grids=("median_cdf", "p75_cdf")),
    }


def _cloud_figures(campaign, deployment) -> Dict[str, Any]:
    """Figure 5, the ingress fractions, the India case and goodput."""
    fig5 = country_medians(campaign)
    try:
        india = asdict(india_case_study(campaign, deployment))
    except AnalysisError as exc:
        india = {"error": str(exc)}
    return {
        "analysis/fig5": {
            "country_diff_ms": fig5.country_diff_ms,
            "country_vp_count": fig5.country_vp_count,
            "frac_within_10ms": fig5.frac_within_10ms,
            "premium_better": fig5.premium_better,
            "standard_better": fig5.standard_better,
            "region_medians": {r.value: v for r, v in fig5.region_medians.items()},
        },
        "analysis/ingress": {
            tier.value: frac
            for tier, frac in ingress_distance_cdf(
                campaign, deployment
            ).frac_within_400km.items()
        },
        "analysis/india": india,
        "analysis/goodput": _fields(goodput_comparison(campaign)),
    }


def _wan(wan) -> Dict[str, Any]:
    """Every PoP pair's latency and path, and every city's nearest PoP."""
    codes = wan.pop_codes
    return {
        "one-way-ms": [[wan.one_way_ms(a, b) for b in codes] for a in codes],
        "paths": [[[p.code for p in wan.path(a, b)] for b in codes] for a in codes],
        "nearest-pop": [
            [city.name, wan.nearest_pop(city.location).code] for city in WORLD_CITIES
        ],
    }


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
    # The three full-size worlds as the studies build them.
    # internet_to_dict omits each AS's neighbour order, which neighbors(),
    # customers() and the generator's re-wire step read, and keeps only
    # the WAN's PoPs and backbone, so both are locked on their own.
    full_size = (
        ("edgefabric-0", edgefabric_topology(0)),
        ("cdn-0", cdn_topology(0)),
        ("cloud-0", cloud_topology(0)),
    )
    for label, config in full_size:
        world = build_internet(config)
        doc = internet_to_dict(world)
        out[f"topology/{label}/ases"] = doc.pop("ases")
        out[f"topology/{label}/links"] = doc.pop("links")
        out[f"topology/{label}/network"] = doc
        out[f"topology/{label}/adjacency"] = [
            [asys.asn, world.graph.neighbors(asys.asn)]
            for asys in world.graph.ases()
        ]
        out[f"topology/{label}/wan"] = _wan(world.wan)

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
    synthesized = synthesize_dataset(plan, MeasurementConfig(days=2.0, seed=0))
    out["synthesis/synthesize-seed-0"] = _egress_tensors(synthesized)
    out.update(_edgefabric_figures(synthesized))
    out["synthesis/run-measurement-seed-2"] = _egress_tensors(
        run_measurement(internet, prefixes, MeasurementConfig(days=1.0, seed=2))
    )

    for seed in (0, 1):
        out[f"ingest/streamed-seed-{seed}"] = _streamed_tensors(
            ingest_plan(plan, MeasurementConfig(days=2.0, seed=seed)).dataset()
        )
    out["ingest/cli-centroid"] = _cli_ingest()

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
        for label, figure in _cdn_figures(beacons, policy).items():
            out[f"analysis/{label}/seed-{seed}"] = figure

    cloud = CloudDeployment(internet)
    campaign = run_campaign(
        SpeedcheckerPlatform(cloud, seed=4),
        CampaignConfig(days=2, vps_per_day=25, rounds_per_day=4, seed=4),
    )
    out.update(_cloud_figures(campaign, cloud))
    out["cloudtiers/records"] = [
        [r.vp_id, r.day, {tier.value: ms for tier, ms in r.median_ms.items()}]
        for r in campaign.records
    ]
    out["cloudtiers/eligible"] = sorted(campaign.eligible)
    out["cloudtiers/traceroutes"] = sorted(
        [vp_id, tier.value] for vp_id, tier in campaign.traceroutes
    )

    # The scenarios as perfbench's scenario-sweep runs them, and at seed
    # 0 under the two configs that take the engine paths the sweep never
    # does: unpaced sessions, and paced withdrawals with every message
    # recorded.
    variants = {
        "mrai-0": DynamicsConfig(seed=0, mrai_s=0.0),
        "wrate-messages": DynamicsConfig(
            seed=0, mrai_s=5.0, withdraw_mrai=True, record_messages=True
        ),
    }
    for seed in SEEDS:
        world = build_internet(cdn_topology(seed))
        runs = {f"seed-{seed}": DynamicsConfig(seed=seed, mrai_s=5.0)}
        if seed == 0:
            runs.update((f"seed-0/{label}", config) for label, config in variants.items())
        for label, config in runs.items():
            for name in sorted(SCENARIOS):
                result = run_scenario(name, seed=seed, config=config, internet=world)
                out[f"scenario/{name}/{label}"] = {
                    "to-json-sha256": hashlib.sha256(
                        result.to_json().encode()
                    ).hexdigest(),
                    "summary": result.summary(),
                }
    return out


def _outputs_in_child_process() -> Dict[str, Any]:
    """:func:`compute_outputs` run in a fresh child interpreter."""
    env = dict(
        os.environ,
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
    return _outputs_in_child_process()


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


def _recorded_lines() -> Dict[str, str]:
    """The recording's lines as written, keyed by entry name."""
    lines = {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines()[1:-1]:
        line = line.removesuffix(",")
        (name,) = json.loads("{" + line + "}")
        lines[name] = line
    return lines


def record(prefixes: Sequence[str] = ()) -> None:
    """Record every entry afresh, or only those named by ``prefixes``."""
    chosen = tuple(prefixes)
    outputs = _outputs_in_child_process()
    fresh = [name for name in outputs if not chosen or name.startswith(chosen)]
    lines = {}
    if chosen:
        lines = {
            name: line
            for name, line in _recorded_lines().items()
            if not name.startswith(chosen)
        }
    # One entry per line, so a re-recording diffs entry by entry.
    for name in fresh:
        lines[name] = f"{json.dumps(name)}: {json.dumps(_record(outputs[name]))}"
    GOLDEN.parent.mkdir(exist_ok=True)
    body = ",\n".join(lines[name] for name in sorted(lines))
    GOLDEN.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"recorded {len(fresh)} of {len(lines)} entries to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        json.dump(compute_outputs(), sys.stdout)
    else:
        record(sys.argv[1:])
