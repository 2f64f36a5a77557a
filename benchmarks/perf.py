"""Kernel timings at three scales, one named side per way of doing the work.

Each kernel times one or more *sides* and writes each side's time to
``BENCH_perf.json`` (schema below) under the side's name.  One side per
kernel is *gated*: ``benchmarks/compare.py`` fails CI when it slows.

* ``netmodel.event_delay`` — ``per_key`` calls vs one call over
  ``all_keys`` (gated: ``all_keys``);
* ``bgp.dynamics`` — the ``event_engine`` vs a ``static_sweep`` of the
  same stable states, a fidelity price (gated: ``static_sweep``);
* ``stream.ingest`` — the ``centroid`` sketch feed (gated);
* ``obs.emit`` — ``tracing_on`` vs ``tracing_off``, the tracer's
  overhead, and one ``histogram`` sample per op (gated:
  ``tracing_off``).

The committed baseline is produced by the full tier::

    PYTHONPATH=src python benchmarks/perf.py --tier full --out BENCH_perf.json

CI runs the small tier as a smoke test and fails on schema drift; the
tier-1 suite validates the committed baseline against the same schema
(``tests/test_benchmarks_schema.py``).

Each timed measurement runs inside a ``repro.obs`` span, so passing
``--trace-out`` captures the benchmark's own telemetry stream alongside
the JSON summary.

Schema (version 2)::

    {
      "schema_version": 2,
      "tier": "small" | "full",
      "meta": {"python": str, "numpy": str},
      "kernels": [
        {
          "name": str,                # unique
          "gated": str,               # the side compare.py gates
          "scales": [
            {
              "scale": "small" | "medium" | "large",
              "params": {str: scalar},
              "seconds": {side: float > 0},  # best-of-N wall time per side;
                                             # the same sides at every scale
              "repeats": int >= 1
            }
          ]
        }
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.edgefabric.sampler import (
    MeasurementConfig,
    MeasurementPlan,
    plan_measurement,
)
from repro.bgp import propagate
from repro.netmodel import CongestionConfig, CongestionModel
from repro.stream import SessionIngestor, stream_sessions
from repro.topology import TopologyConfig, build_internet
from repro.topology.generator import DEFAULT_POP_CITIES
from repro.workloads import generate_client_prefixes

SCHEMA_VERSION = 2
SCALES = ("small", "medium", "large")
TIERS = ("small", "full")

#: The tests' compact world: big enough for realistic route diversity,
#: small enough that topology construction is benchmark setup noise.
_POPS = tuple(
    (code, name)
    for code, name in DEFAULT_POP_CITIES
    if code
    in ("iad", "ord", "cbf", "sfo", "lhr", "fra", "bom", "sin", "nrt", "gru", "syd", "jnb")
)
_TOPOLOGY = TopologyConfig(
    seed=7,
    n_tier1=4,
    n_transit=21,
    n_eyeball=60,
    pop_cities=_POPS,
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
    transit_public_peering_prob=1.0,
)


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (noise-robust)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(name: str, scale: str, params, sides, repeats: int):
    """Time a kernel's sides, in order, under obs spans; one schema entry."""
    seconds = {}
    for side, fn in sides.items():
        with obs.span(
            "bench.kernel", kernel=name, scale=scale, side=side, repeats=repeats
        ):
            seconds[side] = _best_of(fn, repeats)
    print(
        f"  {name:28s} {scale:6s} "
        + "  ".join(f"{side} {s:8.3f}s" for side, s in seconds.items())
    )
    return {"scale": scale, "params": params, "seconds": seconds, "repeats": repeats}


def _scales_for(tier: str):
    return SCALES[:1] if tier == "small" else SCALES


# --- kernels ----------------------------------------------------------------


def bench_event_delay(tier: str, repeats: int):
    """The congestion event kernel: per-key calls vs one call over all keys.

    Both sides price through ``event_and_shift_delays``, the one code
    that sums congestion events.  The warm-up draws every series first,
    so neither side times the draws; each call still scales and orders
    the events its window reaches, since a series is stored as drawn.
    """
    config = CongestionConfig(horizon_hours=240.0, event_rate_per_day=1.0)
    model = CongestionModel(0, config)
    times = np.linspace(0.0, 240.0, 96)
    sizes = {"small": 500, "medium": 2000, "large": 8000}
    entries = []
    for scale in _scales_for(tier):
        n = sizes[scale]
        keys = [f"bench:{i}" for i in range(n)]
        model.event_and_shift_delays(keys, (), times)  # draw every series

        def per_key():
            for key in keys:
                model.event_and_shift_delays((key,), (), times)

        entries.append(
            _measure(
                "netmodel.event_delay",
                scale,
                {"keys": n, "times": int(times.size)},
                {
                    "per_key": per_key,
                    "all_keys": lambda: model.event_and_shift_delays(keys, (), times),
                },
                repeats,
            )
        )
    return {"name": "netmodel.event_delay", "gated": "all_keys", "scales": entries}


def bench_bgp_dynamics(tier: str, repeats: int):
    """Event-driven convergence vs static propagation, same fixpoint.

    The ``event_engine`` side replays one announcement per sampled
    origin through the discrete-event engine — UPDATE deliveries, MRAI
    timers, per-session jitter — until quiescence; the ``static_sweep``
    side computes the identical stable states with the static CSR sweep
    (bit-equality is the lane-agreement contract in
    ``tests/test_lane_agreement.py``).
    Both sides batch over the same origins so neither measurement is a
    sub-millisecond blip; the ratio prices event-level fidelity — what
    a scenario run costs over a snapshot.
    """
    from repro.bgp.dynamics import DynamicsConfig, DynamicsEngine

    sizes = {"small": (16, 64), "medium": (60, 300), "large": (100, 800)}
    entries = []
    for scale in _scales_for(tier):
        n_transit, n_eyeball = sizes[scale]
        graph = build_internet(
            TopologyConfig(
                seed=7, n_tier1=5, n_transit=n_transit, n_eyeball=n_eyeball
            )
        ).graph
        asns = [asys.asn for asys in graph.ases()]
        origins = asns[:: max(1, len(asns) // 8)][:8]
        propagate(graph, origins[0])  # warm the CSR cache

        def event_engine():
            total = 0
            for origin in origins:
                engine = DynamicsEngine(graph, DynamicsConfig(seed=0))
                engine.schedule_announce(0.0, origin)
                engine.run()
                total += engine.events_processed
            return total

        def static_sweep():
            for origin in origins:
                propagate(graph, origin)

        events = event_engine()
        entries.append(
            _measure(
                "bgp.dynamics",
                scale,
                {
                    "ases": len(graph),
                    "origins": len(origins),
                    "events": int(events),
                },
                {"event_engine": event_engine, "static_sweep": static_sweep},
                repeats,
            )
        )
    return {"name": "bgp.dynamics", "gated": "static_sweep", "scales": entries}


def bench_stream_ingest(internet, tier: str, repeats: int):
    """Session-stream ingest: sessions/sec through the sketch plane.

    The session batches are materialized once outside the timed region,
    so the one ``centroid`` side times pure ingest: windowing plus one
    vectorized centroid-sketch update per key/window group, which is
    what ``repro-bgp ingest`` runs.
    """
    prefixes = generate_client_prefixes(internet, 1200, seed=11)
    config = MeasurementConfig(days=0.5, seed=0)
    full_plan = plan_measurement(internet, prefixes, config)
    sizes = {"small": 150, "medium": 500, "large": 1000}
    congestion = CongestionModel(config.seed, config.congestion_config())
    dest = CongestionModel(config.seed, config.dest_congestion_config())
    entries = []
    for scale in _scales_for(tier):
        n = min(sizes[scale], len(full_plan.pairs))
        plan = MeasurementPlan(
            pairs=full_plan.pairs[:n], prefixes=full_plan.prefixes[:n]
        )
        batches = list(
            stream_sessions(
                plan, config, congestion=congestion, dest_congestion=dest
            )
        )
        sessions = int(sum(batch.n_sessions for batch in batches))
        windows = int(config.days * 24.0 * 60.0 / config.window_minutes)

        def centroid():
            ingestor = SessionIngestor(config.window_minutes)
            for batch in batches:
                ingestor.feed(batch)

        entries.append(
            _measure(
                "stream.ingest",
                scale,
                {"pairs": n, "sessions": sessions, "windows": windows},
                {"centroid": centroid},
                repeats,
            )
        )
    return {"name": "stream.ingest", "gated": "centroid", "scales": entries}


def bench_obs_emit(tier: str, repeats: int):
    """Telemetry hot path: enabled span+counter emit vs. the disabled no-op.

    The ``tracing_on`` side runs with tracing *enabled* — every
    iteration opens and closes a span and bumps a counter, so each op
    builds, validates, and buffers real events.  The ``tracing_off``
    side runs the identical loop with tracing *disabled* (the ``is
    None`` early-out that instrumented hot loops pay in production).
    Every side executes inside ``obs.suspended()`` so the benchmark's
    own ambient trace neither pollutes nor distorts the measurement; an
    enabled side then owns a private tracer for exactly the timed
    window.  The ``histogram`` side folds one sample per op into a
    sketch-backed histogram.
    """
    sizes = {"small": 20_000, "medium": 60_000, "large": 120_000}
    entries = []
    for scale in _scales_for(tier):
        n = sizes[scale]

        def emit_ops():
            for _ in range(n):
                with obs.span("bench.obs.noop"):
                    pass
                obs.counter("bench.obs.events")

        def tracing_on():
            with obs.suspended():
                obs.enable()
                try:
                    emit_ops()
                finally:
                    obs.disable()

        def tracing_off():
            with obs.suspended():
                emit_ops()

        def histogram():
            with obs.suspended():
                obs.enable()
                try:
                    for i in range(n):
                        obs.histogram("bench.obs.latency", float(i % 97))
                finally:
                    obs.disable()

        entries.append(
            _measure(
                "obs.emit",
                scale,
                {"ops": n},
                {
                    "tracing_on": tracing_on,
                    "tracing_off": tracing_off,
                    "histogram": histogram,
                },
                repeats,
            )
        )
    return {"name": "obs.emit", "gated": "tracing_off", "scales": entries}


# --- schema -----------------------------------------------------------------


def validate_payload(payload) -> None:
    """Raise ``ValueError`` on any departure from the schema above."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be an object")
    expected_keys = {"schema_version", "tier", "meta", "kernels"}
    if set(payload) != expected_keys:
        raise ValueError(
            f"top-level keys must be {sorted(expected_keys)}, "
            f"got {sorted(payload)}"
        )
    if payload["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {SCHEMA_VERSION}, "
            f"got {payload['schema_version']!r}"
        )
    if payload["tier"] not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {payload['tier']!r}")
    meta = payload["meta"]
    if not isinstance(meta, dict) or not {"python", "numpy"} <= set(meta):
        raise ValueError("meta must carry python and numpy versions")
    kernels = payload["kernels"]
    if not isinstance(kernels, list) or len(kernels) < 3:
        raise ValueError("need at least three kernels")
    names = [k.get("name") for k in kernels if isinstance(k, dict)]
    if len(names) != len(kernels) or len(set(names)) != len(names):
        raise ValueError("kernel names must be unique strings")
    for kernel in kernels:
        if set(kernel) != {"name", "gated", "scales"}:
            raise ValueError(f"kernel keys must be name/gated/scales: {kernel}")
        scales = kernel["scales"]
        if not isinstance(scales, list) or not scales:
            raise ValueError(f"kernel {kernel['name']} has no scales")
        seen = set()
        sides = None
        for entry in scales:
            required = {"scale", "params", "seconds", "repeats"}
            if not isinstance(entry, dict) or set(entry) != required:
                raise ValueError(
                    f"scale entry keys must be {sorted(required)}: {entry}"
                )
            if entry["scale"] not in SCALES:
                raise ValueError(f"unknown scale {entry['scale']!r}")
            if entry["scale"] in seen:
                raise ValueError(
                    f"duplicate scale {entry['scale']!r} in {kernel['name']}"
                )
            seen.add(entry["scale"])
            if not isinstance(entry["params"], dict):
                raise ValueError("params must be an object")
            seconds = entry["seconds"]
            if not isinstance(seconds, dict) or not seconds:
                raise ValueError("seconds must be a non-empty object")
            if sides is not None and set(seconds) != sides:
                raise ValueError(
                    f"kernel {kernel['name']} times different sides per scale"
                )
            sides = set(seconds)
            for side, value in seconds.items():
                if not isinstance(value, (int, float)) or not value > 0:
                    raise ValueError(f"seconds[{side!r}] must be a positive number")
            if kernel["gated"] not in seconds:
                raise ValueError(
                    f"gated side {kernel['gated']!r} of {kernel['name']} is not timed"
                )
            if not isinstance(entry["repeats"], int) or entry["repeats"] < 1:
                raise ValueError("repeats must be a positive integer")


# --- driver -----------------------------------------------------------------


def run(tier: str, repeats: int) -> dict:
    """Run every kernel at the tier's scales; return the payload."""
    internet = build_internet(_TOPOLOGY)
    # The sub-millisecond event-delay timings read slower in a cold
    # process, so a heavy kernel runs first, as when the baselines
    # were recorded.
    ingest = bench_stream_ingest(internet, tier, repeats)
    kernels = [
        bench_event_delay(tier, repeats),
        bench_bgp_dynamics(tier, repeats),
        ingest,
        bench_obs_emit(tier, repeats),
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tier": tier,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "kernels": kernels,
    }
    validate_payload(payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tier",
        choices=TIERS,
        default="full",
        help="small = smallest scale only (CI smoke); full = all scales",
    )
    parser.add_argument("--out", default="BENCH_perf.json", type=Path)
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N per measurement"
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None, help="write obs telemetry here"
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    obs.enable()
    try:
        payload = run(args.tier, args.repeats)
    finally:
        if args.trace_out is not None:
            obs.write_jsonl(args.trace_out)
        obs.disable()
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
