"""Command-line interface: regenerate any of the paper's experiments.

Installed as ``repro-bgp`` (see pyproject.toml); also runnable as
``python -m repro.cli``.

Examples::

    repro-bgp fig1                # Figure 1 rows
    repro-bgp fig5 --seed 3       # Figure 5 at another seed
    repro-bgp report              # all three studies + hypothesis verdicts
    repro-bgp report --jobs 3 --cache-dir .repro-cache   # parallel + cached
    repro-bgp report --setting A --trace-out t.jsonl     # + telemetry stream
    repro-bgp trace summarize t.jsonl                    # where the time went
    repro-bgp trace profile t.jsonl                      # self-time ranking
    repro-bgp trace flame t.jsonl --out flame.txt        # collapsed stacks
    repro-bgp trace critical t.jsonl                     # campaign critical path
    repro-bgp campaign --study pop --seeds 0,1,2,3,4 --jobs 4
    repro-bgp campaign --seeds 0,1,2 --jobs 4 --progress # live status line
    repro-bgp campaign --seeds 0,1,2 --cache-dir .c --resume   # after a crash
    repro-bgp campaign --faults crash=0.2,timeout=0.1 --allow-partial
    repro-bgp -v report           # INFO-level diagnostics on stderr
    repro-bgp list                # everything available

A campaign that finishes degraded (``--allow-partial``) exits with
status 3, distinguishing "partial results printed" from success (0)
and usage errors (2).

Each study command takes only the shared options (``--seed``,
``--scale``, ``--days``, ``--csv``, ``--jobs``, ``--cache-dir``) its
run reads; :data:`COMMANDS` names them, and ``repro-bgp <command>
--help`` lists them.  Every subcommand takes the runtime flags
``--log-level``, ``-v``, ``-q``, ``--log-json``, and ``--trace-out
FILE``; they are also accepted before the subcommand name.
``--trace-out`` records a JSONL telemetry stream (see
:mod:`repro.obs`) plus a ``<FILE>.manifest.json`` provenance record
alongside it.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.analysis import format_table, text_choropleth
from repro.errors import ReproError
from repro.geo import COUNTRY_REGIONS

# Pinned name (not __name__): running as ``python -m repro.cli`` makes
# __name__ == "__main__", which would escape the configured "repro"
# logger namespace.
logger = logging.getLogger("repro.cli")

#: Accepted ``--log-level`` names.
LOG_LEVELS = ("debug", "info", "warning", "error")


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per log line, for machine-readable diagnostics."""

    def format(self, record: logging.LogRecord) -> str:
        payload = {
            "ts": record.created,
            "level": record.levelname,
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True)


def setup_logging(
    level: int = logging.WARNING, json_lines: bool = False, stream=None
) -> logging.Logger:
    """Configure the package-wide ``repro`` logger.

    The library modules (:mod:`repro.topology.generator`,
    :mod:`repro.cloudtiers.campaign`, ...) log through module loggers
    under the ``repro`` namespace but never configure handlers — that
    is an application decision.  This attaches one stderr handler (text
    or JSON lines) plus a :class:`repro.obs.TraceLogHandler` so log
    records also land in the telemetry stream whenever tracing is on.

    Idempotent: calling again replaces the handlers installed by the
    previous call instead of stacking duplicates.
    """
    from repro.obs import TraceLogHandler

    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        if getattr(handler, "_repro_cli", False):
            root.removeHandler(handler)
    console = logging.StreamHandler(stream if stream is not None else sys.stderr)
    if json_lines:
        console.setFormatter(_JsonLogFormatter())
    else:
        console.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
    bridge = TraceLogHandler()
    for handler in (console, bridge):
        handler._repro_cli = True
        root.addHandler(handler)
    root.setLevel(level)
    return root


def _resolve_log_level(args) -> int:
    """Map the runtime flags to a :mod:`logging` level.

    Explicit ``--log-level`` wins; otherwise ``-q`` forces ERROR and
    each ``-v`` steps WARNING → INFO → DEBUG.
    """
    name = getattr(args, "log_level", None)
    if name:
        return getattr(logging, name.upper())
    if getattr(args, "quiet", False):
        return logging.ERROR
    verbose = getattr(args, "verbose", 0) or 0
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


def _build_study(kind: str, args, seed=None):
    """Instantiate one of the named studies from CLI arguments."""
    from repro.core import (
        AnycastCdnStudy,
        CloudTiersStudy,
        PeeringReductionStudy,
        PopRoutingStudy,
    )

    seed = args.seed if seed is None else seed
    if kind == "pop":
        return PopRoutingStudy(seed=seed, n_prefixes=args.scale, days=args.days)
    if kind == "cdn":
        return AnycastCdnStudy(seed=seed, n_prefixes=args.scale, days=args.days)
    if kind == "cloud":
        return CloudTiersStudy(
            seed=seed, days=max(2, int(args.days)), vps_per_day=args.scale
        )
    if kind == "peering":
        return PeeringReductionStudy(seed=seed, n_prefixes=args.scale)
    raise ValueError(f"unknown study kind {kind!r}")


def _run_campaign(args, studies, **runner_kwargs):
    """Run study instances through a campaign with the CLI's flags."""
    from repro.runner import CampaignRunner, JobSpec, ResultStore

    store = ResultStore(args.cache_dir) if args.cache_dir else None
    runner = CampaignRunner(jobs=args.jobs, store=store, **runner_kwargs)
    return runner.run([JobSpec.from_study(study) for study in studies])


def _campaign_flags_used(args) -> bool:
    return args.jobs > 1 or bool(args.cache_dir)


def _pop_study(args):
    return _build_study("pop", args).run()


def _cdn_study(args):
    return _build_study("cdn", args).run()


def _cloud_study(args):
    return _build_study("cloud", args).run()


def cmd_fig1(args) -> None:
    from repro.analysis import ascii_cdf_figure

    result = _pop_study(args)
    fig1 = result.figures["fig1"]
    print(
        ascii_cdf_figure(
            {"BGP - best alternate": fig1.cdf},
            "Figure 1 (reproduced)",
            "median MinRTT difference (ms)",
            x_range=(-10.0, 10.0),
        )
    )
    if args.csv:
        from repro.io import write_cdf_csv

        write_cdf_csv(fig1.cdf, args.csv, label="bgp_minus_alternate_ms")
        logger.info("wrote %s", args.csv)
    print()
    print(
        format_table(
            ["statistic", "value"],
            [
                ["traffic improvable >= 5 ms", f"{fig1.frac_alternate_better_5ms:.1%}"],
                ["BGP within 1 ms of best", f"{fig1.frac_bgp_within_1ms:.1%}"],
                ["diff p50 (ms)", fig1.cdf.median],
                ["diff p90 (ms)", fig1.cdf.quantile(0.9)],
                ["diff p98 (ms)", fig1.cdf.quantile(0.98)],
            ],
        )
    )


def cmd_fig2(args) -> None:
    result = _pop_study(args)
    fig2 = result.figures["fig2"]
    print(
        format_table(
            ["comparison", "median (ms)", "within 5 ms"],
            [
                [
                    "peer - transit",
                    fig2.peer_vs_transit.median,
                    f"{fig2.frac_transit_within_5ms:.0%}",
                ],
                [
                    "private - public",
                    fig2.private_vs_public.median,
                    f"{fig2.frac_public_within_5ms:.0%}",
                ],
            ],
        )
    )


def cmd_fig3(args) -> None:
    from repro.analysis import ascii_cdf_figure

    result = _cdn_study(args)
    fig3 = result.figures["fig3"]
    print(
        ascii_cdf_figure(
            dict(fig3.ccdfs),
            "Figure 3 (reproduced, CCDF)",
            "anycast - best unicast (ms)",
            x_range=(0.0, 150.0),
        )
    )
    if args.csv:
        from repro.io import write_cdf_csv

        write_cdf_csv(fig3.ccdfs["world"], args.csv, label="anycast_minus_best_ms")
        logger.info("wrote %s", args.csv)
    print()
    rows = []
    for group in sorted(fig3.frac_within_10ms):
        rows.append(
            [
                group,
                f"{fig3.frac_within_10ms[group]:.0%}",
                f"{fig3.frac_beyond_100ms.get(group, 0.0):.1%}",
            ]
        )
    print(format_table(["group", "within 10 ms", ">= 100 ms worse"], rows))


def cmd_fig4(args) -> None:
    result = _cdn_study(args)
    fig4 = result.figures["fig4"]
    print(
        format_table(
            ["statistic", "value"],
            [
                ["/24s improved at median", f"{fig4.frac_improved:.0%}"],
                ["/24s hurt at median", f"{fig4.frac_hurt:.0%}"],
                ["resolvers redirected", f"{fig4.frac_redirected:.0%}"],
            ],
        )
    )


def cmd_fig5(args) -> None:
    result = _cloud_study(args)
    fig5 = result.figures["fig5"]
    print(text_choropleth(fig5.country_diff_ms, COUNTRY_REGIONS))
    if args.csv:
        from repro.io import write_country_csv

        write_country_csv(fig5.country_diff_ms, args.csv)
        logger.info("wrote %s", args.csv)
    print()
    print(
        format_table(
            ["statistic", "value"],
            [
                ["countries within +/- 10 ms", f"{fig5.frac_within_10ms:.0%}"],
                ["premium better", ", ".join(fig5.premium_better) or "-"],
                ["standard better", ", ".join(fig5.standard_better) or "-"],
            ],
        )
    )


#: ``--setting`` letters (the paper's naming) to study kinds.
SETTING_KINDS = {
    "A": ("pop",),
    "B": ("cdn",),
    "C": ("cloud",),
    "all": ("pop", "cdn", "cloud"),
}


def cmd_report(args) -> None:
    from repro.core import render_report

    kinds = SETTING_KINDS[args.setting]
    studies = [_build_study(kind, args) for kind in kinds]
    report = _run_campaign(args, studies)
    print(render_report(report.results))
    if _campaign_flags_used(args):
        print(report.render())


def cmd_peering(args) -> None:
    study = _build_study("peering", args)
    report = _run_campaign(args, [study])
    summary = report.results[0].summary
    rows = []
    for retention in study.retentions:
        prefix = f"retention_{int(round(retention * 100)):03d}"
        rows.append(
            [
                f"{retention:.0%}",
                summary[f"{prefix}_median_rtt_ms"],
                summary[f"{prefix}_p95_rtt_ms"],
                f"{summary[f'{prefix}_frac_on_transit']:.0%}",
                f"{summary[f'{prefix}_max_link_utilization']:.2f}",
            ]
        )
    print(
        format_table(
            ["peers kept", "median RTT", "p95 RTT", "on transit", "max util"],
            rows,
        )
    )
    if _campaign_flags_used(args):
        print(report.render())


def _campaign_runner_kwargs(args) -> dict:
    """Map the campaign subcommand's resilience flags to runner kwargs."""
    kwargs = dict(timeout_s=args.timeout, retries=args.retries)
    if args.faults:
        from repro.errors import FaultError
        from repro.faults import parse_fault_spec

        try:
            kwargs["fault_plan"] = parse_fault_spec(args.faults, seed=args.fault_seed)
        except FaultError as exc:
            raise SystemExit(f"--faults: {exc}")
    checkpoint_dir = args.checkpoint_dir or args.cache_dir
    if checkpoint_dir:
        kwargs["checkpoint_dir"] = checkpoint_dir
    if args.resume:
        if not checkpoint_dir:
            raise SystemExit("--resume requires --checkpoint-dir or --cache-dir")
        kwargs["resume"] = True
    if args.retry_budget is not None:
        kwargs["retry_budget"] = args.retry_budget
    if args.breaker_threshold is not None:
        kwargs["breaker_threshold"] = args.breaker_threshold
    if args.allow_partial:
        kwargs["allow_partial"] = True
    if args.progress:
        from repro.obs.progress import ProgressTracker

        kwargs["progress"] = ProgressTracker(stream=sys.stderr)
    return kwargs


def cmd_campaign(args) -> None:
    from repro.core import render_report
    from repro.core.sweep import aggregate_results

    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            raise SystemExit(
                f"--seeds must be a comma-separated integer list, got {args.seeds!r}"
            )
    else:
        seeds = [args.seed]
    if not seeds:
        raise SystemExit("--seeds named no seeds")
    kinds = ["pop", "cdn", "cloud"] if args.study == "all" else [args.study]
    studies = [
        _build_study(kind, args, seed=seed) for kind in kinds for seed in seeds
    ]
    report = _run_campaign(args, studies, **_campaign_runner_kwargs(args))
    print(report.render())
    # One result group per study kind, in submission order.
    for position, kind in enumerate(kinds):
        group = report.results[position * len(seeds) : (position + 1) * len(seeds)]
        print()
        if any(result is None for result in group):
            print(
                f"[{kind}] {sum(1 for r in group if r is None)}/{len(group)} "
                "jobs degraded; skipping aggregation for this study"
            )
        elif len(seeds) > 1:
            print(aggregate_results(group, seeds).render())
        else:
            print(render_report(group))
    if report.partial:
        # Partial results were printed, but the campaign did not finish
        # clean: exit 3 so scripts can tell the difference.
        raise SystemExit(3)


def cmd_grooming(args) -> None:
    from repro.core import cdn_topology
    from repro.cdn import groom_iteratively
    from repro.topology import build_internet
    from repro.workloads import generate_client_prefixes

    internet = build_internet(cdn_topology(args.seed))
    prefixes = generate_client_prefixes(internet, args.scale, seed=args.seed + 1)
    result = groom_iteratively(internet, prefixes, max_actions=25)
    rows = [
        [s.action[:60], f"{s.frac_within_10ms:.0%}", s.worst_gap_ms]
        for s in result.steps
    ]
    print(format_table(["action", "within 10 ms", "worst gap (ms)"], rows))


def cmd_topo(args) -> None:
    from repro.core import cloud_topology
    from repro.topology import build_internet, topology_summary

    internet = build_internet(cloud_topology(args.seed))
    print(topology_summary(internet).render())


def cmd_catchments(args) -> None:
    from repro.core import cdn_topology
    from repro.cdn import CdnDeployment, catchment_map
    from repro.topology import build_internet
    from repro.workloads import generate_client_prefixes

    internet = build_internet(cdn_topology(args.seed))
    prefixes = generate_client_prefixes(internet, args.scale, seed=args.seed + 1)
    cmap = catchment_map(CdnDeployment(internet), prefixes)
    print(cmap.render())
    print()
    print(
        format_table(
            ["statistic", "value"],
            [
                ["median client distance", f"{cmap.global_median_km:.0f} km"],
                ["misdirected traffic", f"{cmap.global_frac_misdirected:.0%}"],
                ["unreachable traffic", f"{cmap.frac_unreachable:.1%}"],
            ],
        )
    )


def cmd_validate(args) -> None:
    from repro.core import validate_reproduction

    report = validate_reproduction(
        seed=args.seed,
        scale="full" if args.scale >= 200 else "small",
        progress=lambda message: logger.info("%s", message),
    )
    print(report.render())
    if not report.passed:
        raise SystemExit(1)


def cmd_sites(args) -> None:
    from repro.core import cdn_topology
    from repro.cdn import site_count_study

    result = site_count_study(
        cdn_topology(args.seed), n_prefixes=args.scale, seed=args.seed + 1
    )
    rows = [
        [
            p.n_sites,
            p.median_rtt_ms,
            p.p90_rtt_ms,
            f"{p.frac_suboptimal_catchment:.0%}",
            p.p90_gap_ms,
        ]
        for p in result.points
    ]
    print(
        format_table(
            ["sites", "median RTT", "p90 RTT", "suboptimal", "p90 gap"],
            rows,
        )
    )


def cmd_ingest(args) -> None:
    """Service mode: replay a synthesized session stream through sketches.

    Streams every session batch through a
    :class:`repro.stream.SessionIngestor` (O(windows) state) with
    :func:`repro.stream.ingest_plan`, reports a sustained sessions/sec
    rate, and emits the same Figure 1 statistics table as the batch
    path — from sketch medians.  ``--compare-batch`` also runs batch
    synthesis and fails (exit 1) if the two reports disagree beyond the
    documented tolerance; ``--shards N`` re-ingests through N campaign
    jobs and asserts the merged snapshot is byte-identical to an
    in-process merge of the same shards.
    """
    from repro.core.configs import edgefabric_topology
    from repro.obs.trace import gauge, span
    from repro.topology import build_internet
    from repro.workloads import generate_client_prefixes
    from repro.edgefabric import bgp_vs_best_alternate
    from repro.edgefabric.sampler import (
        MeasurementConfig,
        plan_measurement,
        synthesize_dataset,
    )
    from repro.stream import (
        IngestShardStudy,
        ingest_plan,
        merge_snapshot_artifacts,
    )

    cfg = MeasurementConfig(days=args.days, seed=args.seed + 2)
    with span("ingest.topology", seed=args.seed):
        internet = build_internet(edgefabric_topology(args.seed))
    with span("ingest.workload"):
        prefixes = generate_client_prefixes(
            internet, args.scale, seed=args.seed + 1
        )
    with span("ingest.plan"):
        plan = plan_measurement(internet, prefixes, cfg)

    with span("ingest.stream"):
        run = ingest_plan(plan, cfg, args.max_centroids, args.chunk_windows)
    ingestor = run.ingestor
    elapsed = run.elapsed_s
    rate = ingestor.sessions / elapsed if elapsed > 0 else float("inf")
    gauge("ingest.sessions_per_sec", rate)

    with span("ingest.report"):
        dataset = run.dataset()
        fig1 = bgp_vs_best_alternate(dataset)

    print(
        format_table(
            ["ingest statistic", "value"],
            [
                ["pairs", dataset.n_pairs],
                ["windows", dataset.n_windows],
                ["sessions ingested", ingestor.sessions],
                ["batches", ingestor.batches],
                ["sessions/sec", f"{rate:,.0f}"],
                ["sketch cells", ingestor.n_cells],
            ],
        )
    )
    print()
    print(
        format_table(
            ["statistic (streaming lane)", "value"],
            [
                ["traffic improvable >= 5 ms", f"{fig1.frac_alternate_better_5ms:.1%}"],
                ["BGP within 1 ms of best", f"{fig1.frac_bgp_within_1ms:.1%}"],
                ["diff p50 (ms)", fig1.cdf.median],
                ["diff p98 (ms)", fig1.cdf.quantile(0.98)],
            ],
        )
    )

    if args.snapshot_out:
        with open(args.snapshot_out, "w", encoding="utf-8") as fh:
            fh.write(run.snapshot.to_json())
        logger.info("wrote snapshot to %s", args.snapshot_out)
    if args.rate_out:
        with open(args.rate_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "sessions": ingestor.sessions,
                    "elapsed_s": elapsed,
                    "sessions_per_sec": rate,
                    "windows": int(dataset.n_windows),
                    "pairs": int(dataset.n_pairs),
                    "cells": ingestor.n_cells,
                },
                fh,
                indent=2,
                sort_keys=True,
            )
        logger.info("wrote ingest rate to %s", args.rate_out)

    failures = 0
    if args.compare_batch:
        with span("ingest.compare_batch"):
            batch_fig1 = bgp_vs_best_alternate(synthesize_dataset(plan, cfg))
        checks = [
            (
                "traffic improvable >= 5 ms",
                fig1.frac_alternate_better_5ms,
                batch_fig1.frac_alternate_better_5ms,
            ),
            (
                "BGP within 1 ms of best",
                fig1.frac_bgp_within_1ms,
                batch_fig1.frac_bgp_within_1ms,
            ),
        ]
        print()
        rows = []
        for label, streamed, batched in checks:
            delta = abs(streamed - batched)
            if delta > 0.05:
                failures += 1
            rows.append(
                [label, f"{streamed:.1%}", f"{batched:.1%}", f"{delta:.3f}"]
            )
        print(
            format_table(
                ["statistic", "streaming", "batch", "|diff|"], rows
            )
        )
        if failures:
            print(f"LANE MISMATCH: {failures} statistic(s) beyond 0.05")
        else:
            print("lanes agree within tolerance (0.05)")

    if args.shards > 1:
        studies = [
            IngestShardStudy(
                seed=args.seed,
                n_prefixes=args.scale,
                days=args.days,
                shard=shard,
                n_shards=args.shards,
                max_centroids=args.max_centroids,
                chunk_windows=args.chunk_windows,
            )
            for shard in range(args.shards)
        ]
        with span("ingest.shards", n=args.shards):
            report = _run_campaign(args, studies)
            merged = merge_snapshot_artifacts(report.results).to_json()
            direct = merge_snapshot_artifacts(
                [study.run() for study in studies]
            ).to_json()
        identical = merged == direct
        print()
        print(
            f"sharded ingest ({args.shards} shards): merged snapshot "
            f"{'byte-identical to in-process merge' if identical else 'DIVERGED'}"
        )
        if not identical:
            failures += 1
    if failures:
        raise SystemExit(1)


def cmd_trace_summarize(args) -> None:
    from repro.obs import load_events, summarize_events

    events = load_events(args.file)
    print(summarize_events(events).render())


def cmd_trace_profile(args) -> None:
    """Self-time-ranked span profile of a recorded stream."""
    from repro.obs import load_events, profile_events

    profile = profile_events(load_events(args.file), include_replay=args.include_replay)
    print(profile.render(limit=args.limit))


def cmd_trace_flame(args) -> None:
    """Collapsed-stack flamegraph export (flamegraph.pl / speedscope)."""
    from repro.obs import build_forest, collapsed_stacks, load_events

    forest = build_forest(load_events(args.file), include_replay=args.include_replay)
    lines = collapsed_stacks(forest)
    if not lines:
        raise SystemExit(
            f"trace flame: {args.file} has no closed spans with self-time"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        logger.info("wrote %d stack(s) to %s", len(lines), args.out)
    else:
        sys.stdout.write(text)


def cmd_trace_critical(args) -> None:
    """Critical path, worker busy/idle, and platform split of a campaign."""
    from repro.obs import build_forest, critical_path, load_events

    forest = build_forest(load_events(args.file))
    print(critical_path(forest, anchor=args.anchor).render())


#: Names accepted by ``repro-bgp scenario --name`` (kept literal so the
#: parser builds without importing the bgp package; pinned against
#: ``repro.bgp.SCENARIOS`` in tests/test_cli.py).
SCENARIO_NAMES = ("hijack", "more-specific-hijack", "withdrawal-cascade")


def cmd_scenario(args) -> None:
    from pathlib import Path

    from repro.availability import scenario_recovery
    from repro.bgp import run_scenario
    from repro.bgp.dynamics import DynamicsConfig
    from repro.core import cdn_topology
    from repro.topology import build_internet

    internet = build_internet(cdn_topology(args.seed))
    config = DynamicsConfig(seed=args.seed, mrai_s=args.mrai_s)
    result = run_scenario(
        args.name, seed=args.seed, config=config, internet=internet
    )
    recovery = scenario_recovery(result, internet.graph)
    if args.timeline_out:
        Path(args.timeline_out).write_text(result.to_json(indent=2) + "\n")
        logger.info("timeline written to %s", args.timeline_out)
    rows = [
        ["scenario", result.name],
        ["seed", result.seed],
        ["victim AS", result.victim],
        ["attacker AS", "-" if result.attacker is None else result.attacker],
        ["converged", "yes" if result.converged else "NO"],
        ["setup convergence", f"{result.setup_converged_s:.3f} s"],
        ["time to reconverge", f"{result.time_to_reconverge_s:.3f} s"],
        ["timeline entries", len(result.timeline)],
        ["affected ASes", recovery.affected_ases],
        ["outage user-seconds", f"{recovery.outage_user_seconds:.3f}"],
    ]
    if result.recovered is not None:
        rows.append(["recovered to baseline", "yes" if result.recovered else "NO"])
        rows.append(["time to recover", f"{recovery.time_to_recover_s:.3f} s"])
    for key in sorted(result.metrics):
        rows.append([key, f"{result.metrics[key]:g}"])
    print(format_table(["field", "value"], rows))
    failed = (
        not result.converged
        or not result.timeline
        or result.recovered is False
        or not recovery.fully_recovered
    )
    if failed:
        # Exit 1 (invariant violation), same taxonomy as lint/validate.
        raise SystemExit(1)


def cmd_lint(args) -> None:
    from pathlib import Path

    from repro.lint import lint_paths, render_json, render_text

    root = Path(args.root) if args.root else Path.cwd()
    paths = [Path(p) for p in args.paths] if args.paths else [root / "src"]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"lint: no such path: {', '.join(map(str, missing))}")
    findings = lint_paths(paths, root=root)
    print((render_json if args.format == "json" else render_text)(findings))
    if findings:
        # Exit 1, distinct from argparse usage errors (2) and degraded
        # campaigns (3): "the tree violates an invariant".
        raise SystemExit(1)


def _integer_at_least(name: str, floor: int) -> Callable[[str], int]:
    """Option type: an integer >= ``floor``, else an argparse usage error.

    The messages are the library's checks of the same value, so a bad
    value fails with the same words, only before any work starts.
    """

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer, got {text}"
            ) from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"{name} must be >= {floor}, got {value}")
        return value

    return parse


def _finite_positive(name: str) -> Callable[[str], float]:
    """Option type: a finite float > 0, else an argparse usage error."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"{name} must be finite and > 0, got {text}"
            )
        return value

    return parse


#: Options several study commands share, by flag.  A command takes
#: only those its :data:`COMMANDS` entry names.
SHARED_OPTIONS: Dict[str, dict] = {
    "--seed": dict(type=int, default=0, help="randomness seed"),
    "--scale": dict(
        type=_integer_at_least("scale", 1),
        default=150,
        help="population size (prefixes or daily vantage points)",
    ),
    "--days": dict(
        type=_finite_positive("days"), default=3.0, help="campaign length in days"
    ),
    "--csv": dict(
        default=None, metavar="PATH", help="also write the figure's series as CSV"
    ),
    "--jobs": dict(
        type=_integer_at_least("jobs", 1),
        default=1,
        help="worker processes for the campaign (1 = serial)",
    ),
    "--cache-dir": dict(
        default=None,
        metavar="PATH",
        help="content-addressed result cache; unchanged jobs are "
        "served from disk instead of re-simulating",
    ),
}


class Command(NamedTuple):
    """One subcommand: its handler, help line and shared options."""

    handler: Optional[Callable]
    help: str
    options: Tuple[str, ...] = ()


_SEED = ("--seed",)
_POPULATION = (*_SEED, "--scale")
_STUDY = (*_POPULATION, "--days")
_FIGURE = (*_STUDY, "--csv")
_CAMPAIGN = (*_STUDY, "--jobs", "--cache-dir")

#: Every subcommand, in ``repro-bgp list`` order.  Each takes exactly
#: the shared options its entry names, because its run reads each of
#: them; ``trace`` is a group whose verbs have their own handlers.
COMMANDS: Dict[str, Command] = {
    "fig1": Command(cmd_fig1, "Figure 1: BGP vs best alternate egress route", _FIGURE),
    "fig2": Command(cmd_fig2, "Figure 2: peer vs transit, private vs public", _STUDY),
    "fig3": Command(cmd_fig3, "Figure 3: anycast vs best unicast CCDF", _FIGURE),
    "fig4": Command(cmd_fig4, "Figure 4: DNS redirection vs anycast", _STUDY),
    "fig5": Command(cmd_fig5, "Figure 5: Standard - Premium per country", _FIGURE),
    "report": Command(cmd_report, "All three studies + hypothesis verdicts", _CAMPAIGN),
    "campaign": Command(
        cmd_campaign, "Managed multi-seed campaign: parallel + cached", _CAMPAIGN
    ),
    "peering": Command(
        cmd_peering,
        "Section 3.1.3: peering-reduction emulation",
        (*_POPULATION, "--jobs", "--cache-dir"),
    ),
    "grooming": Command(
        cmd_grooming, "Section 3.2.2: iterative anycast grooming", _POPULATION
    ),
    "sites": Command(cmd_sites, "Section 3.2.2: anycast site-count sweep", _POPULATION),
    "topo": Command(cmd_topo, "Structural summary of the generated topology", _SEED),
    "catchments": Command(
        cmd_catchments, "Anycast catchment map (the operator's view)", _POPULATION
    ),
    "validate": Command(
        cmd_validate, "Self-check: verify every headline claim", _POPULATION
    ),
    "ingest": Command(
        cmd_ingest,
        "Streaming service mode: session stream -> quantile sketches",
        _CAMPAIGN,
    ),
    "scenario": Command(
        cmd_scenario,
        "Event-driven routing scenario: hijack or withdrawal cascade",
        _SEED,
    ),
    "trace": Command(
        None,
        "Inspect recorded telemetry streams "
        "(trace summarize|profile|flame|critical FILE)",
    ),
    "lint": Command(
        cmd_lint, "Invariant lint: RNG/time purity, worker purity, taxonomy"
    ),
}


def cmd_list(args) -> None:
    for name, command in COMMANDS.items():
        print(f"{name:10s} {command.help}")


def _add_runtime_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Attach the logging/telemetry flags to a parser.

    The same flags live on the root parser (with real defaults) and on
    every subcommand (with ``SUPPRESS`` defaults, so a flag given after
    the subcommand name overrides the root value instead of being
    clobbered by a subparser default).
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=default(None),
        help="diagnostic verbosity on stderr (default: warning)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=default(0),
        help="step up diagnostics: -v info, -vv debug",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        default=default(False),
        help="errors only on stderr",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        default=default(False),
        help="emit diagnostics as JSON lines instead of text",
    )
    parser.add_argument(
        "--trace-out",
        default=default(None),
        metavar="FILE",
        help="record a JSONL telemetry stream of the run to FILE, plus "
        "a FILE.manifest.json provenance record; inspect with "
        "'repro-bgp trace summarize FILE'",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bgp",
        description=(
            "Regenerate experiments from 'Beating BGP is Harder than we "
            "Thought' (HotNets '19) on the simulated substrate."
        ),
    )
    _add_runtime_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for flag in command.options:
            cmd.add_argument(flag, **SHARED_OPTIONS[flag])
        if command.handler is not None:  # trace's verbs take these themselves
            _add_runtime_flags(cmd, suppress=True)
            cmd.set_defaults(handler=command.handler)
    ingest_cmd = sub.choices["ingest"]
    ingest_cmd.add_argument(
        "--shards",
        type=_integer_at_least("shards", 1),
        default=1,
        metavar="N",
        help="also re-ingest through N campaign-shard jobs and verify "
        "the merged snapshot is byte-identical to an in-process merge "
        "(honors --jobs/--cache-dir; default: 1 = single-pass only)",
    )
    ingest_cmd.add_argument(
        "--chunk-windows",
        type=_integer_at_least("chunk_windows", 1),
        default=16,
        metavar="N",
        help="windows per synthesized session batch; output is "
        "invariant to it (default: 16)",
    )
    ingest_cmd.add_argument(
        "--max-centroids",
        type=_integer_at_least("max_centroids", 8),
        default=64,
        metavar="N",
        help="centroid budget of each window's quantile sketch (default: 64)",
    )
    ingest_cmd.add_argument(
        "--compare-batch",
        action="store_true",
        default=False,
        help="also run the batch lane and fail (exit 1) if the report "
        "statistics differ beyond the documented tolerance",
    )
    ingest_cmd.add_argument(
        "--snapshot-out",
        default=None,
        metavar="FILE",
        help="write the final ingest snapshot (canonical JSON) to FILE",
    )
    ingest_cmd.add_argument(
        "--rate-out",
        default=None,
        metavar="FILE",
        help="write the sustained sessions/sec measurement as JSON to FILE",
    )
    scenario_cmd = sub.choices["scenario"]
    scenario_cmd.add_argument(
        "--name",
        required=True,
        choices=SCENARIO_NAMES,
        help="which routing scenario to run (see docs/dynamics.md)",
    )
    scenario_cmd.add_argument(
        "--mrai-s",
        type=float,
        default=5.0,
        metavar="S",
        help="base MRAI interval per BGP session (default: 5.0)",
    )
    scenario_cmd.add_argument(
        "--timeline-out",
        default=None,
        metavar="FILE",
        help="write the full scenario result (summary + event timeline) "
        "as canonical JSON to FILE",
    )
    report_cmd = sub.choices["report"]
    report_cmd.add_argument(
        "--setting",
        choices=sorted(SETTING_KINDS),
        default="all",
        help="restrict to one of the paper's settings: A = PoP egress "
        "routing, B = anycast CDN, C = cloud tiers (default: all)",
    )
    campaign_cmd = sub.choices["campaign"]
    campaign_cmd.add_argument(
        "--study",
        choices=["pop", "cdn", "cloud", "peering", "all"],
        default="all",
        help="which study to campaign over (default: all three settings)",
    )
    campaign_cmd.add_argument(
        "--seeds",
        default=None,
        metavar="LIST",
        help="comma-separated seed list, e.g. 0,1,2,3,4 (default: --seed)",
    )
    campaign_cmd.add_argument(
        "--timeout",
        type=_finite_positive("timeout"),
        default=None,
        metavar="S",
        help="per-job wall-time limit in seconds (parallel mode only)",
    )
    campaign_cmd.add_argument(
        "--retries",
        type=int,
        default=2,
        help="extra attempts for a crashed or timed-out job",
    )
    campaign_cmd.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help="journal completed jobs here so a killed campaign can "
        "--resume (default: --cache-dir when given)",
    )
    campaign_cmd.add_argument(
        "--resume",
        action="store_true",
        default=False,
        help="restore completed jobs from this campaign's checkpoint "
        "before running the remainder",
    )
    campaign_cmd.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject deterministic faults, e.g. "
        "'crash=0.2,timeout=0.1,corrupt=0.3' (kinds: timeout, crash, "
        "error, slow, corrupt; also hang_s=, slow_s=, max_attempts=)",
    )
    campaign_cmd.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the fault plan's decision stream (default: 0)",
    )
    campaign_cmd.add_argument(
        "--retry-budget",
        type=int,
        default=None,
        metavar="N",
        help="campaign-wide cap on total retries (default: unlimited)",
    )
    campaign_cmd.add_argument(
        "--breaker-threshold",
        type=float,
        default=None,
        metavar="RATE",
        help="open the per-platform circuit breaker at this failure "
        "rate in (0, 1] (default: off)",
    )
    campaign_cmd.add_argument(
        "--allow-partial",
        action="store_true",
        default=False,
        help="finish with degraded jobs instead of aborting; a partial "
        "campaign exits with status 3",
    )
    campaign_cmd.add_argument(
        "--progress",
        action="store_true",
        default=False,
        help="live status line on stderr (jobs done, rate, ETA); "
        "TTY-aware — on a pipe it degrades to throttled lines",
    )
    lint_cmd = sub.choices["lint"]
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: <root>/src)",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint_cmd.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="repo root for relative paths (default: current directory)",
    )
    trace_cmd = sub.choices["trace"]
    trace_sub = trace_cmd.add_subparsers(dest="trace_command")
    summarize_cmd = trace_sub.add_parser(
        "summarize",
        help="aggregate a JSONL event stream into a per-phase timing table",
    )
    summarize_cmd.add_argument(
        "file", help="path to a stream recorded with --trace-out"
    )
    _add_runtime_flags(summarize_cmd, suppress=True)
    summarize_cmd.set_defaults(handler=cmd_trace_summarize)
    profile_cmd = trace_sub.add_parser(
        "profile",
        help="span-tree profile: self vs cumulative time, hottest first",
    )
    profile_cmd.add_argument(
        "file", help="path to a stream recorded with --trace-out"
    )
    profile_cmd.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="show only the N hottest spans (default: all)",
    )
    profile_cmd.add_argument(
        "--include-replay",
        action="store_true",
        default=False,
        help="attribute replayed cache-hit spans too (normally excluded "
        "from wall-clock attribution)",
    )
    _add_runtime_flags(profile_cmd, suppress=True)
    profile_cmd.set_defaults(handler=cmd_trace_profile)
    flame_cmd = trace_sub.add_parser(
        "flame",
        help="collapsed-stack flamegraph export "
        "(feed to flamegraph.pl or speedscope)",
    )
    flame_cmd.add_argument(
        "file", help="path to a stream recorded with --trace-out"
    )
    flame_cmd.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the collapsed stacks to FILE instead of stdout",
    )
    flame_cmd.add_argument(
        "--include-replay",
        action="store_true",
        default=False,
        help="attribute replayed cache-hit spans too",
    )
    _add_runtime_flags(flame_cmd, suppress=True)
    flame_cmd.set_defaults(handler=cmd_trace_flame)
    critical_cmd = trace_sub.add_parser(
        "critical",
        help="campaign critical path: longest chain, pool idle time, "
        "queueing vs compute per platform",
    )
    critical_cmd.add_argument(
        "file", help="path to a stream recorded with --trace-out"
    )
    critical_cmd.add_argument(
        "--anchor",
        default="runner.campaign",
        metavar="SPAN",
        help="root span to anchor the analysis at "
        "(default: %(default)s; falls back to the longest root)",
    )
    _add_runtime_flags(critical_cmd, suppress=True)
    critical_cmd.set_defaults(handler=cmd_trace_critical)
    sub.add_parser("list", help="list available commands").set_defaults(
        handler=cmd_list
    )
    return parser


def _manifest_seeds(args) -> tuple:
    """Every seed a command line names (--seeds list or --seed)."""
    listed = getattr(args, "seeds", None)
    if listed:
        try:
            return tuple(int(s) for s in listed.split(",") if s.strip())
        except ValueError:
            return ()
    seed = getattr(args, "seed", None)
    return (int(seed),) if seed is not None else ()


def _write_trace(args, captured, wall_s: float) -> None:
    """Persist a captured event stream plus its run manifest."""
    from repro import obs

    obs.write_jsonl(args.trace_out, captured.events)
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("handler", "trace_out")
        and isinstance(value, (bool, int, float, str, type(None)))
    }
    manifest = obs.collect_manifest(
        captured.run_id,
        config=config,
        seeds=_manifest_seeds(args),
        wall_s=wall_s,
        extra={"n_events": len(captured.events)},
    )
    manifest_path = f"{args.trace_out}.manifest.json"
    obs.write_manifest(manifest, manifest_path)
    logger.info(
        "wrote %d events to %s (manifest: %s)",
        len(captured.events),
        args.trace_out,
        manifest_path,
    )


def _command_label(args) -> str:
    """The subcommand as typed, e.g. ``"trace critical"``."""
    words = (args.command, getattr(args, "trace_command", None))
    return " ".join(word for word in words if word)


def main(argv=None) -> int:
    """Run one subcommand; library failures exit 1 with a one-line message.

    Any :class:`~repro.errors.ReproError` becomes ``<subcommand>:
    <message>`` on stderr.  Degraded campaigns exit 3 and a closed
    stdout pipe exits 141.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 2
    setup_logging(
        _resolve_log_level(args), json_lines=getattr(args, "log_json", False)
    )
    try:
        if not getattr(args, "trace_out", None):
            args.handler(args)
            return 0
        from repro import obs

        captured = None
        start = time.perf_counter()
        try:
            with obs.capture() as captured:
                args.handler(args)
        finally:
            if captured is not None:
                _write_trace(args, captured, time.perf_counter() - start)
        return 0
    except ReproError as exc:
        raise SystemExit(f"{_command_label(args)}: {exc}") from exc
    except BrokenPipeError:
        # Piping long output (e.g. `trace summarize ... | head`) closes
        # stdout early; swap in devnull so the interpreter's exit flush
        # stays quiet, and exit like other line-oriented tools.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
