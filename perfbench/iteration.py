"""One benchmark iteration, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/iteration.py --workload report-all --seeds 7 \\
        --params '{"scale": 150, "days": 3.0, "jobs": 2, "mrai_s": 5.0}' \\
        --trace 0 --tmp <scratch dir> --src <checkout>/src

It imports the program and builds the workload's inputs, stamps the
monotonic clock (``ready_at``; the parent subtracts its spawn time to
get ``setup_s``) and times the workload body.  From its start to the
end of the body a ``SpeedProbe`` measures how fast the host runs, here
and in forked pool workers.  The last line of standard output is one
JSON object: the wall time, the probe's samples, the output of every
operation, the operations that failed here, and, with ``--trace 1``,
the per-layer metrics.

An operation is a study (``report-all``), a campaign job
(``campaign-3seed``) or a scenario (``scenario-sweep``), keyed
``<name>/<seed>`` (see ``operation_keys``).  It fails here when it
raised, degraded, or did not converge or recover; the parent also fails
it when its output differs from the one in ``expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import struct
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

#: ``StudyResult.name`` of the three settings' studies, in the order
#: ``make_studies`` builds them.
STUDY_NAMES = ("pop-routing", "anycast-cdn", "cloud-tiers")

#: The scenarios ``scenario-sweep`` runs on every seed's Internet.
SCENARIO_NAMES = ("hijack", "more-specific-hijack", "withdrawal-cascade")

#: The speed probe's tick, and its kernel's size: about 0.3 ms of
#: interpreter work, so the probe takes about 1.5% of the time.
PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 2_000


def operation_keys(workload: str, seeds: List[int]) -> List[str]:
    """Keys of a workload's operations on *seeds*, kind-major."""
    names = SCENARIO_NAMES if workload == "scenario-sweep" else STUDY_NAMES
    return [f"{name}/{seed}" for name in names for seed in seeds]


class Outcome:
    """Outputs by operation key, and why operations failed here."""

    def __init__(self) -> None:
        self.outputs: Dict[str, Any] = {}
        self.failed: Dict[str, str] = {}

    def fail(self, keys: List[str], why: str) -> None:
        for key in keys:
            self.failed[key] = why

    def raised(self, keys: List[str]) -> None:
        self.fail(keys, traceback.format_exc(limit=3))


def study_output(result: Any) -> Dict[str, Any]:
    """What ``expected.json`` holds for a study: summary and verdicts."""
    return {
        "summary": result.summary,
        "verdicts": [[h.hypothesis, h.verdict.value] for h in result.hypotheses],
    }


class SpeedProbe:
    """Times a tiny fixed kernel on every timer tick, in this thread.

    Other tenants of a shared host slow every instruction of a run by
    up to 2x, in bursts that last from under a second to minutes.  The
    kernel runs interleaved with the workload, in its thread, so it sees
    the same slowdown, and the parent scales timings by its mean time.
    It is timed in thread CPU time, so time this process waits for a CPU
    behind its own pool workers does not count.

    Forked pool workers, which do the work of a pool workload, run the
    probe too and append their samples to ``probe-<pid>`` files in
    *spill_dir*, since a worker's memory does not reach this process.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.samples: List[float] = []
        self.spill_dir = spill_dir
        self._spill: Optional[int] = None

    def _tick(self, signum, frame) -> None:
        start = time.thread_time()
        table: Dict[int, float] = {}
        for i in range(PROBE_LOOPS):
            table[i % 61] = table.get(i % 61, 0.0) + i * 0.5
        sample = time.thread_time() - start
        if self._spill is None:
            self.samples.append(sample)
        else:
            os.write(self._spill, struct.pack("d", sample))

    def _start_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _start_in_child(self) -> None:
        # A forked child keeps the signal handler but not the timer.
        path = self.spill_dir / f"probe-{os.getpid()}"
        self._spill = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        self._start_timer()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        os.register_at_fork(after_in_child=self._start_in_child)
        self._start_timer()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def child_samples(self) -> List[float]:
        """The samples of every forked child, once the children are done."""
        samples: List[float] = []
        for path in sorted(self.spill_dir.glob("probe-*")):
            data = path.read_bytes()
            samples.extend(s for (s,) in struct.iter_unpack("d", data))
        return samples


def make_studies(seeds: List[int], params: Dict[str, Any]) -> List[Any]:
    """The three settings' studies, kind-major, at the CLI's mapping.

    Mirrors ``repro-bgp report``/``campaign``: ``--scale`` is the prefix
    count (Settings A, B) and the daily vantage points (Setting C),
    whose campaign length is clamped to at least two whole days.
    """
    from repro.core import AnycastCdnStudy, CloudTiersStudy, PopRoutingStudy

    scale, days = params["scale"], params["days"]
    return (
        [PopRoutingStudy(seed=s, n_prefixes=scale, days=days) for s in seeds]
        + [AnycastCdnStudy(seed=s, n_prefixes=scale, days=days) for s in seeds]
        + [
            CloudTiersStudy(seed=s, days=max(2, int(days)), vps_per_day=scale)
            for s in seeds
        ]
    )


class ReportAll:
    """``repro-bgp report --setting all``: three studies inline, rendered."""

    def __init__(self, seeds, params, tmp) -> None:
        from repro import core
        from repro.runner import CampaignRunner, JobSpec

        self.core = core
        self.keys = operation_keys("report-all", seeds)
        self.specs = [JobSpec.from_study(s) for s in make_studies(seeds, params)]
        self.runner = CampaignRunner(jobs=1)

    def run(self) -> Outcome:
        outcome = Outcome()
        try:
            report = self.runner.run(self.specs)
            self.core.render_report(report.results)
        except Exception:
            outcome.raised(self.keys)
            return outcome
        for key, result in zip(self.keys, report.results):
            outcome.outputs[key] = study_output(result)
        return outcome


class Campaign3Seed:
    """``repro-bgp campaign --seeds s,s+1,s+2 --jobs 2 --cache-dir <new>``."""

    def __init__(self, seeds, params, tmp) -> None:
        from repro.core.sweep import aggregate_results
        from repro.runner import CampaignRunner, JobSpec, ResultStore

        class TimedStore(ResultStore):
            """A result store that times its own writes."""

            put_s = 0.0

            def put(self, *args, **kwargs):
                start = time.perf_counter()
                try:
                    return super().put(*args, **kwargs)
                finally:
                    self.put_s += time.perf_counter() - start

        self.seeds = seeds
        self.aggregate_results = aggregate_results
        self.keys = operation_keys("campaign-3seed", seeds)
        self.specs = [JobSpec.from_study(s) for s in make_studies(seeds, params)]
        cache_dir = Path(tmp) / "cache"
        self.store = TimedStore(cache_dir)
        # The CLI's campaign defaults: no timeout, two retries, and the
        # cache directory doubling as the checkpoint directory.
        self.runner = CampaignRunner(
            jobs=params["jobs"],
            store=self.store,
            timeout_s=None,
            retries=2,
            checkpoint_dir=cache_dir,
        )
        self.report = None
        self.campaign_s = 0.0

    def run(self) -> Outcome:
        outcome = Outcome()
        start = time.perf_counter()
        try:
            report = self.runner.run(self.specs)
        except Exception:
            outcome.raised(self.keys)
            return outcome
        self.campaign_s = time.perf_counter() - start
        self.report = report
        # What the CLI prints: the metrics table, one aggregate per kind.
        report.render()
        n = len(self.seeds)
        for position in range(len(self.specs) // n):
            group = report.results[position * n : (position + 1) * n]
            if all(result is not None for result in group):
                self.aggregate_results(group, self.seeds).render()
        for key, result in zip(self.keys, report.results):
            if result is None:
                outcome.fail([key], "degraded")
            else:
                outcome.outputs[key] = study_output(result)
        return outcome

    def runner_metrics(self, wall_s: float) -> Dict[str, float]:
        """Runner accounting from the public returns alone.

        Compute time is what the worker measured around the study, as
        stored in the cache entry.  ``JobMetrics.attempt_s`` starts at
        submission in pool mode, so only its excess over compute is
        counted, as queueing.
        """
        report = self.report
        if report is None:
            return {"unattributed_s": wall_s}
        compute = queued = 0.0
        for spec, job in zip(self.specs, report.metrics):
            if job.status != "ran":
                continue
            entry = self.store.read_entry(spec)
            compute += entry.elapsed_s
            queued += sum(job.attempt_s) - entry.elapsed_s
        workers = min(self.runner.jobs, len(self.specs))
        return {
            "runner.jobs": len(report.metrics),
            "runner.job_compute_s": compute,
            "runner.queue_wait_s": queued,
            "runner.worker_util": compute / (workers * self.campaign_s),
            "runner.store.put_s": self.store.put_s,
            "runner.retries": report.n_retries,
            "runner.degraded": report.n_degraded,
            "unattributed_s": wall_s - self.campaign_s,
        }


class ScenarioSweep:
    """Each scenario over a block of seeds, one shared Internet per seed.

    ``repro-bgp scenario`` builds a fast-lane Internet per invocation;
    here the three scenarios of a seed share one, which gives the same
    timelines (checked by the self-test).
    """

    def __init__(self, seeds, params, tmp) -> None:
        from repro import availability, bgp, topology
        from repro.bgp.dynamics import DynamicsConfig
        from repro.core import cdn_topology

        self.seeds = seeds
        self.mrai_s = params["mrai_s"]
        self.availability, self.bgp, self.topology = availability, bgp, topology
        self.DynamicsConfig = DynamicsConfig
        self.cdn_topology = cdn_topology

    def run(self) -> Outcome:
        outcome = Outcome()
        for seed in self.seeds:
            try:
                internet = self.topology.build_internet(
                    self.cdn_topology(seed), fast=True
                )
            except Exception:
                outcome.raised([f"{name}/{seed}" for name in SCENARIO_NAMES])
                continue
            for name in SCENARIO_NAMES:
                key = f"{name}/{seed}"
                try:
                    result = self.bgp.run_scenario(
                        name,
                        seed=seed,
                        config=self.DynamicsConfig(seed=seed, mrai_s=self.mrai_s),
                        internet=internet,
                    )
                    recovery = self.availability.scenario_recovery(
                        result, internet.graph
                    )
                except Exception:
                    outcome.raised([key])
                    continue
                outcome.outputs[key] = hashlib.sha256(
                    result.to_json().encode("utf-8")
                ).hexdigest()
                # The CLI's failure rule (exit 1 of `repro-bgp scenario`).
                if (
                    not result.converged
                    or not result.timeline
                    or result.recovered is False
                    or not recovery.fully_recovered
                ):
                    outcome.fail([key], "did not converge or recover")
        return outcome


WORKLOADS = {
    "report-all": ReportAll,
    "campaign-3seed": Campaign3Seed,
    "scenario-sweep": ScenarioSweep,
}

#: Workloads that run in this process only; the traced run wraps their
#: layers.  A pool workload's layers run in forked workers.
INLINE = ("report-all", "scenario-sweep")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--params", required=True, help="JSON workload parameters")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory")
    parser.add_argument("--src", required=True, help="source tree to import")
    args = parser.parse_args(argv)
    probe = SpeedProbe(Path(args.tmp))
    probe.start()

    import numpy
    import repro

    src = Path(args.src).resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",")]
    tracer = None
    if args.trace and args.workload in INLINE:
        from tracer import LayerTracer, load_layer_map

        tracer = LayerTracer(load_layer_map())
        tracer.install()
    job = WORKLOADS[args.workload](seeds, json.loads(args.params), args.tmp)
    ready_at = time.monotonic()
    setup_probes = len(probe.samples)
    start = time.perf_counter()
    outcome = job.run()
    wall_s = time.perf_counter() - start
    probe.stop()
    layers: Dict[str, float] = {}
    if tracer is not None:
        layers = tracer.metrics()
        layers["unattributed_s"] = wall_s - tracer.total_self_s()
    elif args.trace:
        layers = job.runner_metrics(wall_s)
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "wall_s": wall_s,
                "probe_s": probe.samples,
                "worker_probe_s": probe.child_samples(),
                "setup_probes": setup_probes,
                "outputs": outcome.outputs,
                "failed": outcome.failed,
                "layers": layers,
                "numpy": numpy.__version__,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
