"""End-to-end benchmark of the reproduction, with a traced per-layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-all --seed 0 --seconds 30 --trace 0

Workloads.  ``--seed`` picks the first seed ``s = seed mod 10`` of the
workload's input, and every iteration of a run repeats that input:

* ``report-all`` -- the three ``Study.run()`` calls of
  ``repro-bgp report --setting all --seed s`` through an inline
  ``CampaignRunner(jobs=1)`` and ``render_report``, at the CLI defaults
  (``--scale 150 --days 3``).  Measurement does most of the work.
* ``campaign-3seed`` -- ``repro-bgp campaign --seeds s,s+1,s+2 --jobs 2
  --cache-dir <fresh dir>``: nine jobs over two pool workers, with
  result-store writes and checkpoints.
* ``scenario-sweep`` -- hijack, more-specific hijack and withdrawal
  cascade over seeds ``s`` to ``s+11``, one fast-lane Internet per seed,
  with ``scenario_recovery`` on each result.  The event engine does the
  work; measurement, analysis and the runner do none.

Every operation's output on those seeds has a committed expected value
in ``expected.json`` (written by ``expected.py`` from inline runs, so
the pool path of ``campaign-3seed`` is checked against the inline
path).  An operation fails when it raised, degraded, did not converge
or recover, or its output differs from the expected one.

Every iteration runs in a fresh interpreter (``iteration.py``), and the
driver repeats the run's input for ``--seconds``.  With ``--trace 0``
it reports the median over the iterations of each end-to-end metric of
``BENCHMARK.json``: ``wall_s`` (workload body, from inputs ready to
outputs returned), ``cpu_s`` (user+sys of the iteration's whole process
tree, pool workers included, set-up included), ``setup_s`` (spawn until
imports are done and inputs are ready) and ``peak_rss_mb`` (largest
peak RSS of any process in the tree).  ``failed / attempted`` is the
failed fraction; the table prints it as ``failed_frac``.

Timings are reported at reference speed.  Other tenants of a shared
host slow every instruction of a run by up to 2x, in bursts that last
from under a second to minutes, which moves the medians of two sets of
runs apart by more than any useful bound.  So while an iteration sets
up and runs, a probe in its main thread, and in each pool worker, times
a tiny fixed kernel every 20 ms (``iteration.SpeedProbe``, about 1.5%
of the time).  Each timing is taken net of the probe's own time and
scaled by ``REFERENCE_PROBE_S`` over the probe's mean over the same
span.  The table also prints the measured medians.

With ``--trace 1`` iterations come in pairs on the same input, one
untraced and one traced (``tracer.py`` wraps the layer entry points of
``layers.json``), and the driver reports the medians of the per-layer
metrics, of ``unattributed_s`` and of ``trace_overhead_s``.

To print every metric of every workload::

    for w in report-all campaign-3seed scenario-sweep; do
        python3 perfbench/run.py --workload $w --seed 0 --seconds 30 --trace 0
    done

The last line of standard output is the JSON result; the lines before
it are the environment record and a table of the metrics.  Without the
program's sources next to the benchmark the driver exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from iteration import operation_keys

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench-tmp"
EXPECTED_PATH = BENCH_DIR / "expected.json"

#: Pool workers of ``campaign-3seed``; the driver refuses to run it on
#: fewer CPUs than this.
JOBS = 2

#: Parameters at the CLI's defaults (``--scale 150 --days 3``,
#: ``--mrai-s 5``).
PARAMS = {"scale": 150, "days": 3.0, "jobs": JOBS, "mrai_s": 5.0}

#: Consecutive seeds one input of each workload runs.
SEEDS_PER_INPUT = {"report-all": 1, "campaign-3seed": 3, "scenario-sweep": 12}

#: ``--seed`` is taken modulo this, so every input has expected outputs.
FIRST_SEEDS = 10

#: Mean time of the speed probe's kernel on the host the bounds were set
#: on (a 2-vCPU Intel Xeon VM, Python 3.11) when nothing else ran.
REFERENCE_PROBE_S = 0.00027

#: Relative and absolute tolerance of a summary value.
REL_TOL = 1e-6
ABS_TOL = 1e-9

#: A single iteration that runs longer than this is killed and failed.
ITERATION_TIMEOUT_S = 60.0

#: Every iteration is killed by this time after the driver starts, so
#: the driver exits within three minutes whatever hangs.
RUN_DEADLINE_S = 165.0

#: Iterations one run makes at most.
MAX_ITERATIONS = 64


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def inputs(name: str, seed: int) -> List[int]:
    """The seeds every iteration of run *seed* of workload *name* runs."""
    first = seed % FIRST_SEEDS
    return list(range(first, first + SEEDS_PER_INPUT[name]))


def _kill_group(pgid: int) -> None:
    """Kill what is left of an iteration's process group and wait for it."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(name: str, seeds: List[int], traced: bool, deadline: float) -> Dict:
    """Run one iteration in a fresh interpreter and return its sample.

    The iteration is killed, and fails, once it has run for
    ``ITERATION_TIMEOUT_S`` or the monotonic clock passes *deadline*.
    """
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    # The hash seed is pinned: cloud-tiers summaries depend on set
    # iteration order, so unpinned repeats of one seed disagree.
    env = dict(os.environ, TMPDIR=str(tmp), PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable,
        str(BENCH_DIR / "iteration.py"),
        "--workload", name,
        "--seeds", ",".join(str(s) for s in seeds),
        "--params", json.dumps(PARAMS, sort_keys=True),
        "--trace", "1" if traced else "0",
        "--tmp", str(tmp),
        "--src", str(SRC),
    ]
    try:
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True
            )
            deadline = min(deadline, spawned_at + ITERATION_TIMEOUT_S)
            try:
                while True:
                    # wait4 reaps the child together with the summed usage
                    # of its own reaped children: the whole process tree.
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > deadline:
                        os.killpg(proc.pid, signal.SIGKILL)
                        pid, status, usage = os.wait4(proc.pid, 0)
                        break
                    time.sleep(0.005)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                _kill_group(proc.pid)
        lines = (tmp / "stdout").read_text().strip().splitlines()
        stderr = (tmp / "stderr").read_text()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"exit {proc.returncode}: {stderr[-2000:]}"}
    data = json.loads(lines[-1])
    probes = data["probe_s"]
    workers = data["worker_probe_s"]
    setup_probes = probes[: data["setup_probes"]] or probes
    body_probes = probes[data["setup_probes"] :] or probes
    # Measured timings net of the probe's own time, and the factors that
    # scale them to reference speed.  Pool workers do the body's work,
    # so their samples count for the body.
    data.update(
        ok=True,
        measured={
            "wall_s": data["wall_s"] - sum(body_probes),
            "cpu_s": usage.ru_utime + usage.ru_stime - sum(probes) - sum(workers),
            "setup_s": data["ready_at"] - spawned_at - sum(setup_probes),
        },
        speed={
            "wall_s": REFERENCE_PROBE_S / statistics.fmean(body_probes + workers),
            "cpu_s": REFERENCE_PROBE_S / statistics.fmean(probes + workers),
            "setup_s": REFERENCE_PROBE_S / statistics.fmean(setup_probes),
        },
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    return data


def environment(name: str, seed: int) -> Dict[str, Any]:
    """What a result depends on besides the benchmark's own code."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
        )
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode() + b"\0")
        sources.update(path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "inputs": inputs(name, seed),
        "nproc": nproc(),
        "jobs": JOBS,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def check_runnable(name: str) -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources at {SRC}")
    if name == "campaign-3seed" and JOBS > nproc():
        raise SetupError(f"campaign-3seed needs {JOBS} CPUs, nproc is {nproc()}")


def load_expected() -> Dict[str, Any]:
    """Expected outputs by operation key."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["outputs"]


def output_errors(output: Any, want: Any) -> List[str]:
    """How an operation's output differs from the expected one.

    A scenario's output is its timeline digest and must match exactly.
    A study's verdicts must match exactly, and every summary value must
    be finite and within ``REL_TOL``/``ABS_TOL`` of the expected one.
    """
    if isinstance(want, str):
        return [] if output == want else ["timeline differs"]
    errors = []
    if output["verdicts"] != want["verdicts"]:
        errors.append(f"verdicts {output['verdicts']}, expected {want['verdicts']}")
    summary, expected = output["summary"], want["summary"]
    if set(summary) != set(expected):
        errors.append(f"summary keys {sorted(summary)}, expected {sorted(expected)}")
    for key in sorted(set(summary) & set(expected)):
        value = summary[key]
        if not math.isfinite(value) or not math.isclose(
            value, expected[key], rel_tol=REL_TOL, abs_tol=ABS_TOL
        ):
            errors.append(f"{key} = {value!r}, expected {expected[key]!r}")
    return errors


def check(sample: Dict, keys: List[str], expected: Dict[str, Any]) -> Dict[str, str]:
    """Why each failed operation of one sample failed, by key."""
    if not sample["ok"]:
        return {key: sample["error"] for key in keys}
    failed = dict(sample["failed"])
    for key in keys:
        if key in failed:
            continue
        if key not in sample["outputs"]:
            failed[key] = "no output"
        elif key not in expected:
            failed[key] = "no expected output"
        else:
            errors = output_errors(sample["outputs"][key], expected[key])
            if errors:
                failed[key] = "; ".join(errors)
    return failed


def measure(
    name: str, seed: int, seconds: float, trace: bool, deadline: float
) -> Dict[str, Any]:
    """Repeat a workload's input for *seconds*; return samples and checks.

    An iteration (a pair with *trace*) is started only while the run is
    expected to end within *seconds*, and at least one always runs.
    """
    seeds = inputs(name, seed)
    keys = operation_keys(name, seeds)
    expected = load_expected()
    plain: List[Dict] = []
    traced: List[Dict] = []
    start = time.monotonic()
    while True:
        plain.append(spawn(name, seeds, False, deadline))
        if trace:
            traced.append(spawn(name, seeds, True, deadline))
        samples = plain + traced
        rounds = len(plain)
        elapsed = time.monotonic() - start
        if (
            not all(s["ok"] for s in samples)
            or len(samples) >= MAX_ITERATIONS
            or elapsed * (rounds + 1) / rounds > seconds
        ):
            break
    errors = []
    for sample in samples:
        for key, why in sorted(check(sample, keys, expected).items()):
            errors.append(f"{key}: {why}")
    return {
        "plain": [s for s in plain if s["ok"]],
        "traced": [s for s in traced if s["ok"]],
        "attempted": len(keys) * len(samples),
        "failed": len(errors),
        "errors": errors,
    }


def summarize(run: Dict[str, Any], trace: bool, spec: Dict[str, Any]) -> Dict:
    """The metrics a driver run reports: medians over its iterations.

    Timings (unit ``s``) are at reference speed, each iteration's scaled
    by its own probe; per-layer timings by the probe of the body.
    """
    if not trace:
        wanted = spec["end_to_end"]
        values = {
            m["name"]: statistics.median(
                s["measured"][m["name"]] * s["speed"][m["name"]]
                if m["unit"] == "s"
                else s[m["name"]]
                for s in run["plain"]
            )
            for m in wanted
        }
    else:
        wanted = spec["per_layer"]
        values = {
            m["name"]: statistics.median(
                s["layers"].get(m["name"], 0)
                * (s["speed"]["wall_s"] if m["unit"] == "s" else 1)
                for s in run["traced"]
            )
            for m in wanted
        }
        values["trace_overhead_s"] = statistics.median(
            t["measured"]["wall_s"] * t["speed"]["wall_s"]
            - p["measured"]["wall_s"] * p["speed"]["wall_s"]
            for p, t in zip(run["plain"], run["traced"])
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SEEDS_PER_INPUT), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        check_runnable(args.workload)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = environment(args.workload, args.seed)
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # Compile the sources once, so no iteration pays for it in setup_s.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH_DIR)],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    for error in run["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    if not run["plain"] or (args.trace and not run["traced"]):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    env["numpy"] = run["plain"][0]["numpy"]
    env["iterations"] = len(run["plain"]) + len(run["traced"])
    metrics = summarize(run, bool(args.trace), spec)
    print(json.dumps({"env": env}, sort_keys=True))
    samples = run["traced"] if args.trace else run["plain"]
    for metric, entry in metrics.items():
        line = f"{args.workload:16s} {metric:38s} {entry['value']:14.6f} {entry['unit']}"
        if entry["unit"] == "s" and not args.trace:
            measured = statistics.median(s["measured"][metric] for s in samples)
            line += f"  (measured {measured:.6f})"
        print(line)
    print(f"{args.workload:16s} {'failed_frac':38s} "
          f"{run['failed'] / run['attempted']:14.6f} ratio")
    print(
        json.dumps(
            {
                "correct": not run["errors"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
