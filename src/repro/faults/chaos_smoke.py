"""End-to-end chaos scenario: kill a campaign, resume it, compare.

This is the script behind the CI ``chaos`` job (and is runnable by
hand)::

    PYTHONPATH=src python -m repro.faults.chaos_smoke

Three phases over the same job specs and the same seeded
:class:`~repro.faults.FaultPlan`:

1. **Reference** — run the campaign uninterrupted (fresh cache and
   checkpoint directory) and keep its report.
2. **Crash** — run the same campaign in a subprocess (pool mode, with
   checkpointing); once the checkpoint shows progress, SIGKILL the
   whole process group mid-run.
3. **Resume** — re-run with ``resume=True`` in fresh processes and
   assert the final report is *identical* to the reference: same
   summaries, same verdicts, every job ``status="ran"``, and the jobs
   the dead campaign completed restored from the checkpoint rather
   than recomputed.

A fourth check replays the campaign against the (fault-corrupted)
cache to confirm corrupted entries are quarantined and recomputed
instead of trusted.

A fifth phase repeats the kill/resume cycle for a campaign carrying
shared-memory inputs (``CampaignRunner(shared_inputs=...)``): the
SIGKILL takes the victim's whole process group — resource tracker
included — so its segments survive the crash, and the phase asserts
that the resume's ``reclaim_stale`` pass releases every journaled
segment (no ``/dev/shm`` leak) while still producing a report
identical to an uninterrupted shared-input reference run.

The scenario exits non-zero on the first violated assertion, which is
all CI needs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import numpy as np

from repro.bgp import propagation_shared_inputs
from repro.errors import CacheCorruptionError
from repro.faults.plan import FaultPlan
from repro.runner.campaign import CampaignReport, CampaignRunner
from repro.runner.checkpoint import CampaignCheckpoint, campaign_fingerprint
from repro.runner.shm import MANIFEST_PREFIX, describe_arrays, segment_exists
from repro.runner.spec import JobSpec
from repro.runner.store import ResultStore
from repro.topology import TopologyConfig, build_internet

#: How many jobs the scenario campaign runs.
N_JOBS = 5

#: How many jobs the shared-memory scenario campaign runs (phase 5).
N_SHM_JOBS = 4

#: The chaos stream: transient errors to force retries, slowdowns to
#: widen the kill window, corruption to exercise quarantine.  The cap
#: on faulty attempts guarantees every retried job terminates.
PLAN = FaultPlan(
    seed=42,
    p_error=0.3,
    p_slow=0.5,
    p_corrupt=0.5,
    slow_s=0.2,
    max_faulty_attempts=1,
)

#: How long the parent waits for the victim to make progress before
#: declaring the scenario stuck.
KILL_DEADLINE_S = 300.0


def scenario_specs() -> List[JobSpec]:
    """The fixed spec list every phase runs (order matters)."""
    return [
        JobSpec(
            study="repro.core.study:PopRoutingStudy",
            seed=seed,
            config={"n_prefixes": 40, "days": 2},
        )
        for seed in range(N_JOBS)
    ]


def run_campaign_phase(workdir: Path, resume: bool = False) -> CampaignReport:
    """One campaign run over the scenario specs, rooted at *workdir*."""
    runner = CampaignRunner(
        jobs=2,
        store=ResultStore(workdir),
        fault_plan=PLAN,
        checkpoint_dir=workdir,
        resume=resume,
        backoff_s=0.0,
        retries=3,
    )
    return runner.run(scenario_specs())


def shm_scenario_specs() -> List[JobSpec]:
    """Spec list for the shared-memory leak scenario (phase 5)."""
    return [
        JobSpec(
            study="repro.bgp.sweep_study:PropagationSweepStudy",
            seed=seed,
            config={"n_origins": 64},
        )
        for seed in range(N_SHM_JOBS)
    ]


def _shm_arrays() -> Mapping[str, "np.ndarray"]:
    """The deterministic shared-input arrays for the phase-5 campaign.

    Built identically by the victim, the resume, and the monitoring
    parent — identical digests mean identical spec hashes and one
    campaign fingerprint across all three.
    """
    internet = build_internet(
        TopologyConfig(seed=7, n_tier1=4, n_transit=16, n_eyeball=48)
    )
    return propagation_shared_inputs(internet.graph)


def shm_checkpoint_specs() -> List[JobSpec]:
    """Phase-5 specs as the checkpoint sees them (shared refs attached).

    ``CampaignRunner`` fingerprints the specs *after* substituting the
    shared refs; the monitoring parent needs the same fingerprint to
    watch the victim's checkpoint, so it mirrors that substitution with
    segment-free content refs.
    """
    refs = describe_arrays(_shm_arrays())
    return [
        dataclasses.replace(spec, shared=refs) for spec in shm_scenario_specs()
    ]


def run_shm_campaign_phase(workdir: Path, resume: bool = False) -> CampaignReport:
    """One shared-input campaign run, rooted at *workdir*."""
    runner = CampaignRunner(
        jobs=2,
        store=ResultStore(workdir),
        fault_plan=PLAN,
        checkpoint_dir=workdir,
        resume=resume,
        backoff_s=0.0,
        retries=3,
        shared_inputs=_shm_arrays(),
    )
    return runner.run(shm_scenario_specs())


def _manifest_segments(workdir: Path) -> List[str]:
    """Segment names journaled by shm manifests under *workdir*."""
    names: List[str] = []
    for path in sorted(workdir.glob(f"{MANIFEST_PREFIX}*.json")):
        try:
            names.extend(json.loads(path.read_text())["segments"])
        except (OSError, ValueError, KeyError):
            continue
    return names


def report_digest(report: CampaignReport) -> dict:
    """The comparable core of a report: results and statuses, in order."""
    return {
        "summaries": [dict(result.summary) for result in report.results],
        "verdicts": [
            [v.verdict.value for v in result.hypotheses]
            for result in report.results
        ],
        "statuses": [m.status for m in report.metrics],
        "spec_hashes": [m.spec_hash for m in report.metrics],
    }


def _checkpoint_entries(
    workdir: Path, specs: Optional[List[JobSpec]] = None
) -> int:
    """How many completed jobs the on-disk checkpoint holds right now."""
    checkpoint = CampaignCheckpoint(
        workdir, campaign_fingerprint(specs or scenario_specs())
    )
    try:
        return checkpoint.load()
    except (CacheCorruptionError, OSError):
        # Mid-write or damaged journal: the poller treats it as "no
        # progress yet" and keeps watching.
        return 0


def _spawn_victim(workdir: Path, flag: str = "--victim") -> subprocess.Popen:
    """Start the sacrificial campaign in its own process group."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.faults.chaos_smoke", flag,
         str(workdir)],
        env={**os.environ, "PYTHONPATH": "src"},
        start_new_session=True,
    )


def _kill_group(victim: subprocess.Popen) -> None:
    """SIGKILL the victim and every pool worker it spawned."""
    try:
        os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
    except ProcessLookupError:
        pass
    victim.wait()


def crash_phase(
    workdir: Path,
    flag: str = "--victim",
    specs: Optional[List[JobSpec]] = None,
    n_jobs: int = N_JOBS,
) -> int:
    """Run the campaign in a subprocess, SIGKILL it mid-run.

    Returns how many jobs the dead campaign had checkpointed.  Waits
    for at least one checkpointed job (so resume has something to
    restore) but kills before the victim can finish everything.
    """
    victim = _spawn_victim(workdir, flag)
    deadline = time.monotonic() + KILL_DEADLINE_S
    try:
        while time.monotonic() < deadline:
            completed = _checkpoint_entries(workdir, specs)
            if 0 < completed < n_jobs:
                _kill_group(victim)
                return completed
            if victim.poll() is not None:
                # The victim finished before we could land the kill —
                # rare on a fast machine.  Scrub and retry once slower;
                # if it keeps outrunning us the campaign is so fast the
                # crash window is meaningless, so treat a full run as
                # "crashed after everything" (resume then restores all).
                return _checkpoint_entries(workdir, specs)
            time.sleep(0.05)
    finally:
        if victim.poll() is None:
            _kill_group(victim)
    raise SystemExit(
        f"chaos: victim made no checkpoint progress in {KILL_DEADLINE_S}s"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--victim",
        metavar="WORKDIR",
        default=None,
        help="internal: run the sacrificial campaign phase in WORKDIR",
    )
    parser.add_argument(
        "--shm-victim",
        metavar="WORKDIR",
        default=None,
        help="internal: run the shared-input campaign phase in WORKDIR",
    )
    parser.add_argument(
        "--workdir",
        default=None,
        help="scenario scratch directory (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    if args.victim:
        run_campaign_phase(Path(args.victim))
        return 0
    if args.shm_victim:
        run_shm_campaign_phase(Path(args.shm_victim))
        return 0

    scratch = Path(args.workdir) if args.workdir else Path(
        tempfile.mkdtemp(prefix="chaos-smoke-")
    )
    ref_dir = scratch / "reference"
    crash_dir = scratch / "crashed"
    ref_dir.mkdir(parents=True, exist_ok=True)
    crash_dir.mkdir(parents=True, exist_ok=True)

    print(f"chaos: plan {PLAN.describe()}, {N_JOBS} jobs, scratch {scratch}")

    # Phase 1: uninterrupted reference.
    reference = run_campaign_phase(ref_dir)
    ref_digest = report_digest(reference)
    assert not reference.partial, "reference run must complete clean"
    assert all(m.status == "ran" for m in reference.metrics)
    print(f"chaos: reference complete ({reference.n_ran} ran)")

    # Phase 2: SIGKILL mid-run.
    completed_before_kill = crash_phase(crash_dir)
    print(f"chaos: victim killed with {completed_before_kill} jobs checkpointed")

    # Phase 3: resume and compare.
    resumed = run_campaign_phase(crash_dir, resume=True)
    resumed_digest = report_digest(resumed)
    assert resumed_digest == ref_digest, (
        "resume ∘ crash must equal the uninterrupted run:\n"
        f"reference: {json.dumps(ref_digest, sort_keys=True)[:2000]}\n"
        f"resumed:   {json.dumps(resumed_digest, sort_keys=True)[:2000]}"
    )
    print(
        f"chaos: resume matched reference exactly "
        f"({len(resumed.metrics)} jobs, {completed_before_kill} restored "
        "from the dead campaign's checkpoint without recomputing)"
    )

    # Phase 4: corrupted cache entries quarantine and recompute.
    store = ResultStore(ref_dir)
    replay = CampaignRunner(store=store).run(scenario_specs())
    quarantined = store.quarantined()
    corrupt_specs = [
        spec for spec in scenario_specs() if PLAN.decide_corrupt(spec.content_hash)
    ]
    assert report_digest(replay)["summaries"] == ref_digest["summaries"]
    assert len(quarantined) == len(corrupt_specs), (
        f"expected {len(corrupt_specs)} quarantined entries, "
        f"got {len(quarantined)}"
    )
    hits = sum(1 for m in replay.metrics if m.status == "hit")
    assert hits == N_JOBS - len(corrupt_specs)
    print(
        f"chaos: cache replay OK ({hits} hits, {len(quarantined)} corrupted "
        "entries quarantined and recomputed)"
    )
    # Phase 5: a SIGKILL'd shared-input campaign leaks no segments
    # once resumed.
    shm_ref_dir = scratch / "shm-reference"
    shm_crash_dir = scratch / "shm-crashed"
    shm_ref_dir.mkdir(parents=True, exist_ok=True)
    shm_crash_dir.mkdir(parents=True, exist_ok=True)

    shm_reference = run_shm_campaign_phase(shm_ref_dir)
    shm_ref_digest = report_digest(shm_reference)
    assert not shm_reference.partial, "shm reference run must complete clean"
    assert not _manifest_segments(shm_ref_dir), (
        "clean shared-input run must retire its own manifest"
    )

    shm_completed = crash_phase(
        shm_crash_dir, flag="--shm-victim",
        specs=shm_checkpoint_specs(), n_jobs=N_SHM_JOBS,
    )
    leaked = _manifest_segments(shm_crash_dir)
    assert leaked, "killed shared-input campaign must leave a manifest behind"
    leaked_live = [name for name in leaked if segment_exists(name)]
    assert leaked_live, (
        "SIGKILL should orphan the victim's shared-memory segments "
        f"(manifest names {leaked}, none exist)"
    )
    print(
        f"chaos: shm victim killed with {shm_completed} jobs checkpointed, "
        f"{len(leaked_live)} orphaned segment(s) on disk"
    )

    shm_resumed = run_shm_campaign_phase(shm_crash_dir, resume=True)
    assert report_digest(shm_resumed) == shm_ref_digest, (
        "shm resume ∘ crash must equal the uninterrupted shared-input run"
    )
    still_live = [name for name in leaked if segment_exists(name)]
    assert not still_live, (
        f"resume must reclaim the dead campaign's segments, {still_live} leaked"
    )
    assert not _manifest_segments(shm_crash_dir), (
        "resume must retire both the stale manifest and its own"
    )
    print(
        f"chaos: shm resume matched reference, all {len(leaked_live)} "
        "orphaned segment(s) reclaimed, no manifests left"
    )
    print("chaos: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
