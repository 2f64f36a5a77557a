"""Parallel campaign orchestration: fan job specs out, merge in order.

A :class:`CampaignRunner` takes a sequence of
:class:`~repro.runner.spec.JobSpec` and produces one
:class:`CampaignReport`.  Cache hits (via an optional
:class:`~repro.runner.store.ResultStore`) never re-simulate; misses run
either inline (``jobs=1``, today's serial behavior) or across a
``ProcessPoolExecutor`` with a per-job timeout.  Both backends share one
attempt loop — bounded retry with exponential backoff, the circuit
breaker, degradation — and differ only in how an attempt starts.
Results always merge in *spec order*, regardless of completion order,
so ``jobs=4`` and ``jobs=1`` are interchangeable.

Results are uniformly "slim" — summary statistics and hypothesis
verdicts, no figure objects — whether they come from the cache, a
worker process, or an inline run (see
:mod:`repro.runner.store` for why).  Callers that need figures run the
study directly.

The runner also degrades gracefully instead of assuming every job
either succeeds or retries to death:

* **Checkpoints** — with a ``checkpoint_dir``, completed jobs are
  journaled atomically (see :mod:`repro.runner.checkpoint`); a
  campaign killed mid-run and re-run with ``resume=True`` restores
  completed jobs verbatim and executes only the remainder.
* **Fault injection** — a seeded
  :class:`~repro.faults.FaultPlan` wraps every job attempt, so chaos
  testing exercises timeouts, worker crashes, transient errors, and
  cache corruption deterministically.
* **Retry budget** — ``retry_budget`` caps total retries across the
  whole campaign, the way a measurement platform caps credits.
* **Circuit breaker** — with ``breaker_threshold``, a platform whose
  failure rate crosses the threshold stops receiving jobs.
* **Partial completion** — with ``allow_partial=True``, jobs that
  exhaust their retries (or hit an open breaker) become entries in
  ``CampaignReport.degraded`` and the campaign finishes with
  ``partial=True`` instead of raising.

See ``docs/robustness.md`` for the full fault model and resume
semantics.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.analysis import format_table
from repro.errors import CacheCorruptionError, ObsError, RunnerError
from repro.faults.inject import corrupt_file, maybe_inject
from repro.faults.plan import FaultPlan
from repro.obs import trace as obs
from repro.obs.progress import ProgressTracker
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    campaign_fingerprint,
)
from repro.runner.shm import SharedInputSet, reclaim_stale
from repro.runner.spec import JobSpec
from repro.runner.store import ResultStore, payload_to_result, result_to_payload

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Attempts a platform must accumulate before its failure rate can trip
#: the circuit breaker.
BREAKER_MIN_ATTEMPTS = 4


def _run_job(
    spec: JobSpec,
    trace: bool = False,
    run_id=None,
    fault_plan: Optional[FaultPlan] = None,
    attempt: int = 1,
):
    """Worker entry point: build and run one study, return its payload.

    Module-level so it pickles by reference into worker processes; the
    return value is the plain-JSON payload (not the full result), so
    figure objects never cross the process boundary.

    When *trace* is set, the job runs inside an
    :func:`~repro.obs.capture` window and its telemetry events travel
    back in the return value — which is how worker-side spans survive
    the ``ProcessPoolExecutor`` boundary.  In a fresh worker the
    capture enables a private tracer under the orchestrator's *run_id*;
    inline (same process) it tees from the ambient stream.

    A *fault_plan* is consulted before the study runs: the plan's
    decision for ``(spec hash, attempt)`` may sleep, raise, or
    hard-kill this process (see :mod:`repro.faults`).
    """
    start = time.perf_counter()
    if trace:
        with obs.capture(run_id=run_id) as captured:
            with obs.span(
                "runner.job", study=spec.describe(), spec=spec.content_hash[:12]
            ):
                maybe_inject(fault_plan, spec.content_hash, attempt)
                result = spec.build().run()
            # Worker-side pulse: rides the payload with the rest of the
            # captured events, so merged streams record job completion
            # even when the orchestrator runs without a ProgressTracker.
            obs.heartbeat(
                "runner.job.heartbeat",
                done=1,
                elapsed_s=time.perf_counter() - start,
            )
        events = captured.events
    else:
        maybe_inject(fault_plan, spec.content_hash, attempt)
        result = spec.build().run()
        events = []
    elapsed_s = time.perf_counter() - start
    return result_to_payload(result), elapsed_s, events


@dataclass(frozen=True)
class JobMetrics:
    """Per-job accounting surfaced in the campaign metrics table.

    Attributes:
        index: Position in the submitted spec sequence.
        study: Short study label from the spec.
        seed: The job's seed.
        spec_hash: Full content hash (tables show a prefix).
        status: ``"hit"`` (served from cache), ``"ran"`` (simulated —
            in this invocation or one restored from a checkpoint), or
            ``"failed"`` (degraded; see ``CampaignReport.degraded``).
        attempts: Execution attempts; 0 for hits, >1 means retries.
        elapsed_s: Wall time spent obtaining the result this campaign,
            including retry attempts and backoff sleeps.
        saved_s: For hits, the recorded simulation time *not* spent.
        attempt_s: Wall time of each individual attempt, in order —
            failed attempts included, backoff excluded.  Empty for
            cache hits.
        timeouts: How many attempts ended by hitting the per-job
            wall-time limit (a subset of the failed attempts).
    """

    index: int
    study: str
    seed: int
    spec_hash: str
    status: str
    attempts: int
    elapsed_s: float
    saved_s: float = 0.0
    attempt_s: Tuple[float, ...] = ()
    timeouts: int = 0


@dataclass(frozen=True)
class DegradedJob:
    """One job the campaign gave up on without aborting.

    Attributes:
        index: Position in the submitted spec sequence.
        study: Short study label.
        seed: The job's seed.
        spec_hash: Full content hash.
        reason: Why it degraded — ``"retries-exhausted"``,
            ``"retry-budget-exhausted"``, or
            ``"breaker-open:<platform>"``.
        attempts: Attempts consumed before giving up (0 when the job
            was never dispatched).
        error: Rendering of the last failure, empty when skipped.
    """

    index: int
    study: str
    seed: int
    spec_hash: str
    reason: str
    attempts: int
    error: str = ""


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one campaign: ordered results plus per-job metrics.

    ``results[i]`` is ``None`` exactly when job *i* appears in
    ``degraded`` — a campaign run with ``allow_partial=True`` finishes
    with what it could get (``partial=True``) rather than raising.
    """

    results: Tuple[object, ...]
    metrics: Tuple[JobMetrics, ...]
    degraded: Tuple[DegradedJob, ...] = ()

    @property
    def partial(self) -> bool:
        """Whether any job was given up on (see ``degraded``)."""
        return bool(self.degraded)

    @property
    def n_hits(self) -> int:
        """Jobs served from the cache without simulating."""
        return sum(1 for m in self.metrics if m.status == "hit")

    @property
    def n_ran(self) -> int:
        """Jobs that actually simulated."""
        return sum(1 for m in self.metrics if m.status == "ran")

    @property
    def n_degraded(self) -> int:
        """Jobs the campaign gave up on."""
        return len(self.degraded)

    @property
    def n_retries(self) -> int:
        """Extra attempts beyond the first across all jobs."""
        return sum(max(0, m.attempts - 1) for m in self.metrics)

    @property
    def elapsed_s(self) -> float:
        """Total per-job wall time (not wall-clock when parallel)."""
        return sum(m.elapsed_s for m in self.metrics)

    @property
    def saved_s(self) -> float:
        """Simulation time avoided by cache hits."""
        return sum(m.saved_s for m in self.metrics)

    @property
    def n_timeouts(self) -> int:
        """Attempts that ended by hitting the wall-time limit."""
        return sum(m.timeouts for m in self.metrics)

    def render(self) -> str:
        """Metrics table: one row per job, plus a totals headline."""
        rows = []
        for m in self.metrics:
            rows.append(
                [
                    m.index,
                    m.study,
                    m.seed,
                    m.status,
                    m.attempts,
                    m.timeouts,
                    m.elapsed_s,
                    "|".join(f"{a:.2f}" for a in m.attempt_s) or "-",
                    m.spec_hash[:12],
                ]
            )
        headline = (
            f"campaign: {len(self.metrics)} jobs — "
            f"{self.n_hits} cache hits, {self.n_ran} ran "
            f"({self.n_retries} retries, {self.n_timeouts} timeouts); "
            f"run time {self.elapsed_s:.1f}s, saved {self.saved_s:.1f}s"
        )
        if self.partial:
            headline += f"; PARTIAL — {self.n_degraded} degraded"
        table = format_table(
            [
                "job",
                "study",
                "seed",
                "status",
                "attempts",
                "timeouts",
                "time_s",
                "attempt_s",
                "spec",
            ],
            rows,
            float_fmt="{:.2f}",
        )
        text = headline + "\n" + table
        if self.partial:
            lines = ["degraded jobs:"]
            for d in self.degraded:
                line = (
                    f"  #{d.index} {d.study} [{d.spec_hash[:12]}] — "
                    f"{d.reason} after {d.attempts} attempt(s)"
                )
                if d.error:
                    line += f": {d.error}"
                lines.append(line)
            text += "\n" + "\n".join(lines)
        return text


class _RunState:
    """Mutable per-``run()`` bookkeeping, kept off the (reusable) runner."""

    __slots__ = (
        "specs",
        "results",
        "metrics",
        "degraded",
        "checkpoint",
        "budget_left",
        "platform_attempts",
        "platform_failures",
        "open_platforms",
    )

    def __init__(self, specs: List[JobSpec], budget: Optional[int]):
        self.specs = specs
        self.results: List[Optional[object]] = [None] * len(specs)
        self.metrics: List[Optional[JobMetrics]] = [None] * len(specs)
        self.degraded: Dict[int, DegradedJob] = {}
        self.checkpoint: Optional[CampaignCheckpoint] = None
        self.budget_left = budget
        self.platform_attempts: Dict[str, int] = {}
        self.platform_failures: Dict[str, int] = {}
        self.open_platforms: Set[str] = set()


class _Job:
    """Attempt bookkeeping for one pending job."""

    __slots__ = (
        "index",
        "spec",
        "attempts",
        "attempt_s",
        "timeouts",
        "started",
        "attempt_started",
        "future",
    )

    def __init__(self, index: int, spec: JobSpec):
        self.index = index
        self.spec = spec
        #: Attempts charged so far; the one in flight is ``attempts + 1``.
        self.attempts = 0
        self.attempt_s: List[float] = []
        self.timeouts = 0
        #: When the first attempt started: at submission in a pool, at
        #: dispatch inline.
        self.started: Optional[float] = None
        self.attempt_started = 0.0
        #: The attempt in flight in a pool; never set inline.
        self.future: Optional[Future] = None

    def charge(self) -> None:
        """Count the attempt in flight and stop its clock."""
        self.attempt_s.append(time.perf_counter() - self.attempt_started)
        self.attempts += 1

    def has_result(self) -> bool:
        """Whether the attempt in flight already finished successfully."""
        future = self.future
        return (
            future is not None
            and future.done()
            and not future.cancelled()
            and future.exception() is None
        )


class _AttemptTimeout(RunnerError):
    """A pool attempt ran past the per-job ``timeout_s``."""


class _Backend:
    """Where attempts run: a process pool, or this process.

    The two differ only in how an attempt starts.  A pool submits it to
    a worker at once, so later jobs keep executing while earlier ones
    are awaited; inline, it runs here when the attempt loop awaits it.
    The per-job timeout and pool rebuilds exist only in the pool: an
    inline job can be neither preempted nor orphaned.
    """

    def __init__(self, runner: CampaignRunner, jobs: List[_Job]):
        self.jobs = jobs
        self.timeout_s = runner.timeout_s
        self.fault_plan = runner.fault_plan
        self.tracing = obs.is_enabled()
        self.run_id = obs.current_run_id()
        self.workers = min(runner.jobs, len(jobs))
        self.pool: Optional[ProcessPoolExecutor] = None
        if self.workers > 1:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)

    def _args(self, job: _Job) -> tuple:
        return (
            job.spec,
            self.tracing,
            self.run_id,
            self.fault_plan,
            job.attempts + 1,
        )

    def start(self, job: _Job) -> None:
        """Start the job's next attempt; a pool submits it right away."""
        job.attempt_started = time.perf_counter()
        if job.started is None:
            job.started = job.attempt_started
        if self.pool is not None:
            try:
                job.future = self.pool.submit(_run_job, *self._args(job))
            except BrokenProcessPool as exc:
                # A worker died since the last await.  The attempt dies
                # with the pool, and the loop meets the crash when it
                # awaits the attempt.
                job.future = Future()
                job.future.set_exception(exc)

    def wait(self, job: _Job):
        """The attempt's ``(payload, job_s, events)``, or its failure.

        Raises:
            _AttemptTimeout: The pool attempt ran past ``timeout_s``.
            BrokenProcessPool: A worker died and took the pool with it.
            Exception: Whatever the job itself raised.
        """
        if self.pool is None:
            return _run_job(*self._args(job))
        try:
            return job.future.result(timeout=self.timeout_s)
        except FutureTimeoutError:
            job.future.cancel()
            job.timeouts += 1
            # A running worker cannot be preempted, so the hung process
            # would keep its slot for as long as the job hangs —
            # starving the retry (and every queued job) behind it.
            # Only the timed-out job is charged an attempt.
            self._rebuild(job, charge_others=False)
            raise _AttemptTimeout(f"timed out after {self.timeout_s}s") from None
        except BrokenProcessPool:
            # A hard worker crash poisons the whole pool, and every job
            # in flight died with it, so each resubmission is a new
            # attempt for accounting and fault decisions — otherwise a
            # deterministic crash fault in one job would replay forever
            # while another job absorbs the blame.
            self._rebuild(job, charge_others=True)
            raise

    def _rebuild(self, job: _Job, charge_others: bool) -> None:
        """Replace the pool and resubmit the jobs after *job*.

        The loop settles jobs in spec order, so every job after *job*
        is still unsettled.  Without *charge_others*, one whose result
        is already in hand keeps it.
        """
        self.pool.shutdown(wait=False, cancel_futures=True)
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        for other in self.jobs:
            if other.index <= job.index:
                continue
            if charge_others:
                other.charge()
            elif other.has_result():
                continue
            self.start(other)

    def close(self, completed: bool) -> None:
        """Release the pool.

        On clean completion every future is done, so waiting is
        instant; on failure, abandon workers (one may be hung).
        """
        if self.pool is not None:
            self.pool.shutdown(wait=completed, cancel_futures=True)


class CampaignRunner:
    """Run a batch of job specs with caching, parallelism, and retry.

    Args:
        jobs: Worker processes; 1 (the default) runs every job inline
            in the current process, preserving strictly serial
            behavior.
        store: Optional result cache consulted before running and
            updated after every successful run.  Corrupted entries are
            quarantined and recomputed (see
            :class:`~repro.runner.store.ResultStore`).
        timeout_s: Per-job wall-time limit in seconds, finite and > 0, enforced in
            pool mode only (an inline job cannot be preempted).
            ``None`` disables.
        retries: Extra attempts after a failed or timed-out job before
            the job is given up on.
        backoff_s: Base of the exponential backoff between attempts
            (``backoff_s * 2**(attempt-1)`` seconds).
        fault_plan: Optional seeded :class:`~repro.faults.FaultPlan`;
            every job attempt consults it (and may time out, crash,
            fail, or slow down), and cache entries written for
            ``corrupt``-marked specs are garbled after the fact.
        checkpoint_dir: When given, every completed job is journaled
            there (one checkpoint file per campaign fingerprint) so a
            killed campaign can resume.  Conventionally the cache
            directory.
        resume: Restore completed jobs from this campaign's checkpoint
            before dispatching anything.  Requires ``checkpoint_dir``.
        retry_budget: Campaign-wide cap on total retries (``None`` =
            unlimited).  When spent, further failures degrade (or
            abort, without ``allow_partial``) instead of retrying.
        breaker_threshold: Per-platform failure-rate threshold in
            ``(0, 1]`` that opens the circuit breaker once the platform
            has :data:`BREAKER_MIN_ATTEMPTS` attempts: jobs for an open
            platform stop being dispatched.  ``None`` disables.
        allow_partial: Finish with ``partial=True`` and a ``degraded``
            section instead of raising when jobs are given up on.
        progress: Optional :class:`~repro.obs.progress.ProgressTracker`
            fed on every job outcome (hit, ran, failed, retry) —
            the live half of ``repro-bgp campaign --progress``.  Its
            ``finish()`` runs when the campaign ends, even on abort.
        shared_inputs: Large read-only arrays (name -> ndarray) every
            job consumes.  ``run()`` copies them once into shared
            memory and rewrites each spec's ``shared`` field with the
            segment refs, so workers map the data instead of
            unpickling it per job.  Segments are released when the
            run finishes (success or raise); a SIGKILL'd campaign's
            segments are reclaimed on the next run with the same
            ``checkpoint_dir`` (a manifest journals ownership — see
            :mod:`repro.runner.shm`).  The consuming study must accept
            a ``shared`` kwarg of mapped arrays.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: Optional[ResultStore] = None,
        timeout_s: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.5,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_dir: Optional[PathLike] = None,
        resume: bool = False,
        retry_budget: Optional[int] = None,
        breaker_threshold: Optional[float] = None,
        allow_partial: bool = False,
        progress: Optional[ProgressTracker] = None,
        shared_inputs: Optional[Mapping[str, np.ndarray]] = None,
    ):
        if jobs < 1:
            raise RunnerError(f"jobs must be >= 1, got {jobs}")
        if timeout_s is not None and not (timeout_s > 0 and math.isfinite(timeout_s)):
            # NaN passes ``<= 0``, and neither NaN nor inf can be waited on.
            raise RunnerError(f"timeout_s must be > 0 and finite, got {timeout_s}")
        if retries < 0:
            raise RunnerError(f"retries must be >= 0, got {retries}")
        if resume and checkpoint_dir is None:
            raise RunnerError("resume=True requires a checkpoint_dir")
        if retry_budget is not None and retry_budget < 0:
            raise RunnerError(
                f"retry_budget must be >= 0, got {retry_budget}"
            )
        if breaker_threshold is not None and not 0.0 < breaker_threshold <= 1.0:
            raise RunnerError(
                f"breaker_threshold must be in (0, 1], got {breaker_threshold}"
            )
        self.jobs = int(jobs)
        self.store = store
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self.fault_plan = fault_plan
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = bool(resume)
        self.retry_budget = retry_budget
        self.breaker_threshold = breaker_threshold
        self.allow_partial = bool(allow_partial)
        self.progress = progress
        self.shared_inputs = shared_inputs

    def run(self, specs: Sequence[JobSpec]) -> CampaignReport:
        """Execute a campaign; results come back in spec order.

        Raises:
            RunnerError: When a job is given up on and ``allow_partial``
                is off.
        """
        if self.checkpoint_dir is not None:
            # A previous campaign killed mid-run (SIGKILL takes the
            # resource tracker with the process group) cannot release
            # its shared-memory segments; its manifest names them and
            # the dead pid proves ownership lapsed.
            reclaimed = reclaim_stale(self.checkpoint_dir)
            if reclaimed:
                obs.counter("runner.shm.reclaimed", len(reclaimed))
                obs.log_event(
                    "warning",
                    f"reclaimed {len(reclaimed)} stale shared-memory "
                    "segment(s) from a dead campaign",
                    name="runner.shm",
                )
                logger.warning(
                    "reclaimed %d stale shared-memory segment(s): %s",
                    len(reclaimed),
                    ", ".join(reclaimed),
                )
        shared_set: Optional[SharedInputSet] = None
        specs = list(specs)
        if self.shared_inputs:
            shared_set = SharedInputSet.create(
                self.shared_inputs, manifest_dir=self.checkpoint_dir
            )
            obs.gauge("runner.shm.bytes", shared_set.total_bytes)
            # Rewriting before fingerprinting keeps checkpoints honest:
            # refs hash by content digest, so crash/resume sees the
            # same campaign fingerprint as the original run.
            specs = [
                dataclasses.replace(spec, shared=shared_set.refs)
                for spec in specs
            ]
        try:
            return self._run(specs)
        finally:
            if shared_set is not None:
                shared_set.unlink()

    def _run(self, specs: Sequence[JobSpec]) -> CampaignReport:
        state = _RunState(list(specs), self.retry_budget)
        if self.progress is not None:
            self.progress.set_total(len(state.specs))
        try:
            with obs.span(
                "runner.campaign", jobs=self.jobs, n_specs=len(state.specs)
            ):
                restored = self._restore_from_checkpoint(state)
                pending: List[_Job] = []
                for index in restored:
                    self._progress_done("ran")
                for index, spec in enumerate(state.specs):
                    if index in restored:
                        continue
                    cached = (
                        self.store.get(spec) if self.store is not None else None
                    )
                    if cached is not None:
                        state.results[index] = cached.result
                        state.metrics[index] = JobMetrics(
                            index=index,
                            study=spec.describe(),
                            seed=spec.seed,
                            spec_hash=spec.content_hash,
                            status="hit",
                            attempts=0,
                            elapsed_s=0.0,
                            saved_s=cached.elapsed_s,
                        )
                        obs.counter("runner.cache.hits")
                        if cached.events:
                            # Replay the hit's recorded telemetry into
                            # the current stream, tagged so reports can
                            # separate relived history from fresh
                            # measurement.  Entries written under an
                            # older event schema fail validation; the
                            # *result* is still good, so a stale replay
                            # is counted and skipped, never fatal.
                            try:
                                obs.ingest(cached.events, replay=True)
                            except ObsError:
                                obs.counter("runner.replay.schema_mismatch")
                        self._progress_done("hit")
                        self._checkpoint_success(
                            state, index, result_to_payload(cached.result),
                            cached.elapsed_s,
                        )
                    else:
                        if self.store is not None:
                            obs.counter("runner.cache.misses")
                        pending.append(_Job(index, spec))
                if pending:
                    self._run_pending(state, pending)
                return self._finish(state)
        finally:
            if self.progress is not None:
                self.progress.finish()

    def _progress_done(self, status: str) -> None:
        if self.progress is not None:
            self.progress.job_done(status)

    # -- checkpoint / resume ------------------------------------------------

    def _restore_from_checkpoint(self, state: _RunState) -> Set[int]:
        """Open (and on resume, load) this campaign's checkpoint."""
        restored: Set[int] = set()
        if self.checkpoint_dir is None:
            return restored
        fingerprint = campaign_fingerprint(state.specs)
        state.checkpoint = CampaignCheckpoint(self.checkpoint_dir, fingerprint)
        if not self.resume:
            return restored
        try:
            n_entries = state.checkpoint.load()
        except CacheCorruptionError as exc:
            # A torn checkpoint cannot be half-trusted: discard it and
            # rely on the result cache for whatever survived.
            obs.counter("runner.checkpoint.corrupt")
            obs.log_event("warning", str(exc), name="runner.checkpoint")
            logger.warning("discarding corrupt checkpoint: %s", exc)
            state.checkpoint.clear()
            return restored
        if not n_entries:
            return restored
        for index, spec in enumerate(state.specs):
            entry = state.checkpoint.entries.get(spec.content_hash)
            if entry is None:
                continue
            fields = dict(entry.metrics)
            fields["index"] = index
            fields["attempt_s"] = tuple(fields.get("attempt_s", ()))
            state.results[index] = payload_to_result(entry.payload)
            state.metrics[index] = JobMetrics(**fields)
            restored.add(index)
        obs.counter("runner.resume.restored", len(restored))
        obs.log_event(
            "info",
            f"resumed campaign {fingerprint[:12]}: restored "
            f"{len(restored)}/{len(state.specs)} jobs from checkpoint",
            name="runner.resume",
        )
        logger.info(
            "resume: restored %d/%d jobs from %s",
            len(restored),
            len(state.specs),
            state.checkpoint.path,
        )
        return restored

    def _checkpoint_success(
        self, state: _RunState, index: int, payload, elapsed_s: float
    ) -> None:
        """Journal one completed job and flush the checkpoint."""
        if state.checkpoint is None:
            return
        metrics = dataclasses.asdict(state.metrics[index])
        metrics["attempt_s"] = list(metrics["attempt_s"])
        state.checkpoint.record(
            CheckpointEntry(
                spec_hash=state.specs[index].content_hash,
                payload=payload,
                elapsed_s=float(elapsed_s),
                metrics=metrics,
            )
        )
        state.checkpoint.write()
        obs.counter("runner.checkpoint.write")

    def _finish(self, state: _RunState) -> CampaignReport:
        """Assemble the report; retire or persist the checkpoint."""
        if state.checkpoint is not None:
            if state.degraded:
                # Keep the journal: a future resume retries only the
                # degraded jobs.
                state.checkpoint.write()
            else:
                state.checkpoint.clear()
        degraded = tuple(
            state.degraded[index] for index in sorted(state.degraded)
        )
        if degraded:
            obs.gauge("runner.degraded_jobs", len(degraded))
        return CampaignReport(
            results=tuple(state.results),
            metrics=tuple(state.metrics),
            degraded=degraded,
        )

    # -- failure policy -----------------------------------------------------

    def _note_attempt(self, state: _RunState, spec: JobSpec, failed: bool):
        """Feed the circuit breaker; open it when the rate crosses."""
        if self.breaker_threshold is None:
            return
        platform = spec.platform
        state.platform_attempts[platform] = (
            state.platform_attempts.get(platform, 0) + 1
        )
        if failed:
            state.platform_failures[platform] = (
                state.platform_failures.get(platform, 0) + 1
            )
        if platform in state.open_platforms:
            return
        attempts = state.platform_attempts[platform]
        failures = state.platform_failures.get(platform, 0)
        if (
            attempts >= BREAKER_MIN_ATTEMPTS
            and failures / attempts >= self.breaker_threshold
        ):
            state.open_platforms.add(platform)
            obs.counter("runner.breaker.open")
            obs.log_event(
                "warning",
                f"circuit breaker open for platform {platform!r} "
                f"({failures}/{attempts} attempts failed)",
                name="runner.breaker",
            )
            logger.warning(
                "circuit breaker open for platform %r (%d/%d failed)",
                platform,
                failures,
                attempts,
            )

    def _can_retry(self, state: _RunState, attempts: int) -> bool:
        """Whether one more attempt is allowed (per-job and budget)."""
        if attempts > self.retries:
            return False
        if state.budget_left is not None and state.budget_left <= 0:
            return False
        return True

    def _consume_retry(self, state: _RunState) -> None:
        if state.budget_left is not None:
            state.budget_left -= 1
        obs.counter("runner.recovery.retry")
        if self.progress is not None:
            self.progress.retry()

    def _fail_job(
        self,
        state: _RunState,
        job: _Job,
        reason: str,
        error: Optional[BaseException],
    ) -> None:
        """Give up on one job: degrade it, or abort the campaign."""
        index, spec, attempts = job.index, job.spec, job.attempts
        if not self.allow_partial:
            if error is None:
                raise RunnerError(
                    f"job {spec.describe()} [{spec.content_hash[:12]}] "
                    f"not dispatched: {reason} (allow_partial is off)"
                )
            raise RunnerError(
                f"job {spec.describe()} [{spec.content_hash[:12]}] failed "
                f"after {attempts} attempt(s): {error}"
            ) from error
        state.degraded[index] = DegradedJob(
            index=index,
            study=spec.describe(),
            seed=spec.seed,
            spec_hash=spec.content_hash,
            reason=reason,
            attempts=attempts,
            error=str(error) if error is not None else "",
        )
        state.metrics[index] = JobMetrics(
            index=index,
            study=spec.describe(),
            seed=spec.seed,
            spec_hash=spec.content_hash,
            status="failed",
            attempts=attempts,
            elapsed_s=float(sum(job.attempt_s)),
            attempt_s=tuple(job.attempt_s),
            timeouts=job.timeouts,
        )
        self._progress_done("failed")
        obs.counter("runner.job.degraded")
        obs.log_event(
            "warning",
            f"degraded job {spec.describe()} [{spec.content_hash[:12]}]: "
            f"{reason}",
            name="runner.degraded",
        )
        logger.warning(
            "giving up on %s (%s after %d attempt(s))",
            spec.describe(),
            reason,
            attempts,
        )

    def _exhaustion_reason(self, state: _RunState, attempts: int) -> str:
        if attempts <= self.retries and (
            state.budget_left is not None and state.budget_left <= 0
        ):
            return "retry-budget-exhausted"
        return "retries-exhausted"

    # -- the attempt loop ---------------------------------------------------

    def _run_pending(self, state: _RunState, jobs: List[_Job]) -> None:
        """Run the cache misses, in a pool or inline, merging in spec order."""
        backend = _Backend(self, jobs)
        completed = False
        try:
            if backend.pool is not None:
                # Every first attempt up front: later jobs keep
                # executing while earlier ones are awaited.
                for job in jobs:
                    backend.start(job)
            for job in jobs:
                self._settle(state, backend, job)
            completed = True
        finally:
            backend.close(completed)

    def _settle(self, state: _RunState, backend: _Backend, job: _Job) -> None:
        """The attempt loop: await one job until it succeeds or is given up."""
        platform = job.spec.platform
        if platform in state.open_platforms and not job.has_result():
            # The breaker opened before this job's first await; a result
            # already in hand is kept, anything else is not waited on.
            if job.future is not None:
                job.future.cancel()
            self._fail_job(state, job, f"breaker-open:{platform}", None)
            return
        # Dispatch span: submit-to-result at the orchestrator, retries,
        # backoff and pool rebuilds included.  The critical-path
        # analyzer matches it to the worker's runner.job span by spec
        # hash; the difference is queueing/overhead, not compute.
        with obs.span(
            "runner.dispatch", platform=platform, spec=job.spec.content_hash[:12]
        ):
            if job.started is None:  # inline: the first attempt starts here
                backend.start(job)
            while True:
                try:
                    payload, job_s, events = backend.wait(job)
                except (_AttemptTimeout, BrokenProcessPool) as exc:
                    # Pool faults; the backend has rebuilt the pool.
                    error: BaseException = exc
                except Exception as exc:
                    # Broad on purpose: any job exception is a failed
                    # attempt to be retried, broken, or degraded — but
                    # it is never silent (EXC001).
                    obs.counter("runner.job.attempt_error")
                    error = exc
                else:
                    job.charge()
                    self._note_attempt(state, job.spec, failed=False)
                    self._record_success(
                        state,
                        job,
                        payload,
                        job_s,
                        events,
                        merge_events=backend.pool is not None,
                    )
                    return
                job.charge()
                self._note_attempt(state, job.spec, failed=True)
                if platform in state.open_platforms:
                    reason = f"breaker-open:{platform}"
                elif not self._can_retry(state, job.attempts):
                    reason = self._exhaustion_reason(state, job.attempts)
                else:
                    self._consume_retry(state)
                    self._sleep_before_retry(job.attempts)
                    backend.start(job)
                    continue
                self._fail_job(state, job, reason, error)
                return

    def _record_success(
        self,
        state: _RunState,
        job: _Job,
        payload,
        job_s,
        events,
        merge_events: bool,
    ) -> None:
        index, spec = job.index, job.spec
        result = payload_to_result(payload)
        state.results[index] = result
        state.metrics[index] = JobMetrics(
            index=index,
            study=spec.describe(),
            seed=spec.seed,
            spec_hash=spec.content_hash,
            status="ran",
            attempts=job.attempts,
            elapsed_s=time.perf_counter() - job.started,
            attempt_s=tuple(job.attempt_s),
            timeouts=job.timeouts,
        )
        obs.histogram("runner.job.latency_s", job_s)
        self._progress_done("ran")
        if merge_events and events:
            # Pool mode: worker-side events arrive via the job payload
            # and are spliced into the orchestrator's stream here, in
            # deterministic spec order.  (Inline events are already in
            # the ambient stream — the capture only teed them.)
            obs.ingest(events)
        if self.store is not None:
            self.store.put(spec, result, job_s, events=events)
            if self.fault_plan is not None and self.fault_plan.decide_corrupt(
                spec.content_hash
            ):
                # The torn-write fault: the entry this campaign just
                # persisted is garbled on disk.  The *returned* result
                # stays good; the damage surfaces — and is quarantined —
                # when a later campaign reads the entry back.
                corrupt_file(self.store.path_for(spec))
                obs.counter("runner.fault.injected")
                obs.log_event(
                    "warning",
                    f"injected corrupt fault on cache entry "
                    f"{spec.content_hash[:12]}",
                    name="runner.fault",
                )
        self._checkpoint_success(state, index, payload, job_s)

    def _sleep_before_retry(self, attempts: int) -> None:
        delay = self.backoff_s * (2 ** (attempts - 1))
        if delay > 0:
            obs.histogram("runner.retry.backoff_s", delay)
            with obs.span("runner.retry.backoff"):
                time.sleep(delay)
