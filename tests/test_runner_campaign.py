"""Tests for the campaign runner: parallelism, caching, retry, timeout.

Stub studies live at module scope so worker processes can resolve them
by import path; cross-process state (crash-once behavior, run counting)
goes through sentinel files under ``tmp_path``.
"""

import dataclasses
import os
import time
import uuid
from pathlib import Path

import pytest

from repro import obs
from repro.errors import RunnerError
from repro.core.study import StudyResult
from repro.runner import CampaignRunner, JobSpec, ResultStore
import repro.runner.campaign as campaign_module


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


@dataclasses.dataclass
class AddStudy:
    """Instant stub: summary is a deterministic function of the config."""

    seed: int = 0
    offset: float = 1.0
    trace_dir: str = ""

    def run(self) -> StudyResult:
        if self.trace_dir:
            # One uniquely-named file per simulation, so tests can count
            # how many actually executed (cache hits leave no trace).
            Path(self.trace_dir, f"run-{uuid.uuid4().hex}").touch()
        return StudyResult(
            name="add",
            summary={"value": self.seed + self.offset, "seed": float(self.seed)},
        )


@dataclasses.dataclass
class FlakyStudy:
    """Raises until its sentinel file exists, then succeeds."""

    seed: int = 0
    sentinel: str = ""

    def run(self) -> StudyResult:
        path = Path(self.sentinel)
        if not path.exists():
            path.touch()
            raise RuntimeError("transient failure")
        return StudyResult(name="flaky", summary={"ok": 1.0})


@dataclasses.dataclass
class CrashOnceStudy:
    """Hard-kills its worker process once (after *delay_s*), then succeeds."""

    seed: int = 0
    sentinel: str = ""
    delay_s: float = 0.0

    def run(self) -> StudyResult:
        path = Path(self.sentinel)
        if not path.exists():
            path.touch()
            time.sleep(self.delay_s)
            os._exit(1)
        return StudyResult(name="crash-once", summary={"ok": 1.0})


@dataclasses.dataclass
class AlwaysFailsStudy:
    seed: int = 0

    def run(self) -> StudyResult:
        raise RuntimeError("permanent failure")


@dataclasses.dataclass
class SlowStudy:
    seed: int = 0
    sleep_s: float = 30.0

    def run(self) -> StudyResult:
        time.sleep(self.sleep_s)
        return StudyResult(name="slow", summary={"ok": 1.0})


@dataclasses.dataclass
class SlowOnceStudy:
    """Sleeps long on the first run (before its sentinel exists), then fast."""

    seed: int = 0
    sentinel: str = ""
    sleep_s: float = 2.0

    def run(self) -> StudyResult:
        path = Path(self.sentinel)
        if not path.exists():
            path.touch()
            time.sleep(self.sleep_s)
        return StudyResult(name="slow-once", summary={"ok": 1.0})


def _count_runs(trace_dir) -> int:
    return len(list(Path(trace_dir).glob("run-*")))


def _specs(tmp_path, seeds):
    trace = tmp_path / "trace"
    trace.mkdir(exist_ok=True)
    return [
        JobSpec.from_study(AddStudy(seed=s, trace_dir=str(trace))) for s in seeds
    ], trace


class TestExecution:
    def test_serial_results_in_spec_order(self, tmp_path):
        specs, _ = _specs(tmp_path, [3, 1, 2])
        report = CampaignRunner(jobs=1).run(specs)
        assert [r.summary["seed"] for r in report.results] == [3.0, 1.0, 2.0]
        assert report.n_ran == 3 and report.n_hits == 0
        assert all(m.status == "ran" and m.attempts == 1 for m in report.metrics)

    def test_parallel_matches_serial(self, tmp_path):
        specs, _ = _specs(tmp_path, range(6))
        serial = CampaignRunner(jobs=1).run(specs)
        parallel = CampaignRunner(jobs=3).run(specs)
        assert [r.summary for r in parallel.results] == [
            r.summary for r in serial.results
        ]

    def test_invalid_construction(self):
        with pytest.raises(RunnerError):
            CampaignRunner(jobs=0)
        with pytest.raises(RunnerError):
            CampaignRunner(retries=-1)
        for timeout_s in (0, -1):
            with pytest.raises(RunnerError, match="timeout_s must be > 0"):
                CampaignRunner(timeout_s=timeout_s)


class TestCaching:
    def test_second_run_all_hits_zero_simulations(self, tmp_path):
        specs, trace = _specs(tmp_path, range(4))
        store = ResultStore(tmp_path / "cache")
        first = CampaignRunner(jobs=2, store=store).run(specs)
        assert first.n_ran == 4
        assert _count_runs(trace) == 4
        second = CampaignRunner(jobs=2, store=store).run(specs)
        assert second.n_hits == 4 and second.n_ran == 0
        assert _count_runs(trace) == 4  # nothing re-simulated
        assert [r.summary for r in second.results] == [
            r.summary for r in first.results
        ]
        assert second.saved_s >= 0.0
        assert "4 cache hits, 0 ran" in second.render()

    def test_changed_config_misses(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = JobSpec.from_study(AddStudy(seed=1, offset=1.0))
        CampaignRunner(store=store).run([spec])
        changed = JobSpec.from_study(AddStudy(seed=1, offset=2.0))
        report = CampaignRunner(store=store).run([spec, changed])
        statuses = [m.status for m in report.metrics]
        assert statuses == ["hit", "ran"]
        assert report.results[1].summary["value"] == 3.0

    def test_corrupted_entry_reruns(self, tmp_path):
        specs, trace = _specs(tmp_path, [5])
        store = ResultStore(tmp_path / "cache")
        CampaignRunner(store=store).run(specs)
        store.path_for(specs[0]).write_text("garbage", encoding="utf-8")
        report = CampaignRunner(store=store).run(specs)
        assert report.metrics[0].status == "ran"
        assert _count_runs(trace) == 2
        # ...and the re-run repaired the entry.
        assert store.get(specs[0]) is not None


class TestRetry:
    def test_flaky_job_retries_then_succeeds_inline(self, tmp_path):
        spec = JobSpec.from_study(
            FlakyStudy(sentinel=str(tmp_path / "flaky-inline"))
        )
        report = CampaignRunner(jobs=1, retries=2, backoff_s=0.0).run([spec])
        assert report.results[0].summary == {"ok": 1.0}
        assert report.metrics[0].attempts == 2

    def test_flaky_job_retries_then_succeeds_in_pool(self, tmp_path):
        specs = [
            JobSpec.from_study(AddStudy(seed=0)),
            JobSpec.from_study(
                FlakyStudy(sentinel=str(tmp_path / "flaky-pool"))
            ),
        ]
        report = CampaignRunner(jobs=2, retries=2, backoff_s=0.0).run(specs)
        assert report.results[1].summary == {"ok": 1.0}
        assert report.metrics[1].attempts == 2
        assert report.n_retries == 1

    def test_crashed_worker_restarts_pool_and_retries(self, tmp_path):
        specs = [
            JobSpec.from_study(
                CrashOnceStudy(seed=s, sentinel=str(tmp_path / f"crash-{s}"))
            )
            for s in range(2)
        ]
        report = CampaignRunner(jobs=2, retries=3, backoff_s=0.0).run(specs)
        assert all(r.summary == {"ok": 1.0} for r in report.results)

    def test_pool_broken_during_backoff_recovers(self, tmp_path):
        # The crash lands while job 0 sleeps its backoff, so its retry
        # is submitted to a pool that is already broken.
        specs = [
            JobSpec.from_study(FlakyStudy(sentinel=str(tmp_path / "flaky"))),
            JobSpec.from_study(
                CrashOnceStudy(sentinel=str(tmp_path / "crash"), delay_s=0.2)
            ),
        ]
        report = CampaignRunner(jobs=2, retries=2, backoff_s=0.6).run(specs)
        assert [r.summary for r in report.results] == [{"ok": 1.0}] * 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_budget_exhausted_raises(self, jobs):
        specs = [
            JobSpec.from_study(AlwaysFailsStudy(seed=s)) for s in range(jobs)
        ]
        runner = CampaignRunner(jobs=jobs, retries=1, backoff_s=0.0)
        with pytest.raises(RunnerError, match="after 2 attempt"):
            runner.run(specs)

    def test_timeout_counts_as_failure(self, tmp_path):
        specs = [JobSpec.from_study(SlowStudy(sleep_s=30.0))]
        runner = CampaignRunner(jobs=2, retries=0, timeout_s=0.2, backoff_s=0.0)
        start = time.perf_counter()
        with pytest.raises(RunnerError, match="timed out"):
            runner.run(specs + [JobSpec.from_study(AddStudy(seed=0))])
        assert time.perf_counter() - start < 10.0


class TestTelemetry:
    @staticmethod
    def _job_ends():
        return [
            e
            for e in obs.events()
            if e["kind"] == "span_end" and e["name"] == "runner.job"
        ]

    def test_worker_spans_cross_process_boundary(self):
        """jobs=4 campaign: spans recorded *inside* workers reach the
        orchestrator's merged stream, stamped with the workers' pids."""
        specs = [
            JobSpec.from_study(SlowStudy(seed=s, sleep_s=0.4)) for s in range(4)
        ]
        obs.enable()
        report = CampaignRunner(jobs=4).run(specs)
        assert report.n_ran == 4
        ends = self._job_ends()
        assert len(ends) == 4
        worker_pids = {e["pid"] for e in ends}
        assert os.getpid() not in worker_pids
        assert len(worker_pids) >= 2  # genuinely parallel processes
        run_id = obs.current_run_id()
        assert all(e["run"] == run_id for e in ends)
        for event in obs.events():
            obs.validate_event(event)

    def test_inline_tracing_tees_without_duplicates(self):
        specs = [JobSpec.from_study(AddStudy(seed=s)) for s in range(3)]
        obs.enable()
        CampaignRunner(jobs=1).run(specs)
        ends = self._job_ends()
        assert len(ends) == 3  # teed once, not re-ingested
        assert {e["pid"] for e in ends} == {os.getpid()}

    def test_tracing_disabled_campaign_emits_nothing(self):
        specs = [JobSpec.from_study(AddStudy(seed=s)) for s in range(2)]
        CampaignRunner(jobs=2).run(specs)
        assert obs.events() == []

    def test_cache_hit_replays_recorded_events(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        specs = [JobSpec.from_study(AddStudy(seed=9))]
        obs.enable()
        CampaignRunner(store=store).run(specs)
        first_ends = self._job_ends()
        assert len(first_ends) == 1 and "replay" not in first_ends[0]
        obs.disable()

        obs.enable()
        report = CampaignRunner(store=store).run(specs)
        assert report.n_hits == 1
        replayed = self._job_ends()
        assert len(replayed) == 1 and replayed[0]["replay"] is True
        counters = [e for e in obs.events() if e["kind"] == "counter"]
        assert any(e["name"] == "runner.cache.hits" for e in counters)

    def test_attempt_timings_recorded_per_retry(self, tmp_path):
        spec = JobSpec.from_study(
            FlakyStudy(sentinel=str(tmp_path / "flaky-attempts"))
        )
        report = CampaignRunner(jobs=1, retries=2, backoff_s=0.0).run([spec])
        metric = report.metrics[0]
        assert metric.attempts == 2
        assert len(metric.attempt_s) == 2
        assert all(a >= 0.0 for a in metric.attempt_s)
        assert metric.elapsed_s >= sum(metric.attempt_s)

    def test_timeout_attempts_surface_in_metrics(self, tmp_path):
        specs = [
            JobSpec.from_study(AddStudy(seed=0)),
            JobSpec.from_study(
                SlowOnceStudy(sentinel=str(tmp_path / "slow-once"), sleep_s=2.0)
            ),
        ]
        runner = CampaignRunner(jobs=2, retries=1, timeout_s=0.5, backoff_s=0.0)
        report = runner.run(specs)
        metric = report.metrics[1]
        assert metric.timeouts == 1
        assert metric.attempts == 2
        assert len(metric.attempt_s) == 2
        assert report.n_timeouts == 1
        assert "1 timeouts" in report.render()


class TestReport:
    def test_render_mentions_every_job(self, tmp_path):
        specs, _ = _specs(tmp_path, [1, 2])
        report = CampaignRunner().run(specs)
        text = report.render()
        assert "2 jobs" in text
        assert "AddStudy(seed=1)" in text and "AddStudy(seed=2)" in text
        for metric in report.metrics:
            assert metric.spec_hash[:12] in text


class TestDegradedJobs:
    """allow_partial: jobs that exhaust their retries become entries in
    the report's degraded section instead of aborting the campaign."""

    def test_allow_partial_records_degraded_job(self, tmp_path):
        specs, trace = _specs(tmp_path, [0])
        specs.insert(1, JobSpec.from_study(AlwaysFailsStudy()))
        specs.append(JobSpec.from_study(AddStudy(seed=1, trace_dir=str(trace))))
        report = CampaignRunner(
            retries=1, backoff_s=0.0, allow_partial=True
        ).run(specs)
        assert report.partial and report.n_degraded == 1
        degraded = report.degraded[0]
        assert degraded.index == 1
        assert degraded.reason == "retries-exhausted"
        assert degraded.attempts == 2
        assert "permanent failure" in degraded.error
        # The healthy jobs still completed around the failure.
        assert report.results[0].summary["value"] == 1.0
        assert report.results[1] is None
        assert report.results[2].summary["value"] == 2.0
        assert report.metrics[1].status == "failed"
        assert "PARTIAL" in report.render()
        assert "retries-exhausted" in report.render()

    def test_allow_partial_in_pool_mode(self, tmp_path):
        specs, _ = _specs(tmp_path, [0, 1])
        specs.append(JobSpec.from_study(AlwaysFailsStudy()))
        report = CampaignRunner(
            jobs=2, retries=0, backoff_s=0.0, allow_partial=True
        ).run(specs)
        assert report.n_degraded == 1 and report.n_ran == 2
        assert report.degraded[0].index == 2

    def test_retry_budget_exhausted_reason(self, tmp_path):
        spec = JobSpec.from_study(
            FlakyStudy(sentinel=str(tmp_path / "budgeted"))
        )
        report = CampaignRunner(
            retries=2, retry_budget=0, backoff_s=0.0, allow_partial=True
        ).run([spec])
        assert report.degraded[0].reason == "retry-budget-exhausted"
        assert report.degraded[0].attempts == 1

    def test_retry_budget_is_campaign_wide(self, tmp_path):
        specs = [
            JobSpec.from_study(FlakyStudy(seed=s, sentinel=str(tmp_path / f"b{s}")))
            for s in range(2)
        ]
        report = CampaignRunner(
            retries=2, retry_budget=1, backoff_s=0.0, allow_partial=True
        ).run(specs)
        # The first flaky job consumed the only retry and succeeded; the
        # second had nothing left to retry with.
        assert report.metrics[0].status == "ran"
        assert report.metrics[0].attempts == 2
        assert report.degraded[0].index == 1
        assert report.degraded[0].reason == "retry-budget-exhausted"

    def test_without_allow_partial_failure_still_aborts(self):
        runner = CampaignRunner(retries=0, backoff_s=0.0)
        with pytest.raises(RunnerError, match="after 1 attempt"):
            runner.run([JobSpec.from_study(AlwaysFailsStudy())])


class TestCircuitBreaker:
    """A platform failing consistently is dropped, not hammered."""

    def test_breaker_opens_and_degrades_remaining_jobs(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "BREAKER_MIN_ATTEMPTS", 2)
        specs = [JobSpec.from_study(AlwaysFailsStudy(seed=s)) for s in range(5)]
        report = CampaignRunner(
            retries=0,
            backoff_s=0.0,
            allow_partial=True,
            breaker_threshold=1.0,
        ).run(specs)
        assert report.n_degraded == 5
        reasons = [d.reason for d in report.degraded]
        platform = specs[0].platform
        # Job 0 exhausts normally; job 1's failure trips the breaker (2/2
        # attempts failed), so it and everything after degrade as blocked.
        assert reasons[0] == "retries-exhausted"
        assert reasons[1:] == [f"breaker-open:{platform}"] * 4
        # Jobs behind the open breaker were never even dispatched.
        assert all(d.attempts == 0 for d in report.degraded[2:])

    def test_breaker_counts_recovered_attempts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_module, "BREAKER_MIN_ATTEMPTS", 4)
        # Flaky jobs fail once each; enough first-attempt failures push
        # the platform's rate over the threshold even though every job
        # eventually succeeded — the breaker then blocks the remainder.
        specs = [
            JobSpec.from_study(FlakyStudy(seed=s, sentinel=str(tmp_path / f"f{s}")))
            for s in range(3)
        ]
        specs.append(JobSpec.from_study(AddStudy(seed=0)))
        report = CampaignRunner(
            retries=2,
            backoff_s=0.0,
            allow_partial=True,
            breaker_threshold=0.5,
        ).run(specs)
        blocked = [d for d in report.degraded if d.reason.startswith("breaker-open")]
        assert blocked, report.render()

    def test_breaker_without_allow_partial_raises_not_dispatched(
        self, monkeypatch
    ):
        monkeypatch.setattr(campaign_module, "BREAKER_MIN_ATTEMPTS", 2)
        specs = [JobSpec.from_study(AlwaysFailsStudy(seed=s)) for s in range(4)]
        runner = CampaignRunner(
            retries=1,
            backoff_s=0.0,
            breaker_threshold=1.0,
        )
        with pytest.raises(RunnerError, match="after 2 attempt"):
            runner.run(specs)

    def test_breaker_in_pool_mode(self, monkeypatch):
        monkeypatch.setattr(campaign_module, "BREAKER_MIN_ATTEMPTS", 2)
        specs = [JobSpec.from_study(AlwaysFailsStudy(seed=s)) for s in range(6)]
        report = CampaignRunner(
            jobs=2,
            retries=0,
            backoff_s=0.0,
            allow_partial=True,
            breaker_threshold=1.0,
        ).run(specs)
        assert report.n_degraded == 6
        assert any(
            d.reason.startswith("breaker-open") for d in report.degraded
        ), report.render()

    def test_pool_job_that_opens_breaker_degrades_at_once(self, monkeypatch):
        # As inline: the job whose own failure opens the breaker keeps
        # its error and spends no further retry.
        monkeypatch.setattr(campaign_module, "BREAKER_MIN_ATTEMPTS", 2)
        specs = [JobSpec.from_study(AlwaysFailsStudy(seed=s)) for s in range(4)]
        report = CampaignRunner(
            jobs=2,
            retries=2,
            backoff_s=0.0,
            allow_partial=True,
            breaker_threshold=1.0,
        ).run(specs)
        first = report.degraded[0]
        assert first.index == 0
        assert first.reason == f"breaker-open:{specs[0].platform}"
        assert first.attempts == 2
        assert "permanent failure" in first.error
        assert report.n_retries == 1


class TestFaultPlanIntegration:
    def test_injected_faults_are_retried_deterministically(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=11, p_error=0.4, max_faulty_attempts=1)
        # No tmp path in the configs: the plan's decisions key on the
        # spec hashes, which must not change from one session to the next.
        specs = [JobSpec.from_study(AddStudy(seed=s)) for s in range(6)]
        specs.append(JobSpec.from_study(AlwaysFailsStudy()))

        def run(jobs):
            return CampaignRunner(
                jobs=jobs,
                fault_plan=plan,
                retries=2,
                backoff_s=0.0,
                allow_partial=True,
            ).run(specs)

        def outcome(report):
            return (
                [m.status for m in report.metrics],
                [m.attempts for m in report.metrics],
                [(d.index, d.reason, d.attempts, d.error) for d in report.degraded],
                report.n_retries,
            )

        first, second = run(1), run(1)
        assert [r and r.summary for r in first.results] == [
            r and r.summary for r in second.results
        ]
        assert [m.attempts for m in first.metrics] == [
            m.attempts for m in second.metrics
        ]
        assert any(m.attempts > 1 for m in first.metrics[:-1])  # faults landed
        assert all(m.status == "ran" for m in first.metrics[:-1])
        assert first.degraded[0].index == 6
        assert outcome(run(2)) == outcome(first)

    def test_corrupt_marked_entries_are_garbled_after_put(self, tmp_path):
        from repro.errors import CacheCorruptionError
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=1, p_corrupt=1.0)
        specs, trace = _specs(tmp_path, [0, 1])
        store = ResultStore(tmp_path / "cache")
        CampaignRunner(fault_plan=plan, store=store).run(specs)
        for spec in specs:
            with pytest.raises(CacheCorruptionError):
                store.read_entry(spec)
        # A faultless replay quarantines and recomputes them.
        replay = CampaignRunner(store=store).run(specs)
        assert replay.n_ran == 2 and _count_runs(trace) == 4
        assert len(store.quarantined()) == 2

    def test_crash_fault_in_pool_recovers(self, tmp_path):
        from repro.faults import FaultPlan

        plan = FaultPlan(seed=3, p_crash=0.3, max_faulty_attempts=1)
        specs, _ = _specs(tmp_path, range(5))
        report = CampaignRunner(
            jobs=2, fault_plan=plan, retries=4, backoff_s=0.0
        ).run(specs)
        assert all(m.status == "ran" for m in report.metrics)
        assert [r.summary["value"] for r in report.results] == [
            1.0, 2.0, 3.0, 4.0, 5.0
        ]
