"""Tests for campaign checkpoints: crash-safe journal, resume semantics.

The stub studies come from ``test_runner_campaign`` (module scope, so
worker processes and the SIGKILL subprocess can resolve them by import
path).
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import CacheCorruptionError
from repro.runner import (
    CampaignCheckpoint,
    CampaignRunner,
    CheckpointEntry,
    JobSpec,
    ResultStore,
    campaign_fingerprint,
)
import repro.runner.campaign as campaign_module

from test_runner_campaign import AddStudy, SlowOnceStudy, _count_runs, _specs


@pytest.fixture(autouse=True)
def _obs_off():
    obs.disable()
    yield
    obs.disable()


def _entry(spec, value=1.0):
    payload = {
        "name": "add",
        "summary": {"value": value},
        "hypotheses": [],
    }
    return CheckpointEntry(
        spec_hash=spec.content_hash,
        payload=payload,
        elapsed_s=0.25,
        metrics={
            "index": 0,
            "study": spec.describe(),
            "seed": spec.seed,
            "spec_hash": spec.content_hash,
            "status": "ran",
            "attempts": 1,
            "elapsed_s": 0.25,
            "saved_s": 0.0,
            "attempt_s": [0.25],
            "timeouts": 0,
        },
    )


class TestFingerprint:
    def test_depends_on_specs_and_order(self, tmp_path):
        specs, _ = _specs(tmp_path, [0, 1, 2])
        assert campaign_fingerprint(specs) == campaign_fingerprint(list(specs))
        assert campaign_fingerprint(specs) != campaign_fingerprint(specs[::-1])
        assert campaign_fingerprint(specs) != campaign_fingerprint(specs[:2])


class TestJournal:
    def test_roundtrip(self, tmp_path):
        specs, _ = _specs(tmp_path, [0, 1])
        fingerprint = campaign_fingerprint(specs)
        checkpoint = CampaignCheckpoint(tmp_path, fingerprint)
        checkpoint.record(_entry(specs[0]))
        path = checkpoint.write()
        assert path.exists()

        fresh = CampaignCheckpoint(tmp_path, fingerprint)
        assert fresh.load() == 1
        entry = fresh.entries[specs[0].content_hash]
        assert entry.payload["summary"] == {"value": 1.0}
        assert entry.metrics["status"] == "ran"

    def test_missing_file_restores_nothing(self, tmp_path):
        specs, _ = _specs(tmp_path, [0])
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        assert checkpoint.load() == 0

    def test_foreign_fingerprint_restores_nothing(self, tmp_path):
        specs, _ = _specs(tmp_path, [0, 1])
        mine = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        mine.record(_entry(specs[0]))
        path = mine.write()
        # Another campaign whose fingerprint truncates to the same file
        # name prefix would collide on path; simulate by loading the
        # same file under a different full fingerprint.
        other = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs[::-1]))
        other_path = other.path
        if other_path != path:
            other_path.parent.mkdir(parents=True, exist_ok=True)
            other_path.write_text(path.read_text())
        assert other.load() == 0

    def test_garbled_checkpoint_raises(self, tmp_path):
        specs, _ = _specs(tmp_path, [0])
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        checkpoint.record(_entry(specs[0]))
        path = checkpoint.write()
        path.write_text(path.read_text()[:40] + "...torn")
        with pytest.raises(CacheCorruptionError):
            CampaignCheckpoint(tmp_path, campaign_fingerprint(specs)).load()

    def test_checksum_mismatch_raises(self, tmp_path):
        specs, _ = _specs(tmp_path, [0])
        fingerprint = campaign_fingerprint(specs)
        checkpoint = CampaignCheckpoint(tmp_path, fingerprint)
        checkpoint.record(_entry(specs[0]))
        path = checkpoint.write()
        document = json.loads(path.read_text())
        body = document["completed"][specs[0].content_hash]
        body["payload"]["summary"]["value"] = 99.0  # silent bit rot
        path.write_text(json.dumps(document))
        with pytest.raises(CacheCorruptionError, match="checksum"):
            CampaignCheckpoint(tmp_path, fingerprint).load()

    def test_writes_are_byte_identical_for_same_progress(self, tmp_path):
        specs, _ = _specs(tmp_path, [0, 1])
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        checkpoint.record(_entry(specs[1]))
        checkpoint.record(_entry(specs[0]))
        first = checkpoint.write().read_bytes()
        assert checkpoint.write().read_bytes() == first

    def test_clear_removes_file(self, tmp_path):
        specs, _ = _specs(tmp_path, [0])
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        checkpoint.record(_entry(specs[0]))
        path = checkpoint.write()
        checkpoint.clear()
        assert not path.exists()
        checkpoint.clear()  # idempotent


class _CrashAfter:
    """Wrap the inline job executor to die after N successful jobs."""

    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0
        self.original = campaign_module._run_job

    def __call__(self, spec, *args, **kwargs):
        if self.calls >= self.limit:
            raise KeyboardInterrupt("simulated orchestrator death")
        self.calls += 1
        return self.original(spec, *args, **kwargs)


class TestCampaignResume:
    def test_checkpoint_written_mid_campaign_and_resumed(
        self, tmp_path, monkeypatch
    ):
        specs, trace = _specs(tmp_path, [0, 1, 2, 3])
        monkeypatch.setattr(campaign_module, "_run_job", _CrashAfter(2))
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(checkpoint_dir=tmp_path).run(specs)
        assert _count_runs(trace) == 2
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        assert checkpoint.load() == 2

        monkeypatch.undo()
        report = CampaignRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
        # Restored jobs were not recomputed; the remainder ran.
        assert _count_runs(trace) == 4
        assert [m.status for m in report.metrics] == ["ran"] * 4
        assert [r.summary["value"] for r in report.results] == [1.0, 2.0, 3.0, 4.0]
        # Clean completion retires the checkpoint.
        assert not checkpoint.path.exists()

    def test_resume_without_checkpoint_runs_everything(self, tmp_path):
        specs, trace = _specs(tmp_path, [0, 1])
        report = CampaignRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
        assert _count_runs(trace) == 2
        assert [m.status for m in report.metrics] == ["ran", "ran"]

    def test_resume_requires_checkpoint_dir(self):
        from repro.errors import RunnerError

        with pytest.raises(RunnerError, match="checkpoint_dir"):
            CampaignRunner(resume=True)

    def test_corrupt_checkpoint_discarded_and_recomputed(
        self, tmp_path, monkeypatch
    ):
        specs, trace = _specs(tmp_path, [0, 1, 2])
        monkeypatch.setattr(campaign_module, "_run_job", _CrashAfter(2))
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(checkpoint_dir=tmp_path).run(specs)
        monkeypatch.undo()
        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        checkpoint.path.write_text(checkpoint.path.read_text()[:50])

        report = CampaignRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
        # Nothing could be restored: every job recomputed, report whole.
        assert _count_runs(trace) == 2 + 3
        assert [m.status for m in report.metrics] == ["ran"] * 3
        assert not checkpoint.path.exists()

    def test_restored_metrics_keep_original_rows(self, tmp_path, monkeypatch):
        specs, _ = _specs(tmp_path, [0, 1])
        monkeypatch.setattr(campaign_module, "_run_job", _CrashAfter(1))
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(checkpoint_dir=tmp_path).run(specs)
        monkeypatch.undo()
        report = CampaignRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
        restored = report.metrics[0]
        assert restored.status == "ran"  # not re-labeled as a cache hit
        assert restored.attempts == 1
        assert restored.elapsed_s > 0.0


class TestResumeEqualsUninterrupted:
    """The chaos invariant: resume ∘ crash ≡ uninterrupted run."""

    @staticmethod
    def _digest(report):
        return {
            "summaries": [dict(r.summary) for r in report.results],
            "statuses": [m.status for m in report.metrics],
            "attempts": [m.attempts for m in report.metrics],
            "hashes": [m.spec_hash for m in report.metrics],
        }

    @settings(max_examples=12, deadline=None)
    @given(
        n_jobs=st.integers(min_value=2, max_value=6),
        crash_after=st.integers(min_value=0, max_value=5),
        offset=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_property(self, n_jobs, crash_after, offset):
        crash_after = min(crash_after, n_jobs - 1)
        with tempfile.TemporaryDirectory() as scratch:
            scratch = Path(scratch)
            specs = [
                JobSpec.from_study(AddStudy(seed=s, offset=offset))
                for s in range(n_jobs)
            ]
            reference = CampaignRunner().run(specs)

            crash_dir = scratch / "crash"
            crasher = _CrashAfter(crash_after)
            campaign_module._run_job = crasher
            try:
                with pytest.raises(KeyboardInterrupt):
                    CampaignRunner(checkpoint_dir=crash_dir).run(specs)
            finally:
                campaign_module._run_job = crasher.original
            resumed = CampaignRunner(checkpoint_dir=crash_dir, resume=True).run(
                specs
            )
            assert self._digest(resumed) == self._digest(reference)


#: Driver for the SIGKILL test: runs the campaign exactly as the parent
#: will on resume, in a process the parent is free to kill.
_VICTIM_SCRIPT = """
import json, sys
sys.path[:0] = json.loads(sys.argv[1])
from repro.runner import CampaignRunner, JobSpec, ResultStore
specs = [JobSpec(**d) for d in json.loads(sys.argv[2])]
workdir = sys.argv[3]
CampaignRunner(store=ResultStore(workdir), checkpoint_dir=workdir).run(specs)
"""


class TestSigkillResume:
    def test_sigkilled_campaign_resumes_to_identical_report(self, tmp_path):
        """A campaign killed with SIGKILL mid-run finishes under --resume."""
        trace = tmp_path / "trace"
        trace.mkdir()
        sentinel = tmp_path / "slow-once"
        fast = [
            JobSpec.from_study(AddStudy(seed=s, trace_dir=str(trace)))
            for s in range(3)
        ]
        # One job that hangs on its first execution: the kill always
        # lands while it is running, and the resumed run (sentinel now
        # present) completes it quickly.
        slow = JobSpec.from_study(
            SlowOnceStudy(seed=9, sentinel=str(sentinel), sleep_s=60.0)
        )
        specs = fast + [slow]
        spec_args = json.dumps(
            [
                {"study": s.study, "seed": s.seed, "config": dict(s.config)}
                for s in specs
            ]
        )
        paths = json.dumps([str(p) for p in sys.path])

        victim = subprocess.Popen(
            [sys.executable, "-c", _VICTIM_SCRIPT, paths, spec_args, str(tmp_path)],
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if sentinel.exists() and _count_runs(trace) == 3:
                    break
                assert victim.poll() is None, "victim finished before the kill"
                time.sleep(0.05)
            else:
                pytest.fail("victim made no progress before the deadline")
        finally:
            try:
                os.killpg(os.getpgid(victim.pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
            victim.wait()

        checkpoint = CampaignCheckpoint(tmp_path, campaign_fingerprint(specs))
        assert checkpoint.load() == 3

        report = CampaignRunner(
            store=ResultStore(tmp_path), checkpoint_dir=tmp_path, resume=True
        ).run(specs)
        assert [m.status for m in report.metrics] == ["ran"] * 4
        assert [r.summary.get("value", r.summary.get("ok")) for r in report.results] == [
            1.0,
            2.0,
            3.0,
            1.0,
        ]
        # The three checkpointed jobs were restored, not recomputed.
        assert _count_runs(trace) == 3
        assert not checkpoint.path.exists()
