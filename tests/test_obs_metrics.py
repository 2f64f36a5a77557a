"""Tests for sketch-backed histograms and live campaign progress.

The acceptance bar from the profiling-plane work: histogram quantiles
agree with numpy's exact quantiles within the sketch plane's
``RANK_TOLERANCE`` on arbitrary finite inputs (property-based), and the
progress tracker survives broken status streams without taking the
campaign down.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.errors import ObsError
from repro.obs import (
    Histogram,
    ProgressTracker,
    fold_heartbeats,
    merge_hist_events,
    quantile_table,
)
from repro.stream import RANK_TOLERANCE

#: Finite measurement-like values (latencies in seconds, wide but bounded).
samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, width=32),
    min_size=1,
    max_size=400,
)


def rank_error(values: np.ndarray, estimate: float, q: float) -> float:
    """Rank-space distance of ``estimate`` from the exact ``q``-quantile.

    With ties an estimate occupies a rank *interval*
    ``[count(< est), count(<= est)] / n``; the error is the distance
    from ``q`` to that interval, so exact answers score 0 even on
    tie-heavy inputs.
    """
    lo = np.count_nonzero(values < estimate) / values.size
    hi = np.count_nonzero(values <= estimate) / values.size
    return max(0.0, lo - q, q - hi)


class TestHistogramAccuracy:
    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_quantiles_within_rank_tolerance_of_numpy(self, values):
        arr = np.asarray(values)
        hist = Histogram("latency_s")
        for value in values:
            hist.observe(value)
        for q in (0.5, 0.95, 0.99):
            estimate = hist.quantile(q)
            exact = float(np.quantile(arr, q))
            # Value-space agreement is not guaranteed (sketches compress),
            # but rank-space agreement is the documented contract.
            assert rank_error(arr, estimate, q) <= RANK_TOLERANCE, (
                f"q={q}: sketch {estimate} vs numpy {exact}"
            )

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_merged_shards_match_concatenation(self, left, right):
        # The property that makes per-worker flushes sound.
        shard_a, shard_b = Histogram("x"), Histogram("x")
        for value in left:
            shard_a.observe(value)
        for value in right:
            shard_b.observe(value)
        shard_a.merge(shard_b)
        arr = np.asarray(left + right)
        assert shard_a.count == arr.size
        assert shard_a.sum == pytest.approx(float(arr.sum()), rel=1e-9, abs=1e-6)
        assert rank_error(arr, shard_a.quantile(0.5), 0.5) <= RANK_TOLERANCE


class TestHistogramApi:
    def test_exact_stats_and_summary_keys(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.mean == pytest.approx(2.5)
        summary = hist.summary()
        assert set(summary) == {"count", "min", "max", "mean", "p50", "p95", "p99"}
        assert summary["p50"] == pytest.approx(2.5, abs=0.5)

    def test_empty_histogram(self):
        hist = Histogram("h")
        assert hist.min is None and hist.max is None and hist.mean is None
        with pytest.raises(ObsError, match="empty"):
            hist.quantile(0.5)
        summary = hist.summary()
        assert summary["count"] == 0 and summary["p99"] is None

    def test_bad_name_rejected(self):
        with pytest.raises(ObsError):
            Histogram("")

    def test_merge_name_mismatch_rejected(self):
        with pytest.raises(ObsError, match="cannot merge"):
            Histogram("a").merge(Histogram("b"))

    def test_event_round_trip(self):
        hist = Histogram("runner.job.latency_s")
        for value in (0.1, 0.2, 0.7):
            hist.observe(value)
        event = hist.to_event("run-1")
        assert event["kind"] == "hist"
        assert event["name"] == "runner.job.latency_s"
        back = Histogram.from_event(event)
        assert back.count == 3
        assert back.sum == pytest.approx(1.0)
        assert back.quantile(0.5) == pytest.approx(hist.quantile(0.5))

    def test_from_event_rejects_malformed_sketch(self):
        event = Histogram("h").to_event("run-1")
        event["sketch"] = {"kind": "nonsense"}
        with pytest.raises(ObsError, match="malformed sketch"):
            Histogram.from_event(event)


class TestStreamFolding:
    def _events(self):
        a1, a2, b = Histogram("a"), Histogram("a"), Histogram("b")
        for value in (1.0, 2.0):
            a1.observe(value)
        for value in (3.0, 4.0):
            a2.observe(value)
        b.observe(9.0)
        return [
            a1.to_event("r"),
            {"kind": "span_start", "name": "noise"},  # skipped
            a2.to_event("r"),
            b.to_event("r"),
        ]

    def test_merge_hist_events_folds_shards_per_name(self):
        merged = merge_hist_events(self._events())
        assert set(merged) == {"a", "b"}
        assert merged["a"].count == 4
        assert merged["a"].sum == pytest.approx(10.0)
        assert merged["b"].count == 1

    def test_quantile_table_rows(self):
        rows = quantile_table(merge_hist_events(self._events()))
        assert [row["name"] for row in rows] == ["a", "b"]
        assert rows[0]["count"] == 4
        assert {"p50", "p95", "p99"} <= set(rows[0])


class _BrokenStream(io.StringIO):
    def write(self, s):  # noqa: D102 - simulates a closed pipe
        raise OSError("broken pipe")


class TestProgressTracker:
    @pytest.fixture(autouse=True)
    def _obs_off(self):
        obs.disable()
        yield
        obs.disable()

    def test_counters_and_snapshot(self):
        tracker = ProgressTracker(total=4)
        tracker.job_done("ran")
        tracker.job_done("hit")
        tracker.job_done("failed")
        tracker.retry()
        snap = tracker.snapshot()
        assert snap["done"] == 3
        assert snap["total"] == 4
        assert snap["hits"] == 1
        assert snap["failed"] == 1
        assert snap["retried"] == 1
        assert snap["rate"] >= 0.0
        assert snap["elapsed_s"] > 0.0

    def test_rate_and_eta_appear_after_jobs(self):
        tracker = ProgressTracker(total=100)
        for _ in range(3):
            tracker.job_done()
        snap = tracker.snapshot()
        assert snap["rate"] > 0.0
        assert snap["eta_s"] > 0.0

    def test_validation(self):
        with pytest.raises(ObsError):
            ProgressTracker(total=-1)
        with pytest.raises(ObsError):
            ProgressTracker(ewma_alpha=0.0)
        with pytest.raises(ObsError):
            ProgressTracker().job_done("exploded")
        with pytest.raises(ObsError):
            ProgressTracker().set_total(-2)

    def test_format_line_variants(self):
        line = ProgressTracker.format_line(
            {
                "done": 3,
                "total": 10,
                "failed": 1,
                "retried": 2,
                "hits": 1,
                "rate": 2.0,
                "eta_s": 3.5,
                "elapsed_s": 1.5,
            }
        )
        assert "campaign 3/10 (30%)" in line
        assert "1 hit(s)" in line and "1 failed" in line and "2 retried" in line
        assert "2.00 job/s" in line and "eta 4s" in line

        bare = ProgressTracker.format_line(
            {
                "done": 2,
                "total": 0,
                "failed": 0,
                "retried": 0,
                "hits": 0,
                "rate": 0.0,
                "eta_s": 0.0,
                "elapsed_s": 1.0,
            }
        )
        assert bare == "campaign 2 job(s)"

    def test_non_tty_stream_gets_full_lines(self):
        stream = io.StringIO()
        tracker = ProgressTracker(total=2, stream=stream, min_interval_s=0.0)
        tracker.job_done()
        tracker.job_done()
        tracker.finish()
        lines = [l for l in stream.getvalue().splitlines() if l]
        assert lines, "non-TTY stream saw no progress lines"
        assert all("\r" not in line for line in lines)
        assert "campaign 2/2 (100%)" in lines[-1]

    def test_non_tty_renders_throttled(self):
        stream = io.StringIO()
        tracker = ProgressTracker(total=50, stream=stream, min_interval_s=3600.0)
        for _ in range(10):
            tracker.job_done()
        # Every render inside the interval is suppressed after the first.
        assert len(stream.getvalue().splitlines()) <= 1

    def test_broken_stream_goes_silent_not_fatal(self):
        tracker = ProgressTracker(total=2, stream=_BrokenStream(), min_interval_s=0.0)
        tracker.job_done()
        tracker.job_done()
        tracker.finish()  # no raise: progress goes silent instead
        assert tracker.snapshot()["done"] == 2

    def test_heartbeats_mirror_into_trace(self):
        with obs.capture() as captured:
            tracker = ProgressTracker(total=2)
            tracker.job_done("ran")
            tracker.job_done("hit")
        beats = [e for e in captured.events if e.get("kind") == "heartbeat"]
        assert len(beats) == 2
        assert beats[-1]["name"] == "runner.progress"
        assert beats[-1]["done"] == 2
        assert beats[-1]["hits"] == 1


class TestFoldHeartbeats:
    def test_returns_last_view_plus_count(self):
        with obs.capture() as captured:
            tracker = ProgressTracker(total=3)
            for _ in range(3):
                tracker.job_done()
        folded = fold_heartbeats(captured.events)
        assert folded["done"] == 3
        assert folded["total"] == 3
        assert folded["n_heartbeats"] == 3

    def test_empty_stream(self):
        assert fold_heartbeats([]) == {}
        assert fold_heartbeats([{"kind": "span_start", "name": "x"}]) == {}


def test_metrics_import_loads_only_the_sketch():
    # The first histogram of a traced run imports repro.obs.metrics; it
    # needs the centroid sketch, not the measurement plane behind
    # repro.stream's ingest, sessions and shard modules.
    code = "import sys, repro.obs.metrics; print(' '.join(sorted(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = child.stdout.split()
    assert "repro.stream.sketch" in loaded
    heavy = ("repro.stream.ingest", "repro.edgefabric", "repro.bgp")
    assert [m for m in loaded if m.startswith(heavy)] == []

