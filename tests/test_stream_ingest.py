"""Tests for the session ingest plane: feed → snapshot → merge.

The central contract here is determinism: identical streams yield
byte-identical snapshots, and disjoint-key shard merges are
byte-identical to a single ingestor having seen everything.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.edgefabric.sampler import (
    MeasurementConfig,
    MeasurementPlan,
    plan_measurement,
)
from repro.errors import MeasurementError, StreamError
from repro.stream import (
    IngestConfig,
    IngestShardStudy,
    IngestSnapshot,
    SessionBatch,
    SessionIngestor,
    ingest_plan,
    merge_snapshots,
)

KEY_A = ("iad", "p0", 0)
KEY_B = ("lhr", "p1", 1)


def batch_for(key, times, rtts) -> SessionBatch:
    return SessionBatch.from_rows((key, t, r) for t, r in zip(times, rtts))


class TestSessionBatch:
    def test_from_rows_builds_key_table(self):
        batch = SessionBatch.from_rows(
            [(KEY_A, 0.1, 40.0), (KEY_B, 0.2, 80.0), (KEY_A, 0.3, 41.0)]
        )
        assert batch.key_table == (KEY_A, KEY_B)
        assert batch.key_ids.tolist() == [0, 1, 0]
        assert batch.n_sessions == 3

    def test_misaligned_columns_rejected(self):
        with pytest.raises(StreamError, match="aligned"):
            SessionBatch(
                key_table=(KEY_A,),
                key_ids=np.array([0, 0]),
                times_h=np.array([0.1]),
                rtt_ms=np.array([40.0]),
            )

    def test_out_of_range_key_id_rejected(self):
        with pytest.raises(StreamError, match="out of range"):
            SessionBatch(
                key_table=(KEY_A,),
                key_ids=np.array([1]),
                times_h=np.array([0.1]),
                rtt_ms=np.array([40.0]),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(StreamError, match="finite"):
            batch_for(KEY_A, [0.1], [np.nan])


class TestSessionIngestor:
    def test_feed_routes_sessions_to_cells(self):
        ingestor = SessionIngestor()
        ingestor.feed(
            SessionBatch.from_rows(
                [(KEY_A, 0.1, 40.0), (KEY_A, 0.3, 42.0), (KEY_B, 0.1, 80.0)]
            )
        )
        assert ingestor.sessions == 3 and ingestor.batches == 1
        assert ingestor.n_cells == 3  # A has two windows, B one

    def test_identical_streams_snapshot_identically(self):
        def run():
            ingestor = SessionIngestor()
            rng = np.random.default_rng(7)
            for start in range(4):
                times = start * 0.25 + rng.uniform(0.0, 0.25, 50)
                ingestor.feed(batch_for(KEY_A, times, rng.exponential(1.5, 50)))
            return ingestor.snapshot().to_json()

        assert run() == run()

    def test_watermark_advances_with_feed(self):
        ingestor = SessionIngestor()
        ingestor.feed(batch_for(KEY_A, [0.1, 0.6], [40.0, 41.0]))
        assert ingestor.watermark_h == 0.6

    def test_late_sessions_counted(self):
        ingestor = SessionIngestor(IngestConfig(allowed_lateness_windows=0))
        ingestor.feed(batch_for(KEY_A, [2.0], [40.0]))
        ingestor.feed(batch_for(KEY_A, [0.1], [39.0]))
        assert ingestor.late_dropped == 1
        assert ingestor.snapshot().late_dropped == 1


NAN = float("nan")


class TestIngestConfig:
    """A config the snapshot cannot record as it ran is refused."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"max_centroids": 8.5}, "max_centroids must be an integer"),
            ({"max_centroids": True}, "max_centroids must be an integer"),
            ({"allowed_lateness_windows": 0.5}, "allowed_lateness_windows must be an"),
            ({"allowed_lateness_windows": True}, "allowed_lateness_windows must be an"),
            ({"window_minutes": float("inf")}, "window_minutes must be finite"),
            ({"window_minutes": NAN}, "window_minutes must be finite"),
        ],
    )
    def test_refuses_what_the_snapshot_cannot_record(self, fields, message):
        with pytest.raises(StreamError, match=message):
            IngestConfig(**fields)

    def test_numpy_integers_stay_legal(self):
        config = IngestConfig(
            max_centroids=np.int64(32), allowed_lateness_windows=np.uint8(2)
        )
        assert (config.max_centroids, config.allowed_lateness_windows) == (32, 2)
        assert type(config.max_centroids) is int
        assert type(config.allowed_lateness_windows) is int
        snap = SessionIngestor(config).snapshot()
        assert IngestSnapshot.from_json(snap.to_json()).to_json() == snap.to_json()


class TestShardMergeDeterminism:
    def _shard_stream(self, key, seed):
        rng = np.random.default_rng(seed)
        batches = []
        for start in range(3):
            times = start * 0.25 + np.sort(rng.uniform(0.0, 0.25, 120))
            batches.append(batch_for(key, times, rng.exponential(1.5, 120)))
        return batches

    def test_disjoint_shards_merge_byte_identical(self):
        """Merging disjoint-key shard snapshots == one ingestor seeing
        both streams, down to the serialized bytes."""
        shard_a = SessionIngestor()
        for batch in self._shard_stream(KEY_A, 10):
            shard_a.feed(batch)
        shard_b = SessionIngestor()
        for batch in self._shard_stream(KEY_B, 11):
            shard_b.feed(batch)

        # The single-pass twin interleaves the shards' batches in time
        # order (concatenating whole streams would make every B batch
        # late against A's final watermark).
        single = SessionIngestor()
        for a_batch, b_batch in zip(
            self._shard_stream(KEY_A, 10), self._shard_stream(KEY_B, 11)
        ):
            single.feed(a_batch)
            single.feed(b_batch)

        merged = merge_snapshots([shard_a.snapshot(), shard_b.snapshot()])
        assert merged.to_json() == single.snapshot().to_json()

    def test_merge_snapshots_rejects_mixed_configs(self):
        a = SessionIngestor(IngestConfig(max_centroids=32)).snapshot()
        b = SessionIngestor().snapshot()
        with pytest.raises(StreamError, match="configs"):
            merge_snapshots([a, b])

    def test_merge_zero_snapshots_rejected(self):
        with pytest.raises(StreamError, match="zero"):
            merge_snapshots([])


class TestSnapshotSerialization:
    def _snapshot(self):
        ingestor = SessionIngestor()
        rng = np.random.default_rng(12)
        for start in range(3):
            times = start * 0.25 + rng.uniform(0.0, 0.25, 40)
            ingestor.feed(batch_for(KEY_A, times, rng.exponential(1.5, 40)))
        return ingestor.snapshot()

    def test_json_roundtrip_byte_identical(self):
        snap = self._snapshot()
        text = snap.to_json()
        assert IngestSnapshot.from_json(text).to_json() == text

    def test_malformed_snapshot_rejected(self):
        with pytest.raises(StreamError, match="malformed"):
            IngestSnapshot.from_dict({"kind": "ingest-snapshot", "schema": 1})

    def test_wrong_kind_rejected(self):
        with pytest.raises(StreamError, match="not an ingest snapshot"):
            IngestSnapshot.from_dict({"kind": "other", "schema": 1})

    def test_p2_snapshot_rejected_by_name(self):
        """A snapshot written with the P² sketch is refused, not misread."""
        data = json.loads(self._snapshot().to_json())
        data["sketch"] = "p2"
        with pytest.raises(StreamError, match="sketch kind 'p2'"):
            IngestSnapshot.from_dict(data)

    def test_garbage_json_rejected(self):
        with pytest.raises(StreamError, match="JSON"):
            IngestSnapshot.from_json("{torn")

    def test_median_matrix_layout(self):
        snap = self._snapshot()
        pairs = [
            SimpleNamespace(pop_code="iad", prefix=SimpleNamespace(pid="p0")),
            SimpleNamespace(pop_code="lhr", prefix=SimpleNamespace(pid="p9")),
        ]
        times = np.arange(0.0, 1.0, 0.25)
        out = snap.median_matrix(pairs, times, max_routes=2)
        assert out.shape == (2, 4, 2)
        assert np.isfinite(out[0, :3, 0]).all()  # three fed windows
        assert np.isnan(out[0, 3, 0])  # nothing landed in window 3
        assert np.isnan(out[0, :, 1]).all()  # route 1 never fed
        assert np.isnan(out[1]).all()  # unknown pair stays NaN


class TestIngestPlan:
    """:func:`repro.stream.ingest_plan`, the one streaming path."""

    CONFIG = MeasurementConfig(days=0.5, seed=3)

    def test_snapshot_invariant_to_chunking(self, small_internet, small_prefixes):
        plan = plan_measurement(small_internet, small_prefixes, self.CONFIG)
        whole = ingest_plan(plan, self.CONFIG)
        chunked = ingest_plan(plan, self.CONFIG, chunk_windows=5)
        assert chunked.ingestor.batches > whole.ingestor.batches
        assert chunked.snapshot.to_json() == whole.snapshot.to_json()

    def test_empty_plan_streams_nothing(self):
        run = ingest_plan(MeasurementPlan(pairs=(), prefixes=()), self.CONFIG)
        assert run.ingestor.sessions == 0
        assert run.snapshot.entries == ()

    def test_window_mismatch_rejected(self):
        with pytest.raises(MeasurementError, match="must match"):
            ingest_plan(
                MeasurementPlan(pairs=(), prefixes=()),
                self.CONFIG,
                IngestConfig(window_minutes=5.0),
            )


class TestIngestShardStudyFields:
    """A shard study refuses at construction the fields it cannot run, so
    a campaign never runs, caches or retries it."""

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"seed": -1}, "seed must be >= 0"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"n_prefixes": 0}, "n_prefixes must be >= 1"),
            ({"n_prefixes": 2.5}, "n_prefixes must be an integer"),
            ({"days": 0}, "days must be finite and > 0"),
            ({"days": NAN}, "days must be finite and > 0"),
            ({"days": float("inf")}, "days must be finite and > 0"),
            ({"max_centroids": 4}, "max_centroids must be >= 8"),
            ({"max_centroids": 8.5}, "max_centroids must be an integer"),
            ({"chunk_windows": 0}, "chunk_windows must be >= 1"),
            ({"n_shards": 2.5}, "n_shards must be an integer"),
            ({"shard": True, "n_shards": 2}, "shard must be an integer"),
        ],
    )
    def test_refuses_what_it_cannot_run(self, fields, message):
        with pytest.raises(StreamError, match=message):
            IngestShardStudy(**fields)

    def test_numpy_integers_stored_as_int(self):
        study = IngestShardStudy(
            seed=np.int64(3), shard=np.int32(1), n_shards=np.uint8(2)
        )
        values = (study.seed, study.shard, study.n_shards)
        assert values == (3, 1, 2)
        assert all(type(value) is int for value in values)
