"""Tests for the session ingest plane: feed → snapshot → merge.

The central contract here is determinism: identical streams yield
byte-identical snapshots, and disjoint-key shard merges are
byte-identical to a single ingestor having seen everything.
"""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.edgefabric.sampler import (
    MeasurementConfig,
    MeasurementPlan,
    plan_measurement,
)
from repro.errors import MeasurementError, StreamError
from repro.runner import CampaignRunner, JobSpec, ResultStore
from repro.stream import (
    SNAPSHOT_ARTIFACT,
    IngestShardStudy,
    IngestSnapshot,
    SessionBatch,
    SessionIngestor,
    ingest_plan,
    merge_snapshot_artifacts,
    merge_snapshots,
    sketch_from_dict,
)

KEY_A = ("iad", "p0", 0)
KEY_B = ("lhr", "p1", 1)
NAN = float("nan")


def batch_for(key, times, rtts) -> SessionBatch:
    return SessionBatch.from_rows((key, t, r) for t, r in zip(times, rtts))


def cells(ingestor: SessionIngestor) -> dict:
    """``{(key, window): sketch}`` over every cell of the snapshot."""
    return {
        (key, window): sketch_from_dict(payload)
        for key, window, payload in ingestor.snapshot().entries
    }


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
        ingestor = SessionIngestor(15.0)
        ingestor.feed(
            SessionBatch.from_rows(
                [(KEY_A, 0.1, 40.0), (KEY_A, 0.3, 42.0), (KEY_B, 0.1, 80.0)]
            )
        )
        assert ingestor.sessions == 3 and ingestor.batches == 1
        assert ingestor.n_cells == 3  # A has two windows, B one

    def test_identical_streams_snapshot_identically(self):
        def run():
            ingestor = SessionIngestor(15.0)
            rng = np.random.default_rng(7)
            for start in range(4):
                times = start * 0.25 + rng.uniform(0.0, 0.25, 50)
                ingestor.feed(batch_for(KEY_A, times, rng.exponential(1.5, 50)))
            return ingestor.snapshot().to_json()

        assert run() == run()

    def test_observations_group_by_window(self):
        ingestor = SessionIngestor(15.0)
        ingestor.feed(batch_for(KEY_A, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0]))
        got = cells(ingestor)
        assert got[(KEY_A, 0)].count == 2  # 0.1, 0.2 land in window 0
        assert got[(KEY_A, 1)].count == 1
        assert ingestor.n_cells == 2

    def test_windows_are_floor_division(self):
        """A window is the floor of the time over the width in hours."""
        ingestor = SessionIngestor(15.0)
        ingestor.feed(batch_for(KEY_A, [0.0, 0.24, 0.25, 0.5, 23.99], [1.0] * 5))
        counts = {cell: sketch.count for cell, sketch in cells(ingestor).items()}
        assert counts == {(KEY_A, 0): 2, (KEY_A, 1): 1, (KEY_A, 2): 1, (KEY_A, 95): 1}

    def test_keys_do_not_interfere(self):
        ingestor = SessionIngestor(15.0)
        ingestor.feed(SessionBatch.from_rows([(KEY_A, 0.1, 1.0), (KEY_B, 0.1, 9.0)]))
        got = cells(ingestor)
        assert got[(KEY_A, 0)].quantile(0.5) == 1.0
        assert got[(KEY_B, 0)].quantile(0.5) == 9.0

    def test_earlier_window_after_later_lands(self):
        """Every session lands in its cell, whatever order windows arrive."""
        ingestor = SessionIngestor(15.0)
        ingestor.feed(batch_for(KEY_A, [2.0, 2.1], [40.0, 41.0]))
        ingestor.feed(batch_for(KEY_A, [0.1], [39.0]))
        ingestor.feed(batch_for(KEY_A, [2.2], [42.0]))
        snap = ingestor.snapshot()
        counts = {cell: sketch.count for cell, sketch in cells(ingestor).items()}
        assert counts == {(KEY_A, 0): 1, (KEY_A, 8): 3}
        assert snap.sessions == sum(counts.values()) == 4
        assert IngestSnapshot.from_json(snap.to_json()).to_json() == snap.to_json()

    def test_cells_use_the_centroid_budget(self):
        ingestor = SessionIngestor(15.0, max_centroids=16)
        ingestor.feed(batch_for(KEY_A, np.full(40, 0.1), np.arange(40.0)))
        sketch = cells(ingestor)[(KEY_A, 0)]
        assert sketch.max_centroids == 16 and sketch.n_centroids <= 16

    @pytest.mark.parametrize(
        "args, message",
        [
            ((15.0, 4), "max_centroids must be >= 8"),
            ((15.0, 8.5), "max_centroids must be an integer"),
            ((15.0, True), "max_centroids must be an integer"),
            ((float("inf"),), "window_minutes must be finite and positive"),
            ((NAN,), "window_minutes must be finite and positive"),
            ((0.0,), "window_minutes must be finite and positive"),
        ],
    )
    def test_bad_config_rejected_at_construction(self, args, message):
        with pytest.raises(StreamError, match=message):
            SessionIngestor(*args)

    def test_numpy_integers_stay_legal(self):
        ingestor = SessionIngestor(15.0, max_centroids=np.int64(32))
        assert type(ingestor.max_centroids) is int
        snap = ingestor.snapshot()
        assert snap.max_centroids == 32
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
        shard A's whole stream and then shard B's, down to the bytes."""
        shard_a = SessionIngestor(15.0)
        for batch in self._shard_stream(KEY_A, 10):
            shard_a.feed(batch)
        shard_b = SessionIngestor(15.0)
        for batch in self._shard_stream(KEY_B, 11):
            shard_b.feed(batch)

        single = SessionIngestor(15.0)
        for batch in self._shard_stream(KEY_A, 10) + self._shard_stream(KEY_B, 11):
            single.feed(batch)

        merged = merge_snapshots([shard_a.snapshot(), shard_b.snapshot()])
        assert merged.to_json() == single.snapshot().to_json()

    def test_merge_snapshots_rejects_mixed_configs(self):
        b = SessionIngestor(15.0).snapshot()
        for a in (SessionIngestor(15.0, 32), SessionIngestor(5.0)):
            with pytest.raises(StreamError, match="configs"):
                merge_snapshots([a.snapshot(), b])

    def test_merge_zero_snapshots_rejected(self):
        with pytest.raises(StreamError, match="zero"):
            merge_snapshots([])


def _set(path, value):
    """A mutation of a snapshot dict: set ``value`` at ``path``."""

    def mutate(data):
        *parents, last = path
        for step in parents:
            data = data[step]
        data[last] = value

    return mutate


def _repeat_first_entry(data):
    data["entries"].insert(1, data["entries"][0])
    data["sessions"] += data["entries"][0]["sketch"]["count"]


def _swap_first_entries(data):
    data["entries"][:2] = data["entries"][1::-1]


class TestSnapshotSerialization:
    def _snapshot(self):
        ingestor = SessionIngestor(15.0)
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
            IngestSnapshot.from_dict({"kind": "ingest-snapshot", "schema": 2})

    def test_schema_1_snapshot_rejected_by_name(self):
        """A snapshot with the lateness header of schema 1 is refused, as
        a result cache written by an older build would serve it."""
        data = json.loads(self._snapshot().to_json())
        data.update(schema=1, allowed_lateness_windows=1, late_dropped=0)
        with pytest.raises(StreamError, match="unsupported snapshot schema 1;"):
            IngestSnapshot.from_dict(data)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            pytest.param(
                _set(["schema"], 2.0),
                "snapshot schema must be an integer",
                id="fractional-schema",
            ),
            pytest.param(
                _set(["max_centroids"], 8.7),
                "max_centroids must be an integer",
                id="fractional-max-centroids",
            ),
            pytest.param(
                _set(["sessions"], 2.5),
                "sessions must be an integer",
                id="fractional-sessions",
            ),
            pytest.param(
                _set(["sessions"], -5), "sessions must be >= 0", id="negative-sessions"
            ),
            pytest.param(
                _set(["entries", 0, "window"], 1.9),
                "window must be an integer",
                id="fractional-window",
            ),
            pytest.param(
                _set(["entries", 0, "route"], -3),
                "route must be >= 0",
                id="negative-route",
            ),
            pytest.param(
                _repeat_first_entry, "strictly increase", id="repeated-cell"
            ),
            pytest.param(
                _swap_first_entries, "strictly increase", id="unsorted-cells"
            ),
            pytest.param(
                _set(["sessions"], 1),
                "sessions 1 is not the cells' count total 120",
                id="sessions-not-count-total",
            ),
            pytest.param(
                _set(["window_minutes"], float("inf")),
                "window_minutes must be finite and positive",
                id="infinite-window",
            ),
            pytest.param(
                _set(["max_centroids"], 4),
                "max_centroids must be >= 8",
                id="small-max-centroids",
            ),
        ],
    )
    def test_loader_refuses_what_no_ingestor_writes(self, mutate, message):
        data = json.loads(self._snapshot().to_json())
        mutate(data)
        with pytest.raises(StreamError, match=message):
            IngestSnapshot.from_dict(data)

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

    def test_fractional_max_centroids_refused(self):
        """A budget the snapshot could not record stops the ingest."""
        plan = MeasurementPlan(pairs=(), prefixes=())
        with pytest.raises(StreamError, match="max_centroids must be an integer"):
            ingest_plan(plan, self.CONFIG, max_centroids=8.5)

    def test_infinite_window_refused(self):
        """The ingest's width is its config's, which refuses an infinite one."""
        with pytest.raises(MeasurementError, match="window_minutes must be finite"):
            MeasurementConfig(days=0.5, seed=3, window_minutes=float("inf"))


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


class TestShardCacheIdentity:
    """A shard's job identity carries the snapshot schema it writes, so
    a cached snapshot of another schema is a miss, not a failed merge."""

    @pytest.fixture(scope="class")
    def shards(self):
        return [
            IngestShardStudy(seed=0, n_prefixes=6, days=0.25, shard=s, n_shards=2)
            for s in range(2)
        ]

    @pytest.mark.parametrize(
        "stale_identity", [None, 1], ids=["undeclared", "schema-1"]
    )
    def test_stale_schema_entry_reruns(self, shards, tmp_path, stale_identity):
        specs = [JobSpec.from_study(study) for study in shards]
        cold = CampaignRunner(jobs=1).run(specs)
        store = ResultStore(tmp_path)
        # The entries a build writing schema-1 snapshots left: under the
        # identity that build gave the jobs (no declared schema, or 1).
        with mock.patch.object(IngestShardStudy, "artifact_schema", stale_identity):
            for study, result in zip(shards, cold.results):
                stale = json.loads(json.dumps(result.artifacts))
                stale[SNAPSHOT_ARTIFACT]["schema"] = 1
                result = type(result)(
                    name=result.name, summary=result.summary, artifacts=stale
                )
                store.put(JobSpec.from_study(study), result, elapsed_s=0.0)
        warm = CampaignRunner(jobs=1, store=store).run(specs)
        assert (warm.n_hits, warm.n_ran) == (0, 2)
        assert merge_snapshot_artifacts(warm.results).to_json() == (
            merge_snapshot_artifacts(cold.results).to_json()
        )
        again = CampaignRunner(jobs=1, store=store).run(specs)
        assert (again.n_hits, again.n_ran) == (2, 0)

