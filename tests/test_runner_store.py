"""Tests for the content-addressed result store."""

import json

import pytest

from repro.core.hypotheses import HypothesisVerdict, Verdict
from repro.core.study import StudyResult
from repro.errors import CacheCorruptionError
from repro.runner import JobSpec, ResultStore
import repro.runner.store as store_module


@pytest.fixture
def spec():
    return JobSpec("repro.core.study:PopRoutingStudy", seed=1, config={"days": 0.5})


@pytest.fixture
def result():
    return StudyResult(
        name="pop-routing",
        summary={"diff_p50_ms": -1.25, "n_pairs": 25.0},
        figures={"fig1": object()},
        hypotheses=[
            HypothesisVerdict(
                hypothesis="degrade-together (§3.1.1)",
                verdict=Verdict.SUPPORTED,
                evidence={"co": 0.7},
                explanation="shared bottleneck",
            )
        ],
    )


class TestRoundtrip:
    def test_put_then_get(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.put(spec, result, elapsed_s=2.5)
        cached = store.get(spec)
        assert cached is not None
        assert cached.elapsed_s == 2.5
        assert cached.result.name == "pop-routing"
        assert cached.result.summary == result.summary
        assert cached.result.hypotheses == result.hypotheses
        # Figures are deliberately not persisted.
        assert cached.result.figures == {}

    def test_artifacts_roundtrip_verbatim(self, tmp_path, spec, result):
        """Unlike figures, artifacts are plain JSON and must survive
        the cache byte-for-byte (the streaming shard merge depends on
        this)."""
        result.artifacts = {
            "ingest_snapshot": {"schema": 1, "entries": [{"window": 3}]}
        }
        store = ResultStore(tmp_path)
        store.put(spec, result, elapsed_s=0.5)
        cached = store.get(spec)
        assert cached.result.artifacts == result.artifacts

    def test_pre_artifact_entries_still_read(self, tmp_path, spec, result):
        """Cache entries written before the artifacts field existed
        deserialize with an empty artifacts dict, not an error."""
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.5)
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["result"]["artifacts"]
        from repro.runner.store import payload_checksum

        document["checksum"] = payload_checksum(document["result"])
        path.write_text(json.dumps(document), encoding="utf-8")
        cached = store.get(spec)
        assert cached is not None
        assert cached.result.artifacts == {}

    def test_nan_summary_value_roundtrips(self, tmp_path, spec, result):
        result.summary["frac_within_10ms_world"] = float("nan")
        store = ResultStore(tmp_path)
        store.put(spec, result, elapsed_s=0.1)
        value = store.get(spec).result.summary["frac_within_10ms_world"]
        assert value != value

    def test_layout_is_sharded_by_hash(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        digest = spec.content_hash
        assert path == tmp_path / digest[:2] / f"{digest}.json"
        assert path.exists()

    def test_put_overwrites(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.put(spec, result, elapsed_s=1.0)
        result.summary["n_pairs"] = 99.0
        store.put(spec, result, elapsed_s=2.0)
        cached = store.get(spec)
        assert cached.result.summary["n_pairs"] == 99.0
        assert cached.elapsed_s == 2.0


class TestMissesAreSafe:
    def test_absent_is_miss(self, tmp_path, spec):
        assert ResultStore(tmp_path).get(spec) is None

    def test_changed_seed_or_config_is_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        store.put(spec, result, elapsed_s=0.0)
        assert store.get(JobSpec(spec.study, seed=2, config=spec.config)) is None
        assert store.get(JobSpec(spec.study, seed=1, config={"days": 1.0})) is None

    def test_corrupted_entry_is_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(spec) is None

    def test_wrong_schema_version_is_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["schema"] = 999
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.get(spec) is None

    def test_wrong_kind_is_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["kind"] = "beacon"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.get(spec) is None

    def test_truncated_payload_is_miss(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["result"]["summary"]
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.get(spec) is None


class TestCorruptionQuarantine:
    """Regression tests: damage is typed, quarantined, recomputed once."""

    def test_read_entry_raises_on_garbled_json(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CacheCorruptionError, match="not valid JSON"):
            store.read_entry(spec)

    def test_read_entry_raises_on_checksum_mismatch(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["result"]["summary"]["n_pairs"] = 26.0  # flipped digit
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CacheCorruptionError, match="checksum"):
            store.read_entry(spec)

    def test_read_entry_raises_on_missing_fields(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["result"]
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(CacheCorruptionError):
            store.read_entry(spec)

    def test_missing_checksum_is_tolerated(self, tmp_path, spec, result):
        """Entries written before checksums existed still read cleanly."""
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=1.5)
        document = json.loads(path.read_text(encoding="utf-8"))
        del document["checksum"]
        path.write_text(json.dumps(document), encoding="utf-8")
        cached = store.read_entry(spec)
        assert cached is not None and cached.elapsed_s == 1.5

    def test_get_quarantines_damaged_entry(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        path.write_text("\xde\xad garbage", encoding="utf-8")
        assert store.get(spec) is None
        assert not path.exists()
        pen = store.quarantined()
        assert [p.name for p in pen] == [f"{spec.content_hash}.json"]

    def test_quarantined_entry_stays_a_miss_then_recomputes(
        self, tmp_path, spec, result
    ):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        path.write_text("{torn", encoding="utf-8")
        assert store.get(spec) is None  # quarantined here
        assert store.get(spec) is None  # plain miss now, no error
        # Recompute: a fresh put makes the entry good again.
        store.put(spec, result, elapsed_s=3.0)
        assert store.get(spec).elapsed_s == 3.0
        assert len(store.quarantined()) == 1  # post-mortem copy kept

    def test_foreign_entry_is_not_quarantined(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["schema"] = 999
        path.write_text(json.dumps(document), encoding="utf-8")
        assert store.read_entry(spec) is None  # miss, not an exception
        assert store.get(spec) is None
        assert path.exists()  # the other build's entry is left alone
        assert store.quarantined() == []

    def test_quarantine_missing_entry_returns_none(self, tmp_path, spec):
        assert ResultStore(tmp_path).quarantine(spec) is None

    def test_checksum_written_on_put(self, tmp_path, spec, result):
        from repro.runner.store import payload_checksum

        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["checksum"] == payload_checksum(document["result"])


class TestStaleTmpSweep:
    def test_stale_tmp_removed_on_open(self, tmp_path, spec, result):
        import os
        import time

        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        orphan = path.with_name(f"{path.name}.tmp99999")
        orphan.write_text("{half-written", encoding="utf-8")
        old = time.time() - 7200.0
        os.utime(orphan, (old, old))
        ResultStore(tmp_path)  # reopening sweeps the orphan
        assert not orphan.exists()
        assert path.exists()  # the real entry is untouched
        assert store.get(spec) is not None

    def test_fresh_tmp_survives_sweep(self, tmp_path, spec, result):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        live = path.with_name(f"{path.name}.tmp88888")
        live.write_text("{concurrent-writer", encoding="utf-8")
        ResultStore(tmp_path)
        assert live.exists()  # recent: may belong to a live writer
        live.unlink()

    def test_sweep_counts_and_age_override(
        self, tmp_path, spec, result, monkeypatch
    ):
        store = ResultStore(tmp_path)
        path = store.put(spec, result, elapsed_s=0.0)
        orphan = path.with_name(f"{path.name}.tmp77777")
        orphan.write_text("x", encoding="utf-8")
        # With a zero age threshold even a fresh temp file is stale.
        monkeypatch.setattr(store_module, "STALE_TMP_AGE_S", 0.0)
        assert ResultStore(tmp_path).sweep_stale_tmp() >= 0
        assert not orphan.exists()

    def test_open_on_missing_root_is_fine(self, tmp_path):
        store = ResultStore(tmp_path / "never-created")
        assert store.sweep_stale_tmp() == 0
