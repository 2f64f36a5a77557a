"""Schema guard for the committed ``BENCH_perf.json`` baselines, and
the gate ``benchmarks/compare.py`` puts on them.

The perf suite (``benchmarks/perf.py``) validates its own output before
writing; this test keeps the *committed* baselines and the validator in
lockstep — any schema drift (renamed field, missing kernel, edited
baseline) fails tier-1 rather than surfacing when CI uploads a stale
artifact.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_perf.json"
SMALL_BASELINE = REPO_ROOT / "BENCH_perf.small.json"


def _load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perf():
    return _load_bench_module("perf")


@pytest.fixture(scope="module")
def compare():
    return _load_bench_module("compare")


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


class TestCommittedBaseline:
    def test_validates(self, perf, baseline):
        perf.validate_payload(baseline)

    def test_small_baseline_validates(self, perf):
        perf.validate_payload(json.loads(SMALL_BASELINE.read_text()))

    def test_gates_the_documented_sides(self, baseline):
        gated = {k["name"]: k["gated"] for k in baseline["kernels"]}
        assert gated == {
            "netmodel.event_delay": "all_keys",
            "bgp.dynamics": "static_sweep",
            "stream.ingest": "centroid",
            "obs.emit": "tracing_off",
        }

    def test_covers_three_kernels_at_three_scales(self, baseline):
        assert len(baseline["kernels"]) >= 3
        full_coverage = [
            k
            for k in baseline["kernels"]
            if {e["scale"] for e in k["scales"]} == {"small", "medium", "large"}
        ]
        assert len(full_coverage) >= 3


class TestValidator:
    def test_rejects_missing_key(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        del broken["meta"]
        with pytest.raises(ValueError, match="top-level keys"):
            perf.validate_payload(broken)

    def test_rejects_wrong_version(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        broken["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            perf.validate_payload(broken)

    def test_rejects_extra_scale_field(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        broken["kernels"][0]["scales"][0]["surprise"] = 1
        with pytest.raises(ValueError, match="scale entry keys"):
            perf.validate_payload(broken)

    def test_rejects_nonpositive_timing(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        kernel = broken["kernels"][0]
        kernel["scales"][0]["seconds"][kernel["gated"]] = 0.0
        with pytest.raises(ValueError, match="positive"):
            perf.validate_payload(broken)

    def test_rejects_untimed_gated_side(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        broken["kernels"][0]["gated"] = "nowhere"
        with pytest.raises(ValueError, match="gated side"):
            perf.validate_payload(broken)

    def test_rejects_sides_that_differ_by_scale(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        scales = broken["kernels"][0]["scales"]
        scales[1]["seconds"]["surprise"] = 1.0
        with pytest.raises(ValueError, match="different sides"):
            perf.validate_payload(broken)

    def test_rejects_duplicate_kernel(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        broken["kernels"].append(copy.deepcopy(broken["kernels"][0]))
        with pytest.raises(ValueError, match="unique"):
            perf.validate_payload(broken)

    def test_rejects_too_few_kernels(self, perf, baseline):
        broken = copy.deepcopy(baseline)
        broken["kernels"] = broken["kernels"][:2]
        with pytest.raises(ValueError, match="three kernels"):
            perf.validate_payload(broken)


class TestCompareGate:
    """``compare.py`` gates each kernel's gated side only."""

    @staticmethod
    def _run(compare, tmp_path, baseline, fresh):
        base_path, fresh_path = tmp_path / "base.json", tmp_path / "fresh.json"
        base_path.write_text(json.dumps(baseline))
        fresh_path.write_text(json.dumps(fresh))
        return compare.main([str(base_path), str(fresh_path)])

    @staticmethod
    def _slowed(baseline, kernel_name, side, factor):
        fresh = copy.deepcopy(baseline)
        for kernel in fresh["kernels"]:
            if kernel["name"] == kernel_name:
                for entry in kernel["scales"]:
                    entry["seconds"][side] *= factor
        return fresh

    def test_unchanged_run_passes(self, compare, baseline, tmp_path):
        assert self._run(compare, tmp_path, baseline, baseline) == 0

    def test_gated_side_slower_than_threshold_fails(
        self, compare, baseline, tmp_path, capsys
    ):
        fresh = self._slowed(baseline, "obs.emit", "tracing_off", 2.5)
        assert self._run(compare, tmp_path, baseline, fresh) == 1
        assert "obs.emit (2.50x)" in capsys.readouterr().out

    def test_only_non_gated_side_slower_passes(self, compare, baseline, tmp_path):
        fresh = self._slowed(baseline, "obs.emit", "tracing_on", 10.0)
        fresh = self._slowed(fresh, "obs.emit", "histogram", 10.0)
        fresh = self._slowed(fresh, "bgp.dynamics", "event_engine", 10.0)
        assert self._run(compare, tmp_path, baseline, fresh) == 0

    def test_moved_gated_side_fails(self, compare, baseline, tmp_path, capsys):
        fresh = copy.deepcopy(baseline)
        fresh["kernels"][0]["gated"] = "per_key"
        assert self._run(compare, tmp_path, baseline, fresh) == 1
        out = capsys.readouterr().out
        assert "gated side 'all_keys' -> 'per_key'" in out
        assert "kernels drifted" in out

    def test_schema_v1_is_unusable(self, compare, baseline, tmp_path):
        old = dict(baseline, schema_version=1)
        with pytest.raises(SystemExit) as excinfo:
            self._run(compare, tmp_path, old, baseline)
        assert excinfo.value.code == 2
