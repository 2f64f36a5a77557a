"""Schema guard for the committed ``BENCH_perf.json`` baseline.

The perf suite (``benchmarks/perf.py``) validates its own output before
writing; this test keeps the *committed* baseline and the validator in
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


def _load_perf_module():
    spec = importlib.util.spec_from_file_location(
        "bench_perf", REPO_ROOT / "benchmarks" / "perf.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perf():
    return _load_perf_module()


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


class TestCommittedBaseline:
    def test_validates(self, perf, baseline):
        perf.validate_payload(baseline)

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
        broken["kernels"][0]["scales"][0]["fast_s"] = 0.0
        with pytest.raises(ValueError, match="positive"):
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
