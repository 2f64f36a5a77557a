"""Tests for repro.lint: per-rule snippets, CLI, self-check.

Each rule gets a positive snippet (the violation fires) and a negative
snippet (the disciplined spelling passes), compiled from strings into
a temporary repo layout so module-scoped rules see realistic dotted
paths.  The suite ends with the self-check the CI gate relies on:
``repro-bgp lint`` is clean against this repo's own ``src/``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ImportMap, build_rules, lint_paths
from repro.lint.checks import ALL_RULE_CLASSES
from repro.lint.rules import module_name, suppressed_rules

REPO_ROOT = Path(__file__).resolve().parents[1]

ALL_RULE_IDS = {cls.rule_id for cls in ALL_RULE_CLASSES}


def lint_snippet(tmp_path, source, rel="src/repro/cdn/mod.py"):
    """Write *source* at *rel* under a temp repo root and lint it."""
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([target], root=tmp_path)


def rules_of(findings):
    return {finding.rule for finding in findings}


class TestFramework:
    def test_module_name_src_layout(self):
        assert (
            module_name(Path("src/repro/cdn/catchment.py")) == "repro.cdn.catchment"
        )
        assert module_name(Path("src/repro/lint/__init__.py")) == "repro.lint"
        assert module_name(Path("somewhere/loose.py")) == "loose"

    def test_suppression_comment_parsing(self):
        assert suppressed_rules("x = 1  # repro-lint: disable=RNG001") == {"RNG001"}
        assert suppressed_rules("# repro-lint: disable=RNG001, TIME001") == {
            "RNG001",
            "TIME001",
        }
        assert suppressed_rules("x = 1  # a normal comment") == set()

    def test_import_map_resolves_aliases(self):
        import ast

        tree = ast.parse(
            "import numpy as np\n"
            "from numpy.random import default_rng as mk\n"
            "import os\n"
        )
        imports = ImportMap(tree)
        np_chain = ast.parse("np.random.default_rng", mode="eval").body
        assert imports.resolve(np_chain) == "numpy.random.default_rng"
        direct = ast.parse("mk", mode="eval").body
        assert imports.resolve(direct) == "numpy.random.default_rng"
        local = ast.parse("self.rng", mode="eval").body
        assert imports.resolve(local) is None

    def test_syntax_error_becomes_finding(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert rules_of(findings) == {"SYNTAX"}

    def test_fresh_rules_per_run(self):
        first = build_rules()
        second = build_rules()
        assert {type(r) for r in first} == set(ALL_RULE_CLASSES)
        assert all(a is not b for a, b in zip(first, second))


class TestRngRules:
    def test_stdlib_random_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert "RNG001" in rules_of(findings)

    def test_numpy_legacy_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(n):
                np.random.seed(0)
                return np.random.rand(n)
            """,
        )
        assert sum(1 for f in findings if f.rule == "RNG001") == 2

    def test_seeded_generator_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(n, seed):
                rng = np.random.default_rng(seed)
                return rng.normal(size=n)
            """,
        )
        assert rules_of(findings) == set()

    def test_fresh_entropy_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(n):
                rng = np.random.default_rng()
                return rng.normal(size=n)
            """,
        )
        assert "RNG002" in rules_of(findings)

    def test_literal_seed_without_param_warns(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from numpy.random import default_rng

            def noise(n):
                return default_rng(1234).normal(size=n)
            """,
        )
        hits = [f for f in findings if f.rule == "RNG002"]
        assert len(hits) == 1
        assert hits[0].severity == "warning"

    def test_literal_seed_with_rng_param_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(n, rng=None):
                rng = rng or np.random.default_rng(0)
                return rng.normal(size=n)
            """,
        )
        assert rules_of(findings) == set()

    def test_tests_are_out_of_scope(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def test_thing():
                assert random.random() >= 0
            """,
            rel="tests/test_thing.py",
        )
        assert rules_of(findings) == set()

    def test_salted_hash_seed_flagged(self, tmp_path):
        """Setting C's last mile as it was seeded before the str-hash port."""
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            class Platform:
                def _vp_last_mile(self, vp):
                    rng = np.random.default_rng(
                        [self.seed & 0xFFFFFFFF, hash(vp.vp_id) & 0xFFFFFFFF]
                    )
                    return float(rng.uniform(2.0, 12.0))
            """,
        )
        assert [(f.rule, f.line) for f in findings] == [("RNG003", 7)]

    @pytest.mark.parametrize(
        "call",
        [
            "np.random.SeedSequence([seed, hash(key)])",
            "np.random.Generator(np.random.PCG64(hash(key)))",
            "Philox(seed=hash((seed, key)))",
        ],
    )
    def test_salted_hash_in_any_seeded_constructor(self, tmp_path, call):
        findings = lint_snippet(
            tmp_path,
            f"""
            import numpy as np
            from numpy.random import Philox

            def stream(seed, key):
                return {call}
            """,
        )
        assert rules_of(findings) == {"RNG003"}

    @pytest.mark.parametrize(
        "source",
        [
            """
            import numpy as np
            from repro.cloudtiers.speedchecker import _str_hash

            def stream(seed, key):
                return np.random.default_rng([seed, _str_hash(key) & 0xFFFFFFFF])
            """,
            """
            import numpy as np
            from repro.util import hash

            def stream(seed, key):
                return np.random.default_rng([seed, hash(key)])
            """,
            """
            import zlib
            import numpy as np

            def hash(key):
                return zlib.crc32(key.encode())

            def stream(seed, key):
                return np.random.default_rng([seed, hash(key)])
            """,
            """
            import numpy as np

            def stream(seed, key):
                return np.random.default_rng([seed, len(key)]), hash(key)
            """,
        ],
        ids=["ported-hash", "imported-hash", "local-hash", "hash-outside-seed"],
    )
    def test_stable_seed_material_passes(self, tmp_path, source):
        assert rules_of(lint_snippet(tmp_path, source)) == set()


class TestTimePurity:
    MEASUREMENT = """
        import time

        def measure():
            return time.time()
        """

    def test_wall_clock_in_measurement_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.MEASUREMENT, rel="src/repro/netmodel/probe.py"
        )
        assert "TIME001" in rules_of(findings)

    def test_datetime_now_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            rel="src/repro/cloudtiers/probe.py",
        )
        assert "TIME001" in rules_of(findings)

    def test_wall_clock_in_obs_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.MEASUREMENT, rel="src/repro/obs/stamps.py"
        )
        assert rules_of(findings) == set()

    def test_monotonic_clock_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def stopwatch():
                return time.perf_counter()
            """,
            rel="src/repro/edgefabric/probe.py",
        )
        assert rules_of(findings) == set()


class TestCrashContainment:
    def test_crash_call_outside_faults_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def bail():
                os._exit(1)
            """,
            rel="src/repro/runner/worker.py",
        )
        assert "CRASH001" in rules_of(findings)

    def test_crash_call_inside_faults_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import os

            def crash_worker():
                os._exit(17)
            """,
            rel="src/repro/faults/boom.py",
        )
        assert rules_of(findings) == set()


class TestSpanNames:
    def test_fstring_span_name_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro import obs

            def work(i):
                with obs.span(f"job.{i}"):
                    return i
            """,
        )
        assert "OBS001" in rules_of(findings)

    def test_concatenated_counter_name_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import trace as obs

            def tally(platform):
                obs.counter("jobs." + platform)
            """,
        )
        assert "OBS001" in rules_of(findings)

    def test_variable_histogram_name_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro import obs

            def observe(metric_name, value):
                obs.histogram(metric_name, value)
            """,
        )
        assert "OBS001" in rules_of(findings)

    def test_literal_names_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro import obs

            def work(i):
                with obs.span("runner.job", index=i):
                    obs.counter("runner.jobs")
                    obs.histogram("runner.job.latency_s", 0.5)
            """,
        )
        assert rules_of(findings) == set()

    def test_module_constant_name_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro.obs import trace as obs

            HEARTBEAT_NAME = "runner.progress"

            def pulse(done):
                obs.heartbeat(HEARTBEAT_NAME, done=done)
            """,
        )
        assert rules_of(findings) == set()

    def test_bare_traced_decorator_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro import obs

            @obs.traced()
            def phase():
                return 1
            """,
        )
        assert rules_of(findings) == set()

    def test_unrelated_span_function_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def span(name):
                return name

            def work(i):
                span(f"job.{i}")
            """,
        )
        assert rules_of(findings) == set()


class TestExceptionTaxonomy:
    def test_silent_swallow_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def load():
                try:
                    return 1
                except Exception:
                    return None
            """,
            rel="src/repro/runner/loader.py",
        )
        assert "EXC001" in rules_of(findings)

    def test_bare_except_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def load():
                try:
                    return 1
                except:
                    pass
            """,
            rel="src/repro/faults/loader.py",
        )
        assert "EXC001" in rules_of(findings)

    def test_reraise_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            class TypedError(Exception):
                pass

            def load():
                try:
                    return 1
                except Exception as exc:
                    raise TypedError("context") from exc
            """,
            rel="src/repro/runner/loader.py",
        )
        assert rules_of(findings) == set()

    def test_counter_increment_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from repro import obs

            def load():
                try:
                    return 1
                except Exception:
                    obs.counter("runner.load.swallowed")
                    return None
            """,
            rel="src/repro/runner/loader.py",
        )
        assert rules_of(findings) == set()

    def test_outside_scoped_packages_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def parse(row):
                try:
                    return float(row)
                except Exception:
                    return None
            """,
            rel="src/repro/analysis/rows.py",
        )
        assert rules_of(findings) == set()


class TestSerializationSafety:
    def test_generator_field_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass
            import numpy as np

            @dataclass
            class BadStudy:
                seed: int
                rng: np.random.Generator

                def run(self):
                    return self.rng.normal()
            """,
            rel="src/repro/core/bad.py",
        )
        assert "SER001" in rules_of(findings)

    def test_lock_field_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading
            from dataclasses import dataclass
            from typing import Optional

            @dataclass
            class BadStudy:
                guard: Optional[threading.Lock] = None

                def run(self):
                    return 1
            """,
            rel="src/repro/core/bad.py",
        )
        assert "SER001" in rules_of(findings)

    def test_plain_config_fields_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass
            class GoodStudy:
                seed: int = 0
                n_prefixes: int = 150
                days: float = 3.0

                def run(self):
                    return self.seed
            """,
            rel="src/repro/core/good.py",
        )
        assert rules_of(findings) == set()

    def test_non_payload_dataclasses_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass
            import numpy as np

            @dataclass
            class ScratchState:
                rng: np.random.Generator

                def step(self):
                    return self.rng.normal()
            """,
            rel="src/repro/core/state.py",
        )
        assert rules_of(findings) == set()


class TestSuppression:
    def test_disable_comment_silences_one_rule(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def noise(n):
                rng = np.random.default_rng()  # repro-lint: disable=RNG002
                return rng.normal(size=n)
            """,
        )
        assert rules_of(findings) == set()

    def test_disable_all_silences_the_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()  # repro-lint: disable=all
            """,
        )
        assert rules_of(findings) == set()

    def test_disable_comment_is_per_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import random  # repro-lint: disable=RNG001

            def jitter():
                return random.random()
            """,
        )
        assert "RNG001" in rules_of(findings)

    def test_lane_parity_suppressible_at_def(self, tmp_path):
        """A finding anchored at a ``def`` line (DET001's) is waived there."""
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            import numpy as np

            def draw_noise():  # repro-lint: disable=DET001
                return np.random.default_rng(7).normal()  # repro-lint: disable=RNG002

            @dataclass
            class NoisePayload:
                def run(self):
                    return draw_noise()
            """,
        )
        assert rules_of(findings) == set()


#: One violation of every rule, spread over a fake repo tree.
VIOLATION_FILES = {
    "src/repro/cdn/bad.py": """
        import os
        import random
        import time

        import numpy as np

        def jitter():
            return random.random()

        def fresh():
            return np.random.default_rng()

        def salted(seed, key):
            return np.random.default_rng([seed, hash(key)])

        def stamp():
            return time.time()

        def bail():
            os._exit(1)

        def trace_one(index):
            from repro import obs

            with obs.span(f"job.{index}"):
                return index
        """,
    "src/repro/runner/bad.py": """
        from dataclasses import dataclass
        import numpy as np

        def load():
            try:
                return 1
            except Exception:
                return None

        @dataclass
        class BadStudy:
            rng: np.random.Generator

            def run(self):
                return self.rng.normal()
        """,
    # Graph-rule bait: a spec-able payload whose worker cone launders a
    # seed (DET001) and takes a lock (FORK001), and a shared-memory
    # borrower that writes (SHM001).
    "src/repro/cdn/badflow.py": """
        import threading
        from dataclasses import dataclass

        import numpy as np

        def draw_noise():
            return np.random.default_rng(7).normal()

        def guarded():
            with threading.Lock():
                return 1

        @dataclass
        class NoiseStudy:
            def run(self):
                return draw_noise() + guarded()
        """,
    "src/repro/cdn/badshm.py": """
        from repro.runner.shm import attach_shared

        def clobber(spec):
            shared = attach_shared(spec)
            arr = shared["matrix"]
            arr[0] = 1.0
            return arr
        """,
}


@pytest.fixture
def violation_repo(tmp_path):
    for rel, source in VIOLATION_FILES.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return tmp_path


class TestCli:
    def test_every_rule_fires_and_exit_is_nonzero(self, violation_repo, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "lint",
                    str(violation_repo / "src"),
                    "--root",
                    str(violation_repo),
                    "--format",
                    "json",
                ]
            )
        assert excinfo.value.code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["counts"]) == ALL_RULE_IDS
        assert {"DET001", "FORK001", "SHM001", "RNG001"} <= ALL_RULE_IDS
        assert not {"LANE001", "LANE002", "PAR001"} & ALL_RULE_IDS  # retired
        assert payload["version"] == 1
        assert all(f["path"].startswith("src/") for f in payload["findings"])

    def test_text_format_is_clickable(self, violation_repo, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "lint",
                    str(violation_repo / "src"),
                    "--root",
                    str(violation_repo),
                ]
            )
        out = capsys.readouterr().out
        assert "src/repro/cdn/bad.py:" in out
        assert "RNG001" in out

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path / "nope"), "--root", str(tmp_path)])
        assert "no such path" in str(excinfo.value)


class TestSelfCheck:
    """The gate CI enforces: this repo passes its own invariant lint."""

    def test_src_is_clean_with_committed_baseline(self):
        findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_cli_self_check(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out
