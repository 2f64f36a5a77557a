"""Self-test of the benchmark; run from the root of a checkout::

    python3 perfbench/selftest.py

It checks the schema of ``BENCHMARK.json`` and its agreement with the
layer map, that ``expected.json`` covers every input and that the
output check rejects wrong answers, runs one iteration of each workload
through the driver in both modes and checks the result, and checks
that the shared Internet of ``scenario-sweep`` gives the same timelines
as a fresh build per scenario.  It takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from iteration import operation_keys  # noqa: E402
from tracer import load_layer_map, self_metric  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchmarkSpecTest(unittest.TestCase):
    def test_schema(self):
        spec = load_spec()
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)
        self.assertTrue(1 <= len(spec["command"]) <= 32)
        self.assertTrue(all(len(arg) <= 200 for arg in spec["command"]))
        self.assertTrue(1 <= len(spec["paths"]) <= 16)
        for path in spec["paths"]:
            self.assertRegex(path, PATH)
            self.assertFalse(path.startswith("/") or ".." in path.split("/"))
        self.assertIsInstance(spec["run_seconds"], int)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = []
        for workload in spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        for metric in spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
        for metric in spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
            names.append(metric["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(
            setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"])
        )

    def test_workloads_match_driver(self):
        names = [w["name"] for w in load_spec()["workloads"]]
        self.assertEqual(sorted(names), sorted(run.SEEDS_PER_INPUT))

    def test_layer_map_matches_per_layer_metrics(self):
        spec = load_spec()
        layer_map = load_layer_map()
        per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        mapped = {m["name"]: (m["unit"], m["better"]) for m in layer_map["metrics"]}
        self.assertEqual(per_layer, mapped)
        layers = {layer["layer"]: layer for layer in layer_map["layers"]}
        workloads = set(run.SEEDS_PER_INPUT)
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        for metric in layer_map["metrics"]:
            self.assertIn(metric["layer"], layers)
            self.assertTrue(layers[metric["layer"]]["module"])
            for move in metric["moves"]:
                self.assertIn(move["metric"], end_to_end)
                self.assertIn(move["workload"], workloads)
        # Every number a wrapped layer produces is a declared metric.
        for layer in layers.values():
            produced = list(layer["counts"])
            if layer["wraps"] and layer.get("attributed", True):
                produced.append(self_metric(layer))
            if "calls" in layer:
                produced.append(layer["calls"])
            for name in produced:
                self.assertIn(name, per_layer)

    def test_wrapped_entry_points_exist(self):
        import importlib

        for layer in load_layer_map()["layers"]:
            for target in layer["wraps"]:
                module_name, attr_path = target.split(":")
                owner = importlib.import_module(module_name)
                for part in attr_path.split("."):
                    owner = getattr(owner, part)
                self.assertTrue(callable(owner), target)


class ExpectedOutputTest(unittest.TestCase):
    def test_covers_every_input(self):
        payload = json.loads(run.EXPECTED_PATH.read_text(encoding="utf-8"))
        self.assertEqual(payload["params"], run.PARAMS)
        for name in run.SEEDS_PER_INPUT:
            for seed in range(run.FIRST_SEEDS):
                for key in operation_keys(name, run.inputs(name, seed)):
                    self.assertIn(key, payload["outputs"])

    def test_rejects_wrong_answers(self):
        expected = run.load_expected()
        study = expected["cloud-tiers/3"]
        self.assertEqual(run.output_errors(copy.deepcopy(study), study), [])
        flipped = copy.deepcopy(study)
        verdict = flipped["verdicts"][0]
        verdict[1] = "refuted" if verdict[1] != "refuted" else "supported"
        self.assertTrue(run.output_errors(flipped, study))
        for value in (float("nan"), study["summary"]["n_countries"] + 1):
            changed = copy.deepcopy(study)
            changed["summary"]["n_countries"] = value
            self.assertTrue(run.output_errors(changed, study))
        timeline = expected["hijack/3"]
        self.assertEqual(run.output_errors(timeline, timeline), [])
        self.assertTrue(run.output_errors("0" * 64, timeline))


class DriverSmokeTest(unittest.TestCase):
    """One iteration of each workload through the driver, in both modes."""

    def smoke(self, name: str, trace: bool) -> dict:
        result = run.measure(
            name, seed=3, seconds=0.1, trace=trace,
            deadline=time.monotonic() + run.RUN_DEADLINE_S,
        )
        self.assertEqual(result["errors"], [])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        spec = load_spec()
        metrics = run.summarize(result, trace, spec)
        wanted = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(metrics), [m["name"] for m in wanted])
        for entry in metrics.values():
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertTrue(math.isfinite(entry["value"]))
        if not trace:
            for metric in spec["end_to_end"]:
                self.assertGreater(metrics[metric["name"]]["value"], 0)
        json.dumps(metrics)
        return {name: entry["value"] for name, entry in metrics.items()}

    def largest_layers(self, layers: dict, n: int) -> list:
        times = {
            name: value for name, value in layers.items()
            if name.endswith(".self_s")
        }
        return sorted(times, key=times.get, reverse=True)[:n]

    def test_report_all(self):
        self.smoke("report-all", trace=False)
        layers = self.smoke("report-all", trace=True)
        self.assertEqual(layers["topology.build_internet.calls"], 3)
        self.assertEqual(layers["bgp.run_scenario.self_s"], 0)
        self.assertEqual(
            sorted(self.largest_layers(layers, 2)),
            ["cdn.run_beacon_campaign.self_s", "cloudtiers.run_campaign.self_s"],
        )

    def test_campaign_3seed(self):
        self.smoke("campaign-3seed", trace=False)
        layers = self.smoke("campaign-3seed", trace=True)
        self.assertEqual(layers["runner.jobs"], 9)
        self.assertGreater(layers["runner.job_compute_s"], 0)

    def test_scenario_sweep(self):
        self.smoke("scenario-sweep", trace=False)
        layers = self.smoke("scenario-sweep", trace=True)
        self.assertEqual(layers["bgp.propagate_many.calls"], 0)
        self.assertGreater(layers["bgp.dynamics.events"], 0)
        self.assertEqual(
            self.largest_layers(layers, 1), ["bgp.run_scenario.self_s"]
        )

    def test_fails_without_sources(self):
        """Next to nothing but the benchmark, the driver prints no result."""
        bare = run.SCRATCH / f"bare-{os.getpid()}"
        try:
            shutil.copytree(
                BENCH_DIR,
                bare / BENCH_DIR.name,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                 "report-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare,
                capture_output=True,
                text=True,
                timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class SharedInternetTest(unittest.TestCase):
    def test_shared_internet_matches_fresh_builds(self):
        from iteration import SCENARIO_NAMES
        from repro.bgp import run_scenario
        from repro.bgp.dynamics import DynamicsConfig
        from repro.core import cdn_topology
        from repro.topology import build_internet

        for seed in (0, 5):
            shared = build_internet(cdn_topology(seed), fast=True)
            for name in SCENARIO_NAMES:
                config = DynamicsConfig(seed=seed, mrai_s=5.0)
                fresh = run_scenario(name, seed=seed, config=config)
                reused = run_scenario(name, seed=seed, config=config, internet=shared)
                self.assertEqual(fresh.to_json(), reused.to_json(), (name, seed))


if __name__ == "__main__":
    unittest.main()
