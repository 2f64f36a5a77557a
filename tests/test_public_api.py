"""API-surface tests: the documented public names exist and import.

Guards against accidental breakage of `__all__` exports and keeps
docs/api.md and the code in README.md and docs/ honest.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = {
    "repro": ["ReproError", "TopologyError", "RoutingError", "__version__"],
    "repro.geo": [
        "GeoPoint",
        "great_circle_km",
        "City",
        "WORLD_CITIES",
        "city_named",
        "Region",
        "region_of_country",
    ],
    "repro.topology": [
        "ASGraph",
        "AutonomousSystem",
        "Link",
        "ExitPolicy",
        "PrivateWan",
        "TopologyConfig",
        "build_internet",
        "save_internet",
        "load_internet",
    ],
    "repro.bgp": [
        "Route",
        "RoutePref",
        "propagate",
        "RoutingTable",
        "EgressDecisionProcess",
        "RouteClass",
        "Grooming",
        "DynamicsEngine",
        "DynamicsConfig",
        "run_scenario",
        "ScenarioResult",
    ],
    "repro.netmodel": [
        "trace",
        "ForwardingPath",
        "CongestionModel",
        "queueing_delay_ms",
        "TcpPath",
        "transfer_time_s",
        "split_benefit_ms",
    ],
    "repro.workloads": [
        "ClientPrefix",
        "generate_client_prefixes",
        "assign_ldns",
    ],
    "repro.edgefabric": [
        "run_measurement",
        "MeasurementConfig",
        "bgp_vs_best_alternate",
        "route_class_comparison",
        "persistence_decomposition",
        "extract_episodes",
        "replay_capacity_controller",
        "peering_reduction_study",
    ],
    "repro.cdn": [
        "CdnDeployment",
        "run_beacon_campaign",
        "train_redirection_policy",
        "train_hybrid_policy",
        "anycast_vs_best_unicast",
        "redirection_improvement",
        "groom_iteratively",
        "grooming_transfer_study",
        "site_count_study",
    ],
    "repro.cloudtiers": [
        "CloudDeployment",
        "Tier",
        "SpeedcheckerPlatform",
        "run_campaign",
        "country_medians",
        "ingress_distance_cdf",
        "india_case_study",
        "goodput_comparison",
        "split_tcp_study",
    ],
    "repro.availability": [
        "fail_pop_site",
        "anycast_vs_dns_failover",
        "peering_failure_study",
        "scenario_recovery",
    ],
    "repro.analysis": [
        "Cdf",
        "weighted_cdf",
        "format_table",
        "ascii_plot",
    ],
    "repro.core": [
        "PopRoutingStudy",
        "AnycastCdnStudy",
        "CloudTiersStudy",
        "PeeringReductionStudy",
        "render_report",
        "validate_reproduction",
        "sweep_seeds",
        "aggregate_results",
        "edgefabric_topology",
        "cdn_topology",
        "cloud_topology",
    ],
    "repro.runner": [
        "JobSpec",
        "ResultStore",
        "CachedResult",
        "CampaignRunner",
        "CampaignReport",
        "JobMetrics",
    ],
    "repro.obs": [
        "SCHEMA_VERSION",
        "EVENT_KINDS",
        "make_event",
        "validate_event",
        "encode_line",
        "decode_line",
        "new_run_id",
        "Tracer",
        "TraceLogHandler",
        "enable",
        "disable",
        "is_enabled",
        "span",
        "traced",
        "counter",
        "gauge",
        "histogram",
        "heartbeat",
        "flush_histograms",
        "suspended",
        "capture",
        "ingest",
        "write_jsonl",
        "RunManifest",
        "collect_manifest",
        "write_manifest",
        "read_manifest",
        "config_digest",
        "git_revision",
        "TraceSummary",
        "SpanStats",
        "summarize_events",
        "summarize_file",
        "load_events",
        "Histogram",
        "merge_hist_events",
        "quantile_table",
        "SpanNode",
        "SpanForest",
        "build_forest",
        "Profile",
        "profile_forest",
        "profile_events",
        "collapsed_stacks",
        "parse_collapsed",
        "CriticalPath",
        "critical_path",
        "ProgressTracker",
        "fold_heartbeats",
    ],
    "repro.lint": [
        "Finding",
        "Rule",
        "FileContext",
        "ImportMap",
        "GraphRule",
        "build_rules",
        "lint_paths",
        "render_text",
        "render_json",
    ],
    "repro.io": [
        "write_cdf_csv",
        "write_country_csv",
        "make_header",
        "check_header",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PUBLIC_API))
def test_public_names_importable(module_name):
    module = importlib.import_module(module_name)
    for name in PUBLIC_API[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize(
    "module_name",
    [m for m in sorted(PUBLIC_API) if m not in ("repro.io",)],
)
def test_all_exports_resolve(module_name):
    """Every name in __all__ actually exists on the module."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip("module has no __all__")
    for name in exported:
        assert hasattr(module, name), f"{module_name}.__all__ lists {name}"


def test_every_public_callable_has_docstring():
    """Public functions and classes carry doc comments (deliverable e)."""
    import inspect

    missing = []
    for module_name, names in PUBLIC_API.items():
        module = importlib.import_module(module_name)
        for name in names:
            obj = getattr(module, name, None)
            if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
    assert not missing, f"missing docstrings: {missing}"


def test_doc_code_imports_resolve():
    """Each ``from repro... import ...`` in a python block of README.md
    or docs/*.md imports every name it lists."""
    block = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
    statements = []
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for code in block.findall(doc.read_text(encoding="utf-8")):
            statements += [
                (doc.relative_to(ROOT), ast.unparse(node))
                for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
            ]
    assert statements, "no repro imports found in the docs' python blocks"
    broken = []
    for doc, statement in statements:
        try:
            exec(statement, {})
        except ImportError as exc:
            broken.append(f"{doc}: {statement}: {exc}")
    assert not broken, "\n".join(broken)
