"""repro.lint — AST-based invariant checker for the reproduction.

The repo's headline claims rest on contracts tests can only
spot-check: seeded RNGs threaded explicitly, side-effect-free
workers, resume ≡ uninterrupted, crashes only where injected.  This
package enforces them at the source level, the way large measurement
platforms (Edge Fabric, Odin) encode operational rules as custom
configuration checkers rather than after-the-fact audits:

* :mod:`repro.lint.findings` — :class:`Finding` and the text/JSON
  renderings.
* :mod:`repro.lint.rules` — the rule framework: file contexts,
  alias-aware import resolution, per-line suppression.
* :mod:`repro.lint.checks` — the shipped rules: RNG discipline
  (RNG001/RNG002), wall-clock purity (TIME001), crash-call containment
  (CRASH001), exception taxonomy (EXC001), serialization safety
  (SER001), static telemetry names (OBS001), plus the whole-program
  graph rules: seed taint (DET001), worker purity (FORK001), and shm
  discipline (SHM001).
* :mod:`repro.lint.graph` — the repo-wide symbol table and call graph
  (:func:`build_graph`, :class:`CallGraph`, :class:`GraphRule`) the
  cross-module rules traverse.
* :mod:`repro.lint.engine` — :func:`lint_paths`, the driver; also the
  stale-waiver check (``SUPPRESS001``).
* :mod:`repro.lint.sarif` — SARIF 2.1.0 rendering for CI annotations.
* :mod:`repro.lint.baseline` — grandfathered findings, committed as
  ``lint-baseline.json``.

Run it as ``repro-bgp lint [--format json|sarif] [--baseline FILE]
[--changed]`` or export the graph with ``repro-bgp lint graph --out
graph.json``; see ``docs/static-analysis.md`` for each rule's
rationale and the suppression / baseline workflow.
"""

from repro.lint.baseline import (
    BaselineError,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.lint.checks import ALL_RULE_CLASSES, build_rules
from repro.lint.engine import SUPPRESS_RULE_ID, SYNTAX_RULE_ID, lint_paths
from repro.lint.findings import (
    ERROR,
    SEVERITIES,
    WARNING,
    Finding,
    render_json,
    render_text,
)
from repro.lint.graph import CallGraph, GraphRule, build_graph
from repro.lint.rules import FileContext, ImportMap, Rule
from repro.lint.sarif import render_sarif

__all__ = [
    "ALL_RULE_CLASSES",
    "BaselineError",
    "CallGraph",
    "ERROR",
    "FileContext",
    "Finding",
    "GraphRule",
    "ImportMap",
    "Rule",
    "SEVERITIES",
    "SUPPRESS_RULE_ID",
    "SYNTAX_RULE_ID",
    "WARNING",
    "build_graph",
    "build_rules",
    "lint_paths",
    "load_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "split_baselined",
    "write_baseline",
]
