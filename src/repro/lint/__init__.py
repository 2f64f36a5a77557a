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
  (RNG001/RNG002/RNG003), wall-clock purity (TIME001), crash-call containment
  (CRASH001), exception taxonomy (EXC001), serialization safety
  (SER001), static telemetry names (OBS001), plus the whole-program
  graph rules: seed taint (DET001), worker purity (FORK001), and shm
  discipline (SHM001).
* :mod:`repro.lint.graph` — the repo-wide symbol table and call graph
  (:class:`CallGraph`, :class:`GraphRule`) the cross-module rules
  traverse.
* :mod:`repro.lint.engine` — :func:`lint_paths`, the driver; also the
  stale-waiver check (``SUPPRESS001``).

Run it as ``repro-bgp lint [PATH ...] [--format text|json] [--root
DIR]``; it exits 1 on any finding.  See ``docs/static-analysis.md``
for each rule's rationale and the per-line suppression comment.
"""

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
from repro.lint.graph import CallGraph, GraphRule
from repro.lint.rules import FileContext, ImportMap, Rule

__all__ = [
    "ALL_RULE_CLASSES",
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
    "build_rules",
    "lint_paths",
    "render_json",
    "render_text",
]
