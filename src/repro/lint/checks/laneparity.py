"""LANE002 — every public streaming lane entry point has a parity test.

The streaming measurement plane (:mod:`repro.stream`) gives several
pipelines a ``streaming=`` lane whose medians are sketch *estimates*
of the batch lane's.  Those lanes are only trustworthy because a test
bounds the sketch-vs-exact error.  LANE002 closes the loop
structurally: any public function exposing a ``streaming=`` parameter
must be referenced by name in the lane-agreement suite, so a new
streaming lane cannot merge without its parity contract.

The check is a cross-tree one: ``check_file`` collects lane
definitions from library modules, ``finish`` scans the test file
(``tests/test_lane_agreement.py`` by default) for references.  A bare
name mention counts — the test body, an import, or a parametrize id
all satisfy it; what matters is that deleting the test breaks lint.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule, function_parameters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.engine import LintConfig

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class StreamingLaneRule(Rule):
    """LANE002: public ``streaming=`` lanes need a lane-agreement test."""

    rule_id = "LANE002"
    name = "streaming-lane-parity"
    description = (
        "every public function with a streaming= parameter must be "
        "referenced in the lane-agreement test suite"
    )

    def __init__(self) -> None:
        self._lane_test: Optional[Path] = None
        self._pending: List[Tuple[str, Finding]] = []

    def begin(self, config: "LintConfig") -> None:
        self._lane_test = config.lane_test

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro."):
            return iter(())
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            if "streaming" not in function_parameters(node):
                continue
            test_name = self._lane_test.name if self._lane_test else "the lane suite"
            finding = ctx.finding(
                self,
                node,
                f"public streaming-lane function '{node.name}' has no "
                f"reference in {test_name}; add a lane-agreement test "
                "bounding the sketch-backed streaming=True output against "
                "a batch lane",
            )
            if not ctx.suppressed(finding):
                self._pending.append((node.name, finding))
        return iter(())

    def finish(self) -> Iterator[Finding]:
        if not self._pending:
            return
        referenced: Set[str] = set()
        if self._lane_test is not None and self._lane_test.exists():
            referenced = set(
                _WORD_RE.findall(self._lane_test.read_text(encoding="utf-8"))
            )
        for name, finding in self._pending:
            if name not in referenced:
                yield finding

