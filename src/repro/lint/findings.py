"""Lint findings: one diagnostic, with stable text and JSON renderings.

A :class:`Finding` is the unit every rule produces and everything
downstream consumes: the CLI sorts and prints them, and the CI job
parses the JSON form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

#: Severity levels, in decreasing order of gravity.  ``error`` findings
#: fail the build; ``warning`` findings are reported with the same
#: machinery (and fail it too) but signal heuristic rules whose
#: false-positive rate is non-zero.
ERROR = "error"
WARNING = "warning"
SEVERITIES: Tuple[str, str] = (ERROR, WARNING)


@dataclass(frozen=True, order=True)
class Finding:
    """One lint diagnostic, anchored to a source location.

    Attributes:
        path: Repo-root-relative POSIX path of the offending file.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        rule: Stable rule identifier, e.g. ``RNG001``.
        severity: One of :data:`SEVERITIES`.
        message: Human-readable explanation with the fix spelled out.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serializable dict, keys in reading order."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: RULE [severity] message`` — editor-clickable."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    ordered = sorted(findings)
    lines = [finding.render() for finding in ordered]
    if not ordered:
        lines.append("repro-lint: clean")
    else:
        errors = sum(1 for f in ordered if f.severity == ERROR)
        warnings = len(ordered) - errors
        lines.append(f"repro-lint: {errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report, schema version 1."""
    ordered = sorted(findings)
    counts: Dict[str, int] = {}
    for finding in ordered:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    document: Dict[str, Any] = {
        "version": 1,
        "findings": [finding.to_json() for finding in ordered],
        "counts": dict(sorted(counts.items())),
    }
    return json.dumps(document, indent=2, sort_keys=False)

