"""The lint engine: walk files, drive rules, collect findings.

One run is ``begin`` → per-file ``check_file`` → whole-program
``check_graph`` (for :class:`~repro.lint.graph.GraphRule` subclasses)
→ ``finish`` over a fresh rule set (see
:class:`repro.lint.rules.Rule`).  The engine owns everything rule code
should not care about: file discovery, parse failures (reported as
``SYNTAX`` findings, never crashes), suppression comments — including
the stale-waiver check (``SUPPRESS001``) — and deterministic ordering
of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.findings import ERROR, Finding
from repro.lint.rules import FileContext, Rule, suppressed_rules

#: Pseudo-rule id for files that fail to parse.
SYNTAX_RULE_ID = "SYNTAX"

#: Pseudo-rule id for ``disable=`` comments that silence nothing.
SUPPRESS_RULE_ID = "SUPPRESS001"

#: Default location of the lane-agreement suite, relative to the root.
DEFAULT_LANE_TEST = Path("tests") / "test_lane_agreement.py"


@dataclass(frozen=True)
class LintConfig:
    """Run-wide configuration handed to every rule's ``begin``.

    Attributes:
        root: Repo root; finding paths are rendered relative to it.
        lane_test: The lane-agreement test file LANE002 cross-checks.
    """

    root: Path
    lane_test: Path = field(default=DEFAULT_LANE_TEST)

    @classmethod
    def for_root(cls, root: Path, lane_test: Optional[Path] = None) -> "LintConfig":
        """Config rooted at *root*, lane test resolved under it."""
        resolved = lane_test if lane_test is not None else root / DEFAULT_LANE_TEST
        return cls(root=root, lane_test=resolved)


def iter_source_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Python files under *paths*, deduplicated, in sorted order."""
    seen: Set[Path] = set()
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            collected.append(path)
    for path in sorted(collected):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            yield path


def _syntax_finding(path: Path, root: Path, exc: Exception) -> Finding:
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    line = getattr(exc, "lineno", None) or 1
    return Finding(
        path=relpath,
        line=int(line),
        col=int(getattr(exc, "offset", None) or 0),
        rule=SYNTAX_RULE_ID,
        severity=ERROR,
        message=f"file does not parse: {exc}",
    )


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    lane_test: Optional[Path] = None,
) -> List[Finding]:
    """Lint every Python file under *paths* with the given rule set.

    Args:
        paths: Files or directories to scan.
        root: Repo root for relative paths and lane-test discovery
            (default: the current working directory).
        rules: Rule instances to run (default: the full shipped set).
            Instances are single-use; pass fresh ones per call.
        lane_test: Override the lane-agreement test location.

    Returns:
        All findings, sorted by (path, line, col, rule), with per-line
        suppression comments already honored and disable comments that
        silenced nothing reported as ``SUPPRESS001``.
    """
    from repro.lint.graph import CallGraph, GraphRule

    resolved_root = root if root is not None else Path.cwd()
    config = LintConfig.for_root(resolved_root, lane_test)
    if rules is None:
        from repro.lint.checks import build_rules

        rules = build_rules()
    for rule in rules:
        rule.begin(config)
    findings: List[Finding] = []
    contexts: List[FileContext] = []
    for path in iter_source_files(paths):
        try:
            ctx = FileContext.parse(path, resolved_root)
        except (SyntaxError, ValueError) as exc:
            findings.append(_syntax_finding(path, resolved_root, exc))
            continue
        contexts.append(ctx)
        for rule in rules:
            for finding in rule.check_file(ctx):
                if not ctx.suppressed(finding):
                    findings.append(finding)
    graph_rules = [rule for rule in rules if isinstance(rule, GraphRule)]
    if graph_rules and contexts:
        graph = CallGraph.build(contexts)
        by_relpath: Dict[str, FileContext] = {
            ctx.relpath: ctx for ctx in contexts
        }
        for rule in graph_rules:
            for finding in rule.check_graph(graph):
                ctx_for = by_relpath.get(finding.path)
                if ctx_for is None or not ctx_for.suppressed(finding):
                    findings.append(finding)
    for rule in rules:
        findings.extend(rule.finish())
    findings.extend(_stale_suppressions(contexts))
    return sorted(findings)


def _stale_suppressions(contexts: Sequence[FileContext]) -> Iterator[Finding]:
    """``SUPPRESS001`` findings for disable comments that did nothing.

    After every rule has spoken, a ``# repro-lint: disable=RULE``
    comment whose rule never fired on that line is a waiver that
    outlived its violation — the invariant it hides may have been
    fixed (delete the comment) or the rule may have gone blind there
    (investigate).  ``disable=all`` is stale only when *nothing* was
    suppressed on the line.  The ``SUPPRESS001`` token itself is never
    stale: suppressing the stale-waiver check is how an intentionally
    kept waiver is marked, and it is honored like any other rule id.
    """
    for ctx in contexts:
        used_lines = {line for line, _rule in ctx.used_suppressions}
        commented = ctx.comment_line_set()
        for lineno, text in enumerate(ctx.lines, start=1):
            if lineno not in commented:
                continue  # ``disable=`` quoted in a string, not a comment
            disabled = suppressed_rules(text)
            stale: List[str] = []
            for rule_id in sorted(disabled):
                if rule_id == SUPPRESS_RULE_ID:
                    continue
                if rule_id == "all":
                    if lineno not in used_lines:
                        stale.append(rule_id)
                elif (lineno, rule_id) not in ctx.used_suppressions:
                    stale.append(rule_id)
            for rule_id in stale:
                finding = Finding(
                    path=ctx.relpath,
                    line=lineno,
                    col=0,
                    rule=SUPPRESS_RULE_ID,
                    severity=ERROR,
                    message=(
                        f"stale suppression: 'disable={rule_id}' on this "
                        f"line silenced no finding this run; remove the "
                        f"waiver or, if intentional, add "
                        f"disable={SUPPRESS_RULE_ID}"
                    ),
                )
                if not ctx.suppressed(finding):
                    yield finding
