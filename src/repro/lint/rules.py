"""Rule framework: file contexts, import resolution, suppression.

Every rule is a small class over Python's :mod:`ast`.  The framework
keeps the per-rule code honest and short by centralizing the three
things all of them need:

* :class:`FileContext` — one parsed source file plus its repo-relative
  path, best-effort dotted module name, and suppression comments.
* :class:`ImportMap` — resolves a ``Name``/``Attribute`` chain to the
  canonical dotted path it refers to (``np.random.default_rng`` →
  ``numpy.random.default_rng``), following import aliases, so rules
  match semantics instead of spellings.
* :class:`Rule` — the per-file ``check_file`` protocol every rule
  implements.

Suppression is per line: ``# repro-lint: disable=RNG001`` (or
``disable=all``) on the offending line silences it.  Suppressions are
deliberately narrow — there is no file- or block-level escape hatch,
so every waived invariant stays visible at the waiver site.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import ERROR, Finding

_DISABLE_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+)")


def suppressed_rules(line: str) -> Set[str]:
    """Rule ids disabled by a ``# repro-lint: disable=...`` comment."""
    match = _DISABLE_RE.search(line)
    if not match:
        return set()
    return {part.strip() for part in match.group(1).split(",") if part.strip()}


def comment_lines(source: str) -> Set[int]:
    """1-based lines carrying a real ``#`` comment token.

    Distinguishes comments from ``disable=`` patterns quoted inside
    strings and docstrings — only the former may suppress findings (or
    go stale).  Tokenization failure degrades to "every line", which
    errs toward honoring suppressions, never toward inventing findings
    on quoted examples.
    """
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        return {
            token.start[0]
            for token in tokens
            if token.type == tokenize.COMMENT
        }
    except (tokenize.TokenizeError, SyntaxError, IndentationError, ValueError):
        return set(range(1, source.count("\n") + 2))


def module_name(path: Path, root: Optional[Path] = None) -> str:
    """Best-effort dotted module name for a source file.

    Prefers the part after a ``src`` directory (the layout this repo
    uses), falls back to the part starting at a ``repro`` component,
    and degrades to the bare stem for loose files.  ``__init__`` maps
    to its package.
    """
    parts: Tuple[str, ...] = path.with_suffix("").parts
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    elif "tests" in parts:
        parts = parts[parts.index("tests") :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def resolve_relative_base(package: str, level: int, module: Optional[str]) -> Optional[str]:
    """Absolute dotted base of a relative ``from``-import.

    ``package`` is the importing file's package (the module itself for
    an ``__init__``, its parent otherwise).  ``level`` is the number of
    leading dots, ``module`` the trailing ``from .<module>`` part, if
    any.  Returns ``None`` when the dots climb past the package root —
    such an import would not execute either.
    """
    if not package:
        return None
    parts = package.split(".")
    if level > len(parts):
        return None
    parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if module:
        return f"{base}.{module}"
    return base


class ImportMap:
    """Alias → canonical dotted path resolution for one module.

    Collects every ``import`` / ``from ... import`` in the file (any
    scope) and resolves expression chains against them::

        import numpy as np                 # np -> numpy
        from numpy.random import default_rng  # default_rng -> numpy.random.default_rng

        np.random.default_rng  ->  "numpy.random.default_rng"
        default_rng            ->  "numpy.random.default_rng"
        self.rng               ->  None   (not an imported name)

    Relative imports resolve against *package* (the importing file's
    package): in ``repro.edgefabric.sampler``, ``from . import routes``
    binds ``routes -> repro.edgefabric.routes`` and ``from .routes
    import bgp_routes`` binds ``bgp_routes ->
    repro.edgefabric.routes.bgp_routes``.  Without a package (loose
    files), relative imports are skipped, as before.

    Scoping is flat: a function-local import registers globally.  For
    lint purposes that errs toward catching more, never less.
    """

    def __init__(self, tree: ast.AST, package: str = "") -> None:
        self.aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c=a.b.
                    target = alias.name if alias.asname else alias.name.partition(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = resolve_relative_base(package, node.level, node.module)
                    if base is None:
                        continue
                elif node.module:
                    base = node.module
                else:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{base}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a ``Name``/``Attribute`` chain, if any."""
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.aliases.get(current.id)
        if base is None:
            return None
        chain.append(base)
        return ".".join(reversed(chain))


@dataclass
class FileContext:
    """One parsed source file, as every rule sees it."""

    path: Path
    relpath: str
    module: str
    source: str
    lines: List[str]
    tree: ast.Module
    imports: ImportMap
    #: ``(line, rule)`` pairs whose disable comment actually silenced a
    #: finding this run — the engine's SUPPRESS001 stale-waiver check
    #: reads this after every rule has spoken.
    used_suppressions: Set[Tuple[int, str]] = field(default_factory=set)
    #: Lazily computed cache of :func:`comment_lines`.
    _comment_lines: Optional[Set[int]] = field(default=None, repr=False)

    def comment_line_set(self) -> Set[int]:
        """Lines with a real comment token (cached per context)."""
        if self._comment_lines is None:
            self._comment_lines = comment_lines(self.source)
        return self._comment_lines

    @classmethod
    def parse(cls, path: Path, root: Optional[Path] = None) -> "FileContext":
        """Read and parse *path*.

        Raises:
            SyntaxError: The file does not parse; the engine reports it
                as a finding instead of crashing the run.
            OSError: The file cannot be read.
        """
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        relpath = str(path)
        if root is not None:
            try:
                relpath = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                relpath = path.as_posix()
        module = module_name(path, root)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        return cls(
            path=path,
            relpath=relpath,
            module=module,
            source=source,
            lines=source.splitlines(),
            tree=tree,
            imports=ImportMap(tree, package=package),
        )

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at *node* for *rule*."""
        return Finding(
            path=self.relpath,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)),
            rule=rule.rule_id,
            severity=severity or rule.severity,
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        """True when the finding's line carries a disable comment for it.

        A hit is recorded in :attr:`used_suppressions` so the engine
        can report waivers that no longer silence anything
        (``SUPPRESS001``).
        """
        if not 1 <= finding.line <= len(self.lines):
            return False
        if finding.line not in self.comment_line_set():
            return False
        disabled = suppressed_rules(self.lines[finding.line - 1])
        if "all" in disabled or finding.rule in disabled:
            self.used_suppressions.add((finding.line, finding.rule))
            return True
        return False


class Rule:
    """Base class for one invariant check.

    Subclasses set the class attributes and implement
    :meth:`check_file`.  The engine constructs a fresh rule set per
    run, so instance state needs no reset logic.
    """

    #: Stable identifier, e.g. ``RNG001``.  Never reuse a retired id.
    rule_id: str = "XXX000"
    #: Short kebab-case name for docs and ``list`` output.
    name: str = ""
    #: Default severity of this rule's findings.
    severity: str = ERROR
    #: One-line statement of the invariant the rule protects.
    description: str = ""

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        return iter(())


def catches_broadly(handler: ast.ExceptHandler) -> bool:
    """True for ``except:``, ``except Exception``, ``except BaseException``.

    Tuples count when any member is broad.  Only bare names are
    considered — a module-qualified ``errors.Exception`` would be a
    different class.
    """
    broad = {"Exception", "BaseException"}

    def is_broad(expr: Optional[ast.expr]) -> bool:
        if expr is None:
            return True
        if isinstance(expr, ast.Name):
            return expr.id in broad
        if isinstance(expr, ast.Tuple):
            return any(is_broad(element) for element in expr.elts)
        return False

    return is_broad(handler.type)


def annotation_identifiers(annotation: ast.expr) -> Set[str]:
    """Every identifier appearing in a type annotation.

    Understands string annotations (``"np.random.Generator"``) by
    re-parsing them; unparseable strings contribute nothing.
    """
    names: Set[str] = set()
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def function_parameters(node: ast.AST) -> Set[str]:
    """All parameter names of a function/async-function definition."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    args = node.args
    params = [
        *getattr(args, "posonlyargs", []),
        *args.args,
        *args.kwonlyargs,
    ]
    names = {arg.arg for arg in params}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    return names
