"""Repo-wide symbol table and call graph for cross-module rules.

PR 5's rules judge one file at a time; the invariants that actually
carry the paper's determinism claim are whole-program properties:
seeds flow *through* helper layers, worker purity is a property of
everything a worker entry point can reach, and shared-memory borrowing
is a contract between ``repro.runner.shm`` and every study that maps a
segment.  This module gives rules the structure those checks need:

* :class:`FunctionInfo` / :class:`ClassInfo` — one symbol per
  ``def`` / ``class`` site, keyed by dotted qualname
  (``repro.cdn.catchment._catchment_geometry``).
* :class:`CallGraph` — call edges between dotted paths, built from the
  same :class:`~repro.lint.rules.ImportMap` resolution the file-local
  rules use, extended with local-variable construction tracking
  (``x = Ctor(...)`` then ``x.method()``), annotation-driven parameter
  types (``congestion: CongestionModel`` then
  ``congestion.diurnal_delay()``), ``self``/``cls`` method resolution
  through base classes, and re-export aliasing through package
  ``__init__`` facades.
* Traversals — :meth:`CallGraph.reachable_from` (forward cone),
  :meth:`CallGraph.reachers_of` (reverse cone / taint sources), and
  :meth:`CallGraph.sample_path` (a deterministic witness chain for
  diagnostics).

Resolution is deliberately an *under*-approximation: a call the graph
cannot attribute (a callback parameter, ``getattr`` dispatch, a method
on an untyped expression) contributes no edge.  Rules built on the
graph therefore never fire on fabricated reachability — the price is
that an invisible edge can hide a true violation, which is the usual
static-analysis trade and the reason the dynamic suites stay.

Everything is deterministic: symbols and edges are keyed by dotted
path, traversals visit in sorted order, and the symbol tables and
edges come out equal across runs and file-discovery orders (pinned by
``tests/test_lint_graph.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.findings import Finding
from repro.lint.rules import FileContext, Rule


@dataclass(frozen=True)
class FunctionInfo:
    """One ``def`` site, module- or class-scoped.

    Attributes:
        qualname: Dotted path, e.g. ``repro.core.study.PopRoutingStudy.run``.
        module: Dotted module the definition lives in.
        relpath: Repo-relative POSIX path of the defining file.
        line: 1-based line of the ``def``.
        name: Bare function name.
        params: Parameter names in declaration order (``self``/``cls``
            included; rules strip them as needed).
        global_lines: Lines of ``global`` statements in the body — the
            module-global-mutation marker worker-purity checks.
    """

    qualname: str
    module: str
    relpath: str
    line: int
    name: str
    params: Tuple[str, ...]
    global_lines: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ClassInfo:
    """One ``class`` site.

    Attributes:
        qualname: Dotted path of the class.
        bases: Base-class dotted paths, resolved where possible.
        is_dataclass: Carries a ``@dataclass`` decorator.
        defines_run: Defines a ``run()`` method directly — together
            with ``is_dataclass`` this is the :class:`JobSpec` payload
            heuristic (same as SER001).
        field_types: Annotated field name → resolved class qualname,
            for ``self.<field>.<method>()`` resolution.
    """

    qualname: str
    relpath: str
    line: int
    name: str
    bases: Tuple[str, ...]
    is_dataclass: bool
    defines_run: bool
    field_types: Dict[str, str] = field(default_factory=dict)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _defines_run(node: ast.ClassDef) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and stmt.name == "run"
        for stmt in node.body
    )


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return ()
    args = node.args
    ordered = [
        *getattr(args, "posonlyargs", []),
        *args.args,
    ]
    names = [arg.arg for arg in ordered]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(arg.arg for arg in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _annotation_candidates(annotation: Optional[ast.expr]) -> List[ast.expr]:
    """Name/Attribute chains inside an annotation, outermost first.

    Unwraps ``Optional[X]`` / ``List[X]`` subscripts and string
    annotations; yields candidate type expressions for resolution.
    """
    if annotation is None:
        return []
    out: List[ast.expr] = []
    stack: List[ast.AST] = [annotation]
    while stack:
        node = stack.pop(0)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                pass
            continue
        if isinstance(node, (ast.Name, ast.Attribute)):
            out.append(node)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return out


class GraphRule(Rule):
    """A rule judged against the whole-run :class:`CallGraph`.

    The engine builds one graph per run (over every linted file) and
    calls :meth:`check_graph` after all per-file passes, applying
    per-line suppression to the result exactly like file findings.
    """

    def check_graph(self, graph: "CallGraph") -> Iterator[Finding]:
        """Yield findings computed from the whole-program graph."""
        return iter(())

    def graph_finding(
        self,
        info: FunctionInfo,
        message: str,
        line: Optional[int] = None,
        severity: Optional[str] = None,
    ) -> Finding:
        """Build a finding anchored at *info*'s file (def line by default)."""
        return Finding(
            path=info.relpath,
            line=int(line if line is not None else info.line),
            col=0,
            rule=self.rule_id,
            severity=severity or self.severity,
            message=message,
        )


class _ModuleWalker:
    """Extract symbols and call edges from one parsed file."""

    def __init__(self, ctx: FileContext, graph: "CallGraph") -> None:
        self.ctx = ctx
        self.graph = graph
        self.module = ctx.module

    # -- pass 1: symbols ---------------------------------------------------

    def collect_symbols(self) -> None:
        self._walk_symbols(self.ctx.tree.body, scope=self.module)
        # Every import alias doubles as a potential re-export: in a
        # package __init__, ``from repro.x.y import f`` makes
        # ``repro.x.f`` an alias of ``repro.x.y.f``.  Locally defined
        # symbols always win over aliases at resolution time.
        for local, target in self.ctx.imports.aliases.items():
            self.graph._aliases.setdefault(f"{self.module}.{local}", target)

    def _walk_symbols(self, body: Sequence[ast.stmt], scope: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{scope}.{stmt.name}"
                global_lines = tuple(
                    sorted(
                        node.lineno
                        for node in ast.walk(stmt)
                        if isinstance(node, ast.Global)
                    )
                )
                self.graph.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=self.module,
                    relpath=self.ctx.relpath,
                    line=stmt.lineno,
                    name=stmt.name,
                    params=_param_names(stmt),
                    global_lines=global_lines,
                )
                # Nested defs get symbols too (scoped under the parent).
                self._walk_symbols(stmt.body, scope=qualname)
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{scope}.{stmt.name}"
                bases = tuple(
                    resolved
                    for base in stmt.bases
                    for resolved in [self._resolve_type_expr(base)]
                    if resolved is not None
                )
                self.graph.classes[qualname] = ClassInfo(
                    qualname=qualname,
                    relpath=self.ctx.relpath,
                    line=stmt.lineno,
                    name=stmt.name,
                    bases=bases,
                    is_dataclass=_is_dataclass_decorated(stmt),
                    defines_run=_defines_run(stmt),
                )
                self._walk_symbols(stmt.body, scope=qualname)

    def _resolve_type_expr(self, expr: ast.expr) -> Optional[str]:
        """Dotted path a base-class / annotation expression names."""
        resolved = self.ctx.imports.resolve(expr)
        if resolved is not None:
            return resolved
        if isinstance(expr, ast.Name):
            # Same-module reference; pass 2 canonicalizes against the
            # symbol table, so optimistically qualify it here.
            return f"{self.module}.{expr.id}"
        return None

    # -- pass 2: edges -----------------------------------------------------

    def collect_edges(self) -> None:
        self._walk_edges(self.ctx.tree.body, caller=self.module, cls=None)
        self._collect_field_types()

    def _collect_field_types(self) -> None:
        for stmt in ast.walk(self.ctx.tree):
            if not isinstance(stmt, ast.ClassDef):
                continue
            qualname = self._class_qualname(stmt)
            info = self.graph.classes.get(qualname)
            if info is None:
                continue
            for item in stmt.body:
                if not isinstance(item, ast.AnnAssign) or not isinstance(
                    item.target, ast.Name
                ):
                    continue
                bound = self._annotation_class(item.annotation)
                if bound is not None:
                    info.field_types[item.target.id] = bound

    def _class_qualname(self, node: ast.ClassDef) -> str:
        # Reconstructed by matching recorded line numbers — cheaper than
        # threading qualnames through a second recursive walk.
        for qualname, info in self.graph.classes.items():
            if info.relpath == self.ctx.relpath and info.line == node.lineno:
                return qualname
        return f"{self.module}.{node.name}"

    def _annotation_class(self, annotation: Optional[ast.expr]) -> Optional[str]:
        """The single known class an annotation resolves to, if any."""
        hits: List[str] = []
        for candidate in _annotation_candidates(annotation):
            resolved = self._resolve_type_expr(candidate)
            if resolved is None:
                continue
            canonical = self.graph.canonical(resolved)
            if canonical in self.graph.classes:
                hits.append(canonical)
        deduped = sorted(set(hits))
        return deduped[0] if len(deduped) == 1 else None

    def _walk_edges(
        self,
        body: Sequence[ast.stmt],
        caller: str,
        cls: Optional[str],
        emit_direct: bool = True,
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{caller}.{stmt.name}"
                locals_map = self._local_types(stmt, cls)
                self._emit_calls(stmt, qualname, cls, locals_map)
                # Recurse only for defs/classes nested in the body; the
                # function's own statements were just emitted above.
                self._walk_edges(
                    stmt.body, caller=qualname, cls=None, emit_direct=False
                )
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{caller}.{stmt.name}"
                self._walk_edges(
                    stmt.body, caller=qualname, cls=qualname, emit_direct=True
                )
            elif emit_direct:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        self._add_edge(caller, node, cls, {})

    def _local_types(
        self,
        func: ast.AST,
        cls: Optional[str],
    ) -> Dict[str, str]:
        """Variable → class qualname bindings visible inside *func*.

        Sources, in increasing precedence: parameter annotations,
        ``x = Ctor(...)`` assignments.  ``self``/``cls`` bind to the
        enclosing class.
        """
        bindings: Dict[str, str] = {}
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return bindings
        args = func.args
        for arg in [*getattr(args, "posonlyargs", []), *args.args, *args.kwonlyargs]:
            bound = self._annotation_class(arg.annotation)
            if bound is not None:
                bindings[arg.arg] = bound
        if cls is not None and (args.posonlyargs or args.args):
            first = (args.posonlyargs or args.args)[0].arg
            if first in ("self", "cls"):
                bindings[first] = cls
        for node in self._own_nodes(func):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            target_cls = self._call_target(node.value, cls, bindings)
            if target_cls is None:
                continue
            canonical = self.graph.canonical(target_cls)
            if canonical not in self.graph.classes:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = canonical
        return bindings

    def _own_nodes(self, func: ast.AST) -> Iterator[ast.AST]:
        """All AST nodes of *func* excluding nested def/class bodies."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _emit_calls(
        self,
        func: ast.AST,
        qualname: str,
        cls: Optional[str],
        locals_map: Dict[str, str],
    ) -> None:
        for node in self._own_nodes(func):
            if isinstance(node, ast.Call):
                self._add_edge(qualname, node, cls, locals_map)

    def _add_edge(
        self,
        caller: str,
        call: ast.Call,
        cls: Optional[str],
        locals_map: Dict[str, str],
    ) -> None:
        target = self._call_target(call, cls, locals_map)
        if target is None:
            return
        canonical = self.graph.canonical(target)
        edges = self.graph.edges.setdefault(caller, {})
        line = int(getattr(call, "lineno", 0))
        previous = edges.get(canonical)
        if previous is None or line < previous:
            edges[canonical] = line
        # Instantiating a class runs its __init__: thread the edge so
        # taint through constructors is visible.
        if canonical in self.graph.classes:
            init = f"{canonical}.__init__"
            if init in self.graph.functions and init not in edges:
                edges[init] = line

    def _call_target(
        self,
        call: ast.Call,
        cls: Optional[str],
        locals_map: Dict[str, str],
    ) -> Optional[str]:
        func = call.func
        resolved = self.ctx.imports.resolve(func)
        if resolved is not None:
            return resolved
        if isinstance(func, ast.Name):
            if func.id in locals_map:
                # ``x(...)`` where x holds a class: calling the instance.
                return f"{locals_map[func.id]}.__call__"
            candidate = f"{self.module}.{func.id}"
            if (
                candidate in self.graph.functions
                or candidate in self.graph.classes
            ):
                return candidate
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                bound = locals_map.get(base.id)
                if bound is not None:
                    return self._method_target(bound, func.attr)
                return None
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in locals_map
            ):
                # ``self.field.method()`` via the class's annotated fields.
                owner = self.graph.classes.get(locals_map[base.value.id])
                if owner is not None:
                    bound = owner.field_types.get(base.attr)
                    if bound is not None:
                        return self._method_target(bound, func.attr)
        return None

    def _method_target(self, cls_qualname: str, method: str) -> Optional[str]:
        """Resolve ``<cls>.<method>`` walking base classes in the table."""
        seen: Set[str] = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            candidate = f"{current}.{method}"
            if candidate in self.graph.functions:
                return candidate
            info = self.graph.classes.get(self.graph.canonical(current))
            if info is not None:
                queue.extend(self.graph.canonical(b) for b in info.bases)
        # Unknown method on a known class: still record the attempt as
        # ``<cls>.<method>`` so external mixins (e.g. dict.update on a
        # subclass) do not fabricate internal edges.
        candidate = f"{cls_qualname}.{method}"
        return candidate if candidate in self.graph.functions else None


class CallGraph:
    """The repo-wide symbol table plus resolved call edges."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname → callee dotted path → first call line.
        self.edges: Dict[str, Dict[str, int]] = {}
        self.contexts: Dict[str, FileContext] = {}
        self._aliases: Dict[str, str] = {}
        self._reverse: Optional[Dict[str, Set[str]]] = None

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "CallGraph":
        """Build the graph over *contexts* (any order; result identical)."""
        graph = cls()
        ordered = sorted(contexts, key=lambda ctx: ctx.relpath)
        for ctx in ordered:
            graph.contexts[ctx.relpath] = ctx
        walkers = [_ModuleWalker(ctx, graph) for ctx in ordered]
        for walker in walkers:
            walker.collect_symbols()
        for walker in walkers:
            walker.collect_edges()
        return graph

    # -- resolution --------------------------------------------------------

    def canonical(self, dotted: str) -> str:
        """Follow re-export aliases until a symbol (or fixpoint)."""
        seen: Set[str] = set()
        current = dotted
        while (
            current not in self.functions
            and current not in self.classes
            and current in self._aliases
            and current not in seen
        ):
            seen.add(current)
            current = self._aliases[current]
        return current

    # -- traversal ---------------------------------------------------------

    def successors(self, node: str) -> List[str]:
        return sorted(self.edges.get(node, ()))

    def call_line(self, caller: str, callee: str) -> Optional[int]:
        """Line of the first recorded *caller* → *callee* call."""
        return self.edges.get(caller, {}).get(callee)

    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """Every node reachable from *roots* (roots included)."""
        seen: Set[str] = set()
        queue = sorted(set(roots))
        while queue:
            node = queue.pop(0)
            if node in seen:
                continue
            seen.add(node)
            queue.extend(t for t in self.successors(node) if t not in seen)
        return seen

    def _reverse_edges(self) -> Dict[str, Set[str]]:
        if self._reverse is None:
            reverse: Dict[str, Set[str]] = {}
            for caller, callees in self.edges.items():
                for callee in callees:
                    reverse.setdefault(callee, set()).add(caller)
            self._reverse = reverse
        return self._reverse

    def reachers_of(self, targets: Iterable[str]) -> Set[str]:
        """Every node from which some target is reachable (targets included)."""
        reverse = self._reverse_edges()
        seen: Set[str] = set()
        queue = sorted(set(targets))
        while queue:
            node = queue.pop(0)
            if node in seen:
                continue
            seen.add(node)
            queue.extend(p for p in sorted(reverse.get(node, ())) if p not in seen)
        return seen

    def sample_path(self, src: str, targets: Set[str]) -> List[str]:
        """Deterministic shortest call chain from *src* into *targets*.

        Used for diagnostics ("reaches X via a → b → c"); BFS with
        sorted successor order makes the witness stable across runs.
        """
        if src in targets:
            return [src]
        parents: Dict[str, str] = {src: src}
        queue = [src]
        while queue:
            node = queue.pop(0)
            for nxt in self.successors(node):
                if nxt in parents:
                    continue
                parents[nxt] = node
                if nxt in targets:
                    chain = [nxt]
                    while chain[-1] != src:
                        chain.append(parents[chain[-1]])
                    return list(reversed(chain))
                queue.append(nxt)
        return []
