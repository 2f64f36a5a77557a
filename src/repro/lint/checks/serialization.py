"""SER001 — JobSpec payload classes stay picklable and hashable.

:meth:`repro.runner.spec.JobSpec.from_study` turns any configured
dataclass exposing ``run()`` into campaign work: its fields cross the
process boundary as pickles and enter the content hash via
``canonicalize``.  A field holding a lock, an open file, a subprocess
handle, or a ``numpy.random.Generator`` breaks that contract twice
over — pickling either fails outright or smuggles unhashable runtime
state into what should be a pure ``(class, config, seed)`` identity.
Studies must carry *seeds*, never live generators; *paths*, never
handles.

Detection is structural: any ``@dataclass`` whose body defines
``run()`` is treated as a spec-able payload, and its annotated fields
are screened against the deny list of identifiers.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.findings import Finding
from repro.lint.graph import _defines_run, _is_dataclass_decorated
from repro.lint.rules import FileContext, Rule, annotation_identifiers

#: Identifiers that mark a field as runtime state, not configuration.
FORBIDDEN_FIELD_TYPES: Set[str] = {
    "Lock",
    "RLock",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Generator",
    "RandomState",
    "IO",
    "TextIO",
    "BinaryIO",
    "TextIOWrapper",
    "BufferedReader",
    "BufferedWriter",
    "FileIO",
    "Popen",
    "socket",
}


class PayloadFieldRule(Rule):
    """SER001: spec-able study dataclasses carry config, not runtime state."""

    rule_id = "SER001"
    name = "serialization-safety"
    description = (
        "dataclasses usable as JobSpec payloads (dataclass + run()) must "
        "not declare fields typed as locks, file handles, processes, or "
        "random Generators"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_dataclass_decorated(node) or not _defines_run(node):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                offending = sorted(
                    annotation_identifiers(stmt.annotation) & FORBIDDEN_FIELD_TYPES
                )
                if not offending:
                    continue
                field_name = (
                    stmt.target.id if isinstance(stmt.target, ast.Name) else "<field>"
                )
                yield ctx.finding(
                    self,
                    stmt,
                    f"JobSpec payload {node.name}.{field_name} is typed "
                    f"{'/'.join(offending)}; spec payloads cross process "
                    "boundaries and enter the content hash — carry a seed "
                    "or path, construct the runtime object inside run()",
                )
