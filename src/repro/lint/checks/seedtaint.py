"""DET001 — seed taint: randomness on live paths stays caller-visible.

RNG002 judges ``default_rng`` *call sites*: an unseeded or
literal-seeded construction inside a function with no seed parameter.
What it cannot see is seed *laundering*: a helper with a perfectly
seeded call, reached from a Study phase through an intermediate layer
that exposes no ``seed``/``rng``/config parameter at all.  Campaigns
sweeping seeds then silently replay one stream through that layer —
every figure built on it is a function of code structure, not of the
spec's seed.

DET001 closes the whole-program loop over the call graph: every
function that is (a) reachable from a Study phase or campaign worker
entry point and (b) can itself reach ``numpy.random.default_rng``
must carry a seed-bearing parameter (the same vocabulary RNG002
accepts: ``seed``/``rng``/``generator``/``cfg``/``config``, or
``self``/``cls`` for methods whose object owns the configuration).
The diagnostic names a witness call chain so the laundering layer is
obvious.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from repro.lint.findings import Finding
from repro.lint.graph import CallGraph, GraphRule
from repro.lint.checks.rng import (
    DEFAULT_RNG,
    SEED_BEARING_PARAMS,
    _is_test_module,
)

#: Class-name suffix marking a study (phase methods are entry points).
STUDY_SUFFIX = "Study"

#: Module whose worker-side functions dispatch campaign jobs.
CAMPAIGN_MODULE = "repro.runner.campaign"


def seed_roots(graph: CallGraph) -> List[str]:
    """Entry points whose forward cone must thread seeds explicitly.

    * ``run()`` of every spec-able payload (dataclass defining
      ``run()``) and of every ``*Study`` class — the campaign executes
      exactly these in workers.
    * The campaign dispatch functions themselves
      (``repro.runner.campaign._run_job*`` and ``CampaignRunner.run``).
    """
    roots: Set[str] = set()
    for info in graph.classes.values():
        if (info.is_dataclass and info.defines_run) or info.name.endswith(
            STUDY_SUFFIX
        ):
            candidate = f"{info.qualname}.run"
            if candidate in graph.functions:
                roots.add(candidate)
    for info in graph.functions.values():
        if info.module == CAMPAIGN_MODULE and (
            info.name.startswith("_run_job") or info.qualname.endswith(".run")
        ):
            roots.add(info.qualname)
    return sorted(roots)


class SeedTaintRule(GraphRule):
    """DET001: live rng-reaching functions must accept a seed/rng."""

    rule_id = "DET001"
    name = "seed-taint"
    description = (
        "every function reachable from a Study phase or campaign entry "
        "point that can reach numpy.random.default_rng must expose a "
        "seed/rng (or config) parameter"
    )

    def check_graph(self, graph: CallGraph) -> Iterator[Finding]:
        roots = seed_roots(graph)
        if not roots:
            return
        live = graph.reachable_from(roots)
        tainted = graph.reachers_of([DEFAULT_RNG])
        rng_targets = {DEFAULT_RNG}
        for qualname in sorted(live & tainted):
            info = graph.functions.get(qualname)
            if info is None or _is_test_module(info.module):
                continue
            if set(info.params) & SEED_BEARING_PARAMS:
                continue
            witness = graph.sample_path(qualname, rng_targets)
            via = " -> ".join(witness[1:]) if len(witness) > 1 else DEFAULT_RNG
            yield self.graph_finding(
                info,
                f"'{info.name}' is reachable from a campaign/Study entry "
                f"point and reaches {DEFAULT_RNG} (via {via}) but threads "
                "no seed/rng/config parameter; the stream cannot be varied "
                "or reproduced from the job spec",
            )
