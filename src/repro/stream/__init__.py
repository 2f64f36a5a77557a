"""repro.stream — streaming measurement plane with mergeable sketches.

Turns the batch pipelines' O(sessions) memory profile into O(windows):
sessions are folded into one mergeable quantile sketch per
⟨PoP, prefix, route⟩ 15-minute window as they arrive, held in one cell
map, and shard snapshots merge deterministically.

Layering (see ``docs/streaming.md``):

* :mod:`repro.stream.sketch` — the centroid (t-digest style) quantile
  sketch: ``update_batch`` / ``merge`` / ``quantile`` / canonical JSON.
* :mod:`repro.stream.ingest` — ``SessionIngestor.feed/snapshot`` over
  the one ``{(key, window): sketch}`` map, and ``merge_snapshots``,
  the one merge of ingest state.
* :mod:`repro.stream.sessions` — synthesizes the edge-fabric session
  stream batch-by-batch; :func:`ingest_plan` folds it into a
  ``SessionIngestor``, the one streaming path behind ``repro-bgp
  ingest`` and its shard jobs.
* :mod:`repro.stream.shard` — ingest shards as campaign studies whose
  snapshots survive caching/checkpointing and merge byte-identically.
"""

import importlib
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names as type checkers see them
    from repro.stream.ingest import (
        IngestSnapshot,
        Key,
        SessionBatch,
        SessionIngestor,
        merge_snapshots,
    )
    from repro.stream.sessions import (
        PlanIngest,
        ingest_plan,
        session_key_table,
        stream_sessions,
    )
    from repro.stream.shard import (
        SNAPSHOT_ARTIFACT,
        IngestShardStudy,
        merge_snapshot_artifacts,
    )
    from repro.stream.sketch import RANK_TOLERANCE, CentroidSketch, sketch_from_dict

# Each name loads its module on first use (PEP 562), as in repro.obs:
# ingest, sessions and shard pull in the edge-fabric measurement plane
# (edgefabric, bgp, topology, workloads, faults), which a caller of the
# sketch alone (repro.obs.metrics) does not need.
_LAZY = {
    "RANK_TOLERANCE": "repro.stream.sketch",
    "CentroidSketch": "repro.stream.sketch",
    "sketch_from_dict": "repro.stream.sketch",
    "IngestSnapshot": "repro.stream.ingest",
    "Key": "repro.stream.ingest",
    "SessionBatch": "repro.stream.ingest",
    "SessionIngestor": "repro.stream.ingest",
    "merge_snapshots": "repro.stream.ingest",
    "PlanIngest": "repro.stream.sessions",
    "ingest_plan": "repro.stream.sessions",
    "stream_sessions": "repro.stream.sessions",
    "session_key_table": "repro.stream.sessions",
    "SNAPSHOT_ARTIFACT": "repro.stream.shard",
    "IngestShardStudy": "repro.stream.shard",
    "merge_snapshot_artifacts": "repro.stream.shard",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.stream' has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "RANK_TOLERANCE",
    "CentroidSketch",
    "sketch_from_dict",
    "IngestSnapshot",
    "Key",
    "SessionBatch",
    "SessionIngestor",
    "merge_snapshots",
    "PlanIngest",
    "ingest_plan",
    "stream_sessions",
    "session_key_table",
    "SNAPSHOT_ARTIFACT",
    "IngestShardStudy",
    "merge_snapshot_artifacts",
]
