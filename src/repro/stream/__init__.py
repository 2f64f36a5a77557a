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

from repro.stream.sketch import RANK_TOLERANCE, CentroidSketch, sketch_from_dict
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
