"""Sharded ingest as campaign jobs, with deterministic snapshot merge.

An :class:`IngestShardStudy` is a regular study (``run() ->
StudyResult``) whose result carries an ingest snapshot in
``StudyResult.artifacts`` — the plain-JSON channel that survives the
worker process boundary, the result cache, *and* campaign checkpoints
verbatim.  That verbatim transport is what makes the cross-shard merge
deterministic: fresh, cached, and resumed campaigns all hand
:func:`merge_snapshot_artifacts` byte-identical inputs, and the merge
itself folds cells in sorted ⟨key, window⟩ order, so the merged
snapshot is byte-identical every time.

Shards split the measurement plan by pair index (``i % n_shards ==
shard``).  Each shard synthesizes its own session noise (it is an
independent measurement process), so the merged snapshot is
*statistically* equivalent to a single-pass ingest over the full plan,
and *bit*-equal to any other run of the same shard decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro.errors import StreamError, require_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.study import StudyResult
from repro.obs.trace import span
from repro.stream.ingest import _SNAPSHOT_SCHEMA, IngestSnapshot, merge_snapshots

#: Artifact key under which shard studies store their snapshot.
SNAPSHOT_ARTIFACT = "ingest_snapshot"


@dataclass
class IngestShardStudy:
    """One shard of a streaming ingest campaign.

    Args:
        seed: Master seed (topology, workload, and session noise).
        n_prefixes: Client prefix population size.
        days: Campaign length in simulated days.
        shard: This shard's index in ``[0, n_shards)``.
        n_shards: Total number of shards the plan is split across.
        max_centroids: Centroid budget of each cell's sketch.
        chunk_windows: Windows per synthesized session batch.
    """

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "stream"
    #: Schema of the snapshot a run writes.  It is part of the job's
    #: content hash, so a cached or checkpointed snapshot of another
    #: schema is a miss and the shard runs again.
    artifact_schema: ClassVar[int] = _SNAPSHOT_SCHEMA

    seed: int = 0
    n_prefixes: int = 300
    days: float = 10.0
    shard: int = 0
    n_shards: int = 1
    max_centroids: int = 64
    chunk_windows: int = 16

    def __post_init__(self) -> None:
        """Refuse a bad field here, so a campaign refuses the job."""
        floors = (
            ("seed", 0),
            ("n_prefixes", 1),
            ("n_shards", 1),
            ("chunk_windows", 1),
            ("max_centroids", 8),
            ("shard", 0),
        )
        for name, floor in floors:
            value = require_int(getattr(self, name), name, StreamError)
            if value < floor:
                raise StreamError(f"{name} must be >= {floor}, got {value}")
            setattr(self, name, value)
        if self.shard >= self.n_shards:
            raise StreamError(
                f"shard must be in [0, n_shards), got "
                f"{self.shard}/{self.n_shards}"
            )
        if not (math.isfinite(self.days) and self.days > 0):
            raise StreamError(f"days must be finite and > 0, got {self.days}")

    def run(self) -> StudyResult:
        """Stream this shard's sessions; snapshot rides in artifacts."""
        from repro.core.configs import edgefabric_topology
        from repro.core.study import StudyResult
        from repro.topology import build_internet
        from repro.workloads import generate_client_prefixes
        from repro.edgefabric.sampler import (
            MeasurementConfig,
            MeasurementPlan,
            plan_measurement,
        )
        from repro.stream.sessions import ingest_plan

        cfg = MeasurementConfig(days=self.days, seed=self.seed + 2)
        with span("study.ingest.topology", seed=self.seed, shard=self.shard):
            internet = build_internet(edgefabric_topology(self.seed))
        with span("study.ingest.workload"):
            prefixes = generate_client_prefixes(
                internet, self.n_prefixes, seed=self.seed + 1
            )
        with span("study.ingest.plan"):
            plan = plan_measurement(internet, prefixes, cfg)
            keep = [
                i
                for i in range(len(plan.pairs))
                if i % self.n_shards == self.shard
            ]
            shard_plan = MeasurementPlan(
                pairs=tuple(plan.pairs[i] for i in keep),
                prefixes=tuple(plan.prefixes[i] for i in keep),
            )
        with span("study.ingest.stream", shard=self.shard):
            run = ingest_plan(shard_plan, cfg, self.max_centroids, self.chunk_windows)
        ingestor = run.ingestor
        summary = {
            "n_pairs": float(len(shard_plan.pairs)),
            "sessions": float(ingestor.sessions),
            "batches": float(ingestor.batches),
            "cells": float(ingestor.n_cells),
        }
        return StudyResult(
            name=f"ingest-shard-{self.shard}-of-{self.n_shards}",
            summary=summary,
            artifacts={SNAPSHOT_ARTIFACT: run.snapshot.to_dict()},
        )


def merge_snapshot_artifacts(
    results: Sequence[object], key: str = SNAPSHOT_ARTIFACT
) -> IngestSnapshot:
    """Fold shard study results into one merged snapshot.

    Accepts results in campaign order (fresh, cached, or restored from
    a checkpoint — artifacts are identical in all three cases) and
    returns the deterministic merge of their snapshots.
    """
    snapshots = []
    for result in results:
        artifacts = getattr(result, "artifacts", None) or {}
        payload = artifacts.get(key)
        if payload is None:
            raise StreamError(
                f"result {getattr(result, 'name', result)!r} carries no "
                f"{key!r} artifact"
            )
        snapshots.append(IngestSnapshot.from_dict(payload))
    return merge_snapshots(snapshots)
