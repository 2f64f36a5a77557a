"""Campaign orchestration: managed, cached, parallel study runs.

The paper's measurement methodology — Facebook's continuous per-PoP
windows, Google's 10-month Speedchecker campaign — is a long-running
fleet of *independent* measurement jobs.  This package gives the
reproduction the same shape:

* :mod:`repro.runner.spec` — :class:`JobSpec`, one unit of work with a
  deterministic content hash over (study class, config, seed).
* :mod:`repro.runner.store` — :class:`ResultStore`, an on-disk,
  content-addressed cache of study results (versioned JSON; corrupt or
  foreign entries degrade to cache misses).
* :mod:`repro.runner.campaign` — :class:`CampaignRunner`, which fans
  specs out over worker processes with per-job timeout and bounded
  retry, merges deterministically, and reports per-job metrics in a
  :class:`CampaignReport`.
* :mod:`repro.runner.checkpoint` — :class:`CampaignCheckpoint`, the
  atomic journal of completed jobs behind crash-safe ``resume=True``.
* :mod:`repro.runner.shm` — :class:`SharedInputSet` and
  :class:`SharedArrayRef`, zero-copy shared-memory payloads for large
  read-only campaign inputs, with manifest-journaled crash-safe
  reclaim.

See ``docs/runner.md`` for concepts and the cache invalidation rules,
and ``docs/robustness.md`` for the fault model, checkpoint format, and
resume semantics.
"""

from repro.runner.spec import JobSpec, SPEC_HASH_VERSION, canonicalize, resolve_study
from repro.runner.store import CachedResult, ResultStore
from repro.runner.checkpoint import (
    CampaignCheckpoint,
    CheckpointEntry,
    campaign_fingerprint,
)
from repro.runner.campaign import (
    CampaignReport,
    CampaignRunner,
    DegradedJob,
    JobMetrics,
)
from repro.runner.shm import (
    SharedArrayRef,
    SharedInputSet,
    attach_shared,
    describe_arrays,
    reclaim_stale,
)

__all__ = [
    "JobSpec",
    "SPEC_HASH_VERSION",
    "canonicalize",
    "resolve_study",
    "CachedResult",
    "ResultStore",
    "CampaignCheckpoint",
    "CheckpointEntry",
    "campaign_fingerprint",
    "CampaignReport",
    "CampaignRunner",
    "DegradedJob",
    "JobMetrics",
    "SharedArrayRef",
    "SharedInputSet",
    "attach_shared",
    "describe_arrays",
    "reclaim_stale",
]
