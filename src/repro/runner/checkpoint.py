"""Crash-safe campaign checkpoints: finish what a dead process started.

A long campaign that dies — SIGKILL'd worker pool, OOM'd orchestrator,
a laptop lid — should cost only the jobs in flight, not the jobs
already finished.  The :class:`CampaignRunner` therefore journals its
progress into one JSON checkpoint per campaign: the campaign's
**fingerprint** (a hash over the ordered spec hashes, so a checkpoint
can never be replayed against a different campaign), plus one entry
per completed job carrying the slim result payload and the metrics row
exactly as recorded.  Writes are atomic (temp file + ``os.replace``),
so a reader observes either the previous checkpoint or the next one,
never a torn file.

On ``resume=True`` the runner loads the checkpoint, restores completed
jobs verbatim — same results, same ``status="ran"`` metrics — and
executes only the remainder.  That is what makes

    resume ∘ crash ≡ uninterrupted run

hold exactly for fixed seeds (the property the chaos CI job asserts):
restored rows are indistinguishable from rows the dead process
recorded, not re-labeled as cache hits.

The checkpoint lives *next to* the :class:`~repro.runner.store.
ResultStore` by convention (the CLI points both at ``--cache-dir``)
but embeds its own payload copies, so resume works even when the
store was corrupted or deleted out from under the campaign.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Union

from repro.errors import CacheCorruptionError
from repro.io import check_header, make_header
from repro.runner.spec import JobSpec
from repro.runner.store import payload_checksum

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Header ``kind`` for campaign checkpoints.
CHECKPOINT_KIND = "campaign-checkpoint"


def campaign_fingerprint(specs: Sequence[JobSpec]) -> str:
    """Identity of a campaign: sha256 over its ordered spec hashes.

    Order matters — the report's results are positional — so the same
    specs in a different order are a different campaign.
    """
    digest = hashlib.sha256()
    for spec in specs:
        digest.update(spec.content_hash.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class CheckpointEntry:
    """One completed job as journaled: payload plus its metrics row.

    Attributes:
        spec_hash: The job's content hash (the join key on resume).
        payload: Slim JSON result payload
            (:func:`repro.runner.store.result_to_payload` form).
        elapsed_s: Simulation wall time, for cache bookkeeping.
        metrics: The recorded :class:`~repro.runner.campaign.JobMetrics`
            fields as a plain dict (status, attempts, timings), so a
            resumed report reads exactly like the original would have.
    """

    spec_hash: str
    payload: Dict
    elapsed_s: float
    metrics: Dict


class CampaignCheckpoint:
    """Atomic on-disk journal of one campaign's completed jobs.

    Args:
        directory: Where checkpoint files live (created lazily).
        fingerprint: The campaign's :func:`campaign_fingerprint`.
    """

    def __init__(self, directory: PathLike, fingerprint: str):
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self._entries: Dict[str, CheckpointEntry] = {}

    @property
    def path(self) -> Path:
        """The checkpoint file this campaign journals to."""
        return self.directory / f"campaign-{self.fingerprint[:16]}.ckpt.json"

    @property
    def entries(self) -> Dict[str, CheckpointEntry]:
        """Completed entries by spec hash (live view)."""
        return self._entries

    def record(self, entry: CheckpointEntry) -> None:
        """Add or replace one completed job in the in-memory journal."""
        self._entries[entry.spec_hash] = entry

    def write(self) -> Path:
        """Persist the journal atomically; returns the checkpoint path.

        Entries are written in sorted spec-hash order so consecutive
        checkpoints of the same progress are byte-identical.
        """
        document = make_header(
            CHECKPOINT_KIND,
            fingerprint=self.fingerprint,
            n_completed=len(self._entries),
            completed={
                spec_hash: {
                    "payload": entry.payload,
                    "elapsed_s": float(entry.elapsed_s),
                    "metrics": entry.metrics,
                    "checksum": payload_checksum(entry.payload),
                }
                for spec_hash, entry in sorted(self._entries.items())
            },
        )
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)
        return self.path

    def load(self) -> int:
        """Restore the journal from disk; returns entries recovered.

        A missing file or a checkpoint for a *different* campaign
        restores nothing (the campaign simply starts from scratch).

        Raises:
            CacheCorruptionError: When the file exists for this
                campaign but is garbled — truncated JSON, missing
                fields, or an entry failing its checksum.  A damaged
                journal must not be half-trusted; the caller decides
                whether to discard it.
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return 0
        try:
            document = json.loads(text)
            check_header(document, CHECKPOINT_KIND)
        except Exception as exc:
            raise CacheCorruptionError(
                f"checkpoint {self.path} is unreadable: {exc}"
            ) from exc
        if document.get("fingerprint") != self.fingerprint:
            logger.info(
                "checkpoint %s belongs to another campaign; ignoring",
                self.path,
            )
            return 0
        try:
            completed = document["completed"]
            for spec_hash, body in completed.items():
                payload = body["payload"]
                if body["checksum"] != payload_checksum(payload):
                    raise CacheCorruptionError(
                        f"checkpoint entry {spec_hash[:12]} failed its "
                        "checksum"
                    )
                self._entries[spec_hash] = CheckpointEntry(
                    spec_hash=spec_hash,
                    payload=payload,
                    elapsed_s=float(body["elapsed_s"]),
                    metrics=dict(body["metrics"]),
                )
        except CacheCorruptionError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CacheCorruptionError(
                f"checkpoint {self.path} is malformed: {exc}"
            ) from exc
        return len(self._entries)

    def clear(self) -> None:
        """Delete the checkpoint file (the campaign completed cleanly)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
