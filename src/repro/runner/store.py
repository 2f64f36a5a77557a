"""Content-addressed, on-disk persistence of campaign results.

Layout: ``<root>/<hh>/<hash>.json``, where ``hh`` is the first two hex
characters of the spec's content hash — a two-level fan-out so large
campaigns never pile tens of thousands of entries into one directory.

Entries are versioned JSON carrying the same ``schema``/``kind``
header convention as campaign checkpoints and run manifests
(via :func:`repro.io.make_header`), plus a sha256 **checksum** over the
result payload so bit rot is detectable even when the damage still
parses as JSON.  Unreadable entries split two ways:

* A *foreign* entry (different schema generation, different kind) is a
  plain cache miss — some other build wrote it, and re-running the job
  is the correct response.
* A *corrupted* entry (invalid JSON, missing fields, checksum
  mismatch) raises :class:`repro.errors.CacheCorruptionError` from the
  strict reader; :meth:`ResultStore.get` catches it, moves the file to
  ``<root>/quarantine/`` for post-mortem, emits a
  ``runner.cache.corrupt`` telemetry counter, and reports a miss so
  the campaign recomputes.  Either way the worst corruption can do is
  force a re-simulation — but it can never be *silently* re-trusted.

Only the durable parts of a :class:`~repro.core.study.StudyResult`
are persisted: the summary statistics, the hypothesis verdicts, and
the plain-JSON ``artifacts`` (e.g. ingest-snapshot sketches, which
campaign merges need verbatim).  Figure objects hold full datasets and
are cheap to recut from a re-run, so a cache hit returns a result with
``figures == {}``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import AnalysisError, CacheCorruptionError, ObsError
from repro.io import check_header, make_header
from repro.obs import trace as obs
from repro.obs.events import validate_event
from repro.runner.spec import JobSpec

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Header ``kind`` for cached campaign results.
RESULT_KIND = "campaign-result"

#: Subdirectory (under the store root) where corrupted entries are
#: moved for post-mortem instead of being re-read or deleted.
QUARANTINE_DIR = "quarantine"

#: Temp files older than this many seconds are swept when a store opens.
#: Generous enough that no live writer — even one stalled mid-simulation —
#: can have a tmp file this old, so the sweep only ever removes orphans
#: left behind by crashed or killed processes.
STALE_TMP_AGE_S = 3600.0


def result_to_payload(result) -> Dict:
    """Serialize the durable parts of a ``StudyResult`` to plain JSON.

    Figures are deliberately dropped (see the module docstring); the
    same payload shape crosses the worker process boundary, so serial
    and parallel campaigns return identically-shaped results.
    """
    return {
        "name": result.name,
        "summary": {key: float(value) for key, value in result.summary.items()},
        "hypotheses": [
            {
                "hypothesis": verdict.hypothesis,
                "verdict": verdict.verdict.value,
                "evidence": {
                    key: float(value) for key, value in verdict.evidence.items()
                },
                "explanation": verdict.explanation,
            }
            for verdict in result.hypotheses
        ],
        "artifacts": dict(getattr(result, "artifacts", {}) or {}),
    }


def payload_checksum(payload: Dict) -> str:
    """sha256 over the canonical JSON form of a result payload.

    Stored inside each cache entry and verified on read, so damage
    that still parses as JSON (a flipped digit, a truncated mapping
    restored by a well-meaning editor) is caught instead of trusted.
    """
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def payload_to_result(payload: Dict):
    """Rebuild a (figure-less) ``StudyResult`` from its JSON payload."""
    from repro.core.hypotheses import HypothesisVerdict, Verdict
    from repro.core.study import StudyResult

    hypotheses = [
        HypothesisVerdict(
            hypothesis=entry["hypothesis"],
            verdict=Verdict(entry["verdict"]),
            evidence={k: float(v) for k, v in entry["evidence"].items()},
            explanation=entry["explanation"],
        )
        for entry in payload["hypotheses"]
    ]
    return StudyResult(
        name=payload["name"],
        summary={k: float(v) for k, v in payload["summary"].items()},
        figures={},
        hypotheses=hypotheses,
        artifacts=dict(payload.get("artifacts", {})),
    )


@dataclass(frozen=True)
class CachedResult:
    """A cache hit: the stored result plus the simulation time it saved.

    Attributes:
        result: The rebuilt (figure-less) study result.
        elapsed_s: Simulation time the hit avoided.
        events: Telemetry events recorded when the job originally ran,
            so a hit can *replay* its timing history into the current
            trace stream (tagged as replays; see
            :func:`repro.obs.ingest`).  Empty for entries written
            before telemetry existed or with tracing off.
    """

    result: object
    elapsed_s: float
    events: Tuple[Dict, ...] = field(default_factory=tuple)


class ResultStore:
    """Content-addressed cache of study results under one directory.

    Opening a store removes orphaned ``.tmpPID`` files older than
    :data:`STALE_TMP_AGE_S` (a crash between writing the temp file and
    the atomic rename leaves one behind forever otherwise).  Recent
    temp files are left alone — they may belong to a concurrent live
    writer.

    Args:
        root: Cache directory; created lazily on the first write.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.sweep_stale_tmp()

    def sweep_stale_tmp(self) -> int:
        """Remove orphaned temp files; returns how many were deleted.

        Runs automatically on open; callable again on a long-lived store.
        Racing openers are harmless: a file already gone is skipped.
        """
        if not self.root.is_dir():
            return 0
        cutoff = time.time() - STALE_TMP_AGE_S
        removed = 0
        for tmp in self.root.glob("*/*.json.tmp*"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed

    def path_for(self, spec: JobSpec) -> Path:
        """The entry path a spec hashes to (whether or not it exists)."""
        digest = spec.content_hash
        return self.root / digest[:2] / f"{digest}.json"

    def read_entry(self, spec: JobSpec) -> Optional[CachedResult]:
        """Strict lookup: miss is ``None``, damage is an exception.

        Raises:
            CacheCorruptionError: When the entry exists but is
                truncated, garbled, missing fields, or fails its
                checksum — everything short of a clean parse of an
                entry this build wrote.  A *foreign* entry (other
                schema generation or kind) is reported as a miss, not
                corruption: a different build owns it.
        """
        path = self.path_for(spec)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CacheCorruptionError(
                f"cache entry {path} is unreadable: {exc}"
            ) from exc
        try:
            document = json.loads(text)
        except (json.JSONDecodeError, ValueError) as exc:
            raise CacheCorruptionError(
                f"cache entry {path} is not valid JSON: {exc}"
            ) from exc
        try:
            check_header(document, RESULT_KIND)
        except AnalysisError:
            # Foreign generation: some other build's entry, not damage.
            return None
        try:
            payload = document["result"]
            recorded = document.get("checksum")
            if recorded is not None and recorded != payload_checksum(payload):
                raise CacheCorruptionError(
                    f"cache entry {path} failed checksum verification"
                )
            result = payload_to_result(payload)
            elapsed_s = float(document["elapsed_s"])
            events = tuple(
                validate_event(event)
                for event in document.get("events", ())
            )
        except CacheCorruptionError:
            raise
        except (ObsError, ValueError, KeyError, TypeError) as exc:
            raise CacheCorruptionError(
                f"cache entry {path} is malformed: {exc}"
            ) from exc
        return CachedResult(result=result, elapsed_s=elapsed_s, events=events)

    def get(self, spec: JobSpec) -> Optional[CachedResult]:
        """Look a spec up; ``None`` on miss, foreign, *or* damaged entry.

        A damaged entry is quarantined (moved under
        ``<root>/quarantine/``) before the miss is reported, so the
        campaign recomputes it exactly once instead of tripping over
        the same corruption forever; use :meth:`read_entry` to surface
        the :class:`~repro.errors.CacheCorruptionError` instead.
        """
        try:
            return self.read_entry(spec)
        except CacheCorruptionError as exc:
            quarantined = self.quarantine(spec)
            obs.counter("runner.cache.corrupt")
            obs.log_event("warning", str(exc), name="runner.cache")
            logger.warning(
                "corrupted cache entry for %s quarantined at %s: %s",
                spec.describe(),
                quarantined,
                exc,
            )
            return None

    def quarantine(self, spec: JobSpec) -> Optional[Path]:
        """Move a spec's entry into the quarantine directory.

        Returns the entry's new path, or ``None`` when there was
        nothing to move (racing readers may both try).
        """
        path = self.path_for(spec)
        target = self.root / QUARANTINE_DIR / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except FileNotFoundError:
            return None
        return target

    def quarantined(self) -> List[Path]:
        """Quarantined entry paths, oldest name first."""
        pen = self.root / QUARANTINE_DIR
        if not pen.is_dir():
            return []
        return sorted(pen.glob("*.json"))

    def put(
        self, spec: JobSpec, result, elapsed_s: float, events: List[Dict] = ()
    ) -> Path:
        """Persist a result under the spec's content hash.

        The write is atomic (temp file + ``os.replace``), so a reader
        never observes a half-written entry even under concurrency.
        """
        payload = result_to_payload(result)
        document = make_header(
            RESULT_KIND,
            spec={
                "study": spec.study,
                "seed": int(spec.seed),
                "hash": spec.content_hash,
            },
            elapsed_s=float(elapsed_s),
            result=payload,
            checksum=payload_checksum(payload),
            events=list(events),
        )
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
        return path
