"""Run manifests: the provenance record written alongside results.

A manifest answers "what exactly produced this artifact?" — the run id
tying it to a trace stream, the content hash of the configuration, the
seeds, the git revision, and the interpreter/platform — so a result
file found on disk months later can be traced back to a reproducible
invocation.  Serialized with the package-wide versioned-header
convention (:func:`repro.io.make_header`), like the result cache and
campaign checkpoints.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as _platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import AnalysisError, ObsError
from repro.io import check_header, make_header

PathLike = Union[str, Path]

#: Header ``kind`` for manifest documents.
MANIFEST_KIND = "run-manifest"


def git_revision(cwd: Optional[PathLike] = None) -> Optional[str]:
    """The current git commit hash, or ``None`` outside a checkout.

    Never raises: provenance collection must not be able to fail a run.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def config_digest(config: Mapping[str, Any]) -> str:
    """Deterministic sha256 over a JSON-able configuration mapping.

    Uses the campaign runner's canonical form so a manifest's config
    hash and a :class:`~repro.runner.spec.JobSpec` content hash agree
    on what "the same configuration" means.
    """
    from repro.runner.spec import canonicalize

    encoded = json.dumps(
        canonicalize(dict(config)),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one run.

    Attributes:
        run_id: Ties the manifest to its trace stream's ``run`` field.
        created_utc: Wall-clock creation time, ISO-8601 UTC.
        git_rev: Commit hash of the working tree, when discoverable.
        python: Interpreter version string.
        platform: OS/architecture identifier.
        argv: The invoking command line (empty for library use).
        config: The flat run configuration that was hashed.
        config_hash: sha256 over the canonicalized config.
        seeds: Every randomness seed involved in the run.
        wall_s: Total wall time of the run in seconds.
        extra: Free-form caller additions (JSON scalars only).
    """

    run_id: str
    created_utc: str
    git_rev: Optional[str]
    python: str
    platform: str
    argv: Tuple[str, ...] = ()
    config: Mapping[str, Any] = field(default_factory=dict)
    config_hash: str = ""
    seeds: Tuple[int, ...] = ()
    wall_s: float = 0.0
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (tuples become lists)."""
        data = dataclasses.asdict(self)
        data["argv"] = list(self.argv)
        data["seeds"] = [int(s) for s in self.seeds]
        data["config"] = dict(self.config)
        data["extra"] = dict(self.extra)
        return data


def collect_manifest(
    run_id: str,
    *,
    config: Optional[Mapping[str, Any]] = None,
    seeds: Sequence[int] = (),
    argv: Optional[Sequence[str]] = None,
    wall_s: float = 0.0,
    extra: Optional[Mapping[str, Any]] = None,
) -> RunManifest:
    """Gather environment provenance into a :class:`RunManifest`."""
    config = dict(config or {})
    return RunManifest(
        run_id=run_id,
        created_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_rev=git_revision(),
        python=sys.version.split()[0],
        platform=_platform.platform(),
        argv=tuple(argv if argv is not None else sys.argv),
        config=config,
        config_hash=config_digest(config),
        seeds=tuple(int(s) for s in seeds),
        wall_s=float(wall_s),
        extra=dict(extra or {}),
    )


def write_manifest(manifest: RunManifest, path: PathLike) -> Path:
    """Persist a manifest as versioned-header JSON; returns the path."""
    document = make_header(MANIFEST_KIND, manifest=manifest.to_dict())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True), encoding="utf-8"
    )
    return path


def read_manifest(path: PathLike) -> RunManifest:
    """Load a manifest written by :func:`write_manifest`.

    Raises:
        ObsError: On unreadable files, foreign schemas, or missing
            fields — unlike the result cache, a manifest is asked for
            by name, so silence would hide real corruption.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        check_header(document, MANIFEST_KIND)
        data = document["manifest"]
        return RunManifest(
            run_id=data["run_id"],
            created_utc=data["created_utc"],
            git_rev=data.get("git_rev"),
            python=data["python"],
            platform=data["platform"],
            argv=tuple(data.get("argv", ())),
            config=dict(data.get("config", {})),
            config_hash=data.get("config_hash", ""),
            seeds=tuple(int(s) for s in data.get("seeds", ())),
            wall_s=float(data.get("wall_s", 0.0)),
            extra=dict(data.get("extra", {})),
        )
    except (AnalysisError, OSError, ValueError, KeyError, TypeError) as exc:
        raise ObsError(f"cannot read run manifest {path}: {exc}") from exc
