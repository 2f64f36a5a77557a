"""Job specifications: one unit of campaign work, content-addressed.

A campaign is a set of independent study runs.  Each run is described
by a :class:`JobSpec` — the study class (by import path), its
configuration kwargs, and the seed — plus a deterministic content hash
over all three.  The hash is the job's identity everywhere: the cache
key in :class:`~repro.runner.store.ResultStore`, the label in
:class:`~repro.runner.campaign.CampaignReport` metrics tables, and the
on-disk file name.

Hashing works over a *canonical form* of the configuration: plain JSON
scalars pass through, tuples and lists coincide, dataclasses and enums
are tagged with their import path, and mapping keys are sorted.  Any
value outside that vocabulary raises
:class:`~repro.errors.RunnerError` — an unhashable config would
silently alias distinct jobs, which is the one failure a
content-addressed cache must never allow.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import inspect
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Mapping

import numpy as np

from repro.errors import RunnerError, require_int
from repro.runner.shm import SharedArrayRef, attach_shared

#: Bumped whenever the canonical form below changes incompatibly, so a
#: cache written under an older hashing scheme can never collide with
#: entries written under the current one.
SPEC_HASH_VERSION = 1


def class_path(cls: type) -> str:
    """The ``module:QualName`` import path of a class."""
    return f"{cls.__module__}:{cls.__qualname__}"


def resolve_study(path: str) -> type:
    """Import the study class named by a ``module:QualName`` path.

    Raises:
        RunnerError: When the path is malformed, the module does not
            import, or the attribute is missing — the errors a worker
            process hits when handed a spec from a different codebase.
    """
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise RunnerError(
            f"study path {path!r} is not of the form 'module:ClassName'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise RunnerError(f"cannot import study module {module_name!r}: {exc}") from exc
    obj: Any = module
    for part in qualname.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise RunnerError(
                f"module {module_name!r} has no attribute {qualname!r}"
            ) from None
    return obj


def canonicalize(value: Any) -> Any:
    """Reduce a config value to a JSON-stable canonical form.

    Scalars pass through (non-finite floats become tagged strings, so
    the JSON stays strict); tuples become lists; mappings sort their
    keys; dataclasses and enums carry their import path so two classes
    with coincidentally equal fields hash apart.

    Raises:
        RunnerError: For any value outside the canonical vocabulary.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, SharedArrayRef):
        # The segment name is process-transient (fresh per campaign
        # run); identity is the content.  Hashing the name would churn
        # every cache key and checkpoint fingerprint on every run.
        return {
            "__shared_array__": {
                "dtype": value.dtype,
                "shape": list(value.shape),
                "digest": value.digest,
            }
        }
    if isinstance(value, float):
        if math.isnan(value):
            return {"__float__": "nan"}
        if math.isinf(value):
            return {"__float__": "inf" if value > 0 else "-inf"}
        return value
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if isinstance(value, enum.Enum):
        return {
            "__enum__": class_path(type(value)),
            "value": canonicalize(value.value),
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": class_path(type(value)),
            "fields": {
                f.name: canonicalize(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise RunnerError(
                    f"config mapping keys must be strings, got {key!r}"
                )
            out[key] = canonicalize(value[key])
        return out
    raise RunnerError(
        f"cannot content-hash config value of type "
        f"{type(value).__qualname__!r}: {value!r}"
    )


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work: a study class, its config, a seed.

    Attributes:
        study: ``module:ClassName`` import path of the study class.
            The class must be constructible with ``config`` as keyword
            arguments (plus ``seed`` when it accepts one) and expose
            ``run() -> StudyResult``.
        seed: Master randomness seed for the job, an integer ``>= 0``
            (numpy integers are stored as ``int``).  A float, ``bool``
            or negative seed raises :class:`~repro.errors.RunnerError`
            here, before any job is dispatched, instead of running or
            hashing as another seed.
        config: Remaining constructor kwargs.  Values must be
            picklable (they cross the process boundary as-is) and
            canonicalizable (they enter the content hash).
        shared: Zero-copy inputs by name: each
            :class:`~repro.runner.shm.SharedArrayRef` points at a
            shared-memory segment the orchestrator owns.  Workers
            attach the segments instead of unpickling the arrays;
            ``build()`` passes the mapped arrays as the study's
            ``shared`` kwarg.  Refs enter the content hash by content
            digest, never by segment name.
    """

    study: str
    seed: int = 0
    config: Mapping[str, Any] = field(default_factory=dict)
    shared: Mapping[str, SharedArrayRef] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seed = require_int(self.seed, "seed", RunnerError)
        object.__setattr__(self, "seed", seed)
        if seed < 0:
            raise RunnerError(f"seed must be >= 0, got {seed}")

    @classmethod
    def from_study(cls, study: Any) -> "JobSpec":
        """Derive a spec from a configured dataclass study instance.

        The three Study classes fit directly; any dataclass whose
        instances expose ``run()`` works.

        Raises:
            RunnerError: When *study* is a class or not a dataclass —
                there is no reliable way to recover constructor kwargs
                from an arbitrary object.
        """
        if isinstance(study, type) or not dataclasses.is_dataclass(study):
            raise RunnerError(
                "JobSpec.from_study needs a configured dataclass study "
                f"instance, got {study!r}"
            )
        config = {
            f.name: getattr(study, f.name)
            for f in dataclasses.fields(study)
            if f.name != "seed"
        }
        return cls(
            study=class_path(type(study)),
            seed=getattr(study, "seed", 0),
            config=config,
        )

    @cached_property
    def content_hash(self) -> str:
        """Deterministic sha256 hex digest over study, seed, and config.

        Two specs share a hash iff a re-run is guaranteed redundant;
        any change to the study path, seed, config, the hashing scheme
        itself, or the ``artifact_schema`` a study class declares yields
        a new hash.
        """
        document = {
            "hash_version": SPEC_HASH_VERSION,
            "study": self.study,
            "seed": int(self.seed),
            "config": canonicalize(dict(self.config)),
        }
        if self.shared:
            # Only present when used, so every pre-existing spec hash
            # (cache entries, checkpoint fingerprints) stays valid.
            document["shared"] = canonicalize(dict(self.shared))
        try:
            schema = getattr(resolve_study(self.study), "artifact_schema", None)
        except RunnerError:
            schema = None  # a study this build cannot import hashes as before
        if schema is not None:
            # Only for studies that declare the schema of the artifacts
            # they write: a cache entry or checkpoint written under
            # another schema then hashes apart and is a miss.
            document["artifact_schema"] = canonicalize(schema)
        encoded = json.dumps(
            document, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label, e.g. ``PopRoutingStudy(seed=3)``."""
        name = self.study.rpartition(":")[2]
        return f"{name}(seed={self.seed})"

    @cached_property
    def platform(self) -> str:
        """The measurement platform a spec dispatches to.

        Used by the campaign circuit breaker to stop dispatching to a
        platform whose failure rate crosses the threshold.  A study
        class may declare its platform explicitly via a ``platform``
        class attribute (the three paper studies do — they all live in
        ``repro.core`` but drive different simulated platforms);
        otherwise the study's module path decides, with
        ``repro.<pkg>.*`` mapping to ``"<pkg>"``.
        """
        try:
            declared = getattr(resolve_study(self.study), "platform", None)
            if isinstance(declared, str) and declared:
                return declared
        except RunnerError:
            pass
        module = self.study.partition(":")[0]
        parts = module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return parts[0]

    def build(self) -> Any:
        """Instantiate the configured study.

        ``seed`` is passed through only when the class accepts it, so
        seedless studies remain spec-able.

        Raises:
            RunnerError: When the class cannot be resolved, rejects the
                config, or lacks a ``run()`` method.
        """
        study_cls = resolve_study(self.study)
        kwargs = dict(self.config)
        try:
            parameters = inspect.signature(study_cls).parameters
        except (TypeError, ValueError) as exc:
            raise RunnerError(
                f"study {self.study!r} is not constructible: {exc}"
            ) from exc
        if "seed" in parameters:
            kwargs["seed"] = self.seed
        if self.shared:
            if "shared" not in parameters:
                raise RunnerError(
                    f"spec carries shared-memory inputs but study "
                    f"{self.study!r} accepts no 'shared' kwarg"
                )
            kwargs["shared"] = attach_shared(self.shared)
        try:
            study = study_cls(**kwargs)
        except TypeError as exc:
            raise RunnerError(
                f"study {self.study!r} rejected config "
                f"{sorted(kwargs)}: {exc}"
            ) from exc
        if not callable(getattr(study, "run", None)):
            raise RunnerError(f"study {self.study!r} has no run() method")
        return study
