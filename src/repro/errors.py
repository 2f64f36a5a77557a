"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without catching programming errors.
:func:`require_int` is the one integer check, raising the caller's type.
"""

import operator
from typing import Any, Type


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """Raised for invalid topology construction or queries.

    Examples: adding a duplicate AS, linking an AS to itself, or asking for
    an AS number that does not exist in the graph.
    """


class RoutingError(ReproError):
    """Raised for BGP simulation failures.

    Examples: originating a prefix from an unknown AS, querying routes
    before propagation has run, or a policy rejecting every route when one
    is required.
    """


class MeasurementError(ReproError):
    """Raised for measurement-plane failures.

    Examples: exhausting a Speedchecker credit budget, sampling a client
    with no route to the service, or recording into a closed collector.
    """


class RunnerError(ReproError):
    """Raised for campaign-orchestration failures.

    Examples: a job spec whose configuration cannot be content-hashed,
    a study class that cannot be resolved in a worker process, or a
    campaign whose jobs exhausted their retry budget.
    """


class CacheCorruptionError(RunnerError):
    """Raised when a cache or checkpoint entry exists but cannot be trusted.

    Examples: a truncated or garbled JSON entry in a
    :class:`~repro.runner.store.ResultStore`, a payload whose recorded
    checksum no longer matches its content, or a campaign checkpoint
    whose body fails validation.  Distinct from a plain cache *miss*
    (the entry was never written) so callers can quarantine the bad
    file instead of silently re-reading it forever.
    """


class FaultError(ReproError):
    """Raised for invalid fault-injection configuration.

    Examples: a :class:`~repro.faults.FaultPlan` probability outside
    ``[0, 1]`` or an unknown fault kind in a CLI ``--faults`` spec.
    The *injected* failures
    themselves deliberately do not use this type — they must look like
    organic crashes, timeouts, and transient errors to the runner.
    """


class ObsError(ReproError):
    """Raised for telemetry failures.

    Examples: an event violating the JSONL schema, enabling tracing
    twice in one process, or an unreadable trace file or run manifest.
    Instrumentation itself never raises on the hot path — only explicit
    telemetry operations (enable, load, validate) do.
    """


class StreamError(ReproError):
    """Raised for streaming measurement-plane failures.

    Examples: updating a quantile sketch with non-finite samples,
    querying an empty sketch, merging sketches of different kinds or
    configurations, or deserializing a snapshot whose schema or
    checksummed shape does not match.  Data arriving out of time order
    does not raise: every session lands in its ⟨key, window⟩ cell.
    """


class AnalysisError(ReproError):
    """Raised for invalid analysis inputs.

    Examples: computing a weighted quantile with no samples or mismatched
    weight vectors, or requesting an unknown aggregation region.
    """


def require_int(value: Any, name: str, error: Type[ReproError]) -> int:
    """``value`` as a plain ``int``, or ``error`` naming ``name``.

    Anything :func:`operator.index` accepts passes, numpy integers
    included, but ``bool`` does not.  Callers store the result: a
    timeline records these numbers as given, and a config compares by
    equality, under which ``1.0 == 1`` and ``True == 1``.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")
