"""Seeded fault plans: deterministic partial failure for campaigns.

The measurement campaigns the paper synthesizes are defined by partial
failure — Speedchecker rotates ~800 of 17,000 vantage points per day,
probes time out, front-ends drain mid-window.  A :class:`FaultPlan`
injects that reality on demand: given a plan seed, a job's content
hash, and the attempt number, :meth:`FaultPlan.decide` returns the same
fault kind (or none) on every machine, in every process, in any
execution order.  Determinism is the whole point — a chaos run can be
killed, resumed, and re-run and still exercise the *same* failures, so
"resume ∘ crash ≡ uninterrupted run" is a testable equation rather
than a hope.

Decisions are pure functions of ``(plan seed, spec hash, attempt)``
via sha256 — no RNG object, no hidden state, nothing to carry across a
process boundary except the (picklable, frozen) plan itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.errors import FaultError

#: Fault kinds a plan can inject, in the fixed order the cumulative
#: probability walk consumes them (order is part of determinism).
FAULT_KINDS = ("timeout", "crash", "error", "slow")

#: Extra fault kind decided per *spec* (not per attempt): garble the
#: cache entry after a successful write.
CORRUPT_KIND = "corrupt"


def unit_draw(*parts: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` from hashed parts.

    The first 8 bytes of the sha256 of the parts joined by ``:``: no RNG
    object, so a draw is the same in every process and on every rerun.
    Fault plans, the routing engine's timer jitter and the scenario
    attacker choice all draw through it.
    """
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class FaultPlan:
    """Per-attempt fault probabilities plus the seed that fixes them.

    Attributes:
        seed: Fault-stream seed.  Independent of study seeds: the same
            campaign can be chaos-tested under many fault streams.
        p_timeout: Probability an attempt hangs for ``hang_s`` seconds
            and then fails (in pool mode the per-job wall-time limit
            usually fires first).
        p_crash: Probability an attempt hard-kills its process
            (``os._exit``) — a worker SIGKILL, which in pool mode
            poisons the whole ``ProcessPoolExecutor``.
        p_error: Probability an attempt raises a transient exception.
        p_slow: Probability an attempt is delayed by ``slow_s`` before
            running normally (a degraded-but-alive platform).
        p_corrupt: Probability (per *spec*, not per attempt) that the
            cache entry written for a successful job is garbled
            afterwards — a torn disk write, caught later by the
            store's checksum verification.
        hang_s: How long a timeout fault sleeps before failing.
        slow_s: How long a slowdown fault sleeps before succeeding.
        max_faulty_attempts: Attempts beyond this index run clean, so a
            retried job always terminates.  ``0`` disables the cap
            (every attempt may fault — use with care).
    """

    seed: int = 0
    p_timeout: float = 0.0
    p_crash: float = 0.0
    p_error: float = 0.0
    p_slow: float = 0.0
    p_corrupt: float = 0.0
    hang_s: float = 5.0
    slow_s: float = 0.05
    max_faulty_attempts: int = 2

    def __post_init__(self) -> None:
        for name in ("p_timeout", "p_crash", "p_error", "p_slow", "p_corrupt"):
            value = getattr(self, name)
            if not 0.0 <= float(value) <= 1.0:
                raise FaultError(f"{name} must be in [0, 1], got {value!r}")
        attempt_total = (
            self.p_timeout + self.p_crash + self.p_error + self.p_slow
        )
        if attempt_total > 1.0 + 1e-9:
            raise FaultError(
                "per-attempt fault probabilities sum to "
                f"{attempt_total:.3f} > 1"
            )
        if self.hang_s < 0 or self.slow_s < 0:
            raise FaultError("hang_s and slow_s must be non-negative")
        if self.max_faulty_attempts < 0:
            raise FaultError("max_faulty_attempts must be >= 0")

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return (
            self.p_timeout + self.p_crash + self.p_error + self.p_slow
            + self.p_corrupt
        ) > 0.0

    def decide(self, spec_hash: str, attempt: int) -> Optional[str]:
        """The fault (if any) for one attempt of one job.

        Pure in ``(self.seed, spec_hash, attempt)``.  Attempts past
        ``max_faulty_attempts`` always come back clean, which bounds
        how long a retried job can be tormented.
        """
        if attempt < 1:
            raise FaultError(f"attempt must be >= 1, got {attempt}")
        if self.max_faulty_attempts and attempt > self.max_faulty_attempts:
            return None
        draw = unit_draw(self.seed, spec_hash, attempt, "attempt")
        cumulative = 0.0
        for kind in FAULT_KINDS:
            cumulative += getattr(self, f"p_{kind}")
            if draw < cumulative:
                return kind
        return None

    def decide_corrupt(self, spec_hash: str) -> bool:
        """Whether this spec's cache entry gets garbled after writing."""
        if self.p_corrupt <= 0.0:
            return False
        return unit_draw(self.seed, spec_hash, CORRUPT_KIND) < self.p_corrupt

    def describe(self) -> str:
        """Short human-readable summary, e.g. for logs and reports."""
        parts = [
            f"{kind}={getattr(self, f'p_{kind}'):g}"
            for kind in (*FAULT_KINDS, CORRUPT_KIND)
            if getattr(self, f"p_{kind}") > 0.0
        ]
        return f"FaultPlan(seed={self.seed}, {', '.join(parts) or 'inert'})"


#: ``--faults`` spec keys accepted by :func:`parse_fault_spec`, mapped
#: to the plan fields they set.
_SPEC_KEYS: Dict[str, str] = {
    "timeout": "p_timeout",
    "crash": "p_crash",
    "error": "p_error",
    "slow": "p_slow",
    "corrupt": "p_corrupt",
    "hang_s": "hang_s",
    "slow_s": "slow_s",
    "max_attempts": "max_faulty_attempts",
    "seed": "seed",
}


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Build a plan from a CLI string like ``"crash=0.2,timeout=0.1"``.

    Keys: ``timeout``, ``crash``, ``error``, ``slow``, ``corrupt``
    (probabilities), ``hang_s``, ``slow_s``, ``max_attempts``, and
    ``seed`` (overrides the *seed* argument).

    Raises:
        FaultError: On an unknown key or an unparsable value.
    """
    kwargs: Dict[str, object] = {"seed": seed}
    int_fields = {
        f.name for f in fields(FaultPlan) if f.type in ("int", int)
    }
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or key not in _SPEC_KEYS:
            raise FaultError(
                f"bad --faults entry {item!r}; keys: {sorted(_SPEC_KEYS)}"
            )
        field_name = _SPEC_KEYS[key]
        try:
            value: object = (
                int(raw) if field_name in int_fields else float(raw)
            )
        except ValueError as exc:
            raise FaultError(
                f"bad --faults value for {key!r}: {raw!r}"
            ) from exc
        kwargs[field_name] = value
    return FaultPlan(**kwargs)  # type: ignore[arg-type]
