"""TCP MinRTT measurement model.

The Facebook study records TCP's MinRTT per HTTP session and reports the
median per ⟨PoP, prefix, route⟩ in 15-minute windows.  A session's MinRTT
is the path's floor latency plus a small positive residual (it is the
*minimum* over the session's samples, so large queueing spikes are mostly
filtered out); we model the residual as exponential with a configurable
scale.

For an exponential residual with scale *s*:

* the true median MinRTT is ``base + s·ln 2``;
* the sample median over *n* sessions is asymptotically normal around it
  with standard deviation ``s / sqrt(n)`` (from 1/(2·sqrt(n)·f(m)) with
  density f(m) = 1/(2s) at the median).

Both the exact sampling path and the fast analytic approximation are
provided; the vectorized pipelines use the approximation, tests confirm
they agree.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from repro.errors import MeasurementError
from repro.obs.trace import counter

_LN2 = math.log(2.0)
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def sample_min_rtts(
    base_ms: float,
    n_sessions: int,
    rng: np.random.Generator,
    noise_scale_ms: float = 1.0,
) -> np.ndarray:
    """Draw per-session MinRTT samples around a path's floor latency."""
    if n_sessions <= 0:
        raise MeasurementError("need at least one session")
    if base_ms < 0 or noise_scale_ms < 0:
        raise MeasurementError("latencies must be non-negative")
    counter("netmodel.rtt.sessions", n_sessions)
    return base_ms + rng.exponential(noise_scale_ms, size=n_sessions)


def median_min_rtt(
    base_ms: Union[float, np.ndarray], noise_scale_ms: float = 1.0
) -> Union[float, np.ndarray]:
    """True median MinRTT for a path floor and residual scale."""
    return base_ms + noise_scale_ms * _LN2


def median_min_rtt_ci_halfwidth(
    noise_scale_ms: float, n_sessions: int, z: float = _Z95
) -> float:
    """Half-width of the CI around a window's sample median MinRTT."""
    if n_sessions <= 0:
        raise MeasurementError("need at least one session")
    return z * noise_scale_ms / math.sqrt(n_sessions)


def ci_halfwidth_matrix(
    noise_scale_ms: float, n_sessions: np.ndarray, z: float = _Z95
) -> np.ndarray:
    """Vectorized :func:`median_min_rtt_ci_halfwidth` over a session grid.

    ``n_sessions`` is any array of per-window session counts; the result
    has the same shape.  Entries agree with the scalar function exactly
    (identical expression, elementwise).
    """
    n = np.asarray(n_sessions, dtype=float)
    if n.size == 0 or np.any(n <= 0):
        raise MeasurementError("need at least one session in every window")
    return z * noise_scale_ms / np.sqrt(n)


def sampled_median_matrix(
    floor_ms: np.ndarray,
    n_sessions: np.ndarray = None,
    rng: np.random.Generator = None,
    noise_scale_ms: float = 1.0,
    sd: np.ndarray = None,
) -> np.ndarray:
    """Batched sampled-median estimates over a whole floor-latency array.

    The batch measurement lanes hand this the full ``(pairs, windows,
    routes)`` floor tensor and a broadcast-compatible session-count
    array; it applies the same analytic approximation as
    :func:`noisy_medians` — true median plus normal estimation noise
    with the asymptotic sd — in one vectorized draw.

    Either ``n_sessions`` or a precomputed ``sd`` (the per-cell noise
    standard deviation, ``noise_scale_ms / sqrt(n)``) must be given;
    passing ``sd`` lets callers that also need CI half-widths derive
    both from one square root.
    """
    floor = np.asarray(floor_ms, dtype=float)
    if rng is None:
        raise MeasurementError("sampled_median_matrix needs an rng")
    if sd is None:
        if n_sessions is None:
            raise MeasurementError("need n_sessions or a precomputed sd")
        n = np.asarray(n_sessions, dtype=float)
        if n.size == 0 or np.any(n <= 0):
            raise MeasurementError("need at least one session in every window")
        sd = noise_scale_ms / np.sqrt(n)
    counter("netmodel.rtt.medians", floor.size)
    # In-place accumulation: the noise draw doubles as the output buffer
    # so a (pairs × windows × routes) call allocates one array, not four.
    result = rng.standard_normal(floor.shape)
    result *= sd
    result += floor
    result += noise_scale_ms * _LN2
    return result


def noisy_medians(
    base_ms: np.ndarray,
    n_sessions: int,
    rng: np.random.Generator,
    noise_scale_ms: float = 1.0,
) -> np.ndarray:
    """Sampled median MinRTT estimates, one per entry of ``base_ms``.

    Fast analytic approximation of taking the median of ``n_sessions``
    exponential-residual samples: normal estimation noise with the
    asymptotic standard deviation around the true median.
    """
    if n_sessions <= 0:
        raise MeasurementError("need at least one session")
    base = np.asarray(base_ms, dtype=float)
    counter("netmodel.rtt.medians", base.size)
    sd = noise_scale_ms / math.sqrt(n_sessions)
    return median_min_rtt(base, noise_scale_ms) + rng.normal(0.0, sd, base.shape)
