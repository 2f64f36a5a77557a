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


def sampled_median_matrix(
    floor_ms: np.ndarray,
    rng: np.random.Generator,
    noise_scale_ms: float,
    sd: np.ndarray,
) -> np.ndarray:
    """Batched sampled-median estimates over a whole floor-latency array.

    The batch measurement lanes hand this the full ``(pairs, windows,
    routes)`` floor tensor and the per-cell noise standard deviation
    ``sd`` (``noise_scale_ms / sqrt(sessions)``, broadcast-compatible,
    precomputed so callers that also need CI half-widths take one
    square root); it applies the analytic approximation — true median
    plus normal estimation noise with that sd — in one vectorized
    draw.
    """
    floor = np.asarray(floor_ms, dtype=float)
    counter("netmodel.rtt.medians", floor.size)
    # In-place accumulation: the noise draw doubles as the output buffer
    # so a (pairs × windows × routes) call allocates one array, not four.
    result = rng.standard_normal(floor.shape)
    result *= sd
    result += floor
    result += noise_scale_ms * _LN2
    return result
