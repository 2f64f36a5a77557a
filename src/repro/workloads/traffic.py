"""Traffic volume and session-count time series.

Volumes follow each prefix's local diurnal cycle (traffic peaks in the
destination's evening), scaled by the prefix's heavy-tailed weight.  The
Facebook analysis weights windows by bytes transferred; sessions are the
sampling unit for MinRTT medians.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import MeasurementError
from repro.workloads.clients import ClientPrefix


def diurnal_volume(times_h: np.ndarray, lon: Union[float, np.ndarray]) -> np.ndarray:
    """Relative traffic volume over time for a destination longitude.

    A raised-cosine daily cycle between 0.35 (early morning trough) and
    1.0 (evening peak, 20:00) of the destination's local time.  A
    column of longitudes, shape ``(P, 1)``, broadcasts to one row per
    longitude.
    """
    times = np.asarray(times_h, dtype=float)
    local = (times + lon / 15.0) % 24.0
    phase = 2.0 * np.pi * (local - 20.0) / 24.0
    return 0.35 + 0.65 * ((1.0 + np.cos(phase)) / 2.0)


def traffic_matrix(
    prefixes: Sequence[ClientPrefix],
    times_h: np.ndarray,
    cycle: np.ndarray = None,
) -> np.ndarray:
    """Volume (relative bytes) per prefix per window, shape (P, W).

    ``cycle`` optionally supplies the prefixes' precomputed
    :func:`diurnal_volume` rows, letting callers that need both volumes
    and session counts evaluate it once.
    """
    if not prefixes:
        raise MeasurementError("no prefixes")
    if cycle is None:
        lons = np.array([p.city.location.lon for p in prefixes])
        cycle = diurnal_volume(times_h, lons[:, None])
    weights = np.array([p.weight for p in prefixes])
    return weights[:, None] * cycle


def sessions_matrix(
    prefixes: Sequence[ClientPrefix],
    times_h: np.ndarray,
    sessions_at_peak: int = 40,
    minimum: int = 4,
    cycle: np.ndarray = None,
) -> np.ndarray:
    """Sampled session count per prefix per window, shape (P, W), int.

    The load balancers spray a *sampled subset* of sessions across
    routes; the per-window sample size scales with the prefix's diurnal
    cycle but is bounded below so medians stay estimable off-peak.
    """
    if sessions_at_peak <= 0 or minimum <= 0:
        raise MeasurementError("session counts must be positive")
    if minimum > sessions_at_peak:
        raise MeasurementError("minimum cannot exceed sessions_at_peak")
    if cycle is None:
        lons = np.array([p.city.location.lon for p in prefixes])
        cycle = diurnal_volume(times_h, lons[:, None])
    return np.maximum(minimum, np.round(sessions_at_peak * cycle)).astype(int)
