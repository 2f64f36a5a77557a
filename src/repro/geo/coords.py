"""Geographic coordinates and great-circle / propagation-delay math.

The latency model converts geodesic distance into propagation delay using
the standard approximation that light in fiber travels at roughly 2/3 of c,
about 200 km per millisecond one way — equivalently, 1 ms of RTT per
100 km of geodesic distance.  This is the same rule of thumb the paper uses
("within 500 km of the serving PoP, which translates to as little as 5 ms
RTT").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EARTH_RADIUS_KM = 6371.0088

#: Kilometres covered per millisecond, one way, by light in fiber (~2/3 c).
FIBER_KM_PER_MS = 200.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface.

    Attributes:
        lat: Latitude in decimal degrees, positive north, in [-90, 90].
        lon: Longitude in decimal degrees, positive east, in [-180, 180].
    """

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return great_circle_km(self, other)


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres.

    Uses the haversine formula, which is numerically stable for the small
    and antipodal distances that arise in the simulator.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    # Clamp to [0, 1] to guard against floating-point drift near antipodes.
    h = min(1.0, max(0.0, h))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def great_circle_km_matrix(
    points_a: Sequence[GeoPoint], points_b: Sequence[GeoPoint]
) -> np.ndarray:
    """All pairwise great-circle distances, shape ``(len(a), len(b))``.

    The vectorized counterpart of :func:`great_circle_km` — same
    haversine formula, same antipodal clamp — used by the batched
    analyses to replace per-pair Python loops.  Entries agree with the
    scalar function to floating-point round-off (numpy trig vs
    ``math``); ties between nearly-equidistant points should therefore
    be broken by an explicit secondary key, never by raw equality.
    """
    lat_a = np.radians(np.array([p.lat for p in points_a], dtype=float))
    lon_a = np.radians(np.array([p.lon for p in points_a], dtype=float))
    lat_b = np.radians(np.array([p.lat for p in points_b], dtype=float))
    lon_b = np.radians(np.array([p.lon for p in points_b], dtype=float))
    dlat = lat_b[None, :] - lat_a[:, None]
    dlon = lon_b[None, :] - lon_a[:, None]
    h = (
        np.sin(dlat / 2.0) ** 2
        + np.cos(lat_a)[:, None] * np.cos(lat_b)[None, :] * np.sin(dlon / 2.0) ** 2
    )
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(h))


def propagation_one_way_ms(distance_km: float, inflation: float = 1.0) -> float:
    """One-way propagation delay in ms over ``distance_km`` of fiber.

    Args:
        distance_km: Geodesic distance in kilometres. Must be >= 0.
        inflation: Multiplicative path-inflation factor (>= 1) accounting
            for fiber not following the geodesic. 1.0 means a perfectly
            straight run.
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    if inflation < 1.0:
        raise ValueError(f"inflation must be >= 1, got {inflation}")
    return distance_km * inflation / FIBER_KM_PER_MS


def propagation_rtt_ms(distance_km: float, inflation: float = 1.0) -> float:
    """Round-trip propagation delay in ms over ``distance_km`` of fiber."""
    return 2.0 * propagation_one_way_ms(distance_km, inflation)
