"""Domain fault models: the platforms' own flavors of partial failure.

Where :class:`~repro.faults.plan.FaultPlan` breaks the *runner* (the
machinery executing jobs), these models degrade the *measurement
substrate itself*, the way the paper's platforms degrade in the wild:

* :class:`VantagePointChurn` — Speedchecker-style panel churn: on any
  given day some fraction of the vantage-point inventory is offline
  (router rebooted, device unplugged), so the daily rotation selects
  from a thinner pool.
* :class:`FrontEndDrain` — CDN front-ends drain for maintenance
  windows; unicast beacons to a drained front-end time out while the
  drain lasts.
* :class:`ProbeLoss` — Edge Fabric sessions are sampled; some
  ⟨pair, window, route⟩ cells simply never report, leaving NaN holes
  the analysis must tolerate.

All three are frozen dataclasses, so they pass through
:func:`repro.runner.spec.canonicalize` (they participate in content
hashes when carried inside a study config) and pickle across worker
processes.  Every decision is a pure seeded hash of its coordinates —
no call-order dependence, no shared RNG stream with the measurement
noise, so enabling a fault model never perturbs the values of the
measurements that *do* survive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import FaultError
from repro.faults.plan import unit_draw


def _check_rate(rate: float, name: str) -> None:
    if not 0.0 <= float(rate) <= 1.0:
        raise FaultError(f"{name} must be in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class VantagePointChurn:
    """Daily vantage-point availability churn.

    Attributes:
        daily_rate: Fraction of the inventory offline on any given day.
        seed: Churn stream seed, independent of the platform's
            measurement seed.
    """

    daily_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate(self.daily_rate, "daily_rate")

    def available(self, day: int, vp_id: str) -> bool:
        """Whether a vantage point is reachable on a given day."""
        if self.daily_rate <= 0.0:
            return True
        return unit_draw(self.seed, "vp-churn", day, vp_id) >= self.daily_rate


@dataclass(frozen=True)
class FrontEndDrain:
    """Maintenance drains of CDN front-ends.

    Each front-end independently enters a drain window each day with
    probability ``daily_rate``; a drained front-end is out for
    ``drain_hours`` starting at a deterministic offset within that day.

    Attributes:
        daily_rate: Per-front-end, per-day drain probability.
        drain_hours: Length of one drain window.
        seed: Drain stream seed.
    """

    daily_rate: float = 0.05
    drain_hours: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate(self.daily_rate, "daily_rate")
        if not 0.0 < self.drain_hours <= 24.0:
            raise FaultError(
                f"drain_hours must be in (0, 24], got {self.drain_hours!r}"
            )

    def drained(self, code: str, time_h: float) -> bool:
        """Whether one front-end is draining at one instant."""
        return bool(self.drained_mask(code, np.asarray([time_h]))[0])

    def drained_mask(self, code: str, times_h: np.ndarray) -> np.ndarray:
        """Boolean mask over timestamps: True where the drain is live."""
        times = np.asarray(times_h, dtype=float)
        mask = np.zeros(times.shape, dtype=bool)
        if self.daily_rate <= 0.0 or times.size == 0:
            return mask
        for day in range(int(times.min() // 24.0), int(times.max() // 24.0) + 1):
            if unit_draw(self.seed, "fe-drain", day, code) >= self.daily_rate:
                continue
            start = day * 24.0 + unit_draw(self.seed, "fe-drain-at", day, code) * (
                24.0 - self.drain_hours
            )
            mask |= (times >= start) & (times < start + self.drain_hours)
        return mask


@dataclass(frozen=True)
class ProbeLoss:
    """Independent loss of measurement cells in a windowed dataset.

    Attributes:
        rate: Per-cell loss probability.
        seed: Loss stream seed.
    """

    rate: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        _check_rate(self.rate, "rate")

    def lost_mask(
        self, pair_keys: Sequence[str], n_windows: int, n_routes: int
    ) -> np.ndarray:
        """Boolean loss mask of shape ``(pairs, windows, routes)``.

        Deterministic per ⟨pair key, window index, route index⟩ — the
        same pair loses the same cells whatever its position in the
        dataset, so filtering or reordering pairs never reshuffles the
        losses.
        """
        mask = np.zeros((len(pair_keys), n_windows, n_routes), dtype=bool)
        if self.rate <= 0.0:
            return mask
        for i, key in enumerate(pair_keys):
            # One hash per pair seeds a private numpy stream: cheap
            # (one draw call per pair) yet independent of enumeration
            # order across datasets.
            digest = hashlib.sha256(
                f"{self.seed}:probe-loss:{key}".encode()
            ).digest()
            rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
            mask[i] = rng.random((n_windows, n_routes)) < self.rate
        return mask
