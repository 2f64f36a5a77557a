"""Time-varying congestion delay, deterministic per (seed, entity key).

Two ingredients, matching the structure Section 3.1.1 of the paper
infers from the Facebook data:

* **Diurnal load** — a smooth daily cycle peaking in the local evening,
  applied to last-mile and destination-network entities.  Because it is
  keyed to the *destination*, every route to a client degrades together
  during the client's evening peak — which is exactly why dynamic
  performance-aware routing finds no better alternative then.
* **Transient events** — Poisson-arriving episodes of extra queueing
  delay with exponential durations and log-normal magnitudes, keyed to
  individual entities.  Events keyed to an interdomain link hurt only
  routes crossing that link; those are the opportunities an omniscient
  controller can exploit.

Every entity key gets its own deterministic random stream derived from
``(seed, crc32(key))``, so adding entities never perturbs existing ones.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError
from repro.obs.trace import counter

#: Slow baseline shifts (interdomain path churn): expected shifts per
#: path per day, mean shift duration, and the log-normal magnitude's
#: median and log-scale spread.
SHIFT_RATE_PER_DAY = 0.12
SHIFT_MEAN_DURATION_HOURS = 48.0
SHIFT_MAGNITUDE_MEDIAN_MS = 8.0
SHIFT_MAGNITUDE_SIGMA = 0.7


@dataclass(frozen=True)
class CongestionConfig:
    """Parameters of the congestion processes.

    Attributes:
        horizon_hours: Simulated horizon; events are generated over it.
        diurnal_peak_ms: Added delay at the top of the daily cycle.
        diurnal_peak_hour: Local hour of the daily maximum (evening).
        event_rate_per_day: Expected transient events per entity per day.
        event_mean_duration_hours: Mean event duration (exponential).
        event_magnitude_median_ms: Median added delay during an event
            (log-normal).
        event_magnitude_sigma: Log-scale spread of event magnitudes.
    """

    horizon_hours: float
    diurnal_peak_ms: float = 3.0
    diurnal_peak_hour: float = 20.0
    event_rate_per_day: float = 0.6
    event_mean_duration_hours: float = 0.75
    event_magnitude_median_ms: float = 8.0
    event_magnitude_sigma: float = 0.6

    def __post_init__(self) -> None:
        if self.horizon_hours <= 0:
            raise MeasurementError("horizon_hours must be positive")
        if self.diurnal_peak_ms < 0 or self.event_magnitude_median_ms < 0:
            raise MeasurementError("delays must be non-negative")
        if self.event_rate_per_day < 0:
            raise MeasurementError("event rate must be non-negative")
        if self.event_mean_duration_hours <= 0:
            raise MeasurementError("event duration must be positive")


class _EventSeries(NamedTuple):
    """One key's events as arrays, sorted by (start, duration, extra).

    ``end`` is ``start + duration``, added once here instead of on
    every lookup.
    """

    start: np.ndarray
    duration: np.ndarray
    end: np.ndarray
    magnitude: np.ndarray

    def as_list(self) -> List[Tuple[float, float, float]]:
        """The events as ``(start_h, duration_h, extra_ms)`` tuples."""
        return list(
            zip(
                self.start.tolist(),
                self.duration.tolist(),
                self.magnitude.tolist(),
            )
        )


def _series_delay(series: _EventSeries, times: np.ndarray) -> np.ndarray:
    """Summed magnitude of the events active at each time.

    An event is active on ``[start, end)``.  Events that start after the
    latest time or end by the earliest are skipped: they are active at
    no queried time.  The rest are visited in stored order, so each sum
    takes the same ``+=`` steps as a scan of every event.  A NaN time
    defeats the bounds, so then every event is visited.
    """
    delay = np.zeros_like(times)
    if times.size == 0 or series.start.size == 0:
        return delay
    lo = times.min()
    hi = times.max()
    if np.isnan(hi):  # then lo is NaN too: some time is NaN
        visit = np.arange(series.start.size)
    else:
        reach = int(np.searchsorted(series.start, hi, side="right"))
        visit = np.flatnonzero(series.end[:reach] > lo)
    start, end, magnitude = series.start, series.end, series.magnitude
    for i in visit.tolist():
        delay[(times >= start[i]) & (times < end[i])] += magnitude[i]
    return delay


class CongestionModel:
    """Deterministic congestion delay series for named entities.

    Args:
        seed: Master seed; combined with each entity key.
        config: Process parameters.
    """

    def __init__(self, seed: int, config: CongestionConfig) -> None:
        self.seed = seed
        self.config = config
        self._events: Dict[str, _EventSeries] = {}
        self._shifts: Dict[str, _EventSeries] = {}
        self._flat_cache: Dict[tuple, tuple] = {}
        self._diurnal_cache: Dict[tuple, np.ndarray] = {}

    def _rng(self, key: str) -> np.random.Generator:
        return np.random.default_rng(
            [self.seed & 0xFFFFFFFF, zlib.crc32(key.encode("utf-8"))]
        )

    def _draw_series(
        self,
        stream: str,
        rate_per_day: float,
        mean_duration_hours: float,
        magnitude_median_ms: float,
        magnitude_sigma: float,
    ) -> _EventSeries:
        """Poisson-many events over the horizon from one key's stream.

        One array draw per attribute; the lexsort gives the order of
        ``sorted(zip(starts, durations, magnitudes))``.
        """
        horizon = self.config.horizon_hours
        rng = self._rng(stream)
        count = int(rng.poisson(rate_per_day * horizon / 24.0))
        starts = rng.uniform(0.0, horizon, size=count)
        durations = rng.exponential(mean_duration_hours, size=count)
        magnitudes = magnitude_median_ms * np.exp(
            rng.normal(0.0, magnitude_sigma, size=count)
        )
        order = np.lexsort((magnitudes, durations, starts))
        start = starts[order]
        duration = durations[order]
        return _EventSeries(start, duration, start + duration, magnitudes[order])

    # --- transient events -------------------------------------------------

    def _event_series(self, key: str) -> _EventSeries:
        series = self._events.get(key)
        if series is None:
            cfg = self.config
            series = self._events[key] = self._draw_series(
                "events:" + key,
                cfg.event_rate_per_day,
                cfg.event_mean_duration_hours,
                cfg.event_magnitude_median_ms,
                cfg.event_magnitude_sigma,
            )
            counter("netmodel.congestion.entities")
            counter("netmodel.congestion.events", series.start.size)
        return series

    def events(self, key: str) -> List[Tuple[float, float, float]]:
        """Transient events for an entity: (start_h, duration_h, extra_ms).

        Generated lazily and cached; identical for identical (seed, key).
        """
        return self._event_series(key).as_list()

    def event_delay(self, key: str, times_h: np.ndarray) -> np.ndarray:
        """Extra delay (ms) from transient events at each time.

        Costs one array pass per event that overlaps the span of
        ``times_h``, not per event of the whole horizon.
        """
        series = self._event_series(key)
        return _series_delay(series, np.asarray(times_h, dtype=float))

    def event_delay_batch(
        self, keys: Sequence[str], times_h: np.ndarray
    ) -> np.ndarray:
        """Event delay for many entities at once, shape ``(len(keys), T)``.

        All events of all keys are located on the (sorted, shared) time
        grid with one ``searchsorted``, scattered into a per-row
        difference array, and integrated with one ``cumsum`` — no
        per-key Python.

        Rows agree with :meth:`event_delay` per key up to floating-point
        summation order (overlapping events accumulate via the running
        sum here, sequentially there); differences are at the 1e-12
        relative level.

        Raises:
            MeasurementError: if ``times_h`` is not sorted ascending —
                the interval arithmetic requires a monotone grid.
        """
        times = np.asarray(times_h, dtype=float)
        delay = np.zeros((len(keys), times.size))
        if times.size == 0 or not len(keys):
            return delay
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise MeasurementError("event_delay_batch needs sorted times")
        # The flattened event arrays depend only on the key set, not the
        # time grid; repeated synthesis over the same entities (several
        # time grids, parameter sweeps) hits this cache.
        token = tuple(keys)
        flat = self._flat_cache.get(token)
        if flat is None:
            series = [self._event_series(key) for key in keys]
            flat = (
                np.repeat(
                    np.arange(len(keys), dtype=np.intp),
                    [s.start.size for s in series],
                ),
                np.concatenate([s.start for s in series]),
                np.concatenate([s.end for s in series]),
                np.concatenate([s.magnitude for s in series]),
            )
            self._flat_cache[token] = flat
        row_idx, starts_arr, ends_arr, mags_arr = flat
        if row_idx.size == 0:
            return delay
        # active = (t >= start) & (t < end)  <=>  index in [lo, hi)
        lo = np.searchsorted(times, starts_arr, side="left")
        hi = np.searchsorted(times, ends_arr, side="left")
        live = lo < hi
        if not live.any():
            return delay
        mags = mags_arr[live]
        diff = np.zeros((len(keys), times.size + 1))
        np.add.at(diff, (row_idx[live], lo[live]), mags)
        np.add.at(diff, (row_idx[live], hi[live]), -mags)
        np.cumsum(diff, axis=1, out=diff)
        return diff[:, : times.size]

    # --- diurnal load -------------------------------------------------------

    def diurnal_delay(
        self, times_h: np.ndarray, lon: float, peak_ms: float = -1.0
    ) -> np.ndarray:
        """Daily-cycle delay (ms) at each time for a given longitude.

        The cycle peaks at ``diurnal_peak_hour`` *local* time; longitude
        sets the timezone (15° per hour).
        """
        cfg = self.config
        if peak_ms < 0:
            peak_ms = cfg.diurnal_peak_ms
        times = np.asarray(times_h, dtype=float)
        local = (times + lon / 15.0) % 24.0
        phase = 2.0 * np.pi * (local - cfg.diurnal_peak_hour) / 24.0
        # Raised-cosine bump, cubed to concentrate delay around the peak.
        # Explicit multiplication: numpy lowers ``** 3`` to the generic
        # pow loop, an order of magnitude slower on big grids.
        bump = (1.0 + np.cos(phase)) / 2.0
        return peak_ms * bump * bump * bump

    def diurnal_delay_batch(
        self, times_h: np.ndarray, lons: np.ndarray, peak_ms: float = -1.0
    ) -> np.ndarray:
        """Daily-cycle delay for many longitudes, shape ``(len(lons), T)``.

        Broadcasts the exact :meth:`diurnal_delay` formula; per-row
        values are bit-identical to the scalar method.  The matrix is
        deterministic in ``(times, lons, peak_ms)`` and dominated by the
        trig evaluation, so it is cached per argument signature —
        repeated synthesis over one grid (the edgefabric plan and its
        session stream, multi-seed sweeps) pays for the cosines once.
        The returned array is marked read-only; callers needing to
        mutate must copy.
        """
        cfg = self.config
        if peak_ms < 0:
            peak_ms = cfg.diurnal_peak_ms
        times = np.asarray(times_h, dtype=float)
        lons_arr = np.asarray(lons, dtype=float)
        token = (times.tobytes(), lons_arr.tobytes(), peak_ms)
        cached = self._diurnal_cache.get(token)
        if cached is not None:
            return cached
        local = (times[None, :] + lons_arr[:, None] / 15.0) % 24.0
        phase = 2.0 * np.pi * (local - cfg.diurnal_peak_hour) / 24.0
        bump = (1.0 + np.cos(phase)) / 2.0
        result = peak_ms * bump * bump * bump
        result.setflags(write=False)
        self._diurnal_cache[token] = result
        return result

    # --- composites ---------------------------------------------------------

    def shared_delay(
        self, key: str, lon: float, times_h: np.ndarray
    ) -> np.ndarray:
        """Destination-side delay shared by all routes to an entity.

        Diurnal load at the entity's longitude plus the entity's own
        transient events (e.g. a congested access network).
        """
        return self.diurnal_delay(times_h, lon) + self.event_delay(key, times_h)

    def link_delay(self, key: str, times_h: np.ndarray) -> np.ndarray:
        """Route-specific delay from one interdomain link's events."""
        return self.event_delay(key, times_h)

    def shared_delay_batch(
        self, keys: Sequence[str], lons: np.ndarray, times_h: np.ndarray
    ) -> np.ndarray:
        """Destination-side delay for many entities, ``(len(keys), T)``.

        Row *i* agrees with ``shared_delay(keys[i], lons[i], times_h)``
        up to the batched event kernel's summation-order tolerance.
        """
        if len(keys) != len(np.asarray(lons, dtype=float)):
            raise MeasurementError("keys and lons must be index-aligned")
        return self.diurnal_delay_batch(times_h, lons) + self.event_delay_batch(
            keys, times_h
        )

    def link_delay_batch(
        self, keys: Sequence[str], times_h: np.ndarray
    ) -> np.ndarray:
        """Route-specific delay for many links at once, ``(len(keys), T)``."""
        return self.event_delay_batch(keys, times_h)

    # --- slow baseline shifts (interdomain path churn) ---------------------

    def _shift_series(self, key: str) -> _EventSeries:
        series = self._shifts.get(key)
        if series is None:
            series = self._shifts[key] = self._draw_series(
                "shifts:" + key,
                SHIFT_RATE_PER_DAY,
                SHIFT_MEAN_DURATION_HOURS,
                SHIFT_MAGNITUDE_MEDIAN_MS,
                SHIFT_MAGNITUDE_SIGMA,
            )
        return series

    def baseline_shifts(self, key: str) -> List[Tuple[float, float, float]]:
        """Slow level shifts for a path: (start_h, duration_h, extra_ms).

        Models interdomain path churn: a route changes and stays changed
        for days, unlike the transient queueing events above.  This is
        what makes measurement-driven predictions go stale (the Figure 4
        scheme measures first and redirects later).  The process
        parameters are the module's ``SHIFT_*`` constants.
        """
        return self._shift_series(key).as_list()

    def baseline_shift_delay(self, key: str, times_h: np.ndarray) -> np.ndarray:
        """Extra delay (ms) from baseline shifts at each time."""
        series = self._shift_series(key)
        return _series_delay(series, np.asarray(times_h, dtype=float))
