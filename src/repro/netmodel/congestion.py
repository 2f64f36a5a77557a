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

import functools
import math
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
        for name in (
            "horizon_hours",
            "diurnal_peak_ms",
            "diurnal_peak_hour",
            "event_rate_per_day",
            "event_mean_duration_hours",
            "event_magnitude_median_ms",
            "event_magnitude_sigma",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise MeasurementError(f"{name} must be finite, got {value}")
        if self.horizon_hours <= 0:
            raise MeasurementError("horizon_hours must be positive")
        if self.diurnal_peak_ms < 0 or self.event_magnitude_median_ms < 0:
            raise MeasurementError("delays must be non-negative")
        if self.event_rate_per_day < 0:
            raise MeasurementError("event rate must be non-negative")
        if self.event_mean_duration_hours <= 0:
            raise MeasurementError("event duration must be positive")
        if self.event_magnitude_sigma < 0:
            raise MeasurementError("event_magnitude_sigma must be non-negative")


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


#: The empty series: a key whose Poisson count is 0 shares this one.
_NO_EVENTS = _EventSeries(np.empty(0), np.empty(0), np.empty(0), np.empty(0))


def _series_delays(series: Sequence[_EventSeries], times: np.ndarray) -> np.ndarray:
    """Summed magnitude of each series' active events, ``(len(series), T)``.

    ``times`` is read flat, ``T = times.size``.  An event is active on
    ``[start, end)``.  Events that start after the latest time or end by
    the earliest are skipped: they are active at no queried time.  A
    NaN time defeats the bounds, so then no event is skipped.

    Every cell takes the ``+=`` steps of a scan of its series' events in
    stored order.  A lone series visits its events one by one.  Many
    series add the r-th surviving event of every row in pass r, with
    ``+ 0.0`` where that event is inactive; adding ``0.0`` leaves a
    non-negative sum's bits unchanged.
    """
    times = times.ravel()
    delay = np.zeros((len(series), times.size))
    if times.size == 0 or not series:
        return delay
    lo = times.min()
    hi = times.max()
    scan_all = np.isnan(hi)  # then lo is NaN too: some time is NaN
    if len(series) == 1:
        (one,) = series
        if one.start.size == 0:
            return delay
        if scan_all:
            visit = np.arange(one.start.size)
        else:
            reach = int(np.searchsorted(one.start, hi, side="right"))
            visit = np.flatnonzero(one.end[:reach] > lo)
        row = delay[0]
        start, end, magnitude = one.start, one.end, one.magnitude
        for i in visit.tolist():
            row[(times >= start[i]) & (times < end[i])] += magnitude[i]
        return delay
    counts = [s.start.size for s in series]
    row_of = np.repeat(np.arange(len(series)), counts)
    start = np.concatenate([s.start for s in series])
    end = np.concatenate([s.end for s in series])
    magnitude = np.concatenate([s.magnitude for s in series])
    if not scan_all:
        keep = (start <= hi) & (end > lo)
        row_of, start, end, magnitude = (
            row_of[keep],
            start[keep],
            end[keep],
            magnitude[keep],
        )
    if row_of.size == 0:
        return delay
    added = np.where(
        (times >= start[:, None]) & (times < end[:, None]), magnitude[:, None], 0.0
    )
    # Rank of each surviving event within its row; a stable sort by rank
    # lays pass r out as one run that holds at most one event per row.
    rank = np.arange(row_of.size) - np.searchsorted(row_of, row_of)
    order = np.argsort(rank, kind="stable")
    bounds = np.cumsum(np.bincount(rank)).tolist()
    first = 0
    for last in bounds:
        events = order[first:last]
        delay[row_of[events]] += added[events]
        first = last
    return delay


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier constants of ``count`` successive hashes.

    numpy's hash XORs with its running constant, multiplies the constant
    by ``mult`` and then multiplies by the new constant.  Returned as
    ``(count, 1)`` uint32 columns, to broadcast over streams.
    """
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    column = np.array(constants, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


#: The pool takes 4 hashes and the cross-mix 12; generate_state hashes
#: out 8 words.
_POOL_XOR, _POOL_MULT = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One step of numpy's ``SeedSequence`` hash, broadcast over streams."""
    hashed = (values ^ xor) * mult
    return hashed ^ (hashed >> 16)


def _seed_words(seed: int, crcs: np.ndarray) -> np.ndarray:
    """Seed words of many streams, shape ``(len(crcs), 4)``.

    Row *i* equals ``np.random.SeedSequence([seed & 0xFFFFFFFF,
    crcs[i]]).generate_state(4, np.uint64)``: numpy's entropy mix run
    on uint32 arrays, one column per stream.  The two entropy words and
    two zero words hash into a 4-word pool.  Each pool word in turn is
    hashed and mixed into the other three; those three are independent,
    so they take one array step.  Then 8 words are hashed out of the
    pool and read as 4 little-endian uint64.
    """
    pool = np.zeros((4, len(crcs)), dtype=np.uint32)
    pool[0] = seed & _MASK32
    pool[1] = crcs
    pool = _hash(pool, _POOL_XOR[:4], _POOL_MULT[:4])
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        step = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hash(pool[src], _POOL_XOR[step], _POOL_MULT[step])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> 16)
    state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


@functools.lru_cache(maxsize=None)
def _preset_seed_sequence() -> type:
    """A ``SeedSequence`` that hands over given state words.

    ``np.random.PCG64`` seeds itself from ``generate_state(4,
    np.uint64)``; this one returns the words :func:`_seed_words` made
    instead of hashing its own.  Defined on first use, because numpy
    loads ``numpy.random`` lazily and a class statement at import would
    load it then.
    """

    class PresetSeedSequence(np.random.SeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            # SeedSequence.__init__ is skipped: it would hash entropy.
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words

    return PresetSeedSequence


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

    def _rngs(self, streams: Sequence[str]) -> List[np.random.Generator]:
        """One generator per stream, seeded from ``(seed, crc32(stream))``.

        Each equals ``np.random.default_rng([seed & 0xFFFFFFFF, crc])``.
        Many streams share one :func:`_seed_words` pass.  A lone stream
        is seeded by ``default_rng`` itself, because the array pass
        costs more than one numpy seeding.
        """
        crcs = [zlib.crc32(stream.encode("utf-8")) for stream in streams]
        if len(crcs) == 1:
            return [np.random.default_rng([self.seed & 0xFFFFFFFF, crcs[0]])]
        preset = _preset_seed_sequence()
        return [
            np.random.Generator(np.random.PCG64(preset(words)))
            for words in _seed_words(self.seed, np.array(crcs, dtype=np.uint32))
        ]

    def _draw_series(
        self,
        rng: np.random.Generator,
        rate_per_day: float,
        mean_duration_hours: float,
        magnitude_median_ms: float,
        magnitude_sigma: float,
    ) -> _EventSeries:
        """Poisson-many events over the horizon from one key's stream.

        One array draw per attribute; the lexsort gives the order of
        ``sorted(zip(starts, durations, magnitudes))``.  With no events
        the key's stream is dropped after the count, so every empty
        series is the shared :data:`_NO_EVENTS`.
        """
        horizon = self.config.horizon_hours
        count = int(rng.poisson(rate_per_day * horizon / 24.0))
        if count == 0:
            return _NO_EVENTS
        starts = rng.uniform(0.0, horizon, size=count)
        durations = rng.exponential(mean_duration_hours, size=count)
        magnitudes = magnitude_median_ms * np.exp(
            rng.normal(0.0, magnitude_sigma, size=count)
        )
        order = np.lexsort((magnitudes, durations, starts))
        start = starts[order]
        duration = durations[order]
        return _EventSeries(start, duration, start + duration, magnitudes[order])

    def _draw(self, event_keys: Sequence[str], shift_keys: Sequence[str]) -> None:
        """Draw and cache the series of every key not drawn yet.

        The streams are seeded together (:meth:`_rngs`), but each key
        draws from its own stream, so no series depends on the keys it
        was drawn with.
        """
        events = [key for key in dict.fromkeys(event_keys) if key not in self._events]
        shifts = [key for key in dict.fromkeys(shift_keys) if key not in self._shifts]
        if not events and not shifts:
            return
        streams = ["events:" + key for key in events]
        streams += ["shifts:" + key for key in shifts]
        rngs = iter(self._rngs(streams))
        cfg = self.config
        for key in events:
            series = self._events[key] = self._draw_series(
                next(rngs),
                cfg.event_rate_per_day,
                cfg.event_mean_duration_hours,
                cfg.event_magnitude_median_ms,
                cfg.event_magnitude_sigma,
            )
            counter("netmodel.congestion.entities")
            counter("netmodel.congestion.events", series.start.size)
        for key in shifts:
            self._shifts[key] = self._draw_series(
                next(rngs),
                SHIFT_RATE_PER_DAY,
                SHIFT_MEAN_DURATION_HOURS,
                SHIFT_MAGNITUDE_MEDIAN_MS,
                SHIFT_MAGNITUDE_SIGMA,
            )

    def event_and_shift_delays(
        self,
        event_keys: Sequence[str],
        shift_keys: Sequence[str],
        times_h: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Event and baseline-shift delay of many keys at shared times.

        Returns ``(events, shifts)`` of shapes ``(len(event_keys), T)``
        and ``(len(shift_keys), T)``, ``T = times_h.size``.  Each row is
        bit for bit :meth:`event_delay` or :meth:`baseline_shift_delay`
        of its key, flattened.  The series not drawn yet are drawn from
        one batch of seed words.
        """
        self._draw(event_keys, shift_keys)
        series = [self._events[key] for key in event_keys]
        series += [self._shifts[key] for key in shift_keys]
        delay = _series_delays(series, np.asarray(times_h, dtype=float))
        return delay[: len(event_keys)], delay[len(event_keys) :]

    # --- transient events -------------------------------------------------

    def _event_series(self, key: str) -> _EventSeries:
        series = self._events.get(key)
        if series is None:
            self._draw((key,), ())
            series = self._events[key]
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
        times = np.asarray(times_h, dtype=float)
        delay = _series_delays([self._event_series(key)], times)
        return delay[0].reshape(times.shape)

    def event_delay_batch(
        self, keys: Sequence[str], times_h: np.ndarray
    ) -> np.ndarray:
        """Event delay for many entities at once, shape ``(len(keys), T)``.

        All events of all keys are located on the (sorted, shared) time
        grid with one ``searchsorted``, scattered into a per-row
        difference array, and integrated with one ``cumsum``.  Per-key
        Python runs only when a key set is first seen: its uncached
        series are drawn from one batch of seed words and its events
        are flattened once, then cached.

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
            self._draw(keys, ())
            series = [self._events[key] for key in keys]
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
            self._draw((), (key,))
            series = self._shifts[key]
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
        times = np.asarray(times_h, dtype=float)
        delay = _series_delays([self._shift_series(key)], times)
        return delay[0].reshape(times.shape)
