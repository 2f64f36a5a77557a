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
:meth:`CongestionModel.event_and_shift_delays` prices the events of
many keys at shared times, and it is the only place that sums them: one
exact kernel whose every cell equals a full scan of its key's events,
so each setting's latencies do not depend on which keys or times are
priced together.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.errors import MeasurementError, require_int
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


class _Process(NamedTuple):
    """One congestion process: Poisson-many events per key over the
    horizon, with exponential durations and log-normal magnitudes."""

    rate_per_day: float
    mean_duration_hours: float
    magnitude_median_ms: float
    magnitude_sigma: float


#: The baseline-shift process every model shares.
_SHIFTS = _Process(
    SHIFT_RATE_PER_DAY,
    SHIFT_MEAN_DURATION_HOURS,
    SHIFT_MAGNITUDE_MEDIAN_MS,
    SHIFT_MAGNITUDE_SIGMA,
)

#: The empty draw: a key whose Poisson count is 0 shares this one.
_NO_EVENTS = np.empty((3, 0))


def _series_delays(
    horizon: float,
    segments: Sequence[Tuple[_Process, Sequence[np.ndarray]]],
    times: np.ndarray,
) -> np.ndarray:
    """Summed magnitude of each series' active events, ``(rows, T)``.

    The rows are the draws of ``segments`` in order, each segment a
    process and its keys' draws (:meth:`CongestionModel._draw_series`).
    ``times`` is read flat, ``T = times.size``.

    A draw holds the variates ``U``, ``E`` and ``Z`` as the stream made
    them, and an event's ``start = U·horizon``, ``duration =
    E·mean_duration_hours`` and ``magnitude = median·exp(sigma·Z)`` are
    the bits of numpy's ``uniform(0, horizon)``, ``exponential(mean)``
    and ``median·exp(normal(0, sigma))``: numpy computes ``0.0 +
    horizon·U``, ``mean·E`` and ``0.0 + sigma·Z``, ``0.0 + x`` is ``x``
    for ``x >= +0`` and ``exp(-0.0) == exp(+0.0)``.

    An event is active on ``[start, end)``, which on the sorted times is
    one run of positions, ``[searchsorted(start), searchsorted(end))``
    (both ``"left"``).  A NaN time sorts last and lies in no run, as it
    fails the comparisons of a full scan.  An event that ends by the
    earliest non-NaN time or starts after the latest has an empty run,
    so it is dropped before its magnitude is taken; with no such time
    every run is empty.

    The events left are put in (row, start, duration, magnitude) order,
    the order in which a full scan of each row's sorted series adds
    them: one argsort of ``start + row·2^k`` with ``2^k >= 2·horizon``,
    whose rounding is monotone in ``start`` and keeps the rows apart,
    or, when two neighbours tie, the exact lexsort.  Every (event,
    active time) pair is then one weight of a ``np.bincount``.  Work is
    O(E + E' log E' + E' log T + pairs + rows·T) for E events, E' of
    them in the window.
    """
    times = times.ravel()
    size = times.size
    order = np.argsort(times)
    ranked = times[order]
    priced = size - int(np.count_nonzero(np.isnan(ranked)))
    draws = [draw for _, block in segments for draw in block]
    if not draws or not priced:
        return np.zeros((len(draws), size))
    uniform, exponential, normal = np.concatenate(draws, axis=1)
    row = np.repeat(np.arange(len(draws)), [draw.shape[1] for draw in draws])
    # Each row's process parameters.
    mean, median, sigma = np.repeat(
        [
            [p.mean_duration_hours, p.magnitude_median_ms, p.magnitude_sigma]
            for p, _ in segments
        ],
        [len(block) for _, block in segments],
        axis=0,
    ).T
    start = uniform * horizon
    duration = exponential * mean[row]
    end = start + duration
    kept = np.flatnonzero((end > ranked[0]) & (start <= ranked[priced - 1]))
    start, end, row = start[kept], end[kept], row[kept]
    magnitude = median[row] * np.exp(sigma[row] * normal[kept])
    key = start + row * 2.0 ** (math.frexp(horizon)[1] + 1)
    rank = np.argsort(key)
    key = key[rank]
    if np.any(key[1:] == key[:-1]):
        rank = np.lexsort((magnitude, duration[kept], start, row))
    start, end, magnitude, row = start[rank], end[rank], magnitude[rank], row[rank]
    first = np.searchsorted(ranked, start, side="left")
    length = np.searchsorted(ranked, end, side="left") - first
    # Pair j of event i sits at sorted position first[i] + j.
    begin = np.cumsum(length) - length
    position = np.arange(int(length.sum())) + np.repeat(first - begin, length)
    cells = np.repeat(row * size, length) + order[position]
    # bincount adds the weights in index order onto zeros, so each cell
    # is 0.0 + m_a + m_b + ... in event order: the += steps of a full
    # scan, bit for bit.  With no pair it returns integer zeros.
    delay = np.bincount(
        cells, np.repeat(magnitude, length), minlength=len(draws) * size
    )
    return delay.astype(float, copy=False).reshape(len(draws), size)


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
        self.seed = require_int(seed, "seed", MeasurementError)
        self.config = config
        self._process = _Process(
            config.event_rate_per_day,
            config.event_mean_duration_hours,
            config.event_magnitude_median_ms,
            config.event_magnitude_sigma,
        )
        self._events: Dict[str, np.ndarray] = {}
        self._shifts: Dict[str, np.ndarray] = {}

    def _rngs(self, streams: Sequence[str]) -> List[np.random.Generator]:
        """One generator per stream, seeded from ``(seed, crc32(stream))``.

        Each equals ``np.random.default_rng([seed & 0xFFFFFFFF, crc])``;
        the streams share one :func:`_seed_words` pass.
        """
        crcs = [zlib.crc32(stream.encode("utf-8")) for stream in streams]
        preset = _preset_seed_sequence()
        return [
            np.random.Generator(np.random.PCG64(preset(words)))
            for words in _seed_words(self.seed, np.array(crcs, dtype=np.uint32))
        ]

    def _draw_series(self, rng: np.random.Generator, process: _Process) -> np.ndarray:
        """Poisson-many events over the horizon from one key's stream.

        The rows are the events' standard uniform, exponential and
        normal variates, as drawn; :func:`_series_delays` scales them.
        With no events the key's stream is dropped after the count, so
        every empty draw is the shared :data:`_NO_EVENTS`.
        """
        horizon = self.config.horizon_hours
        count = int(rng.poisson(process.rate_per_day * horizon / 24.0))
        if count == 0:
            return _NO_EVENTS
        draw = np.empty((3, count))
        rng.random(out=draw[0])
        rng.standard_exponential(out=draw[1])
        rng.standard_normal(out=draw[2])
        return draw

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
        for key in events:
            draw = self._events[key] = self._draw_series(next(rngs), self._process)
            counter("netmodel.congestion.entities")
            counter("netmodel.congestion.events", draw.shape[1])
        for key in shifts:
            self._shifts[key] = self._draw_series(next(rngs), _SHIFTS)

    def event_and_shift_delays(
        self,
        event_keys: Sequence[str],
        shift_keys: Sequence[str],
        times_h: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Event and baseline-shift delay (ms) of many keys at shared times.

        Returns ``(events, shifts)`` of shapes ``(len(event_keys), T)``
        and ``(len(shift_keys), T)``, ``T = times_h.size``, ``times_h``
        read flat.  A key's events are transient queueing episodes; its
        baseline shifts are slow level shifts (interdomain path churn,
        the module's ``SHIFT_*`` parameters) that last days, which is
        what makes measurement-driven predictions go stale.  Every row
        is the exact sum of its key's active events in start order,
        whatever the other keys and times (:func:`_series_delays`).  The
        series not drawn yet are drawn from one batch of seed words, and
        cached as drawn.
        """
        self._draw(event_keys, shift_keys)
        delay = _series_delays(
            self.config.horizon_hours,
            (
                (self._process, [self._events[key] for key in event_keys]),
                (_SHIFTS, [self._shifts[key] for key in shift_keys]),
            ),
            np.asarray(times_h, dtype=float),
        )
        return delay[: len(event_keys)], delay[len(event_keys) :]

    def diurnal_delay(
        self, times_h: np.ndarray, lon: Union[float, np.ndarray]
    ) -> np.ndarray:
        """Daily-cycle delay (ms) at each time for a given longitude.

        The cycle peaks at ``diurnal_peak_hour`` *local* time; longitude
        sets the timezone (15° per hour).  A column of longitudes,
        shape ``(L, 1)``, broadcasts to one row per longitude.
        """
        cfg = self.config
        times = np.asarray(times_h, dtype=float)
        local = (times + lon / 15.0) % 24.0
        phase = 2.0 * np.pi * (local - cfg.diurnal_peak_hour) / 24.0
        # Raised-cosine bump, cubed to concentrate delay around the peak.
        # Explicit multiplication: numpy lowers ``** 3`` to the generic
        # pow loop, an order of magnitude slower on big grids.
        bump = (1.0 + np.cos(phase)) / 2.0
        return cfg.diurnal_peak_ms * bump * bump * bump
