"""Tests for the congestion model."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_oracles import key_events, scan_events

from repro import obs
from repro.errors import MeasurementError
from repro.netmodel import CongestionConfig, CongestionModel
from repro.netmodel.congestion import _seed_words

U32_MAX = 2**32 - 1


@pytest.fixture
def model():
    return CongestionModel(seed=3, config=CongestionConfig(horizon_hours=240.0))


class TestConfigValidation:
    def test_positive_horizon_required(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=0.0)

    def test_negative_delays_rejected(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=24.0, diurnal_peak_ms=-1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(MeasurementError):
            CongestionConfig(horizon_hours=24.0, event_rate_per_day=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon_hours", float("nan")),
            ("horizon_hours", float("inf")),
            ("diurnal_peak_ms", float("inf")),
            ("diurnal_peak_hour", float("nan")),
            ("event_rate_per_day", float("nan")),
            ("event_rate_per_day", float("inf")),
            ("event_mean_duration_hours", float("inf")),
            ("event_magnitude_median_ms", float("nan")),
            ("event_magnitude_sigma", -1.0),
            ("event_magnitude_sigma", float("nan")),
        ],
    )
    def test_bad_value_rejected(self, field, value):
        with pytest.raises(MeasurementError, match=field):
            CongestionConfig(**{"horizon_hours": 24.0, field: value})

    def test_model_seed_must_be_an_integer(self):
        cfg = CongestionConfig(horizon_hours=24.0)
        for seed in (1.5, 2.0, True, "3"):
            with pytest.raises(MeasurementError, match="seed must be an integer"):
                CongestionModel(seed, cfg)
        model = CongestionModel(np.int64(7), cfg)
        assert type(model.seed) is int and model.seed == 7

    def test_zero_rates_and_spreads_stay_legal(self):
        CongestionConfig(
            horizon_hours=24.0,
            diurnal_peak_ms=0.0,
            event_rate_per_day=0.0,
            event_magnitude_median_ms=0.0,
            event_magnitude_sigma=0.0,
        )


def event_rows(model, keys, times):
    return model.event_and_shift_delays(keys, (), times)[0]


def shift_rows(model, keys, times):
    return model.event_and_shift_delays((), keys, times)[1]


def assert_rows_equal_reference(model, keys, times, shift=False):
    """The model's rows of ``keys`` are the full scans of the reference
    draw's events (``key_events``), bit for bit."""
    rows = (shift_rows if shift else event_rows)(model, keys, times)
    for row, key in zip(rows, keys):
        expected = scan_events(key_events(model, key, shift=shift), times)
        assert row.tobytes() == expected.tobytes()


#: Ten days at quarter-hour windows.
GRID = np.arange(0.0, 240.0, 0.25)


class TestEvents:
    def test_deterministic_per_key(self, model):
        assert key_events(model, "link:a") == key_events(model, "link:a")
        first = event_rows(model, ["link:a"], GRID)
        assert first.tobytes() == event_rows(model, ["link:a"], GRID).tobytes()
        assert_rows_equal_reference(model, ["link:a"], GRID)

    def test_different_keys_differ(self, model):
        # With a 10-day horizon the event lists almost surely differ.
        keys = [f"link:{i}" for i in range(20)]
        lists = [tuple(key_events(model, k)) for k in keys]
        assert len(set(lists)) > 1
        rows = event_rows(model, keys, GRID)
        assert len({row.tobytes() for row in rows}) > 1
        assert_rows_equal_reference(model, keys, GRID)

    def test_same_seed_same_events_across_instances(self):
        cfg = CongestionConfig(horizon_hours=240.0)
        a = CongestionModel(5, cfg)
        b = CongestionModel(5, cfg)
        assert event_rows(a, ["x"], GRID).tobytes() == (
            event_rows(b, ["x"], GRID).tobytes()
        )
        assert_rows_equal_reference(b, ["x"], GRID)

    def test_different_seed_differs(self):
        cfg = CongestionConfig(horizon_hours=2400.0, event_rate_per_day=2.0)
        a, b = CongestionModel(1, cfg), CongestionModel(2, cfg)
        assert key_events(a, "x") != key_events(b, "x")
        times = np.arange(0.0, 2400.0, 0.25)
        assert event_rows(a, ["x"], times).tobytes() != (
            event_rows(b, ["x"], times).tobytes()
        )
        assert_rows_equal_reference(a, ["x"], times)
        assert_rows_equal_reference(b, ["x"], times)

    def test_events_within_horizon(self, model):
        for start, duration, magnitude in key_events(model, "link:z"):
            assert 0.0 <= start <= 240.0
            assert duration > 0
            assert magnitude > 0
        assert_rows_equal_reference(model, ["link:z"], GRID)

    def test_event_delay_matches_events(self, model):
        events = key_events(model, "link:y")
        if not events:
            pytest.skip("no events drawn for this key")
        start, duration, magnitude = events[0]
        times = np.array([start + duration / 2, start - 1e-6])
        inside, outside = event_rows(model, ["link:y"], times)[0]
        assert inside >= magnitude - 1e-9
        assert outside < inside
        assert_rows_equal_reference(model, ["link:y"], times)

    def test_zero_rate_no_events(self):
        cfg = CongestionConfig(horizon_hours=240.0, event_rate_per_day=0.0)
        model = CongestionModel(0, cfg)
        assert key_events(model, "anything") == []
        times = np.linspace(0, 240, 100)
        assert np.all(event_rows(model, ["anything"], times) == 0.0)
        assert_rows_equal_reference(model, ["anything"], times)


class TestDiurnal:
    def test_peaks_at_local_evening(self, model):
        times = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        delay = model.diurnal_delay(times, lon=0.0)
        peak_time = times[np.argmax(delay)]
        assert peak_time == pytest.approx(20.0, abs=0.1)

    def test_longitude_shifts_peak(self, model):
        times = np.linspace(0.0, 24.0, 24 * 60, endpoint=False)
        # 90 degrees east = 6 hours ahead: local 20:00 is 14:00 UTC.
        delay = model.diurnal_delay(times, lon=90.0)
        peak_time = times[np.argmax(delay)]
        assert peak_time == pytest.approx(14.0, abs=0.1)

    def test_bounded_by_peak(self, model):
        times = np.linspace(0.0, 48.0, 1000)
        delay = model.diurnal_delay(times, lon=30.0)
        assert delay.max() <= model.config.diurnal_peak_ms + 1e-9
        assert delay.min() >= 0.0


class TestBaselineShifts:
    def test_deterministic(self, model):
        assert key_events(model, "p", shift=True) == key_events(model, "p", shift=True)
        first = shift_rows(model, ["p"], GRID)
        assert first.tobytes() == shift_rows(model, ["p"], GRID).tobytes()
        assert_rows_equal_reference(model, ["p"], GRID, shift=True)

    def test_delay_nonnegative(self, model):
        times = np.linspace(0, 240, 500)
        assert (shift_rows(model, ["p"], times) >= 0).all()


#: Keys whose utf-8 is empty after the stream prefix, or not ASCII.
ODD_KEYS = ["", "café", "東京:リンク", "dest:p-1"]


class TestBatchSeeding:
    """Streams seeded in a batch are the ones ``default_rng`` seeds."""

    @given(
        seed=st.one_of(
            st.sampled_from([0, 1, U32_MAX, U32_MAX + 1, 2**40 + 3, -1, -(2**33)]),
            st.integers(min_value=-(2**64), max_value=2**64),
        ),
        crcs=st.lists(
            st.one_of(st.sampled_from([0, U32_MAX]), st.integers(0, U32_MAX)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_seed_words_equal_numpy(self, seed, crcs):
        words = _seed_words(seed, np.array(crcs, dtype=np.uint32))
        assert words.dtype == np.uint64
        assert words.shape == (len(crcs), 4)
        for row, crc in zip(words, crcs):
            expected = np.random.SeedSequence([seed & U32_MAX, crc]).generate_state(
                4, np.uint64
            )
            assert row.tobytes() == expected.tobytes()

    @given(
        seed=st.integers(min_value=-(2**40), max_value=2**40),
        keys=st.lists(
            st.one_of(st.sampled_from(ODD_KEYS), st.text(max_size=8)),
            min_size=1,
            max_size=10,
        ),
        lone_first=st.lists(st.sampled_from(ODD_KEYS + ["solo"]), max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_batch_draws_equal_lone_draws(self, seed, keys, lone_first):
        """A key drawn in a batch of one has the series it has when drawn
        among many, whichever of the two draws it first: either way its
        rows are the full scans of its own ``default_rng`` stream's
        events."""
        config = CongestionConfig(horizon_hours=240.0, event_rate_per_day=2.0)
        mixed = CongestionModel(seed, config)
        for key in lone_first:
            mixed.event_and_shift_delays((key,), (), np.array([12.0]))
            mixed.event_and_shift_delays((), (key,), np.array([12.0]))
        mixed.event_and_shift_delays(keys, keys[::-1], np.array([12.0]))
        drawn = list(dict.fromkeys(keys + lone_first))
        assert set(mixed._events) == set(mixed._shifts) == set(drawn)
        assert_rows_equal_reference(mixed, drawn, GRID)
        assert_rows_equal_reference(mixed, drawn, GRID, shift=True)

    def test_counters_tally_drawn_event_keys(self):
        model = CongestionModel(4, CongestionConfig(horizon_hours=72.0))
        times = np.linspace(0.0, 72.0, 50)
        paths = [f"cdnpath:p1->fe{i}" for i in range(20)]
        with obs.capture() as captured:
            model.event_and_shift_delays(["dest:p1"] + paths, paths, times)
            model.event_and_shift_delays(["dest:p1", "x", "x"], paths[:3], times)
            model.event_and_shift_delays(["lone"], (), times)
            model.event_and_shift_delays(["lone", "a", "b", "a"], (), times)
            model.event_and_shift_delays((), ["shift-only"], times)
        totals = Counter()
        for event in captured.events:
            if event["kind"] == "counter":
                totals[event["name"]] += event["value"]
        drawn = ["dest:p1", *paths, "x", "lone", "a", "b"]
        assert totals["netmodel.congestion.entities"] == len(drawn)
        assert totals["netmodel.congestion.events"] == sum(
            len(key_events(model, key)) for key in drawn
        )
        assert_rows_equal_reference(model, drawn, times)
