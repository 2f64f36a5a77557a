"""Tests for the congestion model."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_zero_rates_and_spreads_stay_legal(self):
        CongestionConfig(
            horizon_hours=24.0,
            diurnal_peak_ms=0.0,
            event_rate_per_day=0.0,
            event_magnitude_median_ms=0.0,
            event_magnitude_sigma=0.0,
        )


class TestEvents:
    def test_deterministic_per_key(self, model):
        assert model.events("link:a") == model.events("link:a")

    def test_different_keys_differ(self, model):
        # With a 10-day horizon the event lists almost surely differ.
        keys = [f"link:{i}" for i in range(20)]
        lists = [tuple(model.events(k)) for k in keys]
        assert len(set(lists)) > 1

    def test_same_seed_same_events_across_instances(self):
        cfg = CongestionConfig(horizon_hours=240.0)
        a = CongestionModel(5, cfg).events("x")
        b = CongestionModel(5, cfg).events("x")
        assert a == b

    def test_different_seed_differs(self):
        cfg = CongestionConfig(horizon_hours=2400.0, event_rate_per_day=2.0)
        a = CongestionModel(1, cfg).events("x")
        b = CongestionModel(2, cfg).events("x")
        assert a != b

    def test_events_within_horizon(self, model):
        for start, duration, magnitude in model.events("link:z"):
            assert 0.0 <= start <= 240.0
            assert duration > 0
            assert magnitude > 0

    def test_event_delay_matches_events(self, model):
        events = model.events("link:y")
        if not events:
            pytest.skip("no events drawn for this key")
        start, duration, magnitude = events[0]
        inside = model.event_delay("link:y", np.array([start + duration / 2]))
        outside = model.event_delay("link:y", np.array([start - 1e-6]))
        assert inside[0] >= magnitude - 1e-9
        assert outside[0] < inside[0]

    def test_zero_rate_no_events(self):
        cfg = CongestionConfig(horizon_hours=240.0, event_rate_per_day=0.0)
        model = CongestionModel(0, cfg)
        assert model.events("anything") == []
        times = np.linspace(0, 240, 100)
        assert np.all(model.event_delay("anything", times) == 0.0)


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

    def test_explicit_peak_override(self, model):
        times = np.array([20.0])
        assert model.diurnal_delay(times, lon=0.0, peak_ms=7.0)[0] == pytest.approx(7.0)


class TestBaselineShifts:
    def test_deterministic(self, model):
        assert model.baseline_shifts("p") == model.baseline_shifts("p")

    def test_delay_nonnegative(self, model):
        times = np.linspace(0, 240, 500)
        assert (model.baseline_shift_delay("p", times) >= 0).all()


class TestComposites:
    def test_shared_delay_is_sum(self, model):
        times = np.linspace(0, 48, 200)
        shared = model.shared_delay("dest:p1", lon=10.0, times_h=times)
        expected = model.diurnal_delay(times, 10.0) + model.event_delay(
            "dest:p1", times
        )
        assert shared == pytest.approx(expected)

    def test_link_delay_no_diurnal(self, model):
        times = np.linspace(0, 48, 200)
        assert model.link_delay("l1", times) == pytest.approx(
            model.event_delay("l1", times)
        )


class TestBatchKernels:
    """The vectorized lanes agree with the scalar methods row by row."""

    def test_event_delay_batch_matches_scalar(self, model):
        keys = [f"link:{i}" for i in range(12)]
        times = np.linspace(0.0, 240.0, 973)
        batch = model.event_delay_batch(keys, times)
        assert batch.shape == (len(keys), times.size)
        for row, key in enumerate(keys):
            np.testing.assert_allclose(
                batch[row], model.event_delay(key, times), rtol=0, atol=1e-9
            )

    def test_event_delay_batch_handles_edges(self, model):
        # Events straddling the grid boundaries must not spill: an event
        # ending past the last sample stays active to the end, and one
        # starting before the first sample is active from the start.
        events = model.events("link:edge")
        times = np.linspace(50.0, 60.0, 101)
        batch = model.event_delay_batch(["link:edge"], times)
        np.testing.assert_allclose(
            batch[0], model.event_delay("link:edge", times), atol=1e-9
        )
        assert events == model.events("link:edge")  # cache untouched

    def test_event_delay_batch_empty(self, model):
        assert model.event_delay_batch([], np.linspace(0, 1, 5)).shape == (0, 5)
        assert model.event_delay_batch(["k"], np.array([])).shape == (1, 0)

    def test_event_delay_batch_rejects_unsorted(self, model):
        with pytest.raises(MeasurementError):
            model.event_delay_batch(["k"], np.array([2.0, 1.0, 3.0]))

    def test_diurnal_batch_bit_identical(self, model):
        times = np.linspace(0.0, 48.0, 500)
        lons = np.array([-120.0, -30.0, 0.0, 77.5, 151.2])
        batch = model.diurnal_delay_batch(times, lons)
        for row, lon in enumerate(lons):
            assert (batch[row] == model.diurnal_delay(times, lon)).all()

    def test_shared_delay_batch_matches_scalar(self, model):
        times = np.linspace(0.0, 240.0, 401)
        keys = [f"dest:p{i}" for i in range(6)]
        lons = np.linspace(-150.0, 150.0, 6)
        batch = model.shared_delay_batch(keys, lons, times)
        for row, (key, lon) in enumerate(zip(keys, lons)):
            np.testing.assert_allclose(
                batch[row], model.shared_delay(key, lon, times), atol=1e-9
            )

    def test_shared_delay_batch_alignment_checked(self, model):
        with pytest.raises(MeasurementError):
            model.shared_delay_batch(["a", "b"], np.array([1.0]), np.arange(3.0))

    def test_link_delay_batch_matches_scalar(self, model):
        times = np.linspace(0.0, 240.0, 300)
        keys = ["l1", "l2", "l3"]
        batch = model.link_delay_batch(keys, times)
        for row, key in enumerate(keys):
            np.testing.assert_allclose(
                batch[row], model.link_delay(key, times), atol=1e-9
            )


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
        """Each key's series is the same whether it is drawn alone or in
        a batch, and whichever of the two draws it first."""
        config = CongestionConfig(horizon_hours=240.0, event_rate_per_day=2.0)
        lone = CongestionModel(seed, config)
        mixed = CongestionModel(seed, config)
        for key in lone_first:
            mixed.events(key)
            mixed.baseline_shifts(key)
        mixed.event_and_shift_delays(keys, keys[::-1], np.array([12.0]))
        for key in keys + lone_first:
            assert mixed.events(key) == lone.events(key)
            assert mixed.baseline_shifts(key) == lone.baseline_shifts(key)

    def test_counters_tally_drawn_event_keys(self):
        model = CongestionModel(4, CongestionConfig(horizon_hours=72.0))
        times = np.linspace(0.0, 72.0, 50)
        paths = [f"cdnpath:p1->fe{i}" for i in range(20)]
        with obs.capture() as captured:
            model.event_and_shift_delays(["dest:p1"] + paths, paths, times)
            model.event_and_shift_delays(["dest:p1", "x", "x"], paths[:3], times)
            model.event_delay("lone", times)
            model.event_delay_batch(["lone", "a", "b", "a"], times)
            model.baseline_shift_delay("shift-only", times)
        totals = Counter()
        for event in captured.events:
            if event["kind"] == "counter":
                totals[event["name"]] += event["value"]
        drawn = ["dest:p1", *paths, "x", "lone", "a", "b"]
        assert totals["netmodel.congestion.entities"] == len(drawn)
        assert totals["netmodel.congestion.events"] == sum(
            len(model.events(key)) for key in drawn
        )
