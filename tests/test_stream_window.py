"""Tests for keyed window aggregation and watermark lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream import WindowSpec, WindowedAggregator


def cells(agg: WindowedAggregator) -> dict:
    """``{(key, window): sketch}`` over every open and closed cell."""
    return {(key, window): sketch for key, window, sketch in agg.items()}


class TestWindowSpec:
    def test_index_of_is_floor_division(self):
        spec = WindowSpec(minutes=15.0)
        idx = spec.index_of([0.0, 0.24, 0.25, 0.5, 23.99])
        assert idx.tolist() == [0, 0, 1, 2, 95]

    def test_rejects_nonpositive_width(self):
        with pytest.raises(StreamError, match="positive"):
            WindowSpec(minutes=0.0)

    def test_rejects_infinite_width(self):
        with pytest.raises(StreamError, match="finite"):
            WindowSpec(minutes=float("inf"))


class TestWindowedAggregator:
    def test_observations_group_by_window(self):
        agg = WindowedAggregator(window_minutes=15.0)
        agg.observe("k", [0.1, 0.2, 0.3], [1.0, 2.0, 3.0])
        got = cells(agg)
        assert got[("k", 0)].count == 2  # 0.1, 0.2 land in window 0
        assert got[("k", 1)].count == 1
        assert agg.n_cells == 2

    def test_keys_do_not_interfere(self):
        agg = WindowedAggregator(window_minutes=15.0)
        agg.observe("a", [0.1], [1.0])
        agg.observe("b", [0.1], [9.0])
        got = cells(agg)
        assert got[("a", 0)].quantile(0.5) == 1.0
        assert got[("b", 0)].quantile(0.5) == 9.0

    def test_watermark_closes_passed_windows(self):
        agg = WindowedAggregator(window_minutes=15.0, allowed_lateness_windows=1)
        agg.observe("k", [0.1], [1.0])
        # Window 0 closes once the watermark passes end(0) + 1 window.
        assert agg.advance_watermark(0.49) == 0
        assert agg.advance_watermark(0.50) == 1
        # A closed window keeps its sketch and takes no more samples.
        agg.observe("k", [0.2], [2.0])
        assert agg.late_dropped == 1
        assert list(cells(agg)) == [("k", 0)]
        assert cells(agg)[("k", 0)].count == 1

    def test_watermark_never_regresses(self):
        agg = WindowedAggregator(window_minutes=15.0)
        agg.advance_watermark(2.0)
        agg.advance_watermark(1.0)
        assert agg.watermark_h == 2.0

    def test_late_rows_dropped_and_counted(self):
        agg = WindowedAggregator(window_minutes=15.0, allowed_lateness_windows=0)
        agg.observe("k", [0.1], [1.0])
        agg.advance_watermark(0.5)  # windows 0 and 1 are now closed
        agg.observe("k", [0.05, 0.45, 0.55], [7.0, 8.0, 9.0])
        assert agg.late_dropped == 2
        got = cells(agg)
        assert got[("k", 0)].count == 1  # the late 7.0 never landed
        assert got[("k", 2)].count == 1

    def test_zero_lateness_accepts_current_window(self):
        agg = WindowedAggregator(window_minutes=15.0, allowed_lateness_windows=0)
        agg.advance_watermark(0.30)  # inside window 1
        agg.observe("k", [0.30], [1.0])
        assert agg.late_dropped == 0
        assert cells(agg)[("k", 1)].count == 1

    def test_peak_open_tracks_high_water(self):
        agg = WindowedAggregator(window_minutes=15.0)
        agg.observe("a", [0.1, 0.3], [1.0, 2.0])
        agg.advance_watermark(10.0)
        agg.observe("a", [10.0], [3.0])
        assert agg.peak_open == 2
        assert agg.n_cells == 3

    def test_items_covers_open_and_closed(self):
        agg = WindowedAggregator(window_minutes=15.0)
        agg.observe("k", [0.1], [1.0])
        agg.advance_watermark(10.0)
        agg.observe("k", [10.0], [2.0])
        cells = {(key, w) for key, w, _ in agg.items()}
        assert cells == {("k", 0), ("k", 40)}

    def test_misaligned_observation_rejected(self):
        agg = WindowedAggregator()
        with pytest.raises(StreamError, match="align"):
            agg.observe("k", [0.1, 0.2], [1.0])

    def test_nonfinite_rejected(self):
        agg = WindowedAggregator()
        with pytest.raises(StreamError, match="finite"):
            agg.observe("k", [np.nan], [1.0])
        with pytest.raises(StreamError, match="finite"):
            agg.advance_watermark(np.inf)

    def test_negative_lateness_rejected(self):
        with pytest.raises(StreamError, match="lateness"):
            WindowedAggregator(allowed_lateness_windows=-1)

    def test_cells_use_the_centroid_budget(self):
        agg = WindowedAggregator(max_centroids=16)
        agg.observe("k", np.full(40, 0.1), np.arange(40.0))
        sketch = cells(agg)[("k", 0)]
        assert sketch.max_centroids == 16 and sketch.n_centroids <= 16

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_centroids": 4}, "max_centroids must be >= 8"),
            ({"max_centroids": 8.5}, "max_centroids must be an integer"),
            ({"allowed_lateness_windows": 0.5}, "allowed_lateness_windows must be"),
        ],
    )
    def test_bad_config_rejected_at_construction(self, kwargs, message):
        with pytest.raises(StreamError, match=message):
            WindowedAggregator(**kwargs)
