"""Tests for ASCII figure rendering."""

import pytest

from repro.errors import AnalysisError
from repro.analysis import ascii_cdf_figure, ascii_plot, weighted_cdf


class TestAsciiPlot:
    def test_basic_structure(self):
        cdf = weighted_cdf([1.0, 2.0, 3.0, 4.0])
        out = ascii_plot({"s": cdf}, width=32, height=8)
        lines = out.splitlines()
        assert len(lines) == 8 + 3  # plot rows + axis + ticks + legend
        assert "*" in out
        assert "1.00" in out and "0.00" in out

    def test_multiple_series_distinct_markers(self):
        a = weighted_cdf([1.0, 2.0])
        b = weighted_cdf([2.0, 3.0])
        out = ascii_plot({"a": a, "b": b}, width=24, height=6)
        assert "*" in out and "o" in out
        assert "a" in out and "b" in out

    def test_x_range_clamps(self):
        cdf = weighted_cdf([100.0, 200.0])
        out = ascii_plot({"s": cdf}, x_range=(0.0, 10.0), width=20, height=5)
        # All mass is right of the window: curve pinned at 0.
        assert "10" in out

    def test_monotone_curve(self):
        """A CDF rendered left-to-right never goes down."""
        cdf = weighted_cdf(list(range(50)))
        out = ascii_plot({"s": cdf}, width=40, height=12)
        rows = [line[6:] for line in out.splitlines()[:12]]
        last_row_for_col = {}
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch == "*":
                    last_row_for_col[c] = r
        cols = sorted(last_row_for_col)
        # Row index decreases (moves up) as the column increases.
        values = [last_row_for_col[c] for c in cols]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ccdf_plots_survival(self):
        ccdf = weighted_cdf([1.0, 2.0, 3.0]).complement()
        out = ascii_plot({"tail": ccdf}, width=24, height=6)
        assert "tail" in out

    def test_validation(self):
        with pytest.raises(AnalysisError):
            ascii_plot({})
        cdf = weighted_cdf([1.0])
        with pytest.raises(AnalysisError):
            ascii_plot({"s": cdf}, width=4, height=2)


class TestFigure:
    def test_title_and_label(self):
        cdf = weighted_cdf([1.0, 2.0])
        out = ascii_cdf_figure({"s": cdf}, "My Figure", "x (ms)")
        assert out.startswith("My Figure\n=")
        assert "x (ms)" in out
