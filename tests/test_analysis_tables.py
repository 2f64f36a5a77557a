"""Tests for text rendering helpers."""

import pytest

from repro.errors import AnalysisError
from repro.analysis import format_table, text_cdf, text_choropleth
from repro.geo import Region


class TestFormatTable:
    def test_alignment_and_headers(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 20.25]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out
        assert "20.25" in out
        assert set(lines[1]) <= {"-", " "}

    def test_row_width_mismatch(self):
        with pytest.raises(AnalysisError):
            format_table(["a", "b"], [["only-one"]])

    def test_needs_headers(self):
        with pytest.raises(AnalysisError):
            format_table([], [])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestTextCdf:
    def test_quantile_rows(self):
        out = text_cdf([1.0, 2.0, 3.0], [0.3, 0.6, 1.0], points=(0.5, 0.9))
        assert "p50" in out
        assert "p90" in out

    def test_mismatched_series(self):
        with pytest.raises(AnalysisError):
            text_cdf([1.0], [0.5, 1.0])


class TestTextChoropleth:
    def test_groups_by_region(self):
        out = text_choropleth(
            {"US": 5.0, "IN": -20.0, "DE": 1.0},
            {"US": Region.NORTH_AMERICA, "IN": Region.ASIA, "DE": Region.EUROPE},
        )
        assert "north-america" in out
        assert "asia" in out
        assert "+5.0" in out
        assert "-20.0" in out

    def test_missing_region_rejected(self):
        with pytest.raises(AnalysisError):
            text_choropleth({"US": 1.0}, {})

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            text_choropleth({}, {})
