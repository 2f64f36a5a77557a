"""Tests for the versioned artifact headers and figure export."""

import pytest

from repro.errors import AnalysisError
from repro.analysis import weighted_cdf
from repro.io import write_cdf_csv, write_country_csv


class TestCsvExport:
    def test_cdf_csv(self, tmp_path):
        cdf = weighted_cdf([1.0, 2.0, 3.0], weights=[1.0, 2.0, 1.0])
        path = tmp_path / "fig.csv"
        write_cdf_csv(cdf, path, label="diff_ms")
        lines = path.read_text().splitlines()
        assert lines[0] == "diff_ms,cum_fraction"
        assert len(lines) == 4
        assert lines[-1].endswith(",1")

    def test_country_csv(self, tmp_path):
        path = tmp_path / "fig5.csv"
        write_country_csv({"IN": -30.0, "US": 1.5}, path)
        text = path.read_text()
        assert "IN,asia,-30" in text
        assert "US,north-america,1.5" in text


class TestHeaders:
    """The shared versioned-header helpers used by io and the runner."""

    def test_make_header_leads_with_schema_and_kind(self):
        from repro.io import SCHEMA_VERSION, make_header

        header = make_header("beacon", extra=1)
        assert header["schema"] == SCHEMA_VERSION
        assert header["kind"] == "beacon"
        assert header["extra"] == 1

    def test_check_header_roundtrip(self):
        from repro.io import check_header, make_header

        check_header(make_header("tier"), "tier")

    def test_check_header_rejects_wrong_schema(self):
        from repro.io import check_header

        with pytest.raises(AnalysisError):
            check_header({"schema": 999, "kind": "tier"}, "tier")

    def test_check_header_rejects_wrong_kind(self):
        from repro.io import check_header, make_header

        with pytest.raises(AnalysisError):
            check_header(make_header("beacon"), "tier")
