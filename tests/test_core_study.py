"""Tests for the unified Study API (small, fast configurations)."""

import numpy as np
import pytest

from repro.core import (
    AnycastCdnStudy,
    CloudTiersStudy,
    PeeringReductionStudy,
    PopRoutingStudy,
    StudyResult,
    render_report,
)
from repro.errors import MeasurementError


@pytest.fixture(scope="module")
def pop_result(small_config):
    return PopRoutingStudy(
        seed=7, n_prefixes=40, days=0.5, topology=small_config
    ).run()


@pytest.fixture(scope="module")
def cdn_result(small_config):
    return AnycastCdnStudy(
        seed=7,
        n_prefixes=40,
        days=1.0,
        requests_per_prefix=24,
        topology=small_config,
    ).run()


@pytest.fixture(scope="module")
def cloud_result(small_config):
    return CloudTiersStudy(
        seed=7, days=3, vps_per_day=50, topology=small_config
    ).run()


class TestPopRoutingStudy:
    def test_result_shape(self, pop_result):
        assert isinstance(pop_result, StudyResult)
        assert pop_result.name == "pop-routing"
        assert {"fig1", "fig2", "persistence", "schemes"} <= set(pop_result.figures)
        assert len(pop_result.hypotheses) == 2

    def test_headline_statistics(self, pop_result):
        summary = pop_result.summary
        assert 0.0 <= summary["frac_alternate_better_5ms"] <= 0.25
        assert summary["omniscient_gain_ms"] >= 0.0
        assert summary["omniscient_gain_ms"] < 10.0


class TestAnycastCdnStudy:
    def test_result_shape(self, cdn_result):
        assert cdn_result.name == "anycast-cdn"
        assert {"fig3", "fig4", "policy"} <= set(cdn_result.figures)
        assert len(cdn_result.hypotheses) == 1

    def test_headline_statistics(self, cdn_result):
        summary = cdn_result.summary
        assert summary["frac_within_10ms_world"] > 0.4
        assert 0.0 <= summary["frac_improved"] <= 1.0
        assert 0.0 <= summary["frac_hurt"] <= 1.0


class TestCloudTiersStudy:
    def test_result_shape(self, cloud_result):
        assert cloud_result.name == "cloud-tiers"
        assert {"fig5", "ingress", "goodput"} <= set(cloud_result.figures)

    def test_headline_statistics(self, cloud_result):
        summary = cloud_result.summary
        assert summary["n_countries"] > 0
        assert (
            summary["premium_ingress_within_400km"]
            > summary["standard_ingress_within_400km"]
        )
        assert 0.5 <= summary["goodput_ratio"] <= 2.0


NAN = float("nan")


class TestStudyFields:
    """A study refuses at construction the fields it cannot run, so a
    campaign never runs, caches or retries it under another seed."""

    @pytest.mark.parametrize(
        "study, fields, message",
        [
            (PopRoutingStudy, {"seed": 1.5}, "seed must be an integer"),
            (PopRoutingStudy, {"seed": True}, "seed must be an integer"),
            (PopRoutingStudy, {"n_prefixes": 0}, "n_prefixes must be >= 1"),
            (PopRoutingStudy, {"n_prefixes": 2.5}, "n_prefixes must be an integer"),
            (PopRoutingStudy, {"days": 0.0}, "days must be finite and > 0"),
            (PopRoutingStudy, {"days": NAN}, "days must be finite and > 0"),
            (PopRoutingStudy, {"days": float("inf")}, "days must be finite"),
            (AnycastCdnStudy, {"seed": 2.0}, "seed must be an integer"),
            (AnycastCdnStudy, {"n_prefixes": -3}, "n_prefixes must be >= 1"),
            (AnycastCdnStudy, {"requests_per_prefix": 0}, "requests_per_prefix"),
            (AnycastCdnStudy, {"days": -1.0}, "days must be finite and > 0"),
            (AnycastCdnStudy, {"public_ldns_fraction": 1.5}, "public_ldns_fraction"),
            (AnycastCdnStudy, {"public_ldns_fraction": -0.1}, "public_ldns_fraction"),
            (AnycastCdnStudy, {"public_ldns_fraction": NAN}, "public_ldns_fraction"),
            (CloudTiersStudy, {"seed": 1.5}, "seed must be an integer"),
            (CloudTiersStudy, {"days": 0}, "days must be >= 1"),
            (CloudTiersStudy, {"days": 2.5}, "days must be an integer"),
            (CloudTiersStudy, {"vps_per_day": 0}, "vps_per_day must be >= 1"),
            (CloudTiersStudy, {"vps_per_day": True}, "vps_per_day must be an integer"),
            (PeeringReductionStudy, {"seed": 1.5}, "seed must be an integer"),
            (PeeringReductionStudy, {"seed": -1}, "seed must be >= 0"),
            (PeeringReductionStudy, {"n_prefixes": 0}, "n_prefixes must be >= 1"),
            (PeeringReductionStudy, {"n_prefixes": 2.5}, "n_prefixes must be an"),
            (PeeringReductionStudy, {"retentions": ()}, "must start at 1.0"),
            (PeeringReductionStudy, {"retentions": (0.5, 0.25)}, "must start at 1.0"),
            (PeeringReductionStudy, {"retentions": (1.5,)}, "must start at 1.0"),
            (PeeringReductionStudy, {"retentions": (1.0, 1.5)}, r"in \[0, 1\]"),
            (PeeringReductionStudy, {"retentions": (1.0, NAN)}, r"in \[0, 1\]"),
            (PopRoutingStudy, {"seed": -1}, "seed must be >= 0"),
        ],
    )
    def test_refuses_what_it_cannot_run(self, study, fields, message):
        with pytest.raises(MeasurementError, match=message):
            study(**fields)

    def test_numpy_integers_stored_as_int(self):
        study = CloudTiersStudy(
            seed=np.int64(3), days=np.int32(2), vps_per_day=np.uint16(9)
        )
        values = (study.seed, study.days, study.vps_per_day)
        assert values == (3, 2, 9)
        assert all(type(value) is int for value in values)


class TestReport:
    def test_render_covers_all_studies(self, pop_result, cdn_result, cloud_result):
        report = render_report([pop_result, cdn_result, cloud_result])
        assert "pop-routing" in report
        assert "anycast-cdn" in report
        assert "cloud-tiers" in report
        for verdict in pop_result.hypotheses:
            assert verdict.hypothesis in report

    def test_render_empty(self):
        report = render_report([])
        assert "reproduction report" in report
