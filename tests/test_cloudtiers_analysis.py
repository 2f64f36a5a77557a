"""Tests for the Figure 5 analyses, ingress distances, India, goodput."""

import math

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.geo import region_of_country
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    Tier,
    TierDataset,
    country_medians,
    goodput_comparison,
    india_case_study,
    ingress_distance_cdf,
    run_campaign,
)
from repro.cloudtiers.campaign import VpDayRecord


@pytest.fixture(scope="module")
def deployment(small_internet):
    return CloudDeployment(small_internet)


@pytest.fixture(scope="module")
def dataset(deployment):
    platform = SpeedcheckerPlatform(deployment, seed=4)
    return run_campaign(
        platform, CampaignConfig(days=4, vps_per_day=60, rounds_per_day=4, seed=4)
    )


class TestFig5:
    def test_country_values_finite(self, dataset):
        result = country_medians(dataset, min_vps=1)
        assert result.country_diff_ms
        for country, diff in result.country_diff_ms.items():
            assert np.isfinite(diff)
            region_of_country(country)  # every country maps to a region

    def test_min_vps_filter(self, dataset):
        loose = country_medians(dataset, min_vps=1)
        strict = country_medians(dataset, min_vps=3)
        assert set(strict.country_diff_ms) <= set(loose.country_diff_ms)

    def test_better_lists_consistent(self, dataset):
        result = country_medians(dataset, min_vps=1)
        for country in result.premium_better:
            assert result.country_diff_ms[country] > 10.0
        for country in result.standard_better:
            assert result.country_diff_ms[country] < -10.0

    def test_region_medians_cover_reported_countries(self, dataset):
        result = country_medians(dataset, min_vps=1)
        regions = {region_of_country(c) for c in result.country_diff_ms}
        assert set(result.region_medians) == regions


class TestIngress:
    def test_premium_much_nearer(self, dataset, deployment):
        result = ingress_distance_cdf(dataset, deployment)
        premium = result.frac_within_400km[Tier.PREMIUM]
        standard = result.frac_within_400km[Tier.STANDARD]
        # The paper's contrast (80% vs 10%); shape check only.
        assert premium > standard
        assert premium >= 3 * max(standard, 0.01)

    def test_distances_nonnegative(self, dataset, deployment):
        result = ingress_distance_cdf(dataset, deployment)
        for tier in Tier:
            assert (result.distances_km[tier] >= 0).all()


class TestIndia:
    def test_case_study_when_vps_exist(self, dataset, deployment):
        indian_eligible = [
            vp_id
            for vp_id in dataset.eligible
            if dataset.vps[vp_id].city.country == "IN"
        ]
        if not indian_eligible:
            with pytest.raises(AnalysisError):
                india_case_study(dataset, deployment)
            pytest.skip("no eligible Indian vantage points in the small world")
        result = india_case_study(dataset, deployment)
        assert result.n_vps == len(indian_eligible)
        # The WAN hauls east: Premium traceroutes cross the Pacific.
        assert result.frac_premium_via_pacific > 0.5
        # The public Internet goes west via a Tier-1.
        assert result.frac_standard_via_west > 0.5
        # And the Standard tier wins on latency.
        assert result.median_diff_ms < 0


class TestGoodput:
    def test_little_difference(self, dataset):
        """Section 4's footnote: 10 MB goodput is tier-insensitive."""
        result = goodput_comparison(dataset)
        assert 0.5 <= result.median_ratio <= 2.0
        for tier in result.median_goodput_mbps:
            assert result.median_goodput_mbps[tier] > 0

    def test_parameter_validation(self, dataset):
        with pytest.raises(AnalysisError):
            goodput_comparison(dataset, transfer_mb=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["transfer_mb", "initial_window_kb"])
    def test_bad_transfer_or_window_refused(self, dataset, field, value):
        """A NaN or infinite transfer gave NaN goodputs, and a zero or
        negative window never returned."""
        with pytest.raises(AnalysisError, match=f"{field} must be finite"):
            goodput_comparison(dataset, **{field: value})

    def test_infinite_standard_median_rejected(self, dataset):
        """A Standard median of +inf gave goodput 0.0, and the tier
        ratio then divided by it."""
        vp_id = sorted(dataset.vps)[0]
        record = VpDayRecord(
            vp_id=vp_id,
            day=0,
            median_ms={Tier.PREMIUM: 50.0, Tier.STANDARD: math.inf},
        )
        one = TierDataset(
            vps=dataset.vps, records=[record], traceroutes={}, eligible={vp_id}
        )
        with pytest.raises(AnalysisError, match="rtt must be finite"):
            goodput_comparison(one)

    def test_smaller_transfers_more_sensitive(self, dataset):
        """Short transfers are dominated by slow start, so the RTT gap
        matters more: the ratio drifts further from 1."""
        small = goodput_comparison(dataset, transfer_mb=0.1)
        large = goodput_comparison(dataset, transfer_mb=50.0)
        assert abs(np.log(large.median_ratio)) <= abs(np.log(small.median_ratio)) + 0.05
