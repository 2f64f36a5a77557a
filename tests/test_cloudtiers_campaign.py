"""Tests for the tier-comparison campaign driver."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.cloudtiers import (
    CampaignConfig,
    CloudDeployment,
    SpeedcheckerPlatform,
    Tier,
    run_campaign,
)


@pytest.fixture(scope="module")
def deployment(small_internet):
    return CloudDeployment(small_internet)


@pytest.fixture(scope="module")
def dataset(deployment):
    platform = SpeedcheckerPlatform(deployment, seed=4)
    return run_campaign(
        platform, CampaignConfig(days=3, vps_per_day=40, rounds_per_day=4, seed=4)
    )


class TestConfigValidation:
    def test_defaults(self):
        CampaignConfig()

    def test_positive_params(self):
        with pytest.raises(MeasurementError):
            CampaignConfig(days=0)
        with pytest.raises(MeasurementError):
            CampaignConfig(rounds_per_day=0)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda d: CampaignConfig(days=2.5), id="days-2.5"),
            pytest.param(lambda d: CampaignConfig(days=True), id="days-True"),
            pytest.param(
                lambda d: CampaignConfig(vps_per_day=float("nan")), id="vps-nan"
            ),
            pytest.param(lambda d: CampaignConfig(rounds_per_day=2.0), id="rounds-2.0"),
            pytest.param(lambda d: CampaignConfig(pings_per_round=5.0), id="pings-5.0"),
            pytest.param(lambda d: CampaignConfig(seed=1.5), id="seed-1.5"),
            pytest.param(lambda d: CampaignConfig(seed=-1), id="seed-negative"),
            pytest.param(
                lambda d: SpeedcheckerPlatform(d, credits=float("nan")),
                id="credits-nan",
            ),
            pytest.param(
                lambda d: SpeedcheckerPlatform(d, credits=100.0), id="credits-float"
            ),
            pytest.param(
                lambda d: SpeedcheckerPlatform(d, seed=False), id="seed-False"
            ),
            pytest.param(
                lambda d: SpeedcheckerPlatform(d, seed=-1), id="platform-seed-negative"
            ),
        ],
    )
    def test_non_integer_params_rejected(self, deployment, build):
        """Each of these was accepted, and failed later or never."""
        with pytest.raises(MeasurementError):
            build(deployment)

    def test_numpy_ints_stored_as_int(self, deployment):
        cfg = CampaignConfig(days=np.int64(2), seed=np.uint32(3))
        assert type(cfg.days) is int and type(cfg.seed) is int
        platform = SpeedcheckerPlatform(deployment, credits=np.int32(500))
        assert type(platform.credits) is int


class TestCampaign:
    def test_records_cover_both_tiers(self, dataset):
        for record in dataset.records:
            assert set(record.median_ms) == {Tier.PREMIUM, Tier.STANDARD}
            assert all(v > 0 for v in record.median_ms.values())

    def test_records_reference_known_vps(self, dataset):
        for record in dataset.records:
            assert record.vp_id in dataset.vps

    def test_traceroutes_collected_once_per_vp_tier(self, dataset):
        for (vp_id, tier), tr in dataset.traceroutes.items():
            assert tr.vp_id == vp_id
            assert tr.tier == tier

    def test_eligible_subset_of_vps(self, dataset):
        assert dataset.eligible <= set(dataset.vps)

    def test_eligibility_criterion(self, dataset, deployment):
        """Eligible = direct on Premium, indirect on Standard."""
        for vp_id in dataset.eligible:
            vp = dataset.vps[vp_id]
            assert deployment.enters_directly(Tier.PREMIUM, vp.asn) is True
            assert deployment.enters_directly(Tier.STANDARD, vp.asn) is False

    def test_eligible_records_filtered(self, dataset):
        eligible_records = dataset.eligible_records()
        assert all(r.vp_id in dataset.eligible for r in eligible_records)
        assert len(eligible_records) <= len(dataset.records)

    def test_panel_rotates_across_days(self, dataset):
        by_day = {}
        for record in dataset.records:
            by_day.setdefault(record.day, set()).add(record.vp_id)
        days = sorted(by_day)
        assert len(days) >= 2
        assert by_day[days[0]] != by_day[days[1]]

    def test_deterministic(self, deployment):
        cfg = CampaignConfig(days=1, vps_per_day=15, rounds_per_day=2, seed=8)
        a = run_campaign(SpeedcheckerPlatform(deployment, seed=8), cfg)
        b = run_campaign(SpeedcheckerPlatform(deployment, seed=8), cfg)
        assert [(r.vp_id, r.day, r.median_ms) for r in a.records] == [
            (r.vp_id, r.day, r.median_ms) for r in b.records
        ]
