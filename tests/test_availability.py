"""Tests for failure injection and the Section 4 availability analyses."""

import pytest

from repro.errors import AnalysisError, TopologyError
from repro.topology import build_internet
from repro.workloads import assign_ldns, generate_client_prefixes
from repro.availability import (
    anycast_vs_dns_failover,
    fail_pop_site,
    peering_failure_study,
)
from repro.cdn import CdnDeployment
from repro.cdn.dns_redirection import RedirectionPolicy


@pytest.fixture(scope="module")
def factory(small_config):
    def build():
        return build_internet(small_config)

    return build


@pytest.fixture(scope="module")
def prefixes(small_internet):
    prefixes = generate_client_prefixes(small_internet, 60, seed=17)
    prefixes, _ = assign_ldns(prefixes, small_internet, seed=17)
    return prefixes


class TestFailureInjection:
    def test_fail_pop_site_removes_interconnects(self, factory):
        internet = factory()
        pop = internet.wan.pops[0]
        survivors = fail_pop_site(internet, pop.code)
        assert pop.city not in survivors
        for neighbor in internet.graph.neighbors(internet.provider_asn):
            link = internet.graph.link(internet.provider_asn, neighbor)
            assert pop.city not in link.cities

    def test_fail_unknown_pop(self, factory):
        with pytest.raises(TopologyError):
            fail_pop_site(factory(), "zzz")

    def test_preserves_capacity_and_kind(self, factory):
        internet = factory()
        pop = internet.wan.pops[0]
        before = {
            n: internet.graph.link(internet.provider_asn, n)
            for n in internet.graph.neighbors(internet.provider_asn)
        }
        fail_pop_site(internet, pop.code)
        for neighbor in internet.graph.neighbors(internet.provider_asn):
            link = internet.graph.link(internet.provider_asn, neighbor)
            old = before[neighbor]
            assert link.capacity_gbps == old.capacity_gbps
            assert link.kind == old.kind


class TestFailover:
    @pytest.fixture(scope="class")
    def busiest_pop(self, factory, prefixes):
        from collections import Counter

        deployment = CdnDeployment(factory())
        catchments = Counter(
            deployment.catchment(p).code for p in prefixes
        )
        return catchments.most_common(1)[0][0]

    def test_anycast_reconverges(self, factory, prefixes, busiest_pop):
        result = anycast_vs_dns_failover(factory, prefixes, busiest_pop)
        # The failed site served real traffic, all of it reconverged.
        assert result.frac_traffic_shifted > 0.0
        assert result.frac_traffic_unreachable == 0.0
        # Failover costs latency but is bounded (a nearby site takes over).
        assert 0.0 <= result.median_added_latency_ms < 150.0

    def test_dns_pinned_clients_stranded(self, factory, prefixes, busiest_pop):
        pinned = RedirectionPolicy(
            choices={p.ldns: busiest_pop for p in prefixes},
            margin_ms=1.0,
        )
        result = anycast_vs_dns_failover(
            factory, prefixes, busiest_pop, policy=pinned, ttl_s=60.0
        )
        # Everyone was pinned to the failed site.
        assert result.dns_frac_stranded == pytest.approx(1.0)
        assert result.dns_outage_user_seconds == pytest.approx(60.0)

    def test_no_policy_no_stranding(self, factory, prefixes, busiest_pop):
        result = anycast_vs_dns_failover(factory, prefixes, busiest_pop)
        assert result.dns_frac_stranded == 0.0

    def test_validation(self, factory, prefixes):
        with pytest.raises(AnalysisError):
            anycast_vs_dns_failover(factory, [], "iad")
        with pytest.raises(AnalysisError):
            anycast_vs_dns_failover(factory, prefixes, "iad", ttl_s=0.0)


class TestPeeringRisk:
    def test_risk_profile(self, small_internet, prefixes):
        result = peering_failure_study(small_internet, prefixes)
        assert result.risks
        shares = [r.traffic_share for r in result.risks]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) <= 1.0 + 1e-9
        assert result.top_share == shares[0]
        assert 0.0 <= result.single_interconnect_share <= 1.0

    def test_interconnect_counts_positive(self, small_internet, prefixes):
        result = peering_failure_study(small_internet, prefixes)
        assert all(r.n_interconnects >= 1 for r in result.risks)
        assert result.median_interconnects_small >= 1.0
        assert result.median_interconnects_large >= 1.0

    def test_requires_prefixes(self, small_internet):
        with pytest.raises(AnalysisError):
            peering_failure_study(small_internet, [])
