"""Failure-impact analyses: failover, peer-link risk, route recovery."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, RoutingError
from repro.bgp import Grooming, ScenarioResult
from repro.topology.asgraph import ASGraph
from repro.topology import Internet, PeeringKind, Relationship
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment
from repro.cdn.dns_redirection import RedirectionPolicy
from repro.availability.failures import fail_pop_site


@dataclass(frozen=True)
class FailoverResult:
    """Outcome of failing one front-end site (Section 4).

    Attributes:
        failed_pop: The site taken offline.
        frac_traffic_shifted: Traffic whose anycast catchment was the
            failed site (it reconverges elsewhere automatically).
        frac_traffic_unreachable: Traffic with no route after failure
            (should be ~0 — that is anycast's resilience).
        median_added_latency_ms: Median added propagation RTT for the
            shifted traffic once reconverged.
        p95_added_latency_ms: Tail added latency for shifted traffic.
        dns_frac_stranded: Traffic that a DNS-redirection policy had
            pinned to the failed site's unicast address; those clients
            are down until their resolver's TTL expires.
        dns_outage_user_seconds: Stranded traffic fraction times the
            TTL — the "user-seconds of outage per unit traffic" that
            anycast avoids.
        ttl_s: The resolver TTL assumed.
    """

    failed_pop: str
    frac_traffic_shifted: float
    frac_traffic_unreachable: float
    median_added_latency_ms: float
    p95_added_latency_ms: float
    dns_frac_stranded: float
    dns_outage_user_seconds: float
    ttl_s: float


def anycast_vs_dns_failover(
    internet_factory: Callable[[], Internet],
    prefixes: Sequence[ClientPrefix],
    pop_code: str,
    policy: Optional[RedirectionPolicy] = None,
    ttl_s: float = 60.0,
) -> FailoverResult:
    """Fail a front-end site; compare anycast and DNS-pinned clients.

    Args:
        internet_factory: Builds a fresh Internet (mutated by injection).
        prefixes: Client population (weights used throughout).
        pop_code: The site to fail.
        policy: Optional trained redirection policy; clients it pinned
            to the failed site are stranded for ``ttl_s``.
        ttl_s: Resolver TTL for the stranded clients.
    """
    if not prefixes:
        raise AnalysisError("no client prefixes")
    if ttl_s <= 0:
        raise AnalysisError("ttl must be positive")

    before_net = internet_factory()
    before = CdnDeployment(before_net)
    weights = np.array([p.weight for p in prefixes])
    catchments_before: List[Optional[str]] = []
    rtt_before = np.full(len(prefixes), np.nan)
    for i, prefix in enumerate(prefixes):
        try:
            path = before.anycast_path(prefix)
        except RoutingError:
            catchments_before.append(None)
            continue
        catchments_before.append(
            before.internet.wan.nearest_pop(path.ingress_city.location).code
        )
        rtt_before[i] = 2.0 * path.one_way_ms

    after_net = internet_factory()
    survivors = fail_pop_site(after_net, pop_code)
    grooming = Grooming.ungroomed([p.city for p in after_net.wan.pops])
    failed_city = after_net.wan.pop(pop_code).city
    grooming.withdraw_city(failed_city)
    after = CdnDeployment(after_net, grooming=grooming)
    assert survivors == after.anycast_table.origin_cities

    shifted = np.zeros(len(prefixes), dtype=bool)
    unreachable = np.zeros(len(prefixes), dtype=bool)
    added = np.full(len(prefixes), np.nan)
    for i, prefix in enumerate(prefixes):
        if catchments_before[i] != pop_code:
            continue
        shifted[i] = True
        try:
            path = after.anycast_path(prefix)
        except RoutingError:
            unreachable[i] = True
            continue
        added[i] = 2.0 * path.one_way_ms - rtt_before[i]

    total = weights.sum()
    shifted_w = weights[shifted].sum()
    stranded = np.zeros(len(prefixes), dtype=bool)
    if policy is not None:
        for i, prefix in enumerate(prefixes):
            if policy.choice_for(prefix.ldns) == pop_code:
                stranded[i] = True
    stranded_frac = float(weights[stranded].sum() / total)
    valid_added = added[~np.isnan(added)]
    return FailoverResult(
        failed_pop=pop_code,
        frac_traffic_shifted=float(shifted_w / total),
        frac_traffic_unreachable=float(weights[unreachable].sum() / total),
        median_added_latency_ms=(
            float(np.median(valid_added)) if valid_added.size else 0.0
        ),
        p95_added_latency_ms=(
            float(np.quantile(valid_added, 0.95)) if valid_added.size else 0.0
        ),
        dns_frac_stranded=stranded_frac,
        dns_outage_user_seconds=stranded_frac * ttl_s,
        ttl_s=ttl_s,
    )


@dataclass(frozen=True)
class PeerRisk:
    """Traffic exposure of one provider peer link.

    Attributes:
        neighbor_asn: The peer.
        kind: Private (PNI) or public exchange peering.
        n_interconnects: Cities the adjacency spans (redundancy).
        traffic_share: Fraction of traffic whose *preferred* egress
            crosses this adjacency.
        capacity_gbps: Provisioned capacity.
    """

    neighbor_asn: int
    kind: PeeringKind
    n_interconnects: int
    traffic_share: float
    capacity_gbps: float


@dataclass(frozen=True)
class PeeringRiskResult:
    """Section 4's peer-failure risk profile.

    Attributes:
        risks: Per peer link, descending traffic share.
        top_share: Largest single-adjacency traffic share.
        single_interconnect_share: Traffic whose preferred egress rides
            an adjacency with exactly one interconnect city — the
            "outsized impact" exposure.
        median_interconnects_small: Median interconnect count among the
            smaller half of peers by capacity.
        median_interconnects_large: Same for the larger half.
    """

    risks: Tuple[PeerRisk, ...]
    top_share: float
    single_interconnect_share: float
    median_interconnects_small: float
    median_interconnects_large: float


def peering_failure_study(
    internet: Internet, prefixes: Sequence[ClientPrefix]
) -> PeeringRiskResult:
    """Quantify per-peer-link traffic exposure and redundancy."""
    from repro.edgefabric.routes import (
        egress_routes_at_pop,
        serving_pop,
        tables_for_destinations,
    )

    if not prefixes:
        raise AnalysisError("no client prefixes")
    provider = internet.provider_asn
    tables = tables_for_destinations(internet, [p.asn for p in prefixes])
    share: Dict[int, float] = {}
    total = 0.0
    for prefix in prefixes:
        pop = serving_pop(internet, prefix)
        routes = egress_routes_at_pop(internet, tables[prefix.asn], pop, prefix, k=1)
        if not routes:
            continue
        total += prefix.weight
        route = routes[0]
        link = internet.graph.link(provider, route.neighbor)
        if link.relationship is Relationship.PEER:
            share[route.neighbor] = share.get(route.neighbor, 0.0) + prefix.weight
    if total <= 0:
        raise AnalysisError("no prefix is routable")

    risks: List[PeerRisk] = []
    for neighbor in internet.graph.peers(provider):
        link = internet.graph.link(provider, neighbor)
        risks.append(
            PeerRisk(
                neighbor_asn=neighbor,
                kind=link.kind,
                n_interconnects=len(link.cities),
                traffic_share=share.get(neighbor, 0.0) / total,
                capacity_gbps=link.capacity_gbps,
            )
        )
    risks.sort(key=lambda r: (-r.traffic_share, r.neighbor_asn))
    if not risks:
        raise AnalysisError("provider has no peer links")

    single = sum(r.traffic_share for r in risks if r.n_interconnects == 1)
    by_capacity = sorted(risks, key=lambda r: r.capacity_gbps)
    half = len(by_capacity) // 2 or 1
    small = [r.n_interconnects for r in by_capacity[:half]]
    large = [r.n_interconnects for r in by_capacity[half:]] or small
    return PeeringRiskResult(
        risks=tuple(risks),
        top_share=risks[0].traffic_share,
        single_interconnect_share=single,
        median_interconnects_small=float(np.median(small)),
        median_interconnects_large=float(np.median(large)),
    )


@dataclass(frozen=True)
class RecoveryResult:
    """Time-to-recover profile of one routing scenario.

    Computed from a :class:`~repro.bgp.ScenarioResult` timeline: an AS
    is "out" for a prefix while its best route is withdrawn, from the
    ``best_change`` that dropped it to the one that restored it (or the
    end of the run, for ASes that never recover).

    Attributes:
        scenario: The scenario's registry name.
        affected_ases: ASes that lost a route at any point.
        unrecovered_ases: ASes still without a route at the end.
        fully_recovered: Everything that went dark came back.
        max_outage_s: Longest single-AS outage.
        mean_outage_s: Mean outage across affected ASes.
        outage_user_seconds: User-weighted outage time per unit user
            base — the event-driven analogue of
            :attr:`FailoverResult.dns_outage_user_seconds`.
        time_to_recover_s: The scenario's recovery-phase convergence
            time (falls back to time-to-reconverge for scenarios with
            no recovery phase).
    """

    scenario: str
    affected_ases: int
    unrecovered_ases: int
    fully_recovered: bool
    max_outage_s: float
    mean_outage_s: float
    outage_user_seconds: float
    time_to_recover_s: float


def scenario_recovery(result: ScenarioResult, graph: ASGraph) -> RecoveryResult:
    """Integrate per-AS route loss over a scenario timeline.

    Args:
        result: A scenario outcome (e.g. from
            :func:`repro.bgp.run_scenario`).
        graph: The graph the scenario ran on, for user weights.
    """
    if not result.timeline:
        raise AnalysisError("scenario result has an empty timeline")
    total_weight = sum(a.user_weight for a in graph.ases())
    started: Dict[Tuple[int, str], float] = {}
    outage_s: Dict[int, float] = {}
    user_seconds = 0.0
    for entry in result.timeline:
        if entry["kind"] != "best_change":
            continue
        pair = (entry["asn"], entry["prefix"])
        if entry["origin"] is None:
            started.setdefault(pair, entry["t"])
        elif pair in started:
            duration = entry["t"] - started.pop(pair)
            outage_s[pair[0]] = outage_s.get(pair[0], 0.0) + duration
            if total_weight > 0:
                weight = graph.get(pair[0]).user_weight / total_weight
                user_seconds += weight * duration
    unrecovered = sorted({asn for asn, _ in started})
    for (asn, _), t0 in started.items():
        duration = result.end_s - t0
        outage_s[asn] = outage_s.get(asn, 0.0) + duration
        if total_weight > 0:
            user_seconds += graph.get(asn).user_weight / total_weight * duration
    durations = list(outage_s.values())
    return RecoveryResult(
        scenario=result.name,
        affected_ases=len(outage_s),
        unrecovered_ases=len(unrecovered),
        fully_recovered=not unrecovered,
        max_outage_s=max(durations) if durations else 0.0,
        mean_outage_s=float(np.mean(durations)) if durations else 0.0,
        outage_user_seconds=user_seconds,
        time_to_recover_s=result.metrics.get(
            "time_to_recover_s", result.time_to_reconverge_s
        ),
    )
