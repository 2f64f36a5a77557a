"""Peering-footprint reduction study (open question of Section 3.1.3).

The paper asks: "If less preferred paths often perform as well as more
preferred ones, a content provider may be able to drastically reduce its
number of peers without impacting latency. ... A study in emulation
would need to properly account for the reduced peering capacity and
accompanying increased likelihood of congestion as the number of route
options is reduced."

This module is that emulation.  For each retention level we keep only
the largest fraction of the provider's peer links (de-peering the small
peers first — the ones the paper calls operational headaches), re-run
route selection, shift the de-peered traffic onto the remaining links,
and model queueing delay as a function of per-link utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, MeasurementError
from repro.analysis import weighted_cdf
from repro.netmodel.queueing import queueing_delay_ms
from repro.bgp import RouteClass
from repro.topology import Internet, Relationship
from repro.workloads import ClientPrefix
from repro.edgefabric.routes import (
    egress_routes_at_pop,
    serving_pop,
    tables_for_destinations,
)


@dataclass(frozen=True)
class RetentionPoint:
    """Outcome at one peer-retention level.

    Attributes:
        retention: Fraction of provider peer links kept (1.0 = all).
        n_peer_links: Peer links remaining.
        median_rtt_ms: Traffic-weighted median RTT.
        p95_rtt_ms: Traffic-weighted 95th-percentile RTT.
        frac_traffic_on_transit: Traffic served via transit routes.
        frac_traffic_degraded_5ms: Traffic whose RTT rose by >= 5 ms
            versus full peering.
        max_link_utilization: Highest utilization across egress links.
        frac_links_saturated: Egress links above 85% utilization.
    """

    retention: float
    n_peer_links: int
    median_rtt_ms: float
    p95_rtt_ms: float
    frac_traffic_on_transit: float
    frac_traffic_degraded_5ms: float
    max_link_utilization: float
    frac_links_saturated: float


@dataclass(frozen=True)
class PeeringStudyResult:
    """Sweep results, one point per retention level (descending)."""

    points: Tuple[RetentionPoint, ...]

    def degradation_at(self, retention: float) -> float:
        """Median RTT increase (ms) at a retention level vs full peering."""
        full = self.points[0]
        for point in self.points:
            if abs(point.retention - retention) < 1e-9:
                return point.median_rtt_ms - full.median_rtt_ms
        raise AnalysisError(f"no sweep point at retention {retention}")


def peering_reduction_study(
    internet_factory,
    prefixes: Sequence[ClientPrefix],
    retentions: Sequence[float] = (1.0, 0.75, 0.5, 0.25, 0.1, 0.0),
    total_traffic_gbps: float = 4000.0,
    last_mile_ms: float = 6.0,
) -> PeeringStudyResult:
    """Sweep peer retention and measure latency/capacity impact.

    Args:
        internet_factory: Zero-argument callable returning a *fresh*
            :class:`Internet` (the sweep mutates each instance's graph).
        prefixes: Client population (weights should sum to ~1).
        retentions: Retention levels, must start at 1.0.
        total_traffic_gbps: Aggregate provider egress traffic, which
            prefix weights apportion; sets absolute link utilizations.
        last_mile_ms: Constant access RTT added to every path.

    Returns:
        One :class:`RetentionPoint` per level.
    """
    if not prefixes:
        raise MeasurementError("no client prefixes")
    retentions = list(retentions)
    if not retentions or abs(retentions[0] - 1.0) > 1e-9:
        raise AnalysisError("retention sweep must start at 1.0")

    baseline_rtt: Optional[np.ndarray] = None
    # Providers grow *peering* capacity to measured demand: the baseline
    # (full peering) pass provisions every peer link to at most 60%
    # utilization, and the sweep holds those capacities fixed while
    # de-peering shifts the load.  Transit links keep their configured
    # capacity — the de-peering scenario asks what happens if you drop
    # peers *without* first upgrading transit, which is exactly the
    # congestion risk the paper flags.
    provisioned: Dict[str, float] = {}
    provisioning_done = False
    points: List[RetentionPoint] = []
    for retention in retentions:
        internet = internet_factory()
        _depeer(internet, retention)
        n_peer_links = sum(
            1
            for link in internet.graph.links()
            if link.relationship is Relationship.PEER
            and internet.provider_asn in (link.a, link.b)
        )
        tables = tables_for_destinations(internet, [p.asn for p in prefixes])

        rtts = np.full(len(prefixes), np.nan)
        weights = np.array([p.weight for p in prefixes])
        on_transit = np.zeros(len(prefixes), dtype=bool)
        link_load: Dict[str, float] = {}
        link_capacity: Dict[str, float] = {}
        link_is_peer: Dict[str, bool] = {}
        chosen: List[Optional[Tuple[str, float]]] = []
        for idx, prefix in enumerate(prefixes):
            pop = serving_pop(internet, prefix)
            routes = egress_routes_at_pop(
                internet, tables[prefix.asn], pop, prefix, k=1
            )
            if not routes:
                chosen.append(None)
                continue
            route = routes[0]
            on_transit[idx] = route.route_class is RouteClass.TRANSIT
            base_rtt = 2.0 * route.base_one_way_ms + last_mile_ms
            load = prefix.weight * total_traffic_gbps
            # Capacity accounting is per *adjacency* (the link's
            # capacity_gbps is the aggregate across its interconnect
            # cities), so the key drops the city that route.link_key
            # carries for the congestion model.
            neighbor_link = internet.graph.link(
                internet.provider_asn, route.neighbor
            )
            key = f"adj:{neighbor_link.a}-{neighbor_link.b}"
            link_load[key] = link_load.get(key, 0.0) + load
            link_capacity[key] = neighbor_link.capacity_gbps
            link_is_peer[key] = (
                neighbor_link.relationship is Relationship.PEER
            )
            chosen.append((key, base_rtt))
        if not provisioning_done:
            # Baseline pass: provision peer links to demand.
            for key, load in link_load.items():
                if link_is_peer[key]:
                    provisioned[key] = max(link_capacity[key], load / 0.6)
            provisioning_done = True
        capacity = {
            key: provisioned.get(key, link_capacity[key]) for key in link_load
        }
        # Second pass: utilization-dependent queueing delay per link.
        utilization = {
            key: link_load[key] / capacity[key] for key in link_load
        }
        for idx, pick in enumerate(chosen):
            if pick is None:
                continue
            key, base_rtt = pick
            rtts[idx] = base_rtt + queueing_delay_ms(utilization[key])
        served = ~np.isnan(rtts)
        if not served.any():
            raise AnalysisError(
                f"no prefix is routable at retention {retention}"
            )
        if baseline_rtt is None:
            baseline_rtt = rtts.copy()
        both = served & ~np.isnan(baseline_rtt)
        degraded = (rtts - baseline_rtt)[both] >= 5.0
        w_both = weights[both]
        u_values = np.array(sorted(utilization.values())) if utilization else np.array([0.0])
        rtt_cdf = weighted_cdf(rtts[served], weights[served])
        points.append(
            RetentionPoint(
                retention=retention,
                n_peer_links=n_peer_links,
                median_rtt_ms=rtt_cdf.quantile(0.5),
                p95_rtt_ms=rtt_cdf.quantile(0.95),
                frac_traffic_on_transit=float(
                    weights[served & on_transit].sum() / weights[served].sum()
                ),
                frac_traffic_degraded_5ms=float(
                    w_both[degraded].sum() / w_both.sum()
                ),
                max_link_utilization=float(u_values.max()),
                frac_links_saturated=float((u_values > 0.85).mean()),
            )
        )
    return PeeringStudyResult(points=tuple(points))


def _depeer(internet: Internet, retention: float) -> None:
    """Remove the provider's smallest peer links down to ``retention``."""
    if not 0.0 <= retention <= 1.0:
        raise AnalysisError(f"retention out of [0, 1]: {retention}")
    provider = internet.provider_asn
    peer_links = [
        link
        for link in internet.graph.links()
        if link.relationship is Relationship.PEER
        and provider in (link.a, link.b)
    ]
    keep = int(round(retention * len(peer_links)))
    # De-peer smallest capacity first (the paper's "small peers cause
    # outsized headaches" candidates); deterministic tie-break by ASN.
    by_size = sorted(peer_links, key=lambda l: (l.capacity_gbps, l.a, l.b))
    for link in by_size[: len(peer_links) - keep]:
        internet.graph.remove_link(link.a, link.b)
