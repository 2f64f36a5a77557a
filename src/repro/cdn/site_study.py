"""Anycast site-count study (open questions of Section 3.2.2).

"When designing or expanding a CDN, how should a provider decide where
to locate PoPs ...? How quickly does benefit diminish when adding PoPs?
As PoPs are added, the chance of anycast picking a suboptimal one
increases, but the number of reasonably performing ones increases. How
do those factors relate?"

The sweep rebuilds the CDN with a growing front-end footprint and
measures, per deployment size: client latency, how often anycast picks
a suboptimal site, and how much that suboptimality costs — the
tension the section describes, quantified.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, RoutingError
from repro.geo import great_circle_km
from repro.topology import TopologyConfig, build_internet
from repro.workloads import generate_client_prefixes
from repro.cdn.deployment import CdnDeployment


@dataclass(frozen=True)
class SitePoint:
    """Anycast performance at one deployment size.

    Attributes:
        n_sites: Front-end count.
        median_rtt_ms: Traffic-weighted median anycast propagation RTT.
        p90_rtt_ms: Tail anycast RTT.
        frac_suboptimal_catchment: Traffic whose catchment is not its
            geographically nearest front-end.
        median_gap_ms: Traffic-weighted median of (anycast − best
            unicast) propagation RTT — what suboptimality costs.
        p90_gap_ms: Tail of the same gap.
    """

    n_sites: int
    median_rtt_ms: float
    p90_rtt_ms: float
    frac_suboptimal_catchment: float
    median_gap_ms: float
    p90_gap_ms: float


@dataclass(frozen=True)
class SiteStudyResult:
    """One point per deployment size, ascending."""

    points: Tuple[SitePoint, ...]

    def marginal_benefit_ms(self) -> List[Tuple[int, int, float]]:
        """Median-RTT improvement per added site between sweep points."""
        out = []
        for a, b in zip(self.points[:-1], self.points[1:]):
            added = b.n_sites - a.n_sites
            out.append((a.n_sites, b.n_sites, (a.median_rtt_ms - b.median_rtt_ms) / max(1, added)))
        return out


def site_count_study(
    base_config: TopologyConfig,
    site_counts: Sequence[int] = (4, 8, 12, 20, 29),
    n_prefixes: int = 150,
    seed: int = 0,
    nearby_k: int = 4,
) -> SiteStudyResult:
    """Sweep the front-end count and measure anycast quality.

    The deployments are nested: a bigger deployment is always a superset
    of a smaller one (how providers actually expand).  Expansion follows
    a greedy coverage order — starting from the data-center site, each
    added site is the one farthest from everything already deployed — so
    small deployments are globally spread rather than clustered in the
    config's first-listed region.

    Args:
        base_config: Topology whose PoP list is truncated per point.
            The data-center PoP must appear early enough to survive the
            smallest truncation.
        site_counts: Deployment sizes, ascending.
        n_prefixes: Client population size per point.
        seed: Workload seed.
        nearby_k: Unicast candidates when computing the optimal RTT.
    """
    if not site_counts:
        raise AnalysisError("no site counts")
    counts = sorted(set(int(c) for c in site_counts))
    if counts[0] < 2:
        raise AnalysisError("need at least two sites")
    if counts[-1] > len(base_config.pop_cities):
        raise AnalysisError(
            f"largest sweep point {counts[-1]} exceeds the config's "
            f"{len(base_config.pop_cities)} PoPs"
        )
    ordered = _expansion_order(base_config)
    points: List[SitePoint] = []
    for count in counts:
        pops = tuple(ordered[:count])
        codes = [code for code, _ in pops]
        dc = base_config.dc_pop_code if base_config.dc_pop_code in codes else codes[0]
        config = dataclasses.replace(
            base_config, pop_cities=pops, wan_backbone=None, dc_pop_code=dc
        )
        internet = build_internet(config)
        deployment = CdnDeployment(internet)
        prefixes = generate_client_prefixes(internet, n_prefixes, seed=seed)
        weights = np.array([p.weight for p in prefixes])
        rtts = np.full(len(prefixes), np.nan)
        gaps = np.full(len(prefixes), np.nan)
        suboptimal = np.zeros(len(prefixes), dtype=bool)
        for i, prefix in enumerate(prefixes):
            try:
                path = deployment.anycast_path(prefix)
            except RoutingError:
                continue
            rtts[i] = 2.0 * path.one_way_ms
            catchment = internet.wan.nearest_pop(path.ingress_city.location)
            nearest = min(
                deployment.front_ends,
                key=lambda p: (
                    great_circle_km(prefix.city.location, p.city.location),
                    p.code,
                ),
            )
            suboptimal[i] = catchment.code != nearest.code
            best = np.inf
            for pop in deployment.nearby_front_ends(prefix, nearby_k):
                unicast = deployment.unicast_path(prefix, pop.code)
                if unicast is not None:
                    best = min(best, 2.0 * unicast.one_way_ms)
            gaps[i] = rtts[i] - best if np.isfinite(best) else 0.0
        valid = ~np.isnan(rtts)
        if not valid.any():
            raise AnalysisError(f"no client reaches the {count}-site CDN")
        w = weights[valid]
        points.append(
            SitePoint(
                n_sites=count,
                median_rtt_ms=_weighted_quantile(rtts[valid], w, 0.5),
                p90_rtt_ms=_weighted_quantile(rtts[valid], w, 0.9),
                frac_suboptimal_catchment=float(
                    weights[valid & suboptimal].sum() / w.sum()
                ),
                median_gap_ms=_weighted_quantile(gaps[valid], w, 0.5),
                p90_gap_ms=_weighted_quantile(gaps[valid], w, 0.9),
            )
        )
    return SiteStudyResult(points=tuple(points))


def _expansion_order(config: TopologyConfig) -> List[Tuple[str, str]]:
    """Greedy max-min-distance ordering of the config's PoPs.

    The data-center site comes first; each subsequent site maximizes its
    distance to the already-selected set (farthest-point coverage).
    """
    from repro.geo import city_named

    entries = list(config.pop_cities)
    cities = {code: city_named(name) for code, name in entries}
    remaining = {code for code, _ in entries}
    order = [config.dc_pop_code]
    remaining.discard(config.dc_pop_code)
    while remaining:
        best_code = max(
            sorted(remaining),
            key=lambda code: min(
                great_circle_km(cities[code].location, cities[chosen].location)
                for chosen in order
            ),
        )
        order.append(best_code)
        remaining.discard(best_code)
    by_code = {code: (code, name) for code, name in entries}
    return [by_code[code] for code in order]


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    cum = np.cumsum(weights[order]) / weights.sum()
    idx = int(np.searchsorted(cum, q))
    idx = min(idx, len(values) - 1)
    return float(values[order][idx])
