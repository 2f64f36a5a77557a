"""One `Study` per setting, behind a common run() -> StudyResult API.

A study owns everything from topology generation to figure-level
analysis; examples and benchmarks call these rather than wiring the
pipelines by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.errors import AnalysisError, MeasurementError, require_int
from repro.obs.trace import span
from repro.topology import TopologyConfig, build_internet
from repro.workloads import assign_ldns, generate_client_prefixes
from repro.core.configs import cdn_topology, cloud_topology, edgefabric_topology
from repro.core.hypotheses import (
    HypothesisVerdict,
    evaluate_degrade_together,
    evaluate_direct_peering,
    evaluate_short_paths,
    evaluate_single_wan,
)
from repro.core.schemes import compare_schemes


def _require_counts(study: Any, counts: Tuple[str, ...]) -> None:
    """Refuse a seed that is not an integer >= 0, or a count that is not
    an integer >= 1.

    Checked at construction, as :class:`~repro.cloudtiers.CampaignConfig`
    checks its fields, so a campaign refuses the study before any job
    runs.  The checked fields are stored as plain ``int``.
    """
    study.seed = require_int(study.seed, "seed", MeasurementError)
    if study.seed < 0:
        raise MeasurementError(f"seed must be >= 0, got {study.seed}")
    for name in counts:
        value = require_int(getattr(study, name), name, MeasurementError)
        if value < 1:
            raise MeasurementError(f"{name} must be >= 1, got {value}")
        setattr(study, name, value)


def _require_days(days: float) -> None:
    """Refuse a campaign length that is not finite and > 0."""
    if not (math.isfinite(days) and days > 0):
        raise MeasurementError(f"days must be finite and > 0, got {days}")


@dataclass
class StudyResult:
    """Outcome of one study run.

    Attributes:
        name: The study identifier.
        summary: Headline statistics, flat and printable.
        figures: Figure-level result objects keyed by figure id
            (e.g. ``"fig1"``), for callers that want the full series.
        hypotheses: Hypothesis verdicts evaluated from this study's data.
        artifacts: Plain-JSON payloads keyed by artifact id (e.g. an
            ingest-snapshot dict).  Unlike ``figures`` — arbitrary
            Python objects dropped at the cache boundary — artifacts
            survive result caching and campaign checkpoints verbatim,
            so cross-shard merges behave identically on fresh, cached,
            and resumed runs.
    """

    name: str
    summary: Dict[str, float]
    figures: Dict[str, object] = field(default_factory=dict)
    hypotheses: List[HypothesisVerdict] = field(default_factory=list)
    artifacts: Dict[str, object] = field(default_factory=dict)


@dataclass
class PopRoutingStudy:
    """Setting A: performance-aware egress routing at PoPs (Figs 1-2).

    Args:
        seed: Master seed for topology, workload, and measurement.
        n_prefixes: Client prefix population size.
        days: Measurement campaign length.
        topology: Optional topology override (defaults to the Facebook-
            style canonical config).
    """

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "edgefabric"

    seed: int = 0
    n_prefixes: int = 300
    days: float = 10.0
    topology: Optional[TopologyConfig] = None

    def __post_init__(self) -> None:
        _require_counts(self, ("n_prefixes",))
        _require_days(self.days)

    def run(self) -> StudyResult:
        """Run the full pipeline and analyses."""
        from repro.edgefabric import (
            MeasurementConfig,
            bgp_vs_best_alternate,
            persistence_decomposition,
            route_class_comparison,
            run_measurement,
        )

        with span("study.pop.topology", seed=self.seed):
            internet = build_internet(
                self.topology or edgefabric_topology(self.seed)
            )
        with span("study.pop.workload"):
            prefixes = generate_client_prefixes(
                internet, self.n_prefixes, seed=self.seed + 1
            )
        with span("study.pop.measurement"):
            dataset = run_measurement(
                internet,
                prefixes,
                MeasurementConfig(days=self.days, seed=self.seed + 2),
            )
        with span("study.pop.analysis"):
            fig1 = bgp_vs_best_alternate(dataset)
            fig2 = route_class_comparison(dataset)
            persistence = persistence_decomposition(dataset)
            schemes = compare_schemes(dataset)
        hypotheses = [
            evaluate_degrade_together(persistence),
            evaluate_direct_peering(fig2),
        ]
        summary = {
            "n_pairs": float(dataset.n_pairs),
            "n_windows": float(dataset.n_windows),
            "frac_alternate_better_5ms": fig1.frac_alternate_better_5ms,
            "frac_bgp_within_1ms": fig1.frac_bgp_within_1ms,
            "diff_p50_ms": fig1.cdf.median,
            "diff_p98_ms": fig1.cdf.quantile(0.98),
            "peer_vs_transit_median_ms": fig2.peer_vs_transit.median,
            "frac_transit_within_5ms": fig2.frac_transit_within_5ms,
            "omniscient_gain_ms": schemes["omniscient"][
                "improvement_over_bgp_ms"
            ],
        }
        return StudyResult(
            name="pop-routing",
            summary=summary,
            figures={
                "fig1": fig1,
                "fig2": fig2,
                "persistence": persistence,
                "schemes": schemes,
                "dataset": dataset,
            },
            hypotheses=hypotheses,
        )


@dataclass
class AnycastCdnStudy:
    """Setting B: anycast vs DNS redirection (Figs 3-4)."""

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "cdn"

    seed: int = 0
    n_prefixes: int = 300
    days: float = 6.0
    requests_per_prefix: int = 80
    public_ldns_fraction: float = 0.25
    topology: Optional[TopologyConfig] = None

    def __post_init__(self) -> None:
        _require_counts(self, ("n_prefixes", "requests_per_prefix"))
        _require_days(self.days)
        if not 0.0 <= self.public_ldns_fraction <= 1.0:
            raise MeasurementError(
                "public_ldns_fraction must be in [0, 1], "
                f"got {self.public_ldns_fraction}"
            )

    def run(self) -> StudyResult:
        """Run the full pipeline and analyses."""
        from repro.cdn import (
            BeaconConfig,
            CdnDeployment,
            anycast_vs_best_unicast,
            redirection_improvement,
            run_beacon_campaign,
            train_redirection_policy,
        )

        with span("study.cdn.topology", seed=self.seed):
            internet = build_internet(self.topology or cdn_topology(self.seed))
        with span("study.cdn.workload"):
            prefixes = generate_client_prefixes(
                internet, self.n_prefixes, seed=self.seed + 1
            )
            prefixes, _resolvers = assign_ldns(
                prefixes,
                internet,
                seed=self.seed + 2,
                public_fraction=self.public_ldns_fraction,
            )
        with span("study.cdn.measurement"):
            deployment = CdnDeployment(internet)
            dataset = run_beacon_campaign(
                deployment,
                prefixes,
                BeaconConfig(
                    days=self.days,
                    requests_per_prefix=self.requests_per_prefix,
                    seed=self.seed + 3,
                ),
            )
        with span("study.cdn.analysis"):
            fig3 = anycast_vs_best_unicast(dataset)
            policy = train_redirection_policy(
                dataset, margin_ms=0.5, max_train_samples=4
            )
            fig4 = redirection_improvement(dataset, policy)
        hypotheses = [evaluate_short_paths(fig3)]
        summary = {
            "n_prefixes": float(dataset.n_prefixes),
            "frac_within_10ms_world": fig3.frac_within_10ms.get("world", float("nan")),
            "frac_beyond_100ms_world": fig3.frac_beyond_100ms.get("world", float("nan")),
            "frac_improved": fig4.frac_improved,
            "frac_hurt": fig4.frac_hurt,
            "frac_redirected": fig4.frac_redirected,
        }
        return StudyResult(
            name="anycast-cdn",
            summary=summary,
            figures={
                "fig3": fig3,
                "fig4": fig4,
                "policy": policy,
                "dataset": dataset,
            },
            hypotheses=hypotheses,
        )


@dataclass
class PeeringReductionStudy:
    """Section 3.1.3: de-peering emulation in the common study shape.

    Wraps :func:`~repro.edgefabric.peering_study.peering_reduction_study`
    behind ``run() -> StudyResult`` so campaigns can cache and schedule
    it like the three settings.  Per-retention metrics are flattened
    into summary keys (``retention_050_median_rtt_ms`` is the median
    RTT with 50% of peers kept); the full sweep object rides along in
    ``figures["points"]`` on fresh runs.

    Args:
        seed: Master seed for topology and workload.
        n_prefixes: Client prefix population size.
        retentions: Peer-retention levels to sweep; must start at 1.0.
        topology: Optional topology override.
    """

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "edgefabric"

    seed: int = 0
    n_prefixes: int = 150
    retentions: Tuple[float, ...] = (1.0, 0.75, 0.5, 0.25, 0.1, 0.0)
    topology: Optional[TopologyConfig] = None

    def __post_init__(self) -> None:
        _require_counts(self, ("n_prefixes",))
        # The sweep's own rules, checked before a campaign dispatches it.
        if not self.retentions or abs(self.retentions[0] - 1.0) > 1e-9:
            raise MeasurementError(
                f"retentions must start at 1.0, got {tuple(self.retentions)}"
            )
        for retention in self.retentions:
            if not 0.0 <= retention <= 1.0:
                raise MeasurementError(
                    f"each retention must be in [0, 1], got {retention}"
                )

    def run(self) -> StudyResult:
        """Run the retention sweep and flatten it into a summary."""
        from repro.edgefabric import peering_reduction_study

        config = self.topology or edgefabric_topology(self.seed)

        def factory():
            return build_internet(config)

        with span("study.peering.workload", seed=self.seed):
            prefixes = generate_client_prefixes(
                factory(), self.n_prefixes, seed=self.seed + 1
            )
        with span("study.peering.sweep"):
            result = peering_reduction_study(
                factory, prefixes, retentions=self.retentions
            )
        summary: Dict[str, float] = {"n_retentions": float(len(result.points))}
        for point in result.points:
            prefix = f"retention_{int(round(point.retention * 100)):03d}"
            summary[f"{prefix}_median_rtt_ms"] = point.median_rtt_ms
            summary[f"{prefix}_p95_rtt_ms"] = point.p95_rtt_ms
            summary[f"{prefix}_frac_on_transit"] = point.frac_traffic_on_transit
            summary[f"{prefix}_max_link_utilization"] = point.max_link_utilization
        return StudyResult(
            name="peering-reduction",
            summary=summary,
            figures={"points": result},
            hypotheses=[],
        )


@dataclass
class CloudTiersStudy:
    """Setting C: private WAN vs public Internet (Fig 5)."""

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "cloudtiers"

    seed: int = 0
    days: int = 10
    vps_per_day: int = 120
    topology: Optional[TopologyConfig] = None

    def __post_init__(self) -> None:
        _require_counts(self, ("days", "vps_per_day"))

    def run(self) -> StudyResult:
        """Run the full pipeline and analyses."""
        from repro.cloudtiers import (
            CampaignConfig,
            CloudDeployment,
            SpeedcheckerPlatform,
            Tier,
            country_medians,
            goodput_comparison,
            india_case_study,
            ingress_distance_cdf,
            run_campaign,
        )

        with span("study.cloud.topology", seed=self.seed):
            internet = build_internet(self.topology or cloud_topology(self.seed))
        with span("study.cloud.measurement"):
            deployment = CloudDeployment(internet)
            platform = SpeedcheckerPlatform(deployment, seed=self.seed + 1)
            dataset = run_campaign(
                platform,
                CampaignConfig(
                    days=self.days,
                    vps_per_day=self.vps_per_day,
                    seed=self.seed + 2,
                ),
            )
        with span("study.cloud.analysis"):
            fig5 = country_medians(dataset)
            ingress = ingress_distance_cdf(dataset, deployment)
            try:
                india = india_case_study(dataset, deployment)
            except AnalysisError:
                india = None
            goodput = goodput_comparison(dataset)
        hypotheses = []
        if india is not None:
            hypotheses.append(evaluate_single_wan(fig5, india))
        summary = {
            "n_countries": float(len(fig5.country_diff_ms)),
            "frac_countries_within_10ms": fig5.frac_within_10ms,
            "n_premium_better": float(len(fig5.premium_better)),
            "n_standard_better": float(len(fig5.standard_better)),
            "premium_ingress_within_400km": ingress.frac_within_400km[Tier.PREMIUM],
            "standard_ingress_within_400km": ingress.frac_within_400km[Tier.STANDARD],
            "goodput_ratio": goodput.median_ratio,
        }
        if india is not None:
            summary["india_median_diff_ms"] = india.median_diff_ms
        return StudyResult(
            name="cloud-tiers",
            summary=summary,
            figures={
                "fig5": fig5,
                "ingress": ingress,
                "india": india,
                "goodput": goodput,
                "dataset": dataset,
            },
            hypotheses=hypotheses,
        )
