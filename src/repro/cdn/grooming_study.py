"""Iterative anycast grooming study (open questions of Section 3.2.2).

The paper asks: "What is the performance of an ungroomed prefix versus
a groomed one? What are the best ways to detect routes where
opportunity for grooming exists?"

This module answers both in simulation with the simplest realistic
operator loop: repeatedly find the client population with the worst
catchment (largest anycast-minus-best-unicast gap, traffic-weighted),
identify the peer whose announcement attracts it, and stop announcing
to that peer (a no-announce community).  Prepending cannot fix these
cases — the peer route wins on local preference however long it looks —
so suppression is the tool, matching operator practice.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError, RoutingError
from repro.bgp import Grooming
from repro.topology import Internet, Relationship
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GroomingStep:
    """One grooming action and the state after applying it.

    Attributes:
        action: Human-readable description of the action taken.
        suppressed_asn: The neighbor the announcement was withheld from.
        frac_within_10ms: Traffic fraction within 10 ms of the best
            front-end after this step.
        median_gap_ms: Traffic-weighted median catchment gap after it.
        worst_gap_ms: Largest remaining per-prefix median gap.
    """

    action: str
    suppressed_asn: Optional[int]
    frac_within_10ms: float
    median_gap_ms: float
    worst_gap_ms: float


@dataclass(frozen=True)
class GroomingStudyResult:
    """Trajectory of iterative grooming, first entry = ungroomed."""

    steps: Tuple[GroomingStep, ...]

    @property
    def ungroomed(self) -> GroomingStep:
        return self.steps[0]

    @property
    def groomed(self) -> GroomingStep:
        return self.steps[-1]

    @property
    def improvement_within_10ms(self) -> float:
        """Gain in the within-10ms traffic fraction from grooming."""
        return self.groomed.frac_within_10ms - self.ungroomed.frac_within_10ms

    @property
    def suppressed_asns(self) -> Tuple[int, ...]:
        """The neighbors suppressed over the trajectory, in order."""
        return tuple(
            s.suppressed_asn for s in self.steps if s.suppressed_asn is not None
        )


def _catchment_gaps(
    deployment: CdnDeployment, prefixes: Sequence[ClientPrefix]
) -> np.ndarray:
    """Per-prefix propagation gap: anycast RTT − best front-end RTT."""
    gaps = np.zeros(len(prefixes))
    for i, prefix in enumerate(prefixes):
        try:
            anycast = 2.0 * deployment.anycast_path(prefix).one_way_ms
        except RoutingError:
            gaps[i] = np.nan
            continue
        best = np.inf
        for pop in deployment.nearby_front_ends(prefix, 4):
            path = deployment.unicast_path(prefix, pop.code)
            if path is not None:
                best = min(best, 2.0 * path.one_way_ms)
        gaps[i] = anycast - best if np.isfinite(best) else 0.0
    return gaps


def _summarize(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
    action: str,
    suppressed: Optional[int],
) -> GroomingStep:
    gaps = _catchment_gaps(deployment, prefixes)
    weights = np.array([p.weight for p in prefixes])
    valid = ~np.isnan(gaps)
    g = gaps[valid]
    w = weights[valid]
    order = np.argsort(g)
    cum = np.cumsum(w[order]) / w.sum()
    median_gap = float(g[order][np.searchsorted(cum, 0.5)])
    return GroomingStep(
        action=action,
        suppressed_asn=suppressed,
        frac_within_10ms=float(w[g <= 10.0].sum() / w.sum()),
        median_gap_ms=median_gap,
        worst_gap_ms=float(np.nanmax(g)) if g.size else 0.0,
    )


def groom_iteratively(
    internet: Internet,
    prefixes: Sequence[ClientPrefix],
    max_actions: int = 8,
    min_gap_ms: float = 25.0,
) -> GroomingStudyResult:
    """Groom the anycast prefix until no big catchment gap remains.

    Detection: the prefix with the largest traffic-weighted catchment
    gap.  Action: suppress the announcement to the *peer* its anycast
    path enters through (transit announcements are left alone — pulling
    those would break reachability for everyone behind them).

    Args:
        internet: The CDN's topology.
        prefixes: Client population to evaluate against.
        max_actions: Budget of grooming actions (operators iterate at
            human timescales; a handful of actions is realistic).
        min_gap_ms: Stop when the worst remaining gap is below this.

    Returns:
        The grooming trajectory, starting from the ungroomed state.
    """
    if not prefixes:
        raise AnalysisError("no client prefixes")
    if max_actions < 1:
        raise AnalysisError("max_actions must be >= 1")
    grooming = Grooming.ungroomed([p.city for p in internet.wan.pops])
    deployment = CdnDeployment(internet)
    steps: List[GroomingStep] = [
        _summarize(deployment, prefixes, "ungroomed", None)
    ]
    provider = internet.provider_asn
    already_suppressed: set = set()
    for _ in range(max_actions):
        gaps = _catchment_gaps(deployment, prefixes)
        weights = np.array([p.weight for p in prefixes])
        scores = np.where(np.isnan(gaps), -np.inf, gaps * weights)
        # Walk candidates worst-first until one is actionable: the entry
        # neighbor must be a peer (never pull announcements from a
        # transit — everyone behind it would lose the route) and not
        # already suppressed.
        target = None
        for worst in np.argsort(scores)[::-1]:
            worst = int(worst)
            if not np.isfinite(scores[worst]):
                break
            if gaps[worst] < min_gap_ms:
                continue  # fine as-is; a heavier-but-healthy prefix can
                # outscore a light pathological one, so keep walking.
            path = deployment.anycast_path(prefixes[worst])
            entry_neighbor = path.as_path[-2]
            if entry_neighbor in already_suppressed:
                continue
            link = internet.graph.link(provider, entry_neighbor)
            if link.relationship is Relationship.PEER:
                target = (worst, entry_neighbor)
                break
        if target is None:
            break
        worst, entry_neighbor = target
        already_suppressed.add(entry_neighbor)
        logger.info(
            "grooming: suppressing AS%d (attracted %s, gap %.0f ms)",
            entry_neighbor,
            prefixes[worst].pid,
            gaps[worst],
        )
        grooming.suppress_neighbor(entry_neighbor)
        deployment = CdnDeployment(internet, grooming=grooming)
        steps.append(
            _summarize(
                deployment,
                prefixes,
                f"suppress announcement to AS{entry_neighbor} "
                f"(was attracting {prefixes[worst].pid})",
                entry_neighbor,
            )
        )
    return GroomingStudyResult(steps=tuple(steps))


@dataclass(frozen=True)
class GroomingTransferResult:
    """Does grooming carry over to a new prefix? (Section 3.2.2)

    The actions learned on one client population are applied verbatim to
    a freshly announced prefix serving a *different* population, and
    compared against grooming that new population from scratch.

    Attributes:
        n_actions: Actions learned on the training population.
        train_improvement: Within-10ms gain on the training population.
        eval_ungroomed: New population's within-10ms fraction, ungroomed.
        eval_transferred: Same, under the transferred grooming.
        eval_own_groomed: Same, groomed from scratch for that population.
        transfer_efficiency: Fraction of the from-scratch gain that the
            transferred actions capture (0 = nothing carried over,
            1 = grooming transfers perfectly).
    """

    n_actions: int
    train_improvement: float
    eval_ungroomed: float
    eval_transferred: float
    eval_own_groomed: float

    @property
    def transfer_efficiency(self) -> float:
        own_gain = self.eval_own_groomed - self.eval_ungroomed
        transferred_gain = self.eval_transferred - self.eval_ungroomed
        if own_gain <= 1e-12:
            return 1.0 if transferred_gain >= -1e-12 else 0.0
        return max(0.0, min(1.0, transferred_gain / own_gain))


def grooming_transfer_study(
    internet: Internet,
    train_prefixes: Sequence[ClientPrefix],
    eval_prefixes: Sequence[ClientPrefix],
    max_actions: int = 25,
    min_gap_ms: float = 25.0,
) -> GroomingTransferResult:
    """Apply grooming learned on one population to a new prefix.

    "If an AS has groomed one prefix, does that carry over to newly
    announced prefixes and simplify the process of grooming them?"
    Per-neighbor suppressions are properties of the *topology* (which
    peer attracts traffic it serves badly), not of the prefix, so high
    transfer efficiency is the expected answer — and what this study
    measures.
    """
    if not train_prefixes or not eval_prefixes:
        raise AnalysisError("need both a training and an evaluation population")
    trained = groom_iteratively(
        internet, train_prefixes, max_actions=max_actions, min_gap_ms=min_gap_ms
    )
    grooming = Grooming.ungroomed([p.city for p in internet.wan.pops])
    for asn in trained.suppressed_asns:
        grooming.suppress_neighbor(asn)

    ungroomed_dep = CdnDeployment(internet)
    transferred_dep = CdnDeployment(internet, grooming=grooming)
    eval_ungroomed = _summarize(ungroomed_dep, eval_prefixes, "ungroomed", None)
    eval_transferred = _summarize(
        transferred_dep, eval_prefixes, "transferred", None
    )
    own = groom_iteratively(
        internet, eval_prefixes, max_actions=max_actions, min_gap_ms=min_gap_ms
    )
    return GroomingTransferResult(
        n_actions=len(trained.suppressed_asns),
        train_improvement=trained.improvement_within_10ms,
        eval_ungroomed=eval_ungroomed.frac_within_10ms,
        eval_transferred=eval_transferred.frac_within_10ms,
        eval_own_groomed=own.groomed.frac_within_10ms,
    )
