"""Routing schemes compared over an egress dataset.

A scheme maps a measured :class:`~repro.edgefabric.dataset.EgressDataset`
to a per-(pair, window) route choice; comparing achieved volume-weighted
latency across schemes is the paper's core question in Setting A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import weighted_cdf
from repro.edgefabric.controller import (
    achieved_medians,
    bgp_policy_choice,
    omniscient_choice,
    static_best_choice,
)
from repro.edgefabric.dataset import EgressDataset


@dataclass(frozen=True)
class RoutingScheme:
    """A named route-selection strategy.

    Attributes:
        name: Short identifier.
        description: One-line description for reports.
        chooser: Maps a dataset to a (pairs, windows) route-index matrix.
    """

    name: str
    description: str
    chooser: Callable[[EgressDataset], np.ndarray]

    def achieved(self, dataset: EgressDataset) -> np.ndarray:
        """Median MinRTT experienced under this scheme, (pairs, windows)."""
        return achieved_medians(dataset, self.chooser(dataset))


SCHEME_BGP = RoutingScheme(
    name="bgp-policy",
    description="BGP's most preferred route, always (the default).",
    chooser=bgp_policy_choice,
)

SCHEME_OMNISCIENT = RoutingScheme(
    name="omniscient",
    description=(
        "Per-window best route by instantaneous median — the upper bound "
        "of any performance-aware controller."
    ),
    chooser=omniscient_choice,
)

SCHEME_STATIC_BEST = RoutingScheme(
    name="static-best",
    description=(
        "The single route with the best whole-campaign median, held fixed "
        "— captures persistent gaps without dynamic control."
    ),
    chooser=static_best_choice,
)


def compare_schemes(
    dataset: EgressDataset,
    schemes: Sequence[RoutingScheme] = (
        SCHEME_BGP,
        SCHEME_STATIC_BEST,
        SCHEME_OMNISCIENT,
    ),
) -> Dict[str, Dict[str, float]]:
    """Volume-weighted latency summary per scheme.

    Returns:
        Per scheme name: ``median_ms``, ``p95_ms``, and
        ``improvement_over_bgp_ms`` (positive = faster than BGP at the
        weighted median).
    """
    if not schemes:
        raise AnalysisError("no schemes to compare")
    weights = dataset.volumes
    out: Dict[str, Dict[str, float]] = {}
    bgp_median = None
    for scheme in schemes:
        rtt = scheme.achieved(dataset)
        valid = ~np.isnan(rtt)
        if not valid.any():
            raise AnalysisError(f"scheme {scheme.name} produced no latencies")
        cdf = weighted_cdf(rtt[valid], weights[valid])
        median = cdf.quantile(0.5)
        if scheme.name == SCHEME_BGP.name:
            bgp_median = median
        out[scheme.name] = {"median_ms": median, "p95_ms": cdf.quantile(0.95)}
    if bgp_median is None:
        bgp = SCHEME_BGP.achieved(dataset)
        valid = ~np.isnan(bgp)
        bgp_median = weighted_cdf(bgp[valid], weights[valid]).quantile(0.5)
    for name, stats in out.items():
        stats["improvement_over_bgp_ms"] = bgp_median - stats["median_ms"]
    return out
