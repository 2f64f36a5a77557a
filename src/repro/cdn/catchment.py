"""Catchment analysis: the operator's view of an anycast deployment.

Answers the §3.2.2 planning questions at deployment level: which
front-ends attract which traffic, from how far, and how much of each
site's inflow would be better served elsewhere — the map an operator
reads before grooming or adding a site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import format_table
from repro.geo import great_circle_km_matrix
from repro.workloads import ClientPrefix
from repro.cdn.deployment import CdnDeployment


@dataclass(frozen=True)
class CatchmentEntry:
    """One front-end's catchment summary.

    Attributes:
        pop_code: The front-end.
        traffic_share: Fraction of total traffic it attracts.
        n_prefixes: Client prefixes in its catchment.
        median_client_km: Median client distance, traffic-weighted.
        p90_client_km: Tail client distance.
        frac_misdirected: Catchment traffic whose geographically nearest
            front-end is a *different* site.
    """

    pop_code: str
    traffic_share: float
    n_prefixes: int
    median_client_km: float
    p90_client_km: float
    frac_misdirected: float


@dataclass(frozen=True)
class CatchmentMap:
    """Full catchment breakdown of a deployment.

    Attributes:
        entries: Per front-end, descending traffic share; sites that
            attract nothing are omitted.
        frac_unreachable: Traffic with no route to the anycast prefix.
        global_median_km: Traffic-weighted median client distance.
        global_frac_misdirected: Traffic not landing at its nearest site.
    """

    entries: Tuple[CatchmentEntry, ...]
    frac_unreachable: float
    global_median_km: float
    global_frac_misdirected: float

    def entry(self, pop_code: str) -> CatchmentEntry:
        for candidate in self.entries:
            if candidate.pop_code == pop_code:
                return candidate
        raise AnalysisError(f"no catchment entry for {pop_code!r}")

    def render(self, top: int = 12) -> str:
        """Table of the busiest catchments."""
        rows = []
        for entry in self.entries[:top]:
            rows.append(
                [
                    entry.pop_code,
                    f"{entry.traffic_share:.1%}",
                    entry.n_prefixes,
                    entry.median_client_km,
                    entry.p90_client_km,
                    f"{entry.frac_misdirected:.0%}",
                ]
            )
        return format_table(
            [
                "front-end",
                "traffic",
                "prefixes",
                "median km",
                "p90 km",
                "misdirected",
            ],
            rows,
            float_fmt="{:.0f}",
        )


def _catchment_geometry(
    deployment: CdnDeployment, reached, catchments
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-prefix (km-to-catchment, misdirected), from two distance
    matrices.

    Front-ends are pre-sorted by code so ``argmin``'s first-minimum rule
    breaks exact distance ties (co-located sites produce bitwise-equal
    rows) toward the lowest code.
    """
    client_points = [p.city.location for p in reached]
    front_ends = sorted(deployment.front_ends, key=lambda p: p.code)
    fe_km = great_circle_km_matrix(
        client_points, [p.city.location for p in front_ends]
    )
    fe_codes = np.array([p.code for p in front_ends])
    nearest_codes = fe_codes[fe_km.argmin(axis=1)]
    catchment_codes = np.array([c.code for c in catchments])
    misdirected = nearest_codes != catchment_codes

    # Distances to each prefix's own catchment: a (clients × unique
    # catchment cities) matrix, gathered along each prefix's column.
    column_of: Dict[str, int] = {}
    catchment_points = []
    columns = np.empty(len(catchments), dtype=np.intp)
    for i, catchment in enumerate(catchments):
        j = column_of.get(catchment.code)
        if j is None:
            j = len(catchment_points)
            column_of[catchment.code] = j
            catchment_points.append(catchment.city.location)
        columns[i] = j
    catch_km = great_circle_km_matrix(client_points, catchment_points)
    kms = catch_km[np.arange(len(reached)), columns]
    return kms, misdirected


def catchment_map(
    deployment: CdnDeployment,
    prefixes: Sequence[ClientPrefix],
) -> CatchmentMap:
    """Compute the catchment breakdown for a client population.

    Args:
        deployment: The anycast deployment under study.
        prefixes: The client population.
    """
    if not prefixes:
        raise AnalysisError("no client prefixes")
    # Path resolution walks the routing graph per prefix; only the
    # geometry below is vectorized.
    unreachable = 0.0
    total = 0.0
    reached: List[ClientPrefix] = []
    catchments: List = []
    for prefix in prefixes:
        total += prefix.weight
        try:
            path = deployment.anycast_path(prefix)
        except Exception:
            unreachable += prefix.weight
            continue
        reached.append(prefix)
        catchments.append(
            deployment.internet.wan.nearest_pop(path.ingress_city.location)
        )
    if not reached:
        raise AnalysisError("no prefix can reach the anycast prefix")

    km_arr, misdirected_arr = _catchment_geometry(deployment, reached, catchments)

    per_pop: Dict[str, List[Tuple[float, float, bool]]] = {}
    all_km: List[float] = []
    all_weights: List[float] = []
    misdirected_weight = 0.0
    for i, (prefix, catchment) in enumerate(zip(reached, catchments)):
        km = float(km_arr[i])
        misdirected = bool(misdirected_arr[i])
        per_pop.setdefault(catchment.code, []).append(
            (prefix.weight, km, misdirected)
        )
        all_km.append(km)
        all_weights.append(prefix.weight)
        if misdirected:
            misdirected_weight += prefix.weight

    entries: List[CatchmentEntry] = []
    for pop_code, rows in per_pop.items():
        weights = np.array([r[0] for r in rows])
        kms = np.array([r[1] for r in rows])
        missed = np.array([r[2] for r in rows])
        order = np.argsort(kms)
        cum = np.cumsum(weights[order]) / weights.sum()
        entries.append(
            CatchmentEntry(
                pop_code=pop_code,
                traffic_share=float(weights.sum() / total),
                n_prefixes=len(rows),
                median_client_km=float(kms[order][np.searchsorted(cum, 0.5)]),
                p90_client_km=float(
                    kms[order][min(np.searchsorted(cum, 0.9), len(rows) - 1)]
                ),
                frac_misdirected=float(
                    weights[missed].sum() / weights.sum()
                ),
            )
        )
    entries.sort(key=lambda e: (-e.traffic_share, e.pop_code))
    weights_arr = np.array(all_weights)
    km_arr = np.array(all_km)
    order = np.argsort(km_arr)
    cum = np.cumsum(weights_arr[order]) / weights_arr.sum()
    return CatchmentMap(
        entries=tuple(entries),
        frac_unreachable=unreachable / total,
        global_median_km=float(km_arr[order][np.searchsorted(cum, 0.5)]),
        global_frac_misdirected=misdirected_weight / weights_arr.sum(),
    )
