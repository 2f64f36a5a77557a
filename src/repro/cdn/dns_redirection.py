"""LDNS-granularity DNS redirection (the Figure 4 scheme).

"The earlier study mapped each LDNS to either the best performing
unicast front-end or anycast, whichever earlier measurements predict is
better for clients of the LDNS" (Section 3.2.1).  The policy is trained
on the first part of the beacon campaign and evaluated side-by-side with
anycast on the rest.

Because the resolver — not the client — is the decision key, a resolver
shared by geographically scattered clients (a public resolver) gets one
prediction for all of them; that aggregation error is why redirection
loses to anycast almost as often as it wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.cdn.measurement import BeaconDataset

#: Sentinel choice meaning "leave the client on anycast".
ANYCAST = "anycast"


@dataclass(frozen=True)
class RedirectionPolicy:
    """A trained redirection map: per-LDNS, with optional ECS overrides.

    Attributes:
        choices: LDNS id -> front-end code, or :data:`ANYCAST`.
        margin_ms: How much better a unicast front-end's median had to be
            (vs anycast) before the trainer redirected; conservative
            margins avoid churning clients for noise.
        prefix_choices: Per-client-prefix decisions for clients behind
            ECS-capable resolvers (EDNS Client Subnet lets the
            authoritative see the client's subnet, lifting the per-LDNS
            granularity limit of Section 3.2.1).  Empty in the paper's
            setting — "adoption by ISPs is virtually non-existent".
    """

    choices: Mapping[str, str]
    margin_ms: float
    prefix_choices: Mapping[str, str] = field(default_factory=dict)

    def choice_for(self, ldns: Optional[str], pid: Optional[str] = None) -> str:
        """The decision for a client; unknown resolvers stay on anycast.

        ECS-trained per-prefix decisions take precedence when available.
        """
        if pid is not None and pid in self.prefix_choices:
            return self.prefix_choices[pid]
        if ldns is None:
            return ANYCAST
        return self.choices.get(ldns, ANYCAST)

    @property
    def frac_redirected(self) -> float:
        """Fraction of known resolvers redirected away from anycast."""
        if not self.choices:
            return 0.0
        redirected = sum(1 for c in self.choices.values() if c != ANYCAST)
        return redirected / len(self.choices)


def _aligned_training_rtts(
    dataset: BeaconDataset, sample_idx: np.ndarray
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Unicast training samples gathered onto a shared code axis.

    Returns ``(codes, col_of, aligned)`` where ``codes`` is the sorted
    global front-end code list, ``col_of[i, j]`` is prefix *i*'s
    ``unicast_rtt`` column for ``codes[j]`` (−1 when absent), and
    ``aligned[i, s, j]`` is the sampled training RTT — NaN where the
    prefix has no such column.  With all prefixes sharing one code axis,
    per-resolver pooling becomes a plain ``nanmedian`` over a block.
    """
    codes = sorted({c for per_prefix in dataset.fe_codes for c in per_prefix})
    code_col = {c: j for j, c in enumerate(codes)}
    n_p = len(dataset.prefixes)
    col_of = np.full((n_p, len(codes)), -1, dtype=np.intp)
    for i, per_prefix in enumerate(dataset.fe_codes):
        for col, code in enumerate(per_prefix):
            col_of[i, code_col[code]] = col
    safe = np.where(col_of >= 0, col_of, 0)
    aligned = dataset.unicast_rtt[
        np.arange(n_p)[:, None, None], sample_idx[None, :, None], safe[:, None, :]
    ]
    aligned[np.broadcast_to((col_of < 0)[:, None, :], aligned.shape)] = np.nan
    return codes, col_of, aligned


def _train_streaming(
    dataset: BeaconDataset,
    by_ldns: Dict[str, List[int]],
    sample_idx: np.ndarray,
    margin_ms: float,
    ecs_resolvers: Optional[AbstractSet[str]],
) -> RedirectionPolicy:
    """Streaming lane: per-resolver pooling through quantile sketches.

    Pools the same samples as the batch lane, but each pool is folded
    into a :class:`repro.stream.CentroidSketch` instead of a stored
    sample array — the shape a production trainer consuming a beacon
    stream would take.  The sparse training pools here are far below
    the centroid budget, so sketch medians equal exact medians to
    interpolation precision and the trained policies match the batch
    lane exactly (asserted by the lane-agreement tests).
    """
    # Imported lazily to keep repro.cdn importable while repro.stream
    # is still initializing (the facade imports edgefabric helpers).
    from repro.stream.sketch import CentroidSketch

    choices: Dict[str, str] = {}
    prefix_choices: Dict[str, str] = {}
    for ldns, members in by_ldns.items():
        pool = CentroidSketch()
        pool.update_batch(dataset.anycast_rtt[members][:, sample_idx].ravel())
        anycast_median = pool.quantile(0.5)
        fe_medians: Dict[str, float] = {}
        for code in dataset.fe_codes[members[0]]:
            sketch = CentroidSketch()
            for m in members:
                col = dataset.column_of(m, code)
                if col is None:
                    continue
                samples = dataset.unicast_rtt[m, sample_idx, col]
                samples = samples[~np.isnan(samples)]
                if samples.size:
                    sketch.update_batch(samples)
            if sketch.count:
                fe_medians[code] = float(sketch.quantile(0.5))
        if not fe_medians:
            choices[ldns] = ANYCAST
            continue
        best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
        if fe_medians[best_code] + margin_ms < anycast_median:
            choices[ldns] = best_code
        else:
            choices[ldns] = ANYCAST

    if ecs_resolvers:
        for ldns, members in by_ldns.items():
            if ldns not in ecs_resolvers:
                continue
            for m in members:
                pool = CentroidSketch()
                pool.update_batch(dataset.anycast_rtt[m, sample_idx])
                anycast_median = pool.quantile(0.5)
                fe_medians = {}
                for code in dataset.fe_codes[m]:
                    col = dataset.column_of(m, code)
                    if col is None:
                        continue
                    samples = dataset.unicast_rtt[m, sample_idx, col]
                    samples = samples[~np.isnan(samples)]
                    if samples.size:
                        sketch = CentroidSketch()
                        sketch.update_batch(samples)
                        fe_medians[code] = float(sketch.quantile(0.5))
                if not fe_medians:
                    continue
                best_code = min(fe_medians, key=lambda c: (fe_medians[c], c))
                if fe_medians[best_code] + margin_ms < anycast_median:
                    prefix_choices[dataset.prefixes[m].pid] = best_code
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


def train_redirection_policy(
    dataset: BeaconDataset,
    train_fraction: float = 0.5,
    margin_ms: float = 1.0,
    max_train_samples: int = 8,
    ecs_resolvers: Optional[AbstractSet[str]] = None,
    streaming: bool = False,
) -> RedirectionPolicy:
    """Train the per-LDNS policy on the first part of the campaign.

    Args:
        dataset: Beacon measurements (with LDNS assignments on prefixes).
        train_fraction: Leading fraction of each prefix's requests used
            for training; the remainder is the evaluation set.
        margin_ms: Required advantage of the best unicast median over the
            anycast median before redirecting.
        max_train_samples: Training measurements actually used per member
            prefix.  Production systems decide from sparse per-LDNS
            samples; small values reproduce the noisy borderline
            redirects that make the scheme lose to anycast for a slice
            of clients (Section 3.2.1).
        ecs_resolvers: Resolvers supporting EDNS Client Subnet: their
            clients get *per-prefix* decisions instead of pooled
            per-LDNS ones.  The paper's measured world has essentially
            none; passing the public-resolver ids answers "what would
            ECS adoption buy?" (Section 3.2.1's counterfactual).
        streaming: Pool each resolver's samples through
            :class:`repro.stream.CentroidSketch` quantile sketches
            instead of one aligned sample array.  Training pools are
            far below the centroid budget, so the trained policy
            matches the batch lane exactly.

    Raises:
        AnalysisError: if prefixes lack LDNS assignments.
    """
    if not 0.0 < train_fraction < 1.0:
        raise AnalysisError("train_fraction must be in (0, 1)")
    if max_train_samples < 1:
        raise AnalysisError("max_train_samples must be >= 1")
    n_train = max(1, int(dataset.n_requests * train_fraction))
    n_train_used = min(n_train, max_train_samples)
    by_ldns: Dict[str, List[int]] = {}
    for i, prefix in enumerate(dataset.prefixes):
        if prefix.ldns is None:
            raise AnalysisError(
                f"prefix {prefix.pid} has no LDNS; run assign_ldns first"
            )
        by_ldns.setdefault(prefix.ldns, []).append(i)

    # Spread the sparse sample budget across the training window so the
    # trainer still sees the diurnal cycle.
    sample_idx = np.unique(
        np.linspace(0, n_train - 1, n_train_used).round().astype(int)
    )
    if streaming:
        return _train_streaming(
            dataset, by_ldns, sample_idx, margin_ms, ecs_resolvers
        )
    choices: Dict[str, str] = {}
    prefix_choices: Dict[str, str] = {}
    codes, col_of, aligned = _aligned_training_rtts(dataset, sample_idx)
    any_train = dataset.anycast_rtt[:, sample_idx]
    with warnings.catch_warnings():
        # All-NaN columns (a front-end no member can reach) are
        # expected: such codes are skipped, not an anomaly.
        warnings.simplefilter("ignore", RuntimeWarning)
        for ldns, members in by_ldns.items():
            # Pooling all members' samples per code is one block
            # median.
            pooled = aligned[members].reshape(-1, len(codes))
            medians = np.nanmedian(pooled, axis=0)
            # Only the first member's code list counts (a deliberate
            # LDNS-granularity artefact).
            medians[col_of[members[0]] < 0] = np.nan
            anycast_median = float(np.median(any_train[members]))
            if np.isnan(medians).all():
                choices[ldns] = ANYCAST
                continue
            # `codes` is sorted, so nanargmin's first-minimum rule
            # breaks median ties toward the lowest code.
            best = int(np.nanargmin(medians))
            if float(medians[best]) + margin_ms < anycast_median:
                choices[ldns] = codes[best]
            else:
                choices[ldns] = ANYCAST
        if ecs_resolvers:
            for ldns, members in by_ldns.items():
                if ldns not in ecs_resolvers:
                    continue
                member_medians = np.nanmedian(aligned[members], axis=1)
                anycast_medians = np.median(any_train[members], axis=1)
                for row, m in enumerate(members):
                    medians = member_medians[row]
                    if np.isnan(medians).all():
                        continue
                    best = int(np.nanargmin(medians))
                    if float(medians[best]) + margin_ms < float(anycast_medians[row]):
                        prefix_choices[dataset.prefixes[m].pid] = codes[best]
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


def evaluation_slice(dataset: BeaconDataset, train_fraction: float = 0.5) -> slice:
    """The request slice held out from training."""
    if not 0.0 < train_fraction < 1.0:
        raise AnalysisError("train_fraction must be in (0, 1)")
    n_train = max(1, int(dataset.n_requests * train_fraction))
    if n_train >= dataset.n_requests:
        raise AnalysisError("no evaluation requests left")
    return slice(n_train, dataset.n_requests)
