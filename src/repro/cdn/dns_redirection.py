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

from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import nanmedian
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


def train_redirection_policy(
    dataset: BeaconDataset,
    train_fraction: float = 0.5,
    margin_ms: float = 1.0,
    max_train_samples: int = 8,
    ecs_resolvers: Optional[AbstractSet[str]] = None,
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
    codes, col_of, aligned = _aligned_training_rtts(dataset, sample_idx)
    if not codes:  # no prefix, or no front-end to redirect to
        return RedirectionPolicy(
            choices=dict.fromkeys(by_ldns, ANYCAST), margin_ms=margin_ms
        )
    any_train = dataset.anycast_rtt[:, sample_idx]
    # Each resolver's training samples pooled over its members: one row
    # per (member, sample), NaN-padded to the largest pool, with anycast
    # in the last column.  One median per (resolver, column) follows.
    groups = list(by_ldns.values())
    samples = np.concatenate([aligned, any_train[:, :, None]], axis=2)
    pooled = samples.shape[1] * np.array([len(members) for members in groups])
    pool = np.full((len(groups), pooled.max(), samples.shape[2]), np.nan)
    for r, members in enumerate(groups):
        pool[r, : pooled[r]] = samples[members].reshape(pooled[r], -1)
    medians = nanmedian(pool, axis=1)
    # np.median, unlike nanmedian, is NaN when any anycast sample is.
    anycast_median = np.where(
        np.count_nonzero(~np.isnan(pool[:, :, -1]), axis=1) < pooled,
        np.nan,
        medians[:, -1],
    )
    medians = medians[:, :-1]
    # Only the first member's code list counts (a deliberate
    # LDNS-granularity artefact).
    medians[col_of[[members[0] for members in groups]] < 0] = np.nan
    best, redirect = _best_codes(medians, anycast_median, margin_ms)
    choices = {
        ldns: codes[b] if r else ANYCAST
        for ldns, b, r in zip(by_ldns, best, redirect)
    }
    prefix_choices: Dict[str, str] = {}
    ecs = [
        m
        for ldns, members in by_ldns.items()
        if ecs_resolvers and ldns in ecs_resolvers
        for m in members
    ]
    if ecs:
        best, redirect = _best_codes(
            nanmedian(aligned[ecs], axis=1),
            np.median(any_train[ecs], axis=1),
            margin_ms,
        )
        for m, b, r in zip(ecs, best, redirect):
            if r:
                prefix_choices[dataset.prefixes[m].pid] = codes[b]
    return RedirectionPolicy(
        choices=choices, margin_ms=margin_ms, prefix_choices=prefix_choices
    )


def _best_codes(
    medians: np.ndarray, anycast_median: np.ndarray, margin_ms: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the column of the lowest median and whether it beats
    anycast by the margin.

    As in ``nanargmin``, a NaN reads as +inf and the first minimum wins,
    so, with columns in sorted code order, ties break toward the lowest
    code.  A row of NaNs never redirects.
    """
    missing = np.isnan(medians)
    best = np.argmin(np.where(missing, np.inf, medians), axis=1)
    lowest = medians[np.arange(len(medians)), best]
    return best, ~missing.all(axis=1) & (lowest + margin_ms < anycast_median)


def evaluation_slice(dataset: BeaconDataset, train_fraction: float = 0.5) -> slice:
    """The request slice held out from training."""
    if not 0.0 < train_fraction < 1.0:
        raise AnalysisError("train_fraction must be in (0, 1)")
    n_train = max(1, int(dataset.n_requests * train_fraction))
    if n_train >= dataset.n_requests:
        raise AnalysisError("no evaluation requests left")
    return slice(n_train, dataset.n_requests)
