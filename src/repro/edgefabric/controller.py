"""Route-selection strategies evaluated over an egress dataset.

Three strategies matter for the paper's comparison:

* **BGP policy** — always the most-preferred route (rank 0).  This is
  what the provider does absent a performance-aware controller.
* **Omniscient controller** — per window, the route with the best
  instantaneous median; the upper bound any performance-aware system
  (Edge Fabric and kin) could achieve.
* **Static best** — the single route with the best whole-campaign
  median, held fixed; distinguishes persistent route-quality gaps from
  transient opportunities (Section 3.1.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError
from repro.analysis import nanmedian
from repro.edgefabric.dataset import EgressDataset


def bgp_policy_choice(dataset: EgressDataset) -> np.ndarray:
    """Route index chosen by BGP policy: always 0, shape (pairs, windows)."""
    return np.zeros((dataset.n_pairs, dataset.n_windows), dtype=int)


def omniscient_choice(dataset: EgressDataset) -> np.ndarray:
    """Per-window argmin of route medians, shape (pairs, windows)."""
    with np.errstate(invalid="ignore"):
        return np.nanargmin(dataset.medians, axis=2)


def static_best_choice(dataset: EgressDataset) -> np.ndarray:
    """The single best route per pair over the whole campaign, repeated."""
    overall = nanmedian(dataset.medians, axis=1)  # (pairs, k)
    best = np.nanargmin(overall, axis=1)  # (pairs,)
    return np.repeat(best[:, None], dataset.n_windows, axis=1)


def achieved_medians(dataset: EgressDataset, choice: np.ndarray) -> np.ndarray:
    """Median MinRTT actually experienced under a choice matrix.

    Args:
        dataset: The measurements.
        choice: Route index per (pair, window), as returned by one of the
            strategy functions.

    Returns:
        Shape ``(n_pairs, n_windows)`` of medians.
    """
    if choice.shape != (dataset.n_pairs, dataset.n_windows):
        raise AnalysisError(
            f"choice shape {choice.shape} != "
            f"{(dataset.n_pairs, dataset.n_windows)}"
        )
    rows = np.arange(dataset.n_pairs)[:, None]
    cols = np.arange(dataset.n_windows)[None, :]
    return dataset.medians[rows, cols, choice]
