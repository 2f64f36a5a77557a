"""Propagation sweep study: many origins over one shared topology.

The policy-variant experiments (Latency-Aware Inter-domain Routing,
BGP-Multipath) re-run propagation for many origins over a single fixed
topology.  As campaign work, the expensive input is the adjacency —
identical for every job — so this study is the canonical consumer of
the runner's zero-copy plane: the orchestrator exports the graph's CSR
arrays once via ``CampaignRunner(shared_inputs=...)`` and each worker
maps them by name instead of unpickling a topology per job.

The study runs the array-level propagation core
(:func:`~repro.bgp.propagation.propagate_state`) directly on the
shared arrays — no ``ASGraph`` object is ever rebuilt in the worker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional

import numpy as np

from repro.errors import RunnerError
from repro.obs.trace import span
from repro.topology import TopologyConfig, build_internet
from repro.topology.asgraph import CsrAdjacency
from repro.bgp.propagation import propagate_state


def propagation_shared_inputs(graph) -> Mapping[str, np.ndarray]:
    """The shared-input dict for a campaign over *graph*.

    Pass the result as ``CampaignRunner(shared_inputs=...)``; workers
    receive the same four arrays as the study's ``shared`` kwarg.
    """
    return dict(graph.csr().arrays())


@dataclass
class PropagationSweepStudy:
    """Propagate from a seeded sample of origins; summarize reachability.

    Args:
        seed: Selects the origin sample (and, without shared arrays,
            the fallback topology).
        n_origins: How many origins to propagate from.
        topology: Topology to build when no shared arrays are provided
            (inline runs and tests); defaults to a small instance.
        shared: CSR arrays (``asns``/``indptr``/``neighbors``/``rel``)
            mapped from shared memory by the runner.  When present, no
            topology is built at all.
    """

    #: Simulated measurement platform (circuit-breaker grouping key).
    platform: ClassVar[str] = "bgp"

    seed: int = 0
    n_origins: int = 8
    topology: Optional[TopologyConfig] = None
    shared: Optional[Mapping[str, np.ndarray]] = None

    def run(self) -> "StudyResult":
        """Propagate from each sampled origin over the shared arrays."""
        # Deferred: repro.core.study reaches repro.edgefabric.routes via
        # repro.core.schemes, and edgefabric.routes imports repro.bgp —
        # a module-level import here would close that cycle.
        from repro.core.study import StudyResult

        with span("study.bgp_sweep", seed=self.seed, n_origins=self.n_origins):
            if self.shared is not None:
                csr = CsrAdjacency.from_arrays(self.shared)
            else:
                topology = self.topology or TopologyConfig(seed=self.seed)
                if isinstance(topology, Mapping):
                    # Job specs carry JSON documents, not dataclasses.
                    topology = TopologyConfig(**topology)
                internet = build_internet(topology)
                csr = internet.graph.csr()
            n = len(csr)
            if self.n_origins < 1:
                raise RunnerError(
                    f"n_origins must be >= 1, got {self.n_origins}"
                )
            rng = np.random.default_rng(self.seed)
            origins = rng.choice(n, size=min(self.n_origins, n), replace=False)
            reachable = []
            path_lengths = []
            for origin_index in sorted(int(o) for o in origins):
                _, _, adv = propagate_state(csr, origin_index)
                held = adv >= 0
                reachable.append(int(held.sum()))
                if held.any():
                    path_lengths.append(float(adv[held].mean()))
            summary = {
                "n_nodes": float(n),
                "n_origins": float(len(reachable)),
                "mean_reachable": float(np.mean(reachable)),
                "min_reachable": float(np.min(reachable)),
                "mean_adv_length": float(np.mean(path_lengths)),
            }
            return StudyResult(name="propagation_sweep", summary=summary)
