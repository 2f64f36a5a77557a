"""The mergeable streaming quantile sketch (pure numpy).

:class:`CentroidSketch` is a compact t-digest-style centroid sketch:
sorted ``(mean, weight)`` arrays compressed by an arcsine scale
function, so resolution concentrates at the tails.  ``update_batch`` is
fully vectorized and ``merge`` is a centroid union.  It is the one
estimator behind windowed session ingest and telemetry histograms.

It is deterministic: no randomness, no wall clock, and a canonical
JSON serialization (sorted keys, compact separators) whose
JSON → sketch → JSON round trip is byte-identical — the property that
makes shard merges and checkpoint resumes comparable by ``==`` on the
serialized form.

Accuracy contracts (pinned by ``tests/test_stream_properties.py``):
with at most ``max_centroids`` distinct samples the sketch is exact up
to one interpolation ulp; beyond that its median sits within
``RANK_TOLERANCE`` of the exact median in rank space (see
``docs/streaming.md``).
"""

from __future__ import annotations

import json
import math
from typing import Dict, Sequence, Union

import numpy as np

from repro.errors import StreamError, require_int

#: Anything ``np.asarray`` folds into a 1-D float batch.
ArrayLike = Union[Sequence[float], np.ndarray]

#: Rank-space error bound of ``CentroidSketch.quantile(0.5)`` against
#: the exact median, as a fraction of the sample count (documented and
#: property-tested; one-shot compression error is ~1/max_centroids per
#: compression, accumulated over batched refills).
RANK_TOLERANCE = 0.10


class CentroidSketch:
    """t-digest-style centroid sketch: bounded memory, vectorized, mergeable.

    Holds at most ``max_centroids`` weighted centroids, sorted by mean.
    Compression buckets centroids by the arcsine scale function
    ``k(q) = (asin(2q - 1)/π + ½) · max_centroids``, which keeps
    buckets small near the tails where quantile error hurts most.

    While total weight stays at or below ``max_centroids`` every sample
    is its own centroid, so quantiles are exact up to one interpolation
    ulp — which covers a 15-minute window of sampled sessions at the
    paper's rates.
    """

    kind = "centroid"

    def __init__(self, max_centroids: int = 64) -> None:
        max_centroids = require_int(max_centroids, "max_centroids", StreamError)
        if max_centroids < 8:
            raise StreamError(
                f"max_centroids must be >= 8, got {max_centroids}"
            )
        self.max_centroids = max_centroids
        self.count = 0
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._min = math.inf
        self._max = -math.inf

    @property
    def n_centroids(self) -> int:
        return int(self._means.size)

    def update(self, value: float) -> None:
        self.update_batch(np.asarray([value], dtype=np.float64))

    def update_batch(self, values: ArrayLike) -> None:
        """Fold a batch: append as unit-weight centroids, sort, compress."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        if not np.all(np.isfinite(arr)):
            raise StreamError("sketch samples must be finite")
        self.count += int(arr.size)
        self._min = min(self._min, float(arr.min()))
        self._max = max(self._max, float(arr.max()))
        means = np.concatenate([self._means, arr])
        weights = np.concatenate(
            [self._weights, np.ones(arr.size, dtype=np.float64)]
        )
        order = np.argsort(means, kind="stable")
        self._means = means[order]
        self._weights = weights[order]
        self._compress()

    def _compress(self) -> None:
        if self._means.size <= self.max_centroids:
            return
        w = self._weights
        m = self._means
        total = w.sum()
        q = (np.cumsum(w) - 0.5 * w) / total
        k = (np.arcsin(2.0 * q - 1.0) / np.pi + 0.5) * self.max_centroids
        bucket = np.minimum(
            np.floor(k).astype(np.intp), self.max_centroids - 1
        )
        new_w = np.bincount(bucket, weights=w)
        new_sum = np.bincount(bucket, weights=w * m)
        keep = new_w > 0
        self._weights = new_w[keep]
        self._means = new_sum[keep] / new_w[keep]

    def quantile(self, q: float) -> float:
        """Piecewise-linear quantile over cumulative centroid midpoints.

        Raises:
            StreamError: On an empty sketch or ``q`` outside [0, 1].
        """
        if not 0.0 <= q <= 1.0:
            raise StreamError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise StreamError("cannot query an empty sketch")
        if self._means.size == 1:
            return float(self._means[0])
        total = self._weights.sum()
        mid = (np.cumsum(self._weights) - 0.5 * self._weights) / total
        xs = np.concatenate([[0.0], mid, [1.0]])
        ys = np.concatenate([[self._min], self._means, [self._max]])
        return float(np.interp(q, xs, ys))

    def merge(self, other: "CentroidSketch") -> "CentroidSketch":
        """Fold another centroid sketch into this one.

        A centroid union followed by one deterministic compression;
        ``other`` is read, never mutated.  Deterministic for a fixed
        merge order (shard merges fold in sorted-key order).  Returns
        ``self``.
        """
        if not isinstance(other, CentroidSketch):
            raise StreamError(
                f"cannot merge {type(other).__name__} into CentroidSketch"
            )
        if other.max_centroids != self.max_centroids:
            raise StreamError(
                "cannot merge centroid sketches with different "
                f"max_centroids ({other.max_centroids} vs {self.max_centroids})"
            )
        if other.count == 0:
            return self
        self.count += other.count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        means = np.concatenate([self._means, other._means])
        weights = np.concatenate([self._weights, other._weights])
        order = np.argsort(means, kind="stable")
        self._means = means[order]
        self._weights = weights[order]
        self._compress()
        return self

    def to_dict(self) -> Dict:
        """Plain-JSON state; ``from_dict`` restores it exactly.

        ``min``/``max`` become ``None`` on an empty sketch so the JSON
        stays strict (no ``Infinity`` literals).
        """
        empty = self.count == 0
        return {
            "kind": self.kind,
            "max_centroids": self.max_centroids,
            "count": self.count,
            "min": None if empty else self._min,
            "max": None if empty else self._max,
            "means": [float(v) for v in self._means],
            "weights": [float(v) for v in self._weights],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CentroidSketch":
        """Restore :meth:`to_dict` state, refusing state no sketch holds.

        Means are not checked for order or against ``[min, max]``:
        compression can round a bucket mean by one ulp.
        """
        try:
            sketch = cls(max_centroids=data["max_centroids"])
            count = require_int(data["count"], "sketch count", StreamError)
            means = np.asarray(data["means"], dtype=np.float64)
            weights = np.asarray(data["weights"], dtype=np.float64)
            lo, hi = (
                None if data[key] is None else float(data[key])
                for key in ("min", "max")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise StreamError(f"malformed centroid sketch state: {exc}") from exc
        if means.ndim != 1 or means.shape != weights.shape:
            problem = "means and weights must be 1-D arrays of one length"
        elif means.size > sketch.max_centroids:
            problem = f"{means.size} centroids exceed max_centroids"
        elif not (np.isfinite(means).all() and (weights > 0).all()):
            problem = "means must be finite and weights > 0"
        elif count < 0 or weights.sum() != count:  # an infinite weight too
            problem = f"count {count} is not the weight total {weights.sum()}"
        elif count == 0 and (lo is not None or hi is not None):
            problem = "an empty sketch has min and max None"
        elif count and not (
            lo is not None and hi is not None and -math.inf < lo <= hi < math.inf
        ):
            problem = f"a non-empty sketch needs finite min <= max, got {lo}, {hi}"
        else:
            sketch.count = count
            sketch._means = means
            sketch._weights = weights
            sketch._min = math.inf if lo is None else lo
            sketch._max = -math.inf if hi is None else hi
            return sketch
        raise StreamError(f"inconsistent centroid sketch state: {problem}")

    def to_json(self) -> str:
        return _dump_canonical(self.to_dict())


def sketch_from_dict(data: Dict) -> CentroidSketch:
    """Rebuild a centroid sketch from its ``to_dict`` form.

    Raises:
        StreamError: On state that is not an object, names another
            sketch kind, or is malformed.
    """
    if not isinstance(data, dict):
        raise StreamError(f"sketch state must be an object, got {type(data)}")
    kind = data.get("kind")
    if kind != CentroidSketch.kind:
        raise StreamError(
            f"unknown sketch kind {kind!r}; expected {CentroidSketch.kind!r}"
        )
    return CentroidSketch.from_dict(data)


def _dump_canonical(data: Dict) -> str:
    """The canonical JSON form: sorted keys, compact, strict floats.

    Python's float repr round-trips exactly, so
    JSON → ``from_dict`` → ``to_json`` is byte-identical — the
    determinism contract shard merges and checkpoints rely on.
    """
    return json.dumps(
        data, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
