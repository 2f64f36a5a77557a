"""Unit tests for the mergeable quantile sketch.

The property suite (``test_stream_properties.py``) bounds accuracy over
generated inputs; these tests pin the deterministic surface — exact
small-sample paths, serialization byte-identity, merge semantics, and
the error taxonomy.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.errors import StreamError
from repro.stream import RANK_TOLERANCE, CentroidSketch, sketch_from_dict


class TestCentroidSketch:
    def test_exact_while_under_centroid_budget(self):
        """Every sample is its own centroid below the budget, so the
        median is exact up to one interpolation ulp."""
        values = np.arange(63, dtype=np.float64) * 1.75 + 3.0
        sketch = CentroidSketch(max_centroids=64)
        sketch.update_batch(values)
        assert sketch.n_centroids == values.size
        assert sketch.quantile(0.5) == pytest.approx(
            float(np.median(values)), rel=1e-12
        )

    def test_compression_bounds_memory(self):
        rng = np.random.default_rng(2)
        sketch = CentroidSketch(max_centroids=64)
        for _ in range(50):
            sketch.update_batch(rng.exponential(1.0, size=1_000))
        assert sketch.n_centroids <= 64
        assert sketch.count == 50_000

    def test_median_within_rank_tolerance(self):
        rng = np.random.default_rng(3)
        samples = rng.exponential(1.5, size=30_000)
        sketch = CentroidSketch()
        sketch.update_batch(samples)
        rank = float(np.mean(samples <= sketch.quantile(0.5)))
        assert abs(rank - 0.5) <= RANK_TOLERANCE

    def test_extremes_are_exact(self):
        rng = np.random.default_rng(4)
        samples = rng.normal(0.0, 5.0, size=10_000)
        sketch = CentroidSketch()
        sketch.update_batch(samples)
        assert sketch.quantile(0.0) == float(samples.min())
        assert sketch.quantile(1.0) == float(samples.max())

    def test_merge_matches_concat_statistics(self):
        rng = np.random.default_rng(5)
        a, b = rng.exponential(2.0, 5_000), rng.exponential(2.0, 5_000)
        left = CentroidSketch()
        left.update_batch(a)
        right = CentroidSketch()
        right.update_batch(b)
        left.merge(right)
        both = np.concatenate([a, b])
        assert left.count == both.size
        rank = float(np.mean(both <= left.quantile(0.5)))
        assert abs(rank - 0.5) <= RANK_TOLERANCE

    def test_merge_leaves_other_untouched(self):
        right = CentroidSketch()
        right.update_batch([1.0, 2.0, 3.0])
        before = right.to_json()
        left = CentroidSketch()
        left.update_batch([10.0])
        left.merge(right)
        assert right.to_json() == before

    def test_merge_rejects_mismatched_budget(self):
        with pytest.raises(StreamError, match="max_centroids"):
            CentroidSketch(max_centroids=32).merge(CentroidSketch(max_centroids=64))

    def test_empty_query_raises(self):
        with pytest.raises(StreamError, match="empty"):
            CentroidSketch().quantile(0.5)

    def test_budget_floor_enforced(self):
        with pytest.raises(StreamError, match="max_centroids"):
            CentroidSketch(max_centroids=4)

    @pytest.mark.parametrize("budget", [8.5, 64.0, True, "64"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(StreamError, match="max_centroids must be an integer"):
            CentroidSketch(max_centroids=budget)

    def test_numpy_integer_budget_stored_as_int(self):
        sketch = CentroidSketch(max_centroids=np.int64(32))
        assert type(sketch.max_centroids) is int
        assert sketch.to_dict()["max_centroids"] == 32


class TestSerialization:
    @pytest.mark.parametrize("kind", [CentroidSketch.kind])
    def test_json_roundtrip_is_byte_identical(self, kind):
        rng = np.random.default_rng(6)
        sketch = CentroidSketch()
        for _ in range(5):
            sketch.update_batch(rng.exponential(1.0, size=200))
        text = sketch.to_json()
        payload = json.loads(text)
        assert payload["kind"] == kind
        assert sketch_from_dict(payload).to_json() == text

    @pytest.mark.parametrize("kind", [CentroidSketch.kind])
    def test_empty_sketch_roundtrips(self, kind):
        text = CentroidSketch().to_json()
        payload = json.loads(text)
        assert payload["kind"] == kind
        restored = sketch_from_dict(payload)
        assert restored.count == 0
        assert restored.to_json() == text

    def test_canonical_form_is_strict_json(self):
        """No Infinity literals: an empty centroid sketch stores its
        min/max as null, so the payload parses under strict JSON."""
        payload = json.loads(CentroidSketch().to_json())
        assert payload["min"] is None and payload["max"] is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(StreamError, match="unknown sketch kind"):
            sketch_from_dict({"kind": "hll"})

    def test_p2_state_rejected_by_name(self):
        """State written by a build that still had the P² sketch is
        refused, not misread as a centroid sketch."""
        p2_state = {
            "kind": "p2",
            "p": 0.5,
            "count": 3,
            "buffer": [1.0, 2.0, 3.0],
            "heights": [],
            "positions": [],
        }
        with pytest.raises(StreamError, match="unknown sketch kind 'p2'"):
            sketch_from_dict(p2_state)

    def test_malformed_state_rejected(self):
        with pytest.raises(StreamError, match="malformed"):
            sketch_from_dict({"kind": "centroid", "max_centroids": 64})

    @staticmethod
    def _state(**changes):
        state = {
            "kind": "centroid",
            "max_centroids": 8,
            "count": 3,
            "min": 1.0,
            "max": 3.0,
            "means": [1.0, 2.0, 3.0],
            "weights": [1.0, 1.0, 1.0],
        }
        state.update(changes)
        return state

    def test_consistent_state_loads(self):
        sketch = sketch_from_dict(self._state())
        assert sketch.count == 3 and sketch.quantile(0.5) == 2.0

    @pytest.mark.parametrize(
        "changes",
        [
            dict(weights=[1.0, 2.0]),
            dict(means=[[1.0, 2.0, 3.0]], weights=[[1.0, 1.0, 1.0]]),
            dict(means=[1.0, math.nan, 3.0]),
            dict(weights=[1.0, 0.0, 2.0]),
            dict(weights=[2.0, -1.0, 2.0]),
            dict(weights=[1.0, math.inf, 1.0]),
            dict(count=7),
            dict(count=3.9),
            dict(count=True, means=[1.0], weights=[1.0], max=1.0),
            dict(
                count=9,
                min=0.0,
                max=8.0,
                means=[float(v) for v in range(9)],
                weights=[1.0] * 9,
            ),
            dict(min=None),
            dict(count=3, means=[], weights=[], min=None, max=None),
            dict(min=-math.inf),
        ],
        ids=[
            "lengths-differ",
            "two-d-arrays",
            "nan-mean",
            "zero-weight",
            "negative-weight",
            "infinite-weight",
            "count-not-weight-total",
            "float-count",
            "bool-count",
            "over-budget",
            "non-empty-without-min",
            "empty-with-count",
            "infinite-min",
        ],
    )
    def test_inconsistent_state_rejected(self, changes):
        """State no sketch can hold is refused on load, rather than
        loading and failing (or reading NaN) at the first query."""
        with pytest.raises(StreamError):
            sketch_from_dict(self._state(**changes))
