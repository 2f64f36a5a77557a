"""Property-based accuracy and determinism contracts of the stream plane.

These pin the documented guarantees of ``repro.stream``:

* the centroid sketch's median stays within ``RANK_TOLERANCE`` of the
  exact median *in rank space* on arbitrary finite inputs;
* merging sketches agrees with one sketch over the concatenation, again
  in rank space — the property that makes shard fan-out sound;
* serialization round trips are byte-identical, so snapshots can be
  compared with ``==`` across process and checkpoint boundaries.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.stream import RANK_TOLERANCE, CentroidSketch, sketch_from_dict

#: Finite measurement-like values (RTTs in ms, wide but bounded).
samples = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, width=32),
    min_size=1,
    max_size=400,
)


def rank_error(values: np.ndarray, estimate: float) -> float:
    """Rank-space distance of ``estimate`` from the median of ``values``.

    With ties an estimate occupies a rank *interval*
    ``[count(< est), count(<= est)] / n`` — the exact median of any
    multiset covers rank 0.5 exactly, so its error is 0 and the bound
    stays meaningful on tie-heavy inputs.
    """
    lo = np.count_nonzero(values < estimate) / values.size
    hi = np.count_nonzero(values <= estimate) / values.size
    return max(0.0, lo - 0.5, 0.5 - hi)


class TestCentroidAccuracy:
    @given(samples)
    @settings(max_examples=200, deadline=None)
    def test_median_within_rank_tolerance(self, values):
        arr = np.asarray(values)
        sketch = CentroidSketch()
        sketch.update_batch(arr)
        assert rank_error(arr, sketch.quantile(0.5)) <= RANK_TOLERANCE

    @given(samples)
    @settings(max_examples=100, deadline=None)
    def test_estimates_stay_in_range(self, values):
        arr = np.asarray(values)
        sketch = CentroidSketch()
        sketch.update_batch(arr)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert arr.min() <= sketch.quantile(q) <= arr.max()

    @given(samples, samples)
    @settings(max_examples=100, deadline=None)
    def test_merge_agrees_with_concat(self, left, right):
        """merge(a, b) ≈ sketch(concat(a, b)) in rank space.

        Both sides carry sketch error, so the bound is the sum of the
        two one-sided tolerances.
        """
        both = np.asarray(left + right)
        merged = CentroidSketch()
        merged.update_batch(np.asarray(left))
        other = CentroidSketch()
        other.update_batch(np.asarray(right))
        merged.merge(other)
        single = CentroidSketch()
        single.update_batch(both)
        assert merged.count == single.count == both.size
        assert rank_error(both, merged.quantile(0.5)) <= 2 * RANK_TOLERANCE

    @given(samples, st.integers(min_value=1, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_chunking_is_irrelevant_to_the_bound(self, values, n_chunks):
        """Feeding in any chunking keeps the documented bound."""
        arr = np.asarray(values)
        sketch = CentroidSketch()
        for chunk in np.array_split(arr, n_chunks):
            sketch.update_batch(chunk)
        assert sketch.count == arr.size
        assert rank_error(arr, sketch.quantile(0.5)) <= RANK_TOLERANCE


class TestSerializationProperties:
    @given(samples)
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_byte_identical(self, values):
        sketch = CentroidSketch()
        sketch.update_batch(np.asarray(values))
        text = sketch.to_json()
        restored = sketch_from_dict(json.loads(text))
        assert restored.to_json() == text
        assert restored.quantile(0.5) == sketch.quantile(0.5)
