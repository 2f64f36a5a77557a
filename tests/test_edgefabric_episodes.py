"""Tests for degradation-episode extraction (§3.1.1)."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.edgefabric import (
    MeasurementConfig,
    extract_episodes,
    run_measurement,
)
from repro.edgefabric.episodes import _runs_batch
from repro.workloads import generate_client_prefixes


@pytest.fixture(scope="module")
def dataset(small_internet):
    prefixes = generate_client_prefixes(small_internet, 40, seed=3)
    return run_measurement(
        small_internet, prefixes, MeasurementConfig(days=1.0, seed=3)
    )


class TestRuns:
    def test_single_run(self):
        masks = np.zeros((8, 4), dtype=bool)
        excess = np.zeros((8, 4))
        masks[7] = [False, True, True, False]
        excess[7] = [0.0, 2.0, 5.0, 0.0]
        runs = _runs_batch(masks, excess)
        assert len(runs) == 1
        episode = runs[0]
        assert (episode.start, episode.length) == (1, 2)
        assert episode.peak_ms == 5.0
        assert episode.pair_index == 7

    def test_run_to_end(self):
        """A run touching the last window ends there, not in the next row."""
        masks = np.array([[True, False, True, True], [True, False, False, False]])
        excess = np.array([[1.0, 0.0, 2.0, 3.0], [4.0, 0.0, 0.0, 0.0]])
        runs = _runs_batch(masks, excess)
        assert [(r.pair_index, r.start, r.length) for r in runs] == [
            (0, 0, 1),
            (0, 2, 2),
            (1, 0, 1),
        ]
        assert [r.peak_ms for r in runs] == [1.0, 3.0, 4.0]

    def test_empty(self):
        assert _runs_batch(np.zeros((3, 5), dtype=bool), np.zeros((3, 5))) == []


class TestExtractEpisodes:
    def test_structure(self, dataset):
        result = extract_episodes(dataset)
        for episode in result.degradation_episodes:
            assert 0 <= episode.pair_index < dataset.n_pairs
            assert episode.length >= 1
            assert episode.start + episode.length <= dataset.n_windows
            assert episode.peak_ms > result.threshold_ms

    def test_shares_bounded(self, dataset):
        result = extract_episodes(dataset)
        assert 0.0 <= result.degradation_window_share <= 1.0
        assert 0.0 <= result.opportunity_window_share <= 1.0
        assert 0.0 <= result.frac_degradations_with_escape <= 1.0

    def test_paper_ordering(self, dataset):
        """§3.1.1: degradations are more prevalent than opportunities."""
        result = extract_episodes(dataset)
        assert (
            result.degradation_window_share
            >= result.opportunity_window_share * 0.8
        )

    def test_durations_in_minutes(self, dataset):
        result = extract_episodes(dataset)
        if result.degradation_episodes:
            # 15-minute windows: durations are multiples of 15.
            assert result.median_degradation_minutes % 15.0 == pytest.approx(0.0)

    def test_higher_threshold_fewer_episodes(self, dataset):
        loose = extract_episodes(dataset, threshold_ms=2.0)
        strict = extract_episodes(dataset, threshold_ms=20.0)
        assert len(strict.degradation_episodes) <= len(loose.degradation_episodes)
        assert strict.degradation_window_share <= loose.degradation_window_share

    def test_validation(self, dataset):
        with pytest.raises(AnalysisError):
            extract_episodes(dataset, threshold_ms=0.0)
