"""Tests for decoding utilities (cosine, CSLS, mutual NN) and energy monitoring."""

import numpy as np
import pytest

from repro.core import (
    DESAlign,
    DESAlignConfig,
    EnergyMonitor,
    cosine_similarity,
    csls_similarity,
    greedy_one_to_one,
    mutual_nearest_pairs,
    verify_layer_bounds,
)
from repro.kg.sparse import graph_laplacian_sparse


class TestCosineSimilarity:
    def test_identical_rows_score_one(self):
        x = np.random.default_rng(0).normal(size=(5, 7))
        sims = cosine_similarity(x, x)
        assert np.allclose(np.diag(sims), 1.0)

    def test_range_bounded(self):
        rng = np.random.default_rng(1)
        sims = cosine_similarity(rng.normal(size=(6, 3)), rng.normal(size=(8, 3)))
        assert sims.shape == (6, 8)
        assert np.all(sims <= 1.0 + 1e-9) and np.all(sims >= -1.0 - 1e-9)

    def test_zero_rows_do_not_produce_nan(self):
        source = np.zeros((2, 3))
        target = np.ones((2, 3))
        assert np.isfinite(cosine_similarity(source, target)).all()


class TestCSLS:
    def test_preserves_shape(self):
        similarity = np.random.default_rng(0).normal(size=(6, 9))
        assert csls_similarity(similarity, k=3).shape == (6, 9)

    def test_penalises_hub_targets(self):
        # Target 0 is a hub: other queries score it 0.9, so its local scaling
        # term is large and query 1's score on it is demoted more than its
        # score on the non-hub target 2.
        similarity = np.array([
            [0.9, 0.8, 0.1],
            [0.7, 0.1, 0.7],
            [0.9, 0.1, 0.1],
        ])
        adjusted = csls_similarity(similarity, k=1)
        drop_hub = similarity[1, 0] - adjusted[1, 0]
        drop_regular = similarity[1, 2] - adjusted[1, 2]
        assert drop_hub > drop_regular

    def test_k_larger_than_matrix_is_safe(self):
        similarity = np.random.default_rng(1).normal(size=(3, 3))
        assert np.isfinite(csls_similarity(similarity, k=50)).all()


class TestMutualNearestPairs:
    def test_finds_diagonal_matches(self):
        similarity = np.eye(4) + 0.01
        pairs = mutual_nearest_pairs(similarity)
        assert sorted(pairs) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_threshold_filters_low_scores(self):
        similarity = np.eye(3) * 0.2
        assert mutual_nearest_pairs(similarity, threshold=0.5) == []

    def test_exclusions_are_respected(self):
        similarity = np.eye(4)
        pairs = mutual_nearest_pairs(similarity, exclude_source={0}, exclude_target={3})
        assert (0, 0) not in pairs
        assert (3, 3) not in pairs
        assert (1, 1) in pairs

    def test_non_mutual_matches_are_dropped(self):
        similarity = np.array([
            [0.9, 0.8],
            [0.95, 0.1],
        ])
        # Source 0 and source 1 both prefer target 0, but target 0 prefers
        # source 1; only (1, 0) is mutual.
        assert mutual_nearest_pairs(similarity) == [(1, 0)]


class TestGreedyMatching:
    def test_produces_one_to_one_assignment(self):
        similarity = np.random.default_rng(0).normal(size=(5, 5))
        matches = greedy_one_to_one(similarity)
        sources = [s for s, _ in matches]
        targets = [t for _, t in matches]
        assert len(matches) == 5
        assert len(set(sources)) == 5 and len(set(targets)) == 5

    def test_picks_global_best_first(self):
        similarity = np.array([[0.1, 0.9], [0.8, 0.95]])
        matches = greedy_one_to_one(similarity)
        assert (1, 1) in matches
        assert (0, 0) in matches

    def test_rectangular_input(self):
        similarity = np.random.default_rng(1).normal(size=(3, 6))
        assert len(greedy_one_to_one(similarity)) == 3


class TestEnergyMonitor:
    def test_records_snapshots(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        monitor = EnergyMonitor(laplacian=tiny_task.source.laplacian)
        snapshot = monitor.record(0, model.encode("source"))
        assert snapshot.original > 0
        assert snapshot.fused >= 0
        assert set(snapshot.modal) == set(model.config.modalities)
        assert len(monitor.history) == 1
        assert len(monitor.ratios()) == 1

    def test_collapse_detection(self, tiny_task):
        monitor = EnergyMonitor(laplacian=tiny_task.source.laplacian)
        assert not monitor.collapsed()

    def test_verify_layer_bounds_holds_for_random_weights(self, tiny_task):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(tiny_task.source.num_entities, 8))
        weight = rng.normal(size=(8, 8))
        report = verify_layer_bounds(features, weight, tiny_task.source.laplacian)
        assert report["lower_bound"] - 1e-8 <= report["energy_next"] <= report["upper_bound"] + 1e-8

    def test_verify_layer_bounds_on_simple_graph(self):
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        laplacian = graph_laplacian_sparse(adjacency)
        features = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = verify_layer_bounds(features, np.eye(2), laplacian)
        assert report["energy_previous"] == pytest.approx(report["energy_next"])
