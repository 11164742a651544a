"""Tests for the spectral utilities and Dirichlet-energy propositions."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import reference_normalized_adjacency
from repro.kg import (
    dirichlet_energy,
    dirichlet_energy_edges,
    energy_gap_bounds,
    graph_laplacian_sparse,
    largest_laplacian_eigenvalue,
    layer_energy_bounds,
    normalized_adjacency_sparse,
    partition_laplacian,
)


@pytest.fixture
def ring_adjacency():
    """A 6-node ring graph."""
    adjacency = np.zeros((6, 6))
    for i in range(6):
        adjacency[i, (i + 1) % 6] = adjacency[(i + 1) % 6, i] = 1.0
    return adjacency


class TestNormalizedAdjacency:
    def test_symmetric(self, ring_adjacency):
        normalised = normalized_adjacency_sparse(ring_adjacency).toarray()
        assert np.allclose(normalised, normalised.T)

    def test_rows_of_regular_graph_sum_to_one(self, ring_adjacency):
        normalised = normalized_adjacency_sparse(ring_adjacency).toarray()
        assert np.allclose(normalised.sum(axis=1), 1.0)

    def test_handles_isolated_nodes_without_self_loops(self):
        adjacency = np.zeros((3, 3))
        normalised = normalized_adjacency_sparse(adjacency, add_self_loops=False)
        assert np.allclose(normalised.toarray(), 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            normalized_adjacency_sparse(np.zeros((2, 3)))

    def test_accepts_sparse_input(self, ring_adjacency):
        dense = reference_normalized_adjacency(ring_adjacency)
        sparse = normalized_adjacency_sparse(sp.csr_matrix(ring_adjacency))
        assert np.allclose(dense, sparse.toarray())


class TestLaplacian:
    def test_positive_semidefinite(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        eigenvalues = np.linalg.eigvalsh(laplacian.toarray())
        assert eigenvalues.min() > -1e-10

    def test_eigenvalues_in_zero_two(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        assert largest_laplacian_eigenvalue(laplacian) < 2.0 + 1e-9

    def test_constant_vector_in_near_nullspace_with_self_loops(self, ring_adjacency):
        # For a regular graph the normalised Laplacian annihilates constants.
        laplacian = graph_laplacian_sparse(ring_adjacency)
        constant = np.ones((6, 1))
        assert np.abs(laplacian @ constant).max() < 1e-10


class TestDirichletEnergy:
    def test_trace_and_pairwise_forms_agree(self, ring_adjacency):
        features = np.random.default_rng(0).normal(size=(6, 4))
        laplacian = graph_laplacian_sparse(ring_adjacency)
        assert dirichlet_energy(features, laplacian) == pytest.approx(
            dirichlet_energy_edges(features, ring_adjacency), rel=1e-8)

    def test_energy_is_non_negative(self, ring_adjacency):
        rng = np.random.default_rng(1)
        laplacian = graph_laplacian_sparse(ring_adjacency)
        for _ in range(5):
            features = rng.normal(size=(6, 3))
            assert dirichlet_energy(features, laplacian) >= -1e-10

    def test_constant_features_have_zero_energy(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        assert dirichlet_energy(np.ones((6, 3)), laplacian) == pytest.approx(0.0, abs=1e-10)

    def test_energy_accepts_1d_features(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        features = np.random.default_rng(2).normal(size=6)
        assert dirichlet_energy(features, laplacian) >= 0

    def test_smoother_signal_has_lower_energy(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        smooth = np.linspace(0, 1, 6)[:, None]
        rough = np.array([0, 1, 0, 1, 0, 1], dtype=float)[:, None]
        assert dirichlet_energy(smooth, laplacian) < dirichlet_energy(rough, laplacian)


class TestCorollary1Bounds:
    def test_lower_bound_holds(self, ring_adjacency):
        rng = np.random.default_rng(3)
        laplacian = graph_laplacian_sparse(ring_adjacency)
        original = rng.normal(size=(6, 4))
        modified = original + 0.3 * rng.normal(size=(6, 4))
        lower, distance, _ = energy_gap_bounds(original, modified, laplacian)
        assert lower <= distance + 1e-9

    def test_identical_features_have_zero_gap(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        features = np.random.default_rng(4).normal(size=(6, 2))
        lower, distance, upper = energy_gap_bounds(features, features, laplacian)
        assert lower == pytest.approx(0.0)
        assert distance == pytest.approx(0.0)
        assert upper == pytest.approx(0.0)


class TestProposition2Bounds:
    def test_linear_layer_energy_within_singular_value_bounds(self, ring_adjacency):
        rng = np.random.default_rng(5)
        laplacian = graph_laplacian_sparse(ring_adjacency)
        features = rng.normal(size=(6, 4))
        weight = rng.normal(size=(4, 4))
        previous = dirichlet_energy(features, laplacian)
        lower, upper = layer_energy_bounds(weight, previous)
        energy_next = dirichlet_energy(features @ weight, laplacian)
        assert lower - 1e-8 <= energy_next <= upper + 1e-8

    def test_orthogonal_weight_preserves_energy(self, ring_adjacency):
        rng = np.random.default_rng(6)
        laplacian = graph_laplacian_sparse(ring_adjacency)
        features = rng.normal(size=(6, 4))
        orthogonal, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        previous = dirichlet_energy(features, laplacian)
        energy_next = dirichlet_energy(features @ orthogonal, laplacian)
        assert energy_next == pytest.approx(previous, rel=1e-8)

    def test_zero_weight_collapses_energy(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        features = np.random.default_rng(7).normal(size=(6, 4))
        energy_next = dirichlet_energy(features @ np.zeros((4, 4)), laplacian)
        assert energy_next == pytest.approx(0.0, abs=1e-12)


class TestPartition:
    def test_blocks_cover_the_matrix(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        blocks = partition_laplacian(laplacian, [0, 1], [2, 3], [4, 5])
        assert blocks["cc"].shape == (2, 2)
        assert blocks["o1o2"].shape == (2, 2)
        assert np.allclose(blocks["co1"].toarray(), blocks["o1c"].T.toarray())

    def test_rejects_incomplete_partition(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        with pytest.raises(ValueError):
            partition_laplacian(laplacian, [0, 1], [2], [4, 5])

    def test_rejects_overlapping_partition(self, ring_adjacency):
        laplacian = graph_laplacian_sparse(ring_adjacency)
        with pytest.raises(ValueError):
            partition_laplacian(laplacian, [0, 1, 2], [2, 3], [4, 5])
