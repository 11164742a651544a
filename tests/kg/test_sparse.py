"""Tests for the CSR graph operators in :mod:`repro.kg.sparse`."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    reference_adjacency,
    reference_dirichlet_energy,
    reference_dirichlet_energy_pairwise,
    reference_laplacian,
    reference_normalized_adjacency,
)
from repro.kg import MultiModalKG
from repro.kg.laplacian import (
    dirichlet_energy,
    largest_laplacian_eigenvalue,
    partition_laplacian,
)
from repro.kg.sparse import (
    adjacency_from_triples,
    degrees_from_triples,
    dirichlet_energy_edges,
    edge_index,
    graph_laplacian_sparse,
    largest_eigenvalue,
    normalized_adjacency_sparse,
    power_iteration_eigenvalue,
)


@pytest.fixture
def graph() -> MultiModalKG:
    """A small graph with parallel edges, a self-loop and an isolated node."""
    triples = [(0, 0, 1), (1, 0, 2), (2, 1, 3), (3, 0, 4), (0, 1, 3),
               (1, 1, 3), (1, 0, 3), (2, 2, 2), (5, 0, 6)]
    return MultiModalKG.from_triples(8, triples)


class TestAdjacencyFromTriples:
    def test_matches_dense_binary(self, graph):
        dense = reference_adjacency(graph)
        sparse = adjacency_from_triples(graph.num_entities, graph.relation_triples)
        assert sp.issparse(sparse)
        assert np.array_equal(dense, sparse.toarray())

    def test_matches_dense_weighted(self, graph):
        dense = reference_adjacency(graph, weighted=True)
        sparse = adjacency_from_triples(graph.num_entities, graph.relation_triples,
                                        weighted=True)
        assert np.array_equal(dense, sparse.toarray())

    def test_empty_graph(self):
        sparse = adjacency_from_triples(4, [])
        assert sparse.shape == (4, 4)
        assert sparse.nnz == 0


class TestDegrees:
    def test_matches_adjacency_row_sums(self, graph):
        expected = graph.adjacency_matrix().toarray().sum(axis=1)
        assert np.array_equal(degrees_from_triples(graph.num_entities,
                                                   graph.relation_triples), expected)

    def test_cached_degree_method(self, graph):
        expected = graph.adjacency_matrix().toarray().sum(axis=1)
        assert np.array_equal(graph.degree(), expected)
        assert graph._degree_cache is not None
        # Cached value is protected from caller mutation.
        graph.degree()[:] = -1.0
        assert np.array_equal(graph.degree(), expected)

    def test_degrees_alias(self, graph):
        assert np.array_equal(graph.degrees(), graph.degree())

    def test_empty(self):
        assert np.array_equal(degrees_from_triples(3, []), np.zeros(3))


class TestNormalizationAndLaplacian:
    @pytest.mark.parametrize("add_self_loops", [True, False])
    def test_normalized_adjacency_matches_dense(self, graph, add_self_loops):
        dense_adj = reference_adjacency(graph)
        dense = reference_normalized_adjacency(dense_adj, add_self_loops=add_self_loops)
        sparse = normalized_adjacency_sparse(sp.csr_matrix(dense_adj),
                                             add_self_loops=add_self_loops)
        assert sp.issparse(sparse)
        assert np.allclose(dense, sparse.toarray(), atol=1e-15)

    def test_accepts_dense_input(self, graph):
        dense_adj = reference_adjacency(graph)
        assert np.allclose(reference_normalized_adjacency(dense_adj),
                           normalized_adjacency_sparse(dense_adj).toarray())

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            normalized_adjacency_sparse(sp.csr_matrix(np.zeros((2, 3))))

    def test_laplacian_matches_dense(self, graph):
        dense_adj = reference_adjacency(graph)
        dense = reference_laplacian(dense_adj)
        sparse = graph_laplacian_sparse(sp.csr_matrix(dense_adj))
        assert np.allclose(dense, sparse.toarray(), atol=1e-15)

    def test_dirichlet_energy_dispatches_on_sparse_laplacian(self, graph):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(graph.num_entities, 4))
        dense_lap = reference_laplacian(reference_adjacency(graph))
        sparse_lap = graph_laplacian_sparse(graph.adjacency_matrix())
        assert dirichlet_energy(features, sparse_lap) == pytest.approx(
            reference_dirichlet_energy(features, dense_lap), rel=1e-10)


class TestEdgewiseEnergy:
    @pytest.mark.parametrize("add_self_loops", [True, False])
    def test_matches_dense_pairwise(self, graph, add_self_loops):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(graph.num_entities, 3))
        dense = reference_dirichlet_energy_pairwise(features, reference_adjacency(graph),
                                                    add_self_loops=add_self_loops)
        edges = dirichlet_energy_edges(features, graph.adjacency_matrix(),
                                       add_self_loops=add_self_loops)
        assert edges == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_pairwise_entry_point_routes_sparse(self, graph):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(graph.num_entities, 3))
        assert dirichlet_energy_edges(features, graph.adjacency_matrix()) \
            == pytest.approx(reference_dirichlet_energy_pairwise(
                features, reference_adjacency(graph)), rel=1e-9)

    def test_accepts_1d_features(self, graph):
        features = np.arange(graph.num_entities, dtype=float)
        assert dirichlet_energy_edges(features, graph.adjacency_matrix()) >= 0.0


class TestEdgeIndex:
    def test_covers_adjacency_plus_self_loops(self, graph):
        adjacency = graph.adjacency_matrix().toarray()
        rows, cols = edge_index(graph.adjacency_matrix())
        mask = np.zeros_like(adjacency, dtype=bool)
        mask[rows, cols] = True
        expected = (adjacency > 0) | np.eye(len(adjacency), dtype=bool)
        assert np.array_equal(mask, expected)
        # Deduplicated: one entry per (row, col).
        assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)

    def test_sorted_by_row(self, graph):
        rows, _ = edge_index(graph.adjacency_matrix())
        assert np.all(np.diff(rows) >= 0)


class TestLargestEigenvalue:
    def _ring(self, n: int) -> MultiModalKG:
        return MultiModalKG.from_triples(
            n, [(i, 0, (i + 1) % n) for i in range(n)]
            + [(i, 0, (i + 7) % n) for i in range(n)])

    def test_small_graph_uses_exact_dense(self, graph):
        laplacian = graph_laplacian_sparse(graph.adjacency_matrix())
        assert largest_laplacian_eigenvalue(laplacian) == pytest.approx(
            float(np.linalg.eigvalsh(laplacian.toarray())[-1]))

    def test_eigsh_path_matches_dense_eigvalsh(self):
        ring = self._ring(150)
        sparse_lap = graph_laplacian_sparse(ring.adjacency_matrix())
        dense_lap = reference_laplacian(reference_adjacency(ring))
        exact = float(np.linalg.eigvalsh(dense_lap)[-1])
        assert largest_laplacian_eigenvalue(sparse_lap) == pytest.approx(exact, abs=1e-8)
        assert largest_laplacian_eigenvalue(dense_lap) == pytest.approx(exact, abs=1e-8)

    def test_eigsh_path_is_reproducible(self):
        laplacian = graph_laplacian_sparse(self._ring(200).adjacency_matrix())
        values = [largest_laplacian_eigenvalue(laplacian) for _ in range(5)]
        assert all(value == values[0] for value in values)

    def test_power_iteration_fallback(self):
        ring = self._ring(150)
        laplacian = graph_laplacian_sparse(ring.adjacency_matrix())
        exact = largest_eigenvalue(laplacian)
        assert power_iteration_eigenvalue(laplacian, iterations=2000,
                                          tolerance=1e-13) == pytest.approx(exact, abs=1e-5)

    def test_range_zero_two(self):
        ring = self._ring(100)
        laplacian = graph_laplacian_sparse(ring.adjacency_matrix())
        value = largest_laplacian_eigenvalue(laplacian)
        assert 0.0 <= value < 2.0 + 1e-9


class TestPartitionLaplacianSparse:
    def test_blocks_match_dense(self, graph):
        dense_lap = reference_laplacian(reference_adjacency(graph))
        sparse_lap = graph_laplacian_sparse(graph.adjacency_matrix())
        consistent = np.array([0, 2, 5])
        count_inconsistent = np.array([1, 4, 7])
        missing = np.array([3, 6])
        index = {"c": consistent, "o1": count_inconsistent, "o2": missing}
        sparse_blocks = partition_laplacian(sparse_lap, consistent, count_inconsistent, missing)
        assert len(sparse_blocks) == len(index) ** 2
        for row_key, rows in index.items():
            for col_key, cols in index.items():
                block = dense_lap[np.ix_(rows, cols)]
                assert np.allclose(block, sparse_blocks[f"{row_key}{col_key}"].toarray(),
                                   atol=1e-15)
