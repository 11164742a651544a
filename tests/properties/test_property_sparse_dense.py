"""Property-based tests: the CSR graph operators match the dense formulas.

For random graphs and features, the CSR operators must reproduce the dense
``n x n`` oracles of ``tests/oracles.py`` — normalisation, Laplacian, both
Dirichlet-energy forms, Semantic Propagation states and GCN
forward/backward — to numerical tolerance.  This is the contract that lets
CSR replace the ``O(n²)`` formulation wholesale.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_dirichlet_energy,
    reference_dirichlet_energy_pairwise,
    reference_laplacian,
    reference_normalized_adjacency,
    reference_propagation,
)
from repro.autograd import Tensor
from repro.core.propagation import SemanticPropagation
from repro.kg.laplacian import dirichlet_energy, largest_laplacian_eigenvalue
from repro.kg.sparse import (
    dirichlet_energy_edges,
    graph_laplacian_sparse,
    largest_eigenvalue,
    normalized_adjacency_sparse,
)
from repro.nn import GCN

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def random_graph_and_features(draw, max_nodes=14, max_dim=5):
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    features = rng.normal(size=(num_nodes, dim))
    return adjacency, features


class TestSpectralEquivalence:
    @SETTINGS
    @given(random_graph_and_features())
    def test_normalized_adjacency(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense = reference_normalized_adjacency(adjacency)
        sparse = normalized_adjacency_sparse(sp.csr_matrix(adjacency))
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)

    @SETTINGS
    @given(random_graph_and_features())
    def test_laplacian(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense = reference_laplacian(adjacency)
        sparse = graph_laplacian_sparse(sp.csr_matrix(adjacency))
        assert np.allclose(dense, sparse.toarray(), atol=1e-12)

    @SETTINGS
    @given(random_graph_and_features())
    def test_largest_eigenvalue(self, graph_and_features):
        adjacency, _ = graph_and_features
        dense_lap = reference_laplacian(adjacency)
        sparse_lap = graph_laplacian_sparse(sp.csr_matrix(adjacency))
        assert np.isclose(largest_laplacian_eigenvalue(dense_lap),
                          largest_eigenvalue(sparse_lap), atol=1e-9)


class TestEnergyEquivalence:
    @SETTINGS
    @given(random_graph_and_features())
    def test_edgewise_matches_trace_form(self, graph_and_features):
        adjacency, features = graph_and_features
        trace_form = reference_dirichlet_energy(features, reference_laplacian(adjacency))
        edge_form = dirichlet_energy_edges(features, sp.csr_matrix(adjacency))
        assert np.isclose(trace_form, edge_form, rtol=1e-7, atol=1e-8)

    @SETTINGS
    @given(random_graph_and_features())
    def test_edgewise_matches_dense_pairwise(self, graph_and_features):
        adjacency, features = graph_and_features
        dense_form = reference_dirichlet_energy_pairwise(features, adjacency)
        edge_form = dirichlet_energy_edges(features, sp.csr_matrix(adjacency))
        assert np.isclose(dense_form, edge_form, rtol=1e-7, atol=1e-8)

    @SETTINGS
    @given(random_graph_and_features())
    def test_sparse_trace_form_matches_dense(self, graph_and_features):
        adjacency, features = graph_and_features
        dense = reference_dirichlet_energy(features, reference_laplacian(adjacency))
        sparse = dirichlet_energy(features, graph_laplacian_sparse(sp.csr_matrix(adjacency)))
        assert np.isclose(dense, sparse, rtol=1e-9, atol=1e-10)


class TestPropagationEquivalence:
    @SETTINGS
    @given(random_graph_and_features(), st.integers(min_value=0, max_value=4))
    def test_states_match(self, graph_and_features, iterations):
        adjacency, features = graph_and_features
        known = np.random.default_rng(0).random(len(adjacency)) < 0.5
        propagation = SemanticPropagation(iterations=iterations)
        dense_states = reference_propagation(features, adjacency, known, iterations)
        sparse_states = propagation.propagate_features(
            features, sp.csr_matrix(adjacency), known)
        for dense_state, sparse_state in zip(dense_states, sparse_states):
            assert np.allclose(dense_state, sparse_state, atol=1e-10)


class TestGCNEquivalence:
    @SETTINGS
    @given(random_graph_and_features(max_dim=4))
    def test_forward_and_backward_match(self, graph_and_features):
        adjacency, features = graph_and_features
        dim = features.shape[1]
        gcn = GCN(dim, 2, np.random.default_rng(0))
        dense_norm = reference_normalized_adjacency(adjacency)
        sparse_norm = normalized_adjacency_sparse(sp.csr_matrix(adjacency))

        dense_out = gcn(Tensor(features), dense_norm)
        (dense_out ** 2.0).sum().backward()
        dense_grads = [p.grad.copy() for p in gcn.parameters()]
        for parameter in gcn.parameters():
            parameter.zero_grad()

        sparse_out = gcn(Tensor(features), sparse_norm)
        (sparse_out ** 2.0).sum().backward()
        assert np.allclose(dense_out.numpy(), sparse_out.numpy(), atol=1e-10)
        for dense_grad, parameter in zip(dense_grads, gcn.parameters()):
            assert np.allclose(dense_grad, parameter.grad, atol=1e-8)
