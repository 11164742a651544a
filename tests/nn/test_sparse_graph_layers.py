"""CSR graph layers (GCN via spmm, edge-list GAT) against the dense formulas."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import reference_gat, reference_gat_layer, reference_normalized_adjacency
from repro.autograd import Tensor, check_gradients
from repro.kg.sparse import normalized_adjacency_sparse
from repro.nn import GAT, GATLayer, GCN, GCNLayer


@pytest.fixture
def adjacency():
    rng = np.random.default_rng(3)
    n = 12
    matrix = np.zeros((n, n))
    for _ in range(26):
        i, j = rng.integers(0, n, 2)
        if i != j:
            matrix[i, j] = matrix[j, i] = 1.0
    return matrix


@pytest.fixture
def features(adjacency):
    return np.random.default_rng(4).normal(size=(adjacency.shape[0], 8))


def _parameter_grads(module):
    return [parameter.grad.copy() if parameter.grad is not None else None
            for parameter in module.parameters()]


class TestGCNSparse:
    def test_forward_matches_dense(self, adjacency, features):
        gcn = GCN(8, 2, np.random.default_rng(0))
        dense_norm = reference_normalized_adjacency(adjacency)
        sparse_norm = normalized_adjacency_sparse(sp.csr_matrix(adjacency))
        out_dense = gcn(Tensor(features), dense_norm)
        out_sparse = gcn(Tensor(features), sparse_norm)
        assert np.allclose(out_dense.numpy(), out_sparse.numpy(), atol=1e-12)

    def test_gradients_match_dense(self, adjacency, features):
        gcn = GCN(8, 2, np.random.default_rng(0))
        dense_norm = reference_normalized_adjacency(adjacency)
        sparse_norm = normalized_adjacency_sparse(sp.csr_matrix(adjacency))
        (gcn(Tensor(features), dense_norm) ** 2.0).sum().backward()
        grads_dense = _parameter_grads(gcn)
        for parameter in gcn.parameters():
            parameter.zero_grad()
        (gcn(Tensor(features), sparse_norm) ** 2.0).sum().backward()
        for dense_grad, sparse_grad in zip(grads_dense, _parameter_grads(gcn)):
            assert np.allclose(dense_grad, sparse_grad, atol=1e-10)

    def test_layer_gradcheck_through_spmm(self, adjacency, features):
        layer = GCNLayer(8, 4, np.random.default_rng(1))
        sparse_norm = normalized_adjacency_sparse(sp.csr_matrix(adjacency))
        x = Tensor(features, requires_grad=True)

        def objective(inputs):
            return (layer(inputs[0], sparse_norm) ** 2.0).sum()

        check_gradients(objective, [x, layer.weight, layer.bias], atol=1e-4)


class TestGATSparse:
    def test_layer_forward_matches_dense(self, adjacency, features):
        layer = GATLayer(8, 8, 2, np.random.default_rng(2))
        out_dense = reference_gat_layer(layer, Tensor(features), adjacency)
        out_sparse = layer(Tensor(features), sp.csr_matrix(adjacency))
        assert np.allclose(out_dense.numpy(), out_sparse.numpy(), atol=1e-9)

    def test_stack_forward_matches_dense(self, adjacency, features):
        gat = GAT(8, 2, 2, np.random.default_rng(5))
        out_dense = reference_gat(gat, Tensor(features), adjacency)
        out_sparse = gat(Tensor(features), sp.csr_matrix(adjacency))
        assert np.allclose(out_dense.numpy(), out_sparse.numpy(), atol=1e-9)

    def test_gradients_match_dense(self, adjacency, features):
        gat = GAT(8, 2, 2, np.random.default_rng(5))
        x_dense = Tensor(features, requires_grad=True)
        x_sparse = Tensor(features, requires_grad=True)
        (reference_gat(gat, x_dense, adjacency) ** 2.0).sum().backward()
        grads_dense = _parameter_grads(gat)
        for parameter in gat.parameters():
            parameter.zero_grad()
        (gat(x_sparse, sp.csr_matrix(adjacency)) ** 2.0).sum().backward()
        assert np.allclose(x_dense.grad, x_sparse.grad, atol=1e-8)
        for dense_grad, sparse_grad in zip(grads_dense, _parameter_grads(gat)):
            assert np.allclose(dense_grad, sparse_grad, atol=1e-8)

    def test_attention_rows_sum_to_one_implicitly(self, adjacency, features):
        # Constant features make every neighbour score equal, so the output
        # of one head is the neighbourhood mean of the transformed features.
        layer = GATLayer(8, 4, 1, np.random.default_rng(6))
        constant = np.ones((adjacency.shape[0], 8))
        out = layer(Tensor(constant), sp.csr_matrix(adjacency)).numpy()
        transformed = constant @ layer._head_weight(0).numpy()
        assert np.allclose(out, transformed, atol=1e-9)

    def test_edge_gradcheck(self, adjacency, features):
        layer = GATLayer(8, 4, 2, np.random.default_rng(7))
        sparse_adjacency = sp.csr_matrix(adjacency)
        x = Tensor(features, requires_grad=True)

        def objective(inputs):
            return (layer(inputs[0], sparse_adjacency) ** 2.0).sum()

        check_gradients(objective, [x] + list(layer.parameters()), atol=1e-4)
