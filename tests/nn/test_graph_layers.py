"""Tests for the GAT and GCN graph encoders."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.kg.sparse import normalized_adjacency_sparse
from repro.nn import GAT, GATLayer, GCN, GCNLayer, Parameter


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def chain_adjacency():
    """A 6-node chain graph."""
    adjacency = np.zeros((6, 6))
    for i in range(5):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return adjacency


class TestGATLayer:
    def test_output_shape(self, rng, chain_adjacency):
        layer = GATLayer(8, 8, num_heads=2, rng=rng)
        out = layer(Tensor(rng.normal(size=(6, 8))), chain_adjacency)
        assert out.shape == (6, 8)

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError):
            GATLayer(8, 6, num_heads=4, rng=rng)

    def test_attention_respects_adjacency(self, rng):
        # Two disconnected components: changing features in one component
        # must not change outputs in the other.
        adjacency = np.zeros((4, 4))
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        adjacency[2, 3] = adjacency[3, 2] = 1.0
        layer = GATLayer(4, 4, num_heads=1, rng=rng)
        features = rng.normal(size=(4, 4))
        base = layer(Tensor(features), adjacency).numpy()
        perturbed = features.copy()
        perturbed[2:] += 10.0
        changed = layer(Tensor(perturbed), adjacency).numpy()
        assert np.allclose(base[:2], changed[:2], atol=1e-8)
        assert not np.allclose(base[2:], changed[2:])

    def test_isolated_node_attends_to_itself(self, rng):
        adjacency = np.zeros((3, 3))
        layer = GATLayer(4, 4, num_heads=1, rng=rng)
        features = rng.normal(size=(3, 4))
        out = layer(Tensor(features), adjacency).numpy()
        expected = features @ layer._head_weight(0).numpy()
        assert np.allclose(out, expected, atol=1e-8)

    def test_gradients_flow(self, rng, chain_adjacency):
        layer = GATLayer(4, 4, num_heads=2, rng=rng)
        features = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        layer(features, chain_adjacency).sum().backward()
        assert features.grad is not None
        for _, param in layer.named_parameters():
            assert param.grad is not None


class TestGAT:
    def test_stacked_output_shape(self, rng, chain_adjacency):
        encoder = GAT(8, num_layers=2, num_heads=2, rng=rng)
        out = encoder(Tensor(rng.normal(size=(6, 8))), chain_adjacency)
        assert out.shape == (6, 8)

    def test_has_diagonal_transform(self, rng):
        encoder = GAT(8, num_layers=2, num_heads=2, rng=rng)
        assert encoder.diagonal.weight.size == 8

    def test_parameters_update_structure_embedding_gradient(self, rng, chain_adjacency):
        encoder = GAT(4, num_layers=2, num_heads=1, rng=rng)
        structure = Parameter(rng.normal(size=(6, 4)))
        encoder(structure, chain_adjacency).sum().backward()
        assert structure.grad is not None


class TestGCN:
    def test_layer_matches_manual_propagation(self, rng, chain_adjacency):
        layer = GCNLayer(4, 4, rng)
        normalised = normalized_adjacency_sparse(chain_adjacency)
        features = rng.normal(size=(6, 4))
        expected = normalised @ features @ layer.weight.numpy() + layer.bias.numpy()
        assert np.allclose(layer(Tensor(features), normalised).numpy(), expected)

    def test_stack_shapes_and_gradients(self, rng, chain_adjacency):
        encoder = GCN(4, num_layers=3, rng=rng)
        normalised = normalized_adjacency_sparse(chain_adjacency)
        features = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        out = encoder(features, normalised)
        assert out.shape == (6, 4)
        out.sum().backward()
        assert features.grad is not None

    def test_propagation_mixes_neighbour_information(self, rng, chain_adjacency):
        encoder = GCN(4, num_layers=1, rng=rng)
        normalised = normalized_adjacency_sparse(chain_adjacency)
        features = np.zeros((6, 4))
        features[0] = 1.0
        out = encoder(Tensor(features), normalised).numpy()
        # Node 1 is adjacent to node 0 and must receive a non-zero signal.
        assert np.abs(out[1]).sum() > 0
        # Node 5 is three hops away; one propagation step cannot reach it.
        assert np.allclose(out[5], encoder.layers[0].bias.numpy(), atol=1e-8)
