"""Property-based tests: full-fanout subgraph forwards equal full-graph ones.

For random graphs, features and seed sets, a full-neighbourhood
:class:`SubgraphView` must reproduce the full-graph forward pass on the
seed rows, for both the GCN (`spmm` over renumbered CSR blocks) and the
edge-list GAT (bipartite segment softmax).  Every *graph* reduction — CSR
row aggregation, segment softmax/sum — visits the same values in the same
order and is asserted bit-equal; the dense ``X @ W`` projections go through
BLAS, whose kernel choice depends on the row count, so the end-to-end
stacks are asserted to the last ulp (``rtol=0, atol=1e-12``) instead.
Sampler id maps must round-trip exactly.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.kg.sampling import NeighbourSampler, attention_pattern
from repro.kg.sparse import normalized_adjacency_sparse
from repro.nn import GAT, GCN

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def graph_features_and_seeds(draw, max_nodes=16, max_dim=6):
    num_nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    if dim % 2:
        dim += 1  # GAT heads need an even feature count
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.8))
    num_seeds = draw(st.integers(min_value=1, max_value=num_nodes))
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    features = rng.normal(size=(num_nodes, dim))
    seeds = np.sort(rng.choice(num_nodes, size=num_seeds, replace=False))
    return sp.csr_matrix(adjacency), features, seeds, seed


class TestFullFanoutEquivalence:
    @SETTINGS
    @given(graph_features_and_seeds())
    def test_csr_block_aggregation_bit_equal(self, case):
        """The renumbered-block aggregation itself is bit-identical."""
        adjacency, features, seeds, _ = case
        normalized = normalized_adjacency_sparse(adjacency)
        full = np.asarray(normalized @ features)
        view = NeighbourSampler(normalized, (None,)).sample(seeds)
        sub = np.asarray(view.layers[0].csr_block() @ features[view.input_nodes])
        assert np.array_equal(sub, full[view.seed_nodes])

    @SETTINGS
    @given(graph_features_and_seeds())
    def test_gcn_forward_matches_full_graph(self, case):
        adjacency, features, seeds, seed = case
        dim = features.shape[1]
        normalized = normalized_adjacency_sparse(adjacency)
        gcn = GCN(dim, 2, np.random.default_rng(seed))
        full = gcn(Tensor(features), normalized).numpy()
        view = NeighbourSampler(normalized, (None, None)).sample(seeds)
        sub = gcn(Tensor(features[view.input_nodes]), view).numpy()
        np.testing.assert_allclose(sub, full[view.seed_nodes], rtol=0, atol=1e-12)

    @SETTINGS
    @given(graph_features_and_seeds())
    def test_gat_forward_matches_full_graph(self, case):
        adjacency, features, seeds, seed = case
        dim = features.shape[1]
        gat = GAT(dim, 2, 2, np.random.default_rng(seed))
        full = gat(Tensor(features), adjacency).numpy()
        pattern = attention_pattern(adjacency)
        view = NeighbourSampler(pattern, (None, None), rescale=False).sample(seeds)
        sub = gat(Tensor(features[view.input_nodes]), view).numpy()
        np.testing.assert_allclose(sub, full[view.seed_nodes], rtol=0, atol=1e-12)

    @SETTINGS
    @given(graph_features_and_seeds())
    def test_gcn_parameter_gradients_match(self, case):
        """Backward through the seed rows accumulates identical weight grads.

        Run for the GCN over the normalised adjacency and for the GAT over
        its attention pattern (a CSR adjacency runs the GAT as one
        full-neighbourhood layer, so full-graph sparse GAT training takes
        the same path as a full-fanout view).
        """
        adjacency, features, seeds, seed = case
        dim = features.shape[1]
        normalized = normalized_adjacency_sparse(adjacency)
        cases = [
            (GCN(dim, 2, np.random.default_rng(seed)), normalized,
             NeighbourSampler(normalized, (None, None))),
            (GAT(dim, 2, 2, np.random.default_rng(seed)), adjacency,
             NeighbourSampler(attention_pattern(adjacency), (None, None),
                              rescale=False)),
        ]
        for network, operator, sampler in cases:
            full = network(Tensor(features), operator)
            full.index_select(seeds).sum().backward()
            full_grads = [p.grad.copy() for p in network.parameters()]
            network.zero_grad()

            view = sampler.sample(seeds)
            sub = network(Tensor(features[view.input_nodes]), view)
            sub.sum().backward()
            for parameter, reference in zip(network.parameters(), full_grads):
                assert np.allclose(parameter.grad, reference, atol=1e-12)


class TestIdMapRoundTrip:
    @SETTINGS
    @given(graph_features_and_seeds(), st.integers(min_value=1, max_value=4))
    def test_local_global_round_trip(self, case, fanout):
        adjacency, _, seeds, seed = case
        pattern = attention_pattern(adjacency)
        view = NeighbourSampler(pattern, (fanout, fanout), seed=seed).sample(seeds)
        assert np.array_equal(view.seed_nodes, seeds)
        for layer in range(len(view.node_layers)):
            nodes = view.node_layers[layer]
            locals_ = np.arange(len(nodes))
            assert np.array_equal(
                view.global_to_local(view.local_to_global(locals_, layer=layer),
                                     layer=layer),
                locals_)
            # global ids are unique and sorted, so the maps are bijections
            assert np.array_equal(nodes, np.unique(nodes))
