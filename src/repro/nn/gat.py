"""Graph Attention Network encoder for the structural modality.

DESAlign (Sec. IV-A(1)) encodes the graph structure of each MMKG with a GAT
(Velickovic et al., 2018) of two layers and two attention heads, combined
with a diagonal linear transform.  Attention runs over edge lists: per-edge
logits, a segment softmax over each destination's neighbourhood and a
scatter-add aggregation through the sparse autograd primitives, in
``O(|E| d)``.  Each layer of a sampled
:class:`~repro.kg.sampling.SubgraphView` attends from a shrinking
destination set; any other adjacency (a CSR graph matrix) runs as one
full-neighbourhood :class:`~repro.kg.sampling.SubgraphLayer` over its
self-looped edge list.

The equivalence tests check the forward values and the parameter
gradients against the masked-dense softmax formulation.  A
full-neighbourhood view reproduces the full-graph forward on its seed rows
(segment reductions in identical order; the dense weight products match to
the last ulp).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, segment_softmax, segment_sum
from ..kg.sampling import SubgraphLayer, SubgraphView
from ..kg.sparse import edge_index
from . import init
from .module import Module, ModuleList, Parameter
from .layers import DiagonalLinear

__all__ = ["GATLayer", "GAT"]


def _full_neighbourhood_layer(adjacency) -> SubgraphLayer:
    """The whole graph as one layer: every node attends over its self-looped row."""
    rows, cols = edge_index(adjacency, add_self_loops=True)
    num_nodes = adjacency.shape[0]
    return SubgraphLayer(num_src=num_nodes, num_dst=num_nodes, edge_src=cols,
                         edge_dst=rows, edge_weight=np.ones(len(rows)),
                         dst_in_src=np.arange(num_nodes))


class GATLayer(Module):
    """Single multi-head edge-list graph attention layer.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.  ``out_features`` must be divisible by
        ``num_heads`` because head outputs are concatenated.
    num_heads:
        Number of attention heads (the paper uses two).
    """

    def __init__(self, in_features: int, out_features: int, num_heads: int,
                 rng: np.random.Generator, negative_slope: float = 0.2):
        super().__init__()
        if out_features % num_heads != 0:
            raise ValueError("out_features must be divisible by num_heads")
        self.num_heads = num_heads
        self.head_dim = out_features // num_heads
        self.negative_slope = negative_slope
        self.weights = ModuleList()
        self._attn_src: list[Parameter] = []
        self._attn_dst: list[Parameter] = []
        for head in range(num_heads):
            weight = Parameter(init.glorot_uniform(rng, in_features, self.head_dim))
            attn_src = Parameter(init.glorot_uniform(rng, self.head_dim, 1))
            attn_dst = Parameter(init.glorot_uniform(rng, self.head_dim, 1))
            self._parameters[f"weight_{head}"] = weight
            self._parameters[f"attn_src_{head}"] = attn_src
            self._parameters[f"attn_dst_{head}"] = attn_dst
            self._attn_src.append(attn_src)
            self._attn_dst.append(attn_dst)

    def _head_weight(self, head: int) -> Parameter:
        return self._parameters[f"weight_{head}"]

    def forward(self, features: Tensor, adjacency) -> Tensor:
        """Run attention over ``adjacency`` (self-loops are added).

        A :class:`SubgraphLayer` maps its input nodes' ``features`` to its
        output nodes' rows; any other adjacency runs as its
        full-neighbourhood layer.
        """
        if not isinstance(adjacency, SubgraphLayer):
            adjacency = _full_neighbourhood_layer(adjacency)
        return self._forward_layer(features, adjacency)

    def _forward_layer(self, features: Tensor, layer: SubgraphLayer) -> Tensor:
        """Edge-list attention: input-node features in, output-node rows out.

        The destination logits are gathered through ``dst_in_src`` (every
        output node is part of the input set); edges are ``(dst, src)``
        sorted, so with full-neighbourhood edges every segment reduction
        matches the full-graph layer in value and order.
        """
        if features.shape[0] != layer.num_src:
            raise ValueError("features must have one row per subgraph input node")
        dst_rows = layer.dst_in_src[layer.edge_dst]
        outputs = []
        for head in range(self.num_heads):
            transformed = features @ self._head_weight(head)
            logits_src = transformed @ self._attn_src[head]          # (num_src, 1)
            logits_dst = transformed @ self._attn_dst[head]          # (num_src, 1)
            scores = (logits_src.index_select(dst_rows)
                      + logits_dst.index_select(layer.edge_src)).leaky_relu(self.negative_slope)
            attention = segment_softmax(scores, layer.edge_dst, layer.num_dst)
            messages = transformed.index_select(layer.edge_src) * attention
            outputs.append(segment_sum(messages, layer.edge_dst, layer.num_dst))
        return Tensor.concat(outputs, axis=-1)


class GAT(Module):
    """Stack of :class:`GATLayer` with ELU-style nonlinearities between layers.

    A diagonal linear transform (Yang et al., 2015) is applied to the input
    features before the attention stack, matching Eq. 7 of the paper.
    """

    def __init__(self, features: int, num_layers: int, num_heads: int,
                 rng: np.random.Generator):
        super().__init__()
        self.diagonal = DiagonalLinear(features)
        self.layers = ModuleList([
            GATLayer(features, features, num_heads, rng) for _ in range(num_layers)
        ])

    def forward(self, features: Tensor, adjacency) -> Tensor:
        """Run the stack over a full adjacency or a :class:`SubgraphView`.

        With a view (sampled over an ``attention_pattern`` so self-loops are
        edges), ``features`` must cover ``view.input_nodes`` and the result
        holds one row per ``view.seed_nodes``.
        """
        if isinstance(adjacency, SubgraphView):
            if adjacency.num_layers != len(self.layers):
                raise ValueError(
                    f"subgraph view has {adjacency.num_layers} layers but the "
                    f"GAT has {len(self.layers)}")
            operators: list = list(adjacency.layers)
        else:
            operators = [_full_neighbourhood_layer(adjacency)] * len(self.layers)
        hidden = self.diagonal(features)
        for index, (layer, operator) in enumerate(zip(self.layers, operators)):
            hidden = layer(hidden, operator)
            if index < len(self.layers) - 1:
                hidden = hidden.relu()
        return hidden
