"""Graph Convolutional Network layers (Kipf & Welling, 2017).

Used by the structure channels of several baselines (GCN-Align, EVA):
``H' = σ(Ã H W)`` over the symmetrically-normalised adjacency with
self-loops.  The propagation step goes through the :func:`spmm` autograd
primitive over the task's CSR ``Ã``, in ``O(|E| d)``.

A :class:`~repro.kg.sampling.SubgraphView` may be passed in place of the
adjacency for mini-batch training: each layer then multiplies by its
renumbered ``(num_dst, num_src)`` CSR block, shrinking the node set layer
by layer until only the seed rows remain.  With full-neighbourhood fanout
the blocks carry the full rows in the full per-row order, so the subgraph
forward reproduces the full-graph one on the seed rows (exactly, up to
BLAS shape effects in the dense weight products).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, spmm
from ..kg.sampling import SubgraphView
from . import init
from .module import Module, ModuleList, Parameter

__all__ = ["GCNLayer", "GCN"]


class GCNLayer(Module):
    """Single graph convolution ``Ã X W + b``."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.weight = Parameter(init.glorot_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, features: Tensor, normalized_adjacency) -> Tensor:
        propagated = spmm(normalized_adjacency, features)
        out = propagated @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class GCN(Module):
    """Stack of GCN layers with ReLU between layers (not after the last)."""

    def __init__(self, features: int, num_layers: int, rng: np.random.Generator):
        super().__init__()
        self.layers = ModuleList([
            GCNLayer(features, features, rng) for _ in range(num_layers)
        ])

    def forward(self, features: Tensor, normalized_adjacency) -> Tensor:
        """Run the stack over a full graph matrix or a :class:`SubgraphView`.

        With a view, ``features`` must cover ``view.input_nodes`` (one row
        per input node, in that order) and the result holds one row per
        ``view.seed_nodes``.
        """
        if isinstance(normalized_adjacency, SubgraphView):
            view = normalized_adjacency
            if view.num_layers != len(self.layers):
                raise ValueError(
                    f"subgraph view has {view.num_layers} layers but the GCN "
                    f"has {len(self.layers)}")
            if features.shape[0] != view.num_input:
                raise ValueError("features must have one row per subgraph input node")
            operators = [layer.csr_block() for layer in view.layers]
        else:
            operators = [normalized_adjacency] * len(self.layers)
        hidden = features
        for index, (layer, operator) in enumerate(zip(self.layers, operators)):
            hidden = layer(hidden, operator)
            if index < len(self.layers) - 1:
                hidden = hidden.relu()
        return hidden
