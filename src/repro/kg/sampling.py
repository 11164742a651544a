"""Layer-wise neighbour sampling over CSR adjacency (GraphSAGE-style).

Full-graph message passing encodes *every* entity on every optimiser step,
which makes training — not decoding — the memory and wall-clock ceiling
beyond ~10^4 entities.  This module provides the sampling substrate for
mini-batch training: starting from a batch of seed nodes, each encoder
layer's receptive field is restricted to a sampled neighbourhood, extracted
as an induced :class:`SubgraphView` with

* per-layer global node arrays (``node_layers[0]`` is the outermost input
  set, ``node_layers[-1]`` the seeds whose final embeddings are needed);
* local<->global id maps (node arrays are sorted, so lookups are
  ``searchsorted``);
* per-layer renumbered edge lists and CSR blocks, ready for the edge-list
  GAT and the ``spmm`` GCN path.

Determinism: a :class:`NeighbourSampler` owns a seeded generator, so a
training run's batch subgraphs are reproducible.  In *full-neighbourhood*
mode (``fanout=None``) no edge is dropped and local ids ascend with global
ids, so every graph reduction (CSR row aggregation, segment softmax/sum)
sums the same values in the same order as the full-graph forward — the
subgraph pass reproduces it bit-for-bit up to BLAS shape effects in the
dense projections, the equivalence the property tests assert for GCN and
GAT (``rtol=0, atol=1e-12``).

Sampled mode keeps any explicit diagonal (self-loop) entry unconditionally
— the fanout budget applies to the off-diagonal neighbours — and can
rescale the surviving off-diagonal weights by ``degree / fanout`` so a
sampled ``spmm`` aggregation is an unbiased estimator of the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SubgraphLayer",
    "SubgraphView",
    "NeighbourSampler",
    "attention_pattern",
    "flat_row_positions",
]


def attention_pattern(adjacency) -> sp.csr_matrix:
    """Binary self-looped CSR pattern ``A != 0  OR  I`` used by the GAT.

    Matches the edge set of :func:`repro.kg.sparse.edge_index` with
    ``add_self_loops=True`` (duplicates merged, indices sorted), so a
    full-neighbourhood subgraph over this pattern reproduces the full-graph
    edge-list attention exactly.  Accepts a dense array or any scipy
    sparse matrix.
    """
    if sp.issparse(adjacency):
        matrix = adjacency.tocsr().astype(np.float64)
    else:
        matrix = sp.csr_matrix(np.asarray(adjacency, dtype=np.float64))
    pattern = (matrix != 0).astype(np.float64)
    pattern = (pattern + sp.identity(matrix.shape[0], format="csr")).tocsr()
    pattern.data[:] = 1.0
    pattern.sort_indices()
    return pattern


def flat_row_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions into CSR ``indices``/``data`` of the concatenated row slices."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    exclusive = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(exclusive, counts)
    return np.repeat(starts, counts) + offsets


@dataclass
class SubgraphLayer:
    """One renumbered message-passing step: input node set -> output node set.

    ``edge_src`` / ``edge_dst`` are *local* positions into the layer's input
    and output node arrays; edges are sorted by ``(dst, src)`` so segment
    reductions visit neighbours in the same order as a full-graph CSR row
    scan.  ``dst_in_src`` locates every output node inside the input set
    (output nodes are always included among the inputs), which bipartite
    attention needs for the destination-side logits.
    """

    num_src: int
    num_dst: int
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_weight: np.ndarray
    dst_in_src: np.ndarray
    _block: sp.csr_matrix | None = field(default=None, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def csr_block(self) -> sp.csr_matrix:
        """The ``(num_dst, num_src)`` renumbered CSR block (cached).

        In full-neighbourhood mode this equals the underlying matrix
        restricted to ``rows=output nodes, cols=input nodes`` — same values
        in the same per-row order, so ``spmm`` sums in the full-graph order.
        """
        if self._block is None:
            self._block = sp.csr_matrix(
                (self.edge_weight, (self.edge_dst, self.edge_src)),
                shape=(self.num_dst, self.num_src))
            self._block.sort_indices()
        return self._block


@dataclass
class SubgraphView:
    """Induced multi-layer subgraph around a batch of seed nodes.

    ``node_layers[k]`` holds the (sorted, unique) global ids feeding network
    layer ``k``; ``layers[k]`` carries the renumbered edges mapping
    ``node_layers[k] -> node_layers[k + 1]``.  The final entry
    ``node_layers[-1]`` is the seed set whose output embeddings the caller
    consumes (and scatters back to global arrays).
    """

    node_layers: list[np.ndarray]
    layers: list[SubgraphLayer]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def input_nodes(self) -> np.ndarray:
        """Global ids whose features enter the first layer (largest set)."""
        return self.node_layers[0]

    @property
    def seed_nodes(self) -> np.ndarray:
        """Global ids of the output rows produced by the last layer."""
        return self.node_layers[-1]

    @property
    def num_input(self) -> int:
        return len(self.node_layers[0])

    @property
    def num_seeds(self) -> int:
        return len(self.node_layers[-1])

    def local_to_global(self, local_ids, layer: int = -1) -> np.ndarray:
        """Map local positions in ``node_layers[layer]`` to global ids."""
        return self.node_layers[layer][np.asarray(local_ids, dtype=np.int64)]

    def global_to_local(self, global_ids, layer: int = -1) -> np.ndarray:
        """Map global ids to their positions within ``node_layers[layer]``.

        Raises ``KeyError`` when an id is not part of that node set — seed
        pairs must be drawn from the sampled batch.
        """
        nodes = self.node_layers[layer]
        global_ids = np.asarray(global_ids, dtype=np.int64)
        positions = np.searchsorted(nodes, global_ids)
        if len(nodes) == 0:
            if len(global_ids):
                raise KeyError(f"layer {layer} of this subgraph is empty")
            return positions
        missing = nodes[np.minimum(positions, len(nodes) - 1)] != global_ids
        if np.any(missing):
            absent = np.unique(global_ids[missing])[:5]
            raise KeyError(f"global ids {absent.tolist()} are not in layer "
                           f"{layer} of this subgraph")
        return positions

    def scatter_rows(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Scatter per-seed output rows back into a global ``(N, d)`` array."""
        out[self.seed_nodes] = values
        return out


class NeighbourSampler:
    """Layer-wise neighbour sampler over one CSR message-passing operator.

    Parameters
    ----------
    matrix:
        Square CSR matrix whose sparsity pattern defines neighbourhoods —
        the normalised adjacency for GCN-style ``spmm`` layers, or an
        :func:`attention_pattern` for the edge-list GAT.
    fanouts:
        One entry per network layer, ordered as the layers are applied
        (``fanouts[0]`` belongs to the first, outermost layer).  ``None``
        (or ``-1``) keeps the full neighbourhood; a positive integer keeps
        at most that many *off-diagonal* neighbours per node — an explicit
        diagonal entry (self-loop) is always retained on top.
    seed:
        Seed of the sampler-owned generator (used when ``sample`` is not
        given an explicit one), making training runs reproducible.
    rescale:
        Rescale sampled off-diagonal weights by ``degree / fanout`` so the
        sampled aggregation is an unbiased estimator of the full sum.
        Irrelevant for attention patterns, whose weights are ignored.
    """

    def __init__(self, matrix, fanouts: Sequence[int | None], seed: int = 0,
                 rescale: bool = True):
        if sp.issparse(matrix):
            matrix = matrix.tocsr().astype(np.float64)
        else:
            matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("sampling requires a square matrix")
        matrix.sort_indices()
        self.matrix = matrix
        normalized: list[int | None] = []
        for fanout in fanouts:
            if fanout is None or fanout == -1:
                normalized.append(None)
            elif int(fanout) > 0:
                normalized.append(int(fanout))
            else:
                raise ValueError("fanouts must be positive, -1 or None")
        if not normalized:
            raise ValueError("at least one layer fanout is required")
        self.fanouts = tuple(normalized)
        self.rescale = rescale
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        return len(self.fanouts)

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    def is_full_neighbourhood(self) -> bool:
        """True when no layer drops any edge (exact receptive fields)."""
        return all(fanout is None for fanout in self.fanouts)

    # ------------------------------------------------------------------
    def _layer_edges(self, dst_nodes: np.ndarray, fanout: int | None,
                     rng: np.random.Generator):
        """Sampled ``(src_global, weight, dst_local)`` edges for one layer.

        Rows are visited in ascending ``dst`` order and entries within a row
        keep their CSR (ascending column) order, so the renumbered edge list
        is ``(dst, src)``-sorted — the invariant the bit-equality of the
        full-neighbourhood forward relies on.

        The sampled path is fully vectorised (this runs once per layer per
        side per batch): one random key per gathered edge, a single lexsort
        grouping edges by row in key order, and a rank-below-fanout mask —
        equivalent to a per-row uniform draw without replacement.  Self
        edges get key ``-1`` so they are always retained without consuming
        the fanout budget.
        """
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        starts = indptr[dst_nodes]
        counts = indptr[dst_nodes + 1] - starts
        positions = flat_row_positions(starts, counts)
        dst_local = np.repeat(np.arange(len(dst_nodes)), counts)
        if fanout is None:
            return indices[positions], data[positions].copy(), dst_local

        cols = indices[positions]
        is_self = cols == dst_nodes[dst_local]
        self_counts = np.bincount(dst_local[is_self], minlength=len(dst_nodes))
        off_counts = counts - self_counts
        needs_sampling = off_counts > fanout
        if not needs_sampling.any():
            return cols, data[positions].copy(), dst_local

        keys = rng.random(len(positions))
        keys[is_self] = -1.0
        order = np.lexsort((keys, dst_local))
        # rank of each edge within its row, in key order (self edges first)
        row_offsets = np.cumsum(counts) - counts
        ranks = np.arange(len(positions)) - np.repeat(row_offsets, counts)
        allowed = np.where(needs_sampling, fanout + self_counts, counts)
        keep = ranks < allowed[dst_local[order]]

        kept_dst = dst_local[order][keep]
        kept_positions = positions[order][keep]
        # restore the (dst, ascending column) order required downstream
        restore = np.lexsort((indices[kept_positions], kept_dst))
        kept_dst = kept_dst[restore]
        kept_positions = kept_positions[restore]
        kept_cols = indices[kept_positions]
        weights = data[kept_positions].copy()
        if self.rescale:
            scale = np.where(needs_sampling, off_counts / float(fanout), 1.0)
            off_diagonal = kept_cols != dst_nodes[kept_dst]
            weights[off_diagonal] *= scale[kept_dst[off_diagonal]]
        return kept_cols, weights, kept_dst

    def sample(self, seed_nodes, rng: np.random.Generator | None = None) -> SubgraphView:
        """Extract the induced subgraph view around ``seed_nodes``.

        Seeds are deduplicated and sorted; sampling proceeds from the seeds
        outwards (last network layer first), unioning every layer's output
        nodes into its input set so destination features are always
        available to the bipartite layers.
        """
        rng = rng if rng is not None else self._rng
        seeds = np.unique(np.asarray(seed_nodes, dtype=np.int64))
        if len(seeds) == 0:
            raise ValueError("sample() requires at least one seed node")
        if seeds[0] < 0 or seeds[-1] >= self.num_nodes:
            raise ValueError("seed node ids out of range")

        node_layers: list[np.ndarray] = [seeds]
        raw_edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for fanout in reversed(self.fanouts):
            dst_nodes = node_layers[0]
            src_global, weights, dst_local = self._layer_edges(dst_nodes, fanout, rng)
            src_nodes = np.union1d(dst_nodes, src_global)
            raw_edges.append((src_global, weights, dst_local))
            node_layers.insert(0, src_nodes)

        layers: list[SubgraphLayer] = []
        for index, (src_global, weights, dst_local) in enumerate(reversed(raw_edges)):
            src_nodes = node_layers[index]
            dst_nodes = node_layers[index + 1]
            layers.append(SubgraphLayer(
                num_src=len(src_nodes),
                num_dst=len(dst_nodes),
                edge_src=np.searchsorted(src_nodes, src_global),
                edge_dst=dst_local,
                edge_weight=np.asarray(weights, dtype=np.float64),
                dst_in_src=np.searchsorted(src_nodes, dst_nodes),
            ))
        return SubgraphView(node_layers=node_layers, layers=layers)
