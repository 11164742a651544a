"""Shared brute-force oracles for the test suites.

Every optimised path in the library is validated against the
straightforward formulations collected here:

* the decode stack — vectorised ranking, partial-selection CSLS, streaming
  blockwise top-k, approximate candidate decodes — against dense
  similarity matrices, per-test-pair Python loops, full ``np.sort``
  reductions and quadratic scans;
* the CSR graph operators — adjacency, normalisation, Laplacian, both
  Dirichlet-energy forms, Semantic Propagation, the Prop. 4 closed form and
  the edge-list GAT — against the paper's dense ``n x n`` formulas;
* the autograd tape's gradient accumulation — adopting fresh arrays and
  adding in place — against copying every first gradient.

The oracles deliberately trade speed for obviousness, exactly as the
historical implementations computed them, so a test failure localises the
bug in the optimised path rather than the reference.  The decode oracles
accept plain dense similarity matrices (oracles never consume streaming
decodes; producing the dense matrix is the caller's job); the graph oracles
accept a dense or CSR adjacency and densify it.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, softmax
from repro.autograd.tensor import _unbroadcast

__all__ = [
    "reference_similarity",
    "reference_ranks",
    "reference_csls",
    "reference_mutual_pairs",
    "reference_topk",
    "reference_adjacency",
    "reference_normalized_adjacency",
    "reference_laplacian",
    "reference_dirichlet_energy",
    "reference_dirichlet_energy_pairwise",
    "reference_propagation",
    "reference_closed_form",
    "reference_gat_layer",
    "reference_gat",
    "dense_graph_formulas",
    "copy_every_first_gradient",
]


def reference_similarity(source_states, target_states) -> np.ndarray:
    """The round-averaged dense cosine similarity (Algorithm 1, line 15).

    Each round's states are L2-normalised (``x / max(‖x‖, 1e-12)``), their
    cosine matrix is materialised in full, and the matrices are averaged
    over rounds — the ``n_s x n_t`` matrix every streaming decode reduces.
    Accepts single matrices or the per-round lists ``decode_states()``
    returns.
    """
    if isinstance(source_states, np.ndarray):
        source_states, target_states = [source_states], [target_states]
    rounds = []
    for source, target in zip(source_states, target_states, strict=True):
        source = np.asarray(source, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        source = source / np.maximum(
            np.linalg.norm(source, axis=1, keepdims=True), 1e-12)
        target = target / np.maximum(
            np.linalg.norm(target, axis=1, keepdims=True), 1e-12)
        rounds.append(source @ target.T)
    return np.mean(rounds, axis=0)


def reference_ranks(similarity, test_pairs, restrict_candidates: bool = True) -> np.ndarray:
    """The historical per-test-pair Python loop, kept as a semantics oracle.

    Rank = 1 + strictly-better candidates + equal-scoring candidates whose
    column precedes the gold's (the deterministic index-order tie break of
    the evaluation protocol).
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    test_pairs = np.asarray(test_pairs, dtype=np.int64)
    if restrict_candidates:
        candidates = np.unique(test_pairs[:, 1])
    else:
        candidates = np.arange(similarity.shape[1])
    candidate_position = {int(t): i for i, t in enumerate(candidates)}
    scores = similarity[:, candidates]
    ranks = np.zeros(len(test_pairs), dtype=np.int64)
    for row, (source_id, target_id) in enumerate(test_pairs):
        gold_column = candidate_position[int(target_id)]
        row_scores = scores[source_id]
        gold_score = row_scores[gold_column]
        better = np.sum(row_scores > gold_score)
        ties_before = np.sum((row_scores == gold_score)[:gold_column])
        ranks[row] = 1 + better + ties_before
    return ranks


def reference_csls(similarity, k: int = 10) -> np.ndarray:
    """CSLS via the historical full-sort formulation.

    ``CSLS(i, j) = 2 s(i, j) - r_T(i) - r_S(j)`` with the k-NN means taken
    over ascending-sorted slices, which fixes the summation order the
    optimised partition-based implementation must reproduce bit for bit.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    k_row = min(k, similarity.shape[1])
    k_col = min(k, similarity.shape[0])
    row_mean = np.sort(similarity, axis=1)[:, -k_row:].mean(axis=1, keepdims=True)
    col_mean = np.sort(similarity, axis=0)[-k_col:, :].mean(axis=0, keepdims=True)
    return 2.0 * similarity - row_mean - col_mean


def reference_mutual_pairs(similarity, threshold: float = 0.0,
                           exclude_source=None,
                           exclude_target=None) -> list[tuple[int, int]]:
    """Mutual nearest neighbours by an explicit per-row/per-column scan.

    ``np.argmax`` first-index tie semantics in both directions, then the
    threshold and the exclusion sets — the selection rule of the iterative
    strategy, spelled out one pair at a time.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    exclude_source = exclude_source or set()
    exclude_target = exclude_target or set()
    pairs: list[tuple[int, int]] = []
    for source_id in range(similarity.shape[0]):
        target_id = int(np.argmax(similarity[source_id]))
        if int(np.argmax(similarity[:, target_id])) != source_id:
            continue
        if similarity[source_id, target_id] < threshold:
            continue
        if source_id in exclude_source or target_id in exclude_target:
            continue
        pairs.append((source_id, target_id))
    return pairs


def reference_topk(similarity, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` (indices, scores) by full argsort.

    Sorted by descending score with ties broken by ascending column id —
    the deterministic order the streaming engine stores.
    """
    similarity = np.asarray(similarity, dtype=np.float64)
    k = min(k, similarity.shape[1])
    indices = np.empty((similarity.shape[0], k), dtype=np.int64)
    scores = np.empty((similarity.shape[0], k), dtype=np.float64)
    columns = np.arange(similarity.shape[1])
    for row in range(similarity.shape[0]):
        order = np.lexsort((columns, -similarity[row]))[:k]
        indices[row] = order
        scores[row] = similarity[row][order]
    return indices, scores


# ---------------------------------------------------------------------------
# Graph operators: the dense n x n formulas
# ---------------------------------------------------------------------------
def _dense(matrix) -> np.ndarray:
    if sp.issparse(matrix):
        return matrix.toarray().astype(np.float64)
    return np.asarray(matrix, dtype=np.float64)


def reference_adjacency(graph, weighted: bool = False) -> np.ndarray:
    """Symmetric ``n x n`` adjacency, filled by a loop over the triples.

    Undirected, self-loops dropped, parallel edges counted when
    ``weighted`` and collapsed to 1 otherwise.
    """
    adjacency = np.zeros((graph.num_entities, graph.num_entities))
    for triple in graph.relation_triples:
        if triple.head == triple.tail:
            continue
        adjacency[triple.head, triple.tail] += 1.0
        adjacency[triple.tail, triple.head] += 1.0
    if not weighted:
        adjacency = (adjacency > 0).astype(np.float64)
    return adjacency


def _looped_and_inverse_sqrt_degrees(adjacency, add_self_loops: bool):
    """Dense ``A [+ I]`` and its ``D^{-1/2}`` diagonal (0 for zero-degree rows)."""
    dense = _dense(adjacency)
    if add_self_loops:
        dense = dense + np.eye(dense.shape[0])
    degrees = dense.sum(axis=1)
    return dense, np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-12)), 0.0)


def reference_normalized_adjacency(adjacency, add_self_loops: bool = True) -> np.ndarray:
    """``D^{-1/2} (A [+ I]) D^{-1/2}`` on dense arrays."""
    dense, inv_sqrt = _looped_and_inverse_sqrt_degrees(adjacency, add_self_loops)
    return dense * inv_sqrt[:, None] * inv_sqrt[None, :]


def reference_laplacian(adjacency, add_self_loops: bool = True) -> np.ndarray:
    """Normalised Laplacian ``Δ = I - Ã`` as a dense array."""
    normalised = reference_normalized_adjacency(adjacency, add_self_loops=add_self_loops)
    return np.eye(normalised.shape[0]) - normalised


def reference_dirichlet_energy(features, laplacian) -> float:
    """Trace form ``tr(Xᵀ Δ X)`` of Definition 3 with a dense ``Δ``."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    return float(np.trace(features.T @ _dense(laplacian) @ features))


def reference_dirichlet_energy_pairwise(features, adjacency,
                                        add_self_loops: bool = True) -> float:
    """Pairwise form ``1/2 Σ_ij a_ij ||x_i/√d_i - x_j/√d_j||²`` over all pairs."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    dense, inv_sqrt = _looped_and_inverse_sqrt_degrees(adjacency, add_self_loops)
    scaled = features * inv_sqrt[:, None]
    squared_norms = np.sum(scaled ** 2, axis=1)
    pairwise = squared_norms[:, None] + squared_norms[None, :] - 2.0 * (scaled @ scaled.T)
    return float(0.5 * np.sum(dense * pairwise))


def reference_propagation(features, adjacency, known=None, iterations: int = 2,
                          reset_known: bool = True) -> list[np.ndarray]:
    """Explicit Euler states ``x ← Ã x`` (Eq. 20-22) with a dense ``Ã``."""
    features = np.asarray(features, dtype=np.float64)
    propagation = reference_normalized_adjacency(adjacency)
    states = [features.copy()]
    current = features.copy()
    for _ in range(iterations):
        current = propagation @ current
        if reset_known and known is not None:
            known = np.asarray(known, dtype=bool)
            current[known] = features[known]
        states.append(current.copy())
    return states


def reference_closed_form(features, adjacency, known) -> np.ndarray:
    """Proposition 4 by a dense solve of ``Δ_oo x_o = -Δ_oc x_c``."""
    features = np.asarray(features, dtype=np.float64)
    known = np.asarray(known, dtype=bool)
    solution = features.copy()
    if known.all():
        return solution
    unknown = ~known
    laplacian = reference_laplacian(adjacency)
    lap_oo = laplacian[np.ix_(unknown, unknown)]
    lap_oc = laplacian[np.ix_(unknown, known)]
    solution[unknown] = np.linalg.solve(lap_oo, -lap_oc @ features[known])
    return solution


def reference_gat_layer(layer, features: Tensor, adjacency) -> Tensor:
    """``layer``'s attention as a masked dense softmax over every pair.

    Logits of non-edges are pushed to ``-1e9`` (they underflow to zero
    weight); self-loops are always attended.  Built from autograd ops on
    the layer's own parameters, so gradients compare too.
    """
    dense = _dense(adjacency)
    mask = (dense > 0) | np.eye(dense.shape[0], dtype=bool)
    bias = Tensor(np.where(mask, 0.0, -1e9))
    outputs = []
    for head in range(layer.num_heads):
        transformed = features @ layer._head_weight(head)
        logits_src = transformed @ layer._attn_src[head]
        logits_dst = transformed @ layer._attn_dst[head]
        logits = (logits_src + logits_dst.T).leaky_relu(layer.negative_slope)
        outputs.append(softmax(logits + bias, axis=-1) @ transformed)
    return Tensor.concat(outputs, axis=-1)


def reference_gat(gat, features: Tensor, adjacency) -> Tensor:
    """``gat``'s full stack with every layer run by :func:`reference_gat_layer`."""
    hidden = gat.diagonal(features)
    for index, layer in enumerate(gat.layers):
        hidden = reference_gat_layer(layer, hidden, adjacency)
        if index < len(gat.layers) - 1:
            hidden = hidden.relu()
    return hidden


@contextlib.contextmanager
def dense_graph_formulas():
    """Run every ``GAT`` and ``SemanticPropagation`` through the dense oracles.

    Inside the block a full-graph model trains and decodes with the masked
    dense attention softmax and dense Euler steps, so a whole fit can be
    compared with the CSR one.
    """
    from repro.core.propagation import SemanticPropagation
    from repro.nn import GAT

    originals = GAT.forward, SemanticPropagation.propagate_features

    def gat_forward(self, features, adjacency):
        return reference_gat(self, features, adjacency)

    def propagate_features(self, features, adjacency, known=None):
        return reference_propagation(features, adjacency, known, self.iterations,
                                     self.reset_known)

    GAT.forward, SemanticPropagation.propagate_features = gat_forward, propagate_features
    try:
        yield
    finally:
        GAT.forward, SemanticPropagation.propagate_features = originals


@contextlib.contextmanager
def copy_every_first_gradient():
    """Run every ``Tensor`` accumulation under the copy-every-first-gradient rule.

    A tensor's first gradient is always copied (into C order) and each
    later one is summed into a new array, so no gradient buffer is ever
    adopted or written in place: the tape's in-place accumulation must
    match it bit for bit.
    """
    original = Tensor._accumulate

    def accumulate(self, grad):
        if not self.requires_grad:
            return
        grad = _unbroadcast(grad, self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    Tensor._accumulate = accumulate
    try:
        yield
    finally:
        Tensor._accumulate = original
