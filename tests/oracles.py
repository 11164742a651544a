"""Shared brute-force oracles for the test suites.

Every optimised path in the library is validated against the
straightforward formulations collected here:

* the decode stack — vectorised ranking, partial-selection CSLS, streaming
  blockwise top-k, approximate candidate decodes — against dense
  similarity matrices, per-test-pair Python loops, full ``np.sort``
  reductions and quadratic scans;
* the candidate gather — rectangle and chunked per-edge dot products and
  the scatter column max — against one unchunked gather of every edge and
  a ``np.lexsort`` of every cell;
* the IVF fit — k-means sums added cluster by cluster — against the
  ``np.add.at`` scatter it replaced;
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
from repro.core.ann import RowCandidates
from repro.core.similarity import PartialTopK
from repro.kg.sampling import flat_row_positions

__all__ = [
    "reference_similarity",
    "reference_blockwise_similarity",
    "reference_ranks",
    "reference_csls",
    "reference_mutual_pairs",
    "reference_topk",
    "reference_edge_dot_products",
    "reference_candidate_topk",
    "reference_escalated_candidates",
    "reference_ivf_index",
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


def _normalized_rounds(states) -> list[np.ndarray]:
    if isinstance(states, np.ndarray):
        states = [states]
    normalized = []
    for state in states:
        state = np.asarray(state, dtype=np.float64)
        normalized.append(state / np.maximum(
            np.linalg.norm(state, axis=1, keepdims=True), 1e-12))
    return normalized


def reference_similarity(source_states, target_states) -> np.ndarray:
    """The round-averaged dense cosine similarity (Algorithm 1, line 15).

    Each round's states are L2-normalised (``x / max(‖x‖, 1e-12)``), their
    cosine matrix is materialised in full, and the matrices are averaged
    over rounds — the ``n_s x n_t`` matrix every streaming decode reduces.
    Accepts single matrices or the per-round lists ``decode_states()``
    returns.
    """
    rounds = [source @ target.T for source, target in zip(
        _normalized_rounds(source_states), _normalized_rounds(target_states),
        strict=True)]
    return np.mean(rounds, axis=0)


def reference_blockwise_similarity(source_states, target_states,
                                   block_size: int) -> np.ndarray:
    """The dense round average evaluated on a scan's grid of source blocks.

    For each block of ``block_size`` source rows, every round's cosine
    product is computed for the block alone, the products are summed in
    round order and the sum is divided by the number of rounds — the cells
    a streaming decode with that ``block_size`` reduces.  A GEMM's last-ulp
    rounding depends on its row count, so this can differ from
    :func:`reference_similarity`, but only when there is more than one
    block.
    """
    sources = _normalized_rounds(source_states)
    targets = _normalized_rounds(target_states)
    assert len(sources) == len(targets)
    num_source = sources[0].shape[0]
    blocks = []
    for start in range(0, num_source, block_size):
        stop = min(start + block_size, num_source)
        total = sources[0][start:stop] @ targets[0].T
        for source, target in zip(sources[1:], targets[1:]):
            total = total + source[start:stop] @ target.T
        blocks.append(total / len(sources))
    return np.concatenate(blocks, axis=0)


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


def reference_edge_dot_products(source_states, target_states, rows, cols,
                                dtype) -> np.ndarray:
    """Round-averaged per-edge dot products from one gather of every edge.

    One ``einsum("ed,ed->e")`` per round over all edges at once: no
    chunks, no rectangles — what ``repro.core.ann.edge_dot_products``
    must reproduce bit for bit.
    """
    values = np.zeros(len(cols), dtype=dtype)
    for source, target in zip(source_states, target_states):
        values = values + np.einsum("ed,ed->e", source[rows], target[cols])
    values = np.asarray(values, dtype=np.float64)
    if len(source_states) > 1:
        values = values / len(source_states)
    return values


def reference_candidate_topk(source_norm, target_norm, row_candidates,
                             row_start: int, row_stop: int, k_keep: int,
                             block_size: int, dtype) -> PartialTopK:
    """The candidate kernel as a gather of every edge and a sort of every cell.

    Every edge of rows ``[row_start, row_stop)`` is gathered at once (one
    ``einsum`` per round over all of them), each block's column max is the
    leader of a ``np.lexsort`` by (column, value desc, row asc), and each
    row keeps the first ``k_keep`` cells of a full (score desc, id asc)
    sort of its cells — what ``compute_partial_topk_candidates`` must
    reproduce bit for bit, ties across the k-th place included.
    """
    indptr, cand_indices = row_candidates.indptr, row_candidates.indices
    num_cols = row_candidates.num_columns
    total_rows = row_stop - row_start
    all_counts = np.diff(indptr[row_start:row_stop + 1])
    all_values = reference_edge_dot_products(
        source_norm, target_norm,
        np.repeat(np.arange(row_start, row_stop), all_counts),
        cand_indices[indptr[row_start]:indptr[row_stop]], dtype)

    offset = indptr[row_start]
    indices = np.empty((total_rows, k_keep), dtype=np.int64)
    scores = np.empty((total_rows, k_keep), dtype=np.float64)
    for local, row in enumerate(range(row_start, row_stop)):
        lo, hi = indptr[row] - offset, indptr[row + 1] - offset
        row_ids = cand_indices[indptr[row]:indptr[row + 1]]
        row_values = all_values[lo:hi]
        order = np.lexsort((row_ids, -row_values))[:k_keep]
        indices[local] = row_ids[order]
        scores[local] = row_values[order]

    col_max = np.full(num_cols, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(num_cols, dtype=np.int64)
    for start in range(row_start, row_stop, block_size):
        stop = min(start + block_size, row_stop)
        lo, hi = indptr[start], indptr[stop]
        cols = cand_indices[lo:hi]
        counts = np.diff(indptr[start:stop + 1])
        rows_local = np.repeat(np.arange(stop - start), counts)
        values = all_values[lo - offset:hi - offset]

        if len(cols):
            group = np.lexsort((rows_local, -values, cols))
            grouped_cols = cols[group]
            leaders = np.ones(len(group), dtype=bool)
            leaders[1:] = grouped_cols[1:] != grouped_cols[:-1]
            lead = group[leaders]
            lead_cols = cols[lead]
            improved = values[lead] > col_max[lead_cols]
            col_max[lead_cols[improved]] = values[lead][improved]
            col_argmax[lead_cols[improved]] = start + rows_local[lead][improved]

    return PartialTopK(
        rows=np.arange(row_start, row_stop, dtype=np.int64),
        indices=indices, scores=scores, col_max=col_max,
        col_argmax=col_argmax, col_top=None, csls_k_col=0,
        computed_cells=int(all_counts.sum()) * len(source_norm))


def reference_escalated_candidates(index, queries, slack: float = 0.0) -> RowCandidates:
    """``IVFIndex.escalated_candidates`` with one gather of every probed edge.

    Each probe position gathers the query and vector rows of all its edges
    at once, as the index did before its dot products were chunked.
    """
    queries = np.asarray(queries, dtype=np.float64)
    scores = queries @ index.centroids.T
    order = np.argsort(-scores, axis=1)
    norms = np.linalg.norm(queries, axis=1)
    bounds = (np.take_along_axis(scores, order, axis=1)
              + norms[:, None] * index.radii[order])
    suffix_max = np.maximum.accumulate(bounds[:, ::-1], axis=1)[:, ::-1]
    best = np.full(len(queries), -np.inf)
    active = np.arange(len(queries))
    all_rows, all_cols = [], []
    for position in range(index.n_clusters):
        if len(active) == 0:
            break
        clusters = order[active, position]
        starts = index.bucket_indptr[clusters]
        counts = index.bucket_indptr[clusters + 1] - starts
        cols = index.bucket_indices[flat_row_positions(starts, counts)]
        rows = np.repeat(active, counts)
        if len(cols):
            values = np.einsum("ed,ed->e", queries[rows], index.vectors[cols])
            np.maximum.at(best, rows, values)
            all_rows.append(rows)
            all_cols.append(cols)
        if position + 1 >= index.n_clusters:
            break
        done = best[active] >= suffix_max[active, position + 1] - slack
        active = active[~done]
    return RowCandidates.from_pairs(np.concatenate(all_rows),
                                    np.concatenate(all_cols), len(queries),
                                    len(index.vectors))


def reference_ivf_index(vectors, n_clusters=None, kmeans_iters: int = 8,
                        seed: int = 0, init_centroids=None,
                        train_size=None) -> dict:
    """``IVFIndex``'s fit with every k-means sum scattered by ``np.add.at``.

    The formulation the index used before it summed each cluster's members
    on its own: the same seeded draws, Lloyd updates, reseeding of empty
    cells, convergence exit, final assignment, bucket CSR and radii, with
    unchunked assignment passes (the index chunks at
    ``IVFIndex.ASSIGN_CHUNK`` rows, more than any test draws).  Returns
    ``centroids``, ``assignments``, ``radii``, ``bucket_indptr`` and
    ``bucket_indices``.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    num = len(vectors)
    if n_clusters is None:
        n_clusters = max(1, int(round(np.sqrt(num))))
    n_clusters = min(int(n_clusters), num)
    rng = np.random.default_rng(seed)
    if train_size is not None and int(train_size) < num:
        size = max(int(train_size), n_clusters)
        train = vectors[np.sort(rng.choice(num, size=size, replace=False))]
    else:
        train = vectors
    if (init_centroids is not None
            and init_centroids.shape == (n_clusters, vectors.shape[1])):
        centroids = np.asarray(init_centroids, dtype=np.float64).copy()
    else:
        centroids = train[rng.choice(len(train), size=n_clusters,
                                     replace=False)].copy()

    def assign(points, centroids):
        half_norms = 0.5 * np.sum(centroids ** 2, axis=1)
        return np.argmax(points @ centroids.T - half_norms[None, :], axis=1)

    previous = None
    for _ in range(int(kmeans_iters)):
        assignments = assign(train, centroids)
        if previous is not None and np.array_equal(assignments, previous):
            break
        previous = assignments
        sums = np.zeros_like(centroids)
        np.add.at(sums, assignments, train)
        counts = np.bincount(assignments, minlength=n_clusters)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]
        if not occupied.all():
            distances = np.linalg.norm(train - centroids[assignments], axis=1)
            farthest = np.argsort(-distances)
            centroids[~occupied] = train[farthest[:int((~occupied).sum())]]
            previous = None
    assignments = assign(vectors, centroids)
    radii = np.zeros(n_clusters, dtype=np.float64)
    np.maximum.at(radii, assignments,
                  np.linalg.norm(vectors - centroids[assignments], axis=1))
    bucket_indptr = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(np.bincount(assignments, minlength=n_clusters),
              out=bucket_indptr[1:])
    return {"centroids": centroids, "assignments": assignments,
            "radii": radii, "bucket_indptr": bucket_indptr,
            "bucket_indices": np.argsort(assignments, kind="stable")}


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
