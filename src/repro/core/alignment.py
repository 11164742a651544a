"""Alignment decoding utilities: similarity matrices, CSLS, mutual nearest pairs.

These are shared between DESAlign and the baselines: cosine similarity for
ranking, CSLS re-scaling (used by several EA systems to counter hubness) and
the mutual-nearest-neighbour selection that drives the iterative
(bootstrapping) training strategy described in Sec. V-A(2).

:func:`mutual_nearest_pairs` also accepts the streaming
:class:`~repro.core.similarity.TopKSimilarity` decode artefact (its
reduction only needs each entity's best match), so iterative training on
large tasks never materialises the ``n_s x n_t`` matrix.  The helpers that
inherently need the full matrix (:func:`csls_similarity`,
:func:`greedy_one_to_one`) reject a top-k decode with a pointer to the
streaming equivalent instead of failing inside numpy.
"""

from __future__ import annotations

import numpy as np

from .similarity import TopKSimilarity

__all__ = [
    "cosine_similarity",
    "csls_similarity",
    "mutual_nearest_pairs",
    "greedy_one_to_one",
]


def cosine_similarity(source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``source`` and ``target``."""
    source = np.asarray(source, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    source_norm = source / np.maximum(np.linalg.norm(source, axis=1, keepdims=True), 1e-12)
    target_norm = target / np.maximum(np.linalg.norm(target, axis=1, keepdims=True), 1e-12)
    return source_norm @ target_norm.T


def csls_similarity(similarity: np.ndarray, k: int = 10) -> np.ndarray:
    """Cross-domain similarity local scaling of a similarity matrix.

    ``CSLS(i, j) = 2 s(i, j) - r_T(i) - r_S(j)`` where ``r`` is the mean
    similarity to the ``k`` nearest cross-graph neighbours.  The k-NN means
    use ``np.partition`` top-k selection — ``O(n²)`` instead of the
    ``O(n² log n)`` of a full sort; the selected slice is then sorted so the
    summation order (and hence every bit of the result) matches the
    historical full-sort formulation.
    """
    if isinstance(similarity, TopKSimilarity):
        raise TypeError(
            "csls_similarity needs the full matrix; for a streaming top-k "
            "decode use TopKSimilarity.csls_scores(), which returns the CSLS "
            "values of the kept (top-k) entries")
    similarity = np.asarray(similarity, dtype=np.float64)
    k_row = min(k, similarity.shape[1])
    k_col = min(k, similarity.shape[0])
    row_top = np.partition(similarity, similarity.shape[1] - k_row, axis=1)[:, -k_row:]
    col_top = np.partition(similarity, similarity.shape[0] - k_col, axis=0)[-k_col:, :]
    row_mean = np.sort(row_top, axis=1).mean(axis=1, keepdims=True)
    col_mean = np.sort(col_top, axis=0).mean(axis=0, keepdims=True)
    return 2.0 * similarity - row_mean - col_mean


def mutual_nearest_pairs(similarity,
                         threshold: float = 0.0,
                         exclude_source: set[int] | None = None,
                         exclude_target: set[int] | None = None) -> list[tuple[int, int]]:
    """Cross-graph mutual nearest-neighbour pairs above ``threshold``.

    Used by the iterative strategy as a buffering mechanism: pairs where
    each entity is the other's best match (and neither is already a seed)
    are promoted to pseudo-labels for the next training round.

    Accepts either a dense similarity matrix or a streaming
    :class:`TopKSimilarity`, whose running row/column argmax reductions
    carry the same first-index tie semantics as ``np.argmax``.
    """
    if isinstance(similarity, TopKSimilarity):
        return similarity.mutual_nearest_pairs(
            threshold=threshold, exclude_source=exclude_source,
            exclude_target=exclude_target)
    similarity = np.asarray(similarity, dtype=np.float64)
    exclude_source = exclude_source or set()
    exclude_target = exclude_target or set()
    source_ids = np.arange(similarity.shape[0])
    best_target = similarity.argmax(axis=1)
    best_source = similarity.argmax(axis=0)
    keep = best_source[best_target] == source_ids
    keep &= similarity[source_ids, best_target] >= threshold
    if exclude_source:
        keep &= ~np.isin(source_ids, np.fromiter(exclude_source, dtype=np.int64))
    if exclude_target:
        keep &= ~np.isin(best_target, np.fromiter(exclude_target, dtype=np.int64))
    return [(int(s), int(t)) for s, t in zip(source_ids[keep], best_target[keep])]


def greedy_one_to_one(similarity: np.ndarray) -> list[tuple[int, int]]:
    """Greedy one-to-one matching by descending similarity (alignment editing).

    A simple assignment heuristic used to post-process predictions when a
    strict one-to-one mapping is required.  Only ``min(n_s, n_t)`` matches
    can exist, so instead of argsorting all ``n²`` entries the candidate
    pool is grown by partial selection (``np.partition`` threshold + a sort
    of the selected pool), escalating geometrically in the rare case the
    pool is exhausted by row/column conflicts before the assignment is
    complete.  Ties are broken deterministically by flat (row-major) index.
    """
    if isinstance(similarity, TopKSimilarity):
        raise TypeError(
            "greedy_one_to_one needs the full matrix (any source may have to "
            "fall back past its top-k once targets are taken); materialise "
            "a small decode via TopKSimilarity.dense()")
    similarity = np.asarray(similarity, dtype=np.float64)
    num_source, num_target = similarity.shape
    need = min(num_source, num_target)
    flat = -similarity.ravel()
    total = flat.size

    pool_size = min(total, max(4 * need, 64))
    while True:
        if pool_size >= total:
            pool = np.arange(total)
        else:
            # Everything scoring at least as well as the pool's worst kept
            # entry is included, so boundary ties cannot drop candidates.
            kth_value = np.partition(flat, pool_size - 1)[pool_size - 1]
            pool = np.flatnonzero(flat <= kth_value)
        order = pool[np.lexsort((pool, flat[pool]))]
        used_source = np.zeros(num_source, dtype=bool)
        used_target = np.zeros(num_target, dtype=bool)
        matches: list[tuple[int, int]] = []
        for flat_index in order:
            source_id, target_id = divmod(int(flat_index), num_target)
            if used_source[source_id] or used_target[target_id]:
                continue
            matches.append((source_id, target_id))
            used_source[source_id] = True
            used_target[target_id] = True
            if len(matches) == need:
                return matches
        if pool_size >= total:
            return matches
        pool_size = min(total, pool_size * 4)
