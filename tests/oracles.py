"""Shared brute-force oracles for the decode stack's test suites.

Every optimised decode path in the library — vectorised ranking, partial-
selection CSLS, streaming blockwise top-k, approximate candidate decodes —
is validated against the straightforward formulations collected here.  The
oracles deliberately trade speed for obviousness: per-test-pair Python
loops, full ``np.sort`` reductions and quadratic scans, exactly as the
historical implementations computed them, so a test failure localises the
bug in the optimised path rather than the reference.

The helpers accept plain dense similarity matrices (oracles never consume
streaming decodes; producing the dense matrix is the caller's job).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "reference_similarity",
    "reference_ranks",
    "reference_csls",
    "reference_mutual_pairs",
    "reference_topk",
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
