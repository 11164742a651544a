"""Evaluation metrics for entity alignment: Hits@k and MRR (Eq. 23-24).

Given pairwise similarities between source and target entities and a set of
gold test pairs, each source query entity is ranked against the candidate
target entities (by convention the targets of the test pairs, as in the
paper's evaluation protocol) and the rank of its gold counterpart feeds H@k
and MRR.

Similarities may arrive either as a full ``(num_source, num_target)``
matrix or as a streaming :class:`~repro.core.similarity.TopKSimilarity`
decode, in which case ranks come from the stored top-k neighbours — exact
whenever the gold target sits strictly inside the stored top-k.  Other
rows (gold missing, or tied with the top-k boundary score) are re-scored
by :meth:`~repro.core.similarity.TopKSimilarity.row_scores`, one call per
scan block holding such rows: it replays the block whole, bit for bit the
cells the scan reduced, so ties break as on the dense matrix.  That costs
at most one pass of the scan's GEMMs, and more than scoring each row alone
only when a few such rows spread over many blocks of a large table.

``ranking="csls"`` ranks on CSLS-rescaled similarities instead of raw
cosine, without ever densifying a streaming decode: within a row the CSLS
ordering is ``2 s(i, j) - r_S(j)`` (the row term is constant), and the
streamed column k-NN means ``r_S`` are available for *every* column, so a
stored entry's CSLS is exact and an unstored column's CSLS is bounded by
``2 · boundary - min_j r_S(j)``.  Whenever the gold beats that bound the
stored top-k already contains every better-ranked candidate; otherwise the
same block-replay fallback applies, rescaled as
:meth:`~repro.core.similarity.TopKSimilarity.csls_row` rescales — so CSLS
ranks are always exact too, matching ``csls_similarity`` on the dense
matrix bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import rules
from ..core.similarity import TopKSimilarity

__all__ = ["ranks_from_similarity", "hits_at_k", "mean_reciprocal_rank", "AlignmentMetrics",
           "evaluate_alignment", "EVALUATION_K"]

#: Neighbours kept by every evaluation decode: H@10, the largest cut-off
#: reported.  Exhaustive ranks are exact at any ``k`` (block-replay
#: fallback); an approximate decode ranks only what it stored, so it must
#: keep 10.
EVALUATION_K = 10


def ranks_from_similarity(similarity, test_pairs: np.ndarray,
                          restrict_candidates: bool = True,
                          ranking: str = "cosine",
                          csls_k: int = 10) -> np.ndarray:
    """Rank of the gold target for every test source entity (1-based).

    Parameters
    ----------
    similarity:
        Full ``(num_source, num_target)`` similarity matrix, or a
        :class:`TopKSimilarity` streaming decode.
    test_pairs:
        ``(num_test, 2)`` array of gold ``[source, target]`` pairs.
    restrict_candidates:
        When True (the standard MMEA protocol) candidates are restricted to
        the target entities appearing in the test set; otherwise every
        target entity is a candidate.
    ranking:
        ``"cosine"`` ranks the raw similarities; ``"csls"`` ranks their
        CSLS rescaling (hubness correction) — computed on the fly for a
        dense matrix and from the streamed k-NN means for a top-k decode.
    csls_k:
        ``k`` of the CSLS local-scaling means on the dense path; a top-k
        decode uses the ``csls_k`` it was streamed with.
    """
    rules.check_ranking_method(ranking)
    test_pairs = np.asarray(test_pairs, dtype=np.int64)
    if test_pairs.ndim != 2 or test_pairs.shape[1] != 2:
        raise ValueError("test_pairs must have shape (num_test, 2)")
    if isinstance(similarity, TopKSimilarity):
        return _ranks_from_topk(similarity, test_pairs, restrict_candidates,
                                ranking=ranking)
    similarity = np.asarray(similarity, dtype=np.float64)
    if ranking == "csls":
        from ..core.alignment import csls_similarity
        similarity = csls_similarity(similarity, k=csls_k)
    if restrict_candidates:
        candidates = np.unique(test_pairs[:, 1])
    else:
        candidates = np.arange(similarity.shape[1])
    # Candidate positions ascend with target id (np.unique sorts), so
    # searchsorted recovers each gold's column.
    return _gold_ranks(similarity[np.ix_(test_pairs[:, 0], candidates)],
                       np.searchsorted(candidates, test_pairs[:, 1]))


def _gold_ranks(scores: np.ndarray, gold_columns: np.ndarray) -> np.ndarray:
    """Rank of each row's gold column in one batched comparison.

    Rank = 1 + number of strictly better candidates + tied candidates
    before the gold (ties break deterministically on index order).  Only
    rows holding a tie besides the gold itself count ties by position.
    """
    gold_scores = scores[np.arange(len(scores)), gold_columns][:, None]
    ranks = 1 + np.count_nonzero(scores > gold_scores, axis=1)
    tied = np.flatnonzero(np.count_nonzero(scores == gold_scores, axis=1) > 1)
    if len(tied):
        before = np.arange(scores.shape[1]) < gold_columns[tied, None]
        ranks[tied] += np.count_nonzero((scores[tied] == gold_scores[tied])
                                        & before, axis=1)
    return ranks.astype(np.int64)


def _ranks_from_topk(topk: TopKSimilarity, test_pairs: np.ndarray,
                     restrict_candidates: bool = True,
                     ranking: str = "cosine") -> np.ndarray:
    """Gold ranks from a streaming top-k decode (exact; see module docstring).

    An ``approximate`` (candidate-restricted) decode has no exact-row
    fallback: ranks come from the stored top-k alone and a gold outside it
    ranks behind every candidate — the honest recall-style semantics of an
    ANN decode.  CSLS ranking on such a decode would be silently lossy and
    is refused.
    """
    if topk.approximate and ranking == "csls":
        raise rules.approximate_csls_error("this decode")
    num_target = topk.shape[1]
    if restrict_candidates:
        candidates = np.unique(test_pairs[:, 1])
    else:
        candidates = np.arange(num_target)
    is_candidate = np.zeros(num_target, dtype=bool)
    is_candidate[candidates] = True

    rows = test_pairs[:, 0]
    golds = test_pairs[:, 1]
    kept_ids = topk.indices[rows]                       # (num_test, k)
    kept_scores = topk.scores[rows]                     # (num_test, k) raw cosine
    kept_candidate = is_candidate[kept_ids]

    gold_hit = kept_ids == golds[:, None]
    found = gold_hit.any(axis=1)
    gold_scores = np.where(
        found,
        np.take_along_axis(kept_scores, gold_hit.argmax(axis=1)[:, None], axis=1)[:, 0],
        -np.inf)
    # Any column outside the stored top-k scores at most the boundary (the
    # k-th best raw similarity of the row).
    boundary = kept_scores[:, -1]

    if ranking == "csls":
        # Rescale the kept entries to their exact CSLS values (identical
        # arithmetic to csls_similarity on the dense matrix, entry by
        # entry); an unstored candidate's CSLS is bounded by
        # 2·boundary - min_j r_S(j), so the stored top-k provably contains
        # every better-ranked candidate whenever the gold beats that bound.
        kept_rank = topk.csls_scores(rows)
        gold_col_mean = topk.col_knn_mean[golds]
        gold_rank = np.where(
            found,
            2.0 * gold_scores - topk.row_knn_mean[rows] - gold_col_mean,
            -np.inf)
        min_col_mean = topk.col_knn_mean[candidates].min()
        # The row term r_T(i) is common to both sides; compare without it
        # so float cancellation cannot misclassify a borderline row.
        exact = found & (topk.is_exhaustive()
                         | ((2.0 * gold_scores - gold_col_mean)
                            > 2.0 * boundary - min_col_mean))
    else:
        kept_rank = kept_scores
        gold_rank = gold_scores
        # Exact whenever the gold sits strictly inside the stored top-k:
        # every strictly-better candidate and every tie then also sits
        # inside it.
        exact = found & (topk.is_exhaustive() | (gold_scores > boundary))

    better = np.sum(kept_candidate & (kept_rank > gold_rank[:, None]), axis=1)
    ties_before = np.sum(kept_candidate & (kept_rank == gold_rank[:, None])
                         & (kept_ids < golds[:, None]), axis=1)
    ranks = (1 + better + ties_before).astype(np.int64)

    if topk.approximate:
        # No exact fallback exists: a gold the candidate generator missed
        # ranks behind every candidate (a recall miss, not a silent guess).
        ranks[~found] = len(candidates) + 1
        return ranks

    # Exact fallback for golds outside the stored top-k or not provably
    # separated from it: one row_scores call per scan block holding such
    # rows (it replays that block's own product, and CSLS rescales it),
    # then one batched rank count per block, so the transient stays one
    # block of rows.
    rescore = topk.csls_row if ranking == "csls" else topk.row_scores
    fallback = np.flatnonzero(~exact)
    blocks = rows[fallback] // topk.block_size
    for block in np.unique(blocks):
        members = fallback[blocks == block]
        ranks[members] = _gold_ranks(rescore(rows[members])[:, candidates],
                                     np.searchsorted(candidates, golds[members]))
    return ranks


def hits_at_k(ranks: np.ndarray, k: int) -> float:
    """Fraction of queries whose gold answer is ranked within the top ``k``."""
    ranks = np.asarray(ranks)
    if len(ranks) == 0:
        return 0.0
    return float(np.mean(ranks <= k))


def mean_reciprocal_rank(ranks: np.ndarray) -> float:
    """Mean of reciprocal ranks of the gold answers."""
    ranks = np.asarray(ranks, dtype=np.float64)
    if len(ranks) == 0:
        return 0.0
    return float(np.mean(1.0 / ranks))


@dataclass(frozen=True)
class AlignmentMetrics:
    """Standard MMEA metric bundle: H@1, H@10 and MRR."""

    hits_at_1: float
    hits_at_10: float
    mrr: float
    num_queries: int = 0

    def as_dict(self) -> dict[str, float]:
        return {
            "H@1": self.hits_at_1,
            "H@10": self.hits_at_10,
            "MRR": self.mrr,
        }

    def __str__(self) -> str:
        return (f"H@1={self.hits_at_1 * 100:.1f} H@10={self.hits_at_10 * 100:.1f} "
                f"MRR={self.mrr * 100:.1f}")


def evaluate_alignment(similarity, test_pairs: np.ndarray,
                       restrict_candidates: bool = True,
                       ranking: str = "cosine",
                       csls_k: int = 10) -> AlignmentMetrics:
    """Compute H@1 / H@10 / MRR on gold test pairs.

    ``similarity`` is a full matrix or a :class:`TopKSimilarity` decode;
    ``ranking="csls"`` scores the CSLS rescaling instead of raw cosine.
    """
    test_pairs = np.asarray(test_pairs, dtype=np.int64)
    if len(test_pairs) == 0:
        return AlignmentMetrics(0.0, 0.0, 0.0, 0)
    ranks = ranks_from_similarity(similarity, test_pairs, restrict_candidates,
                                  ranking=ranking, csls_k=csls_k)
    return AlignmentMetrics(
        hits_at_1=hits_at_k(ranks, 1),
        hits_at_10=hits_at_k(ranks, 10),
        mrr=mean_reciprocal_rank(ranks),
        num_queries=len(ranks),
    )
