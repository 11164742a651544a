"""Blockwise (streaming) top-k similarity decoding — the repository's one decode.

Every decode of this repository — evaluation (H@k / MRR), CSLS hubness
correction, the mutual-nearest-neighbour bootstrapping of the iterative
training strategy and the artifact's ``align``/``rank`` queries — runs
through :func:`blockwise_topk` on a model's ``decode_states()``, and only
ever needs each entity's ``k`` nearest cross-graph neighbours, never the
full ``n_s x n_t`` similarity matrix.  This module provides a
block-partitioned matmul engine that walks source rows in
configurable chunks and, per block, reduces immediately to

* the exact top-``k`` neighbours and scores of every source row
  in (score desc, index asc) order, ties at the k-th score included,
* the running column max / argmax needed for mutual-NN selection, and
* the row/column k-NN mean similarities needed for CSLS,

so peak memory is ``O(block · n_t)`` instead of ``O(n_s · n_t)``.  The
normalised embeddings and the ``block_size`` are kept
(``O((n_s + n_t) · d)``) so any row can be re-materialised exactly, by
replaying its scan block — the evaluation fallback when a gold target
falls outside the stored top-``k``.

Semantic Propagation decoding averages per-round cosine similarities
(Algorithm 1, line 15); the engine therefore accepts *lists* of embedding
states and streams the round-averaged similarity block by block.  Rows are
normalised as ``SemanticPropagation.__call__`` normalises them
(``x / max(‖x‖, 1e-12)``) and rounds are summed in the same order, so with
``dtype=np.float64`` (the default) a decode of at most ``block_size``
source rows computes the same single GEMM as that dense matrix.
``dtype=np.float32`` halves memory and roughly doubles throughput for large
decodes at a small accuracy cost (normalisation always happens in float64,
once, up front).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ann import (RowCandidates, _normalize_rows, count_dot_products,
                  edge_dot_products)

__all__ = [
    "TopKSimilarity",
    "PartialTopK",
    "blockwise_topk",
    "compute_partial_topk",
    "compute_partial_topk_candidates",
    "scan_rows",
    "topk_from_partial",
    "merge_partials",
    "merge_partial_topk",
    "DEFAULT_BLOCK_SIZE",
]

#: Source rows per streamed block.
DEFAULT_BLOCK_SIZE = 1024


def _as_state_list(states) -> list[np.ndarray]:
    if isinstance(states, np.ndarray):
        return [states]
    return [np.asarray(state) for state in states]


@dataclass
class TopKSimilarity:
    """Streaming decode artefacts: exact top-k rows plus global reductions.

    ``indices`` / ``scores`` hold, per source row, the ``k`` best target
    entities sorted by descending score with ties broken by ascending
    target id — also across the k-th place, so a row is the first ``k``
    of its full (score desc, id asc) sort and position 0 is its
    ``np.argmax``.

    ``approximate`` marks a decode restricted to per-row candidate sets
    (``row_candidates``): uncomputed cells are unknown, so the exact-row
    fallbacks and the CSLS statistics are unavailable — consumers that
    would be silently lossy raise instead.  ``computed_cells`` counts the
    dot products the decode actually performed (the FLOPs proxy the
    scaling benchmarks enforce).
    ``block_size`` is the row grid the scan ran on; :meth:`row_scores`
    replays its blocks.

    ``worker_rss_mb`` is the *sum* of the forked workers' peak RSS when the
    decode ran sharded (``num_workers > 1``), zero otherwise.  The parent's
    ``getrusage`` cannot provide this figure — ``RUSAGE_CHILDREN`` tracks
    only the single largest terminated child — so the out-of-core
    benchmark adds it to the parent's own peak to report multi-process
    memory.
    """

    shape: tuple[int, int]
    k: int
    csls_k: int
    indices: np.ndarray            # (n_s, k) target ids
    scores: np.ndarray             # (n_s, k) descending
    col_max: np.ndarray            # (n_t,)
    col_argmax: np.ndarray         # (n_t,) source ids (first max wins)
    row_knn_mean: np.ndarray       # (n_s,)  CSLS r_T
    col_knn_mean: np.ndarray       # (n_t,) CSLS r_S
    block_size: int                # source rows per scan block
    dtype: np.dtype = np.dtype(np.float64)
    approximate: bool = False
    computed_cells: int = 0
    worker_rss_mb: float = 0.0
    _source_norm: list[np.ndarray] = field(default_factory=list, repr=False)
    _target_norm: list[np.ndarray] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_source(self) -> int:
        return self.shape[0]

    @property
    def num_columns(self) -> int:
        """Number of target columns."""
        return len(self.col_max)

    def is_exhaustive(self) -> bool:
        """True when every decoded column is stored, i.e. top-k is the full row."""
        return not self.approximate and self.k >= self.num_columns

    def _require_exact(self, operation: str) -> None:
        if self.approximate:
            raise ValueError(
                f"{operation} needs every similarity cell, but this decode was "
                "restricted to approximate candidate sets; decode with "
                "candidates='exhaustive' (or, for mutual-NN pseudo-seeding, "
                "an exact-escalation IVF decode)")

    # ------------------------------------------------------------------
    def row_scores(self, source_ids) -> np.ndarray:
        """Exact similarity rows over every target column: the scan's own cells.

        One id returns an ``(n_t,)`` row, an array of ids one row per id.
        Each scan block holding a requested row is recomputed whole by
        :func:`block_scores` on the table's ``block_size`` grid, so every
        value equals the streamed cell bit for bit (float32 and multi-round
        decodes too), where a product over fewer rows would round
        differently.  Each touched block costs one ``O(block · n_t)``
        product, charged to :func:`count_dot_products`; a single id pays
        for its whole block.
        """
        self._require_exact("row_scores")
        ids = np.asarray(source_ids, dtype=np.int64)
        flat = ids.reshape(-1)
        if len(flat) and (flat.min() < 0 or flat.max() >= self.num_source):
            raise IndexError(f"source ids must lie in [0, {self.num_source})")
        rows = np.empty((len(flat), self.num_columns), dtype=np.float64)
        blocks = flat // self.block_size
        for block in np.unique(blocks):
            start = int(block) * self.block_size
            stop = min(start + self.block_size, self.num_source)
            count_dot_products((stop - start) * self.num_columns
                               * len(self._source_norm))
            members = blocks == block
            rows[members] = block_scores(self._source_norm, self._target_norm,
                                         start, stop)[flat[members] - start]
        return rows.reshape(ids.shape + (self.num_columns,))

    def dense(self) -> np.ndarray:
        """Materialise the full similarity matrix (tests / tiny decodes only)."""
        return self.row_scores(np.arange(self.num_source))

    # ------------------------------------------------------------------
    def best_target(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-source best target id and score (``argmax`` row semantics)."""
        return self.indices[:, 0], self.scores[:, 0]

    def csls_scores(self, rows: np.ndarray | None = None) -> np.ndarray:
        """CSLS values of the kept (top-k) entries: ``2 s - r_T(i) - r_S(j)``.

        Matches ``csls_similarity(dense)[i, indices[i, j]]`` entry for entry
        (identical arithmetic order, hence bit-identical given the streamed
        means).  ``rows`` restricts the computation to a subset of source
        rows — the CSLS-ranked evaluation path only needs the test rows.
        """
        self._require_exact("csls_scores")
        indices = self.indices if rows is None else self.indices[rows]
        scores = self.scores if rows is None else self.scores[rows]
        row_means = self.row_knn_mean if rows is None else self.row_knn_mean[rows]
        return (2.0 * scores
                - row_means[:, None]
                - self.col_knn_mean[indices])

    def csls_row(self, source_ids) -> np.ndarray:
        """Exact CSLS rows over every target column, shaped as :meth:`row_scores`.

        The CSLS counterpart of :meth:`row_scores` (and as costly: it
        replays the scan blocks holding the rows), used as the evaluation
        fallback when a gold rank cannot be proven from the stored top-k.
        """
        self._require_exact("csls_row")
        ids = np.asarray(source_ids, dtype=np.int64)
        return (2.0 * self.row_scores(ids)
                - self.row_knn_mean[ids][..., None]
                - self.col_knn_mean)

    # ------------------------------------------------------------------
    def mutual_nearest_pairs(self, threshold: float = 0.0,
                             exclude_source: set[int] | None = None,
                             exclude_target: set[int] | None = None) -> list[tuple[int, int]]:
        """Mutual nearest-neighbour pairs, identical to the dense selection.

        Row bests come from position 0 of the stored top-k (first-index tie
        break); column bests from the running column argmax, whose
        strictly-greater update rule preserves the dense ``argmax``
        first-row-wins tie semantics across blocks.
        """
        exclude_source = exclude_source or set()
        exclude_target = exclude_target or set()
        best_ids, best_scores = self.best_target()
        source_ids = np.arange(self.num_source)
        keep = self.col_argmax[best_ids] == source_ids
        keep &= best_scores >= threshold
        if exclude_source:
            keep &= ~np.isin(source_ids, np.fromiter(exclude_source, dtype=np.int64))
        if exclude_target:
            keep &= ~np.isin(best_ids, np.fromiter(exclude_target, dtype=np.int64))
        return [(int(s), int(t)) for s, t in zip(source_ids[keep], best_ids[keep])]


@dataclass
class PartialTopK:
    """One row shard's decode reductions, mergeable across shards.

    The unit of the multi-process sharded decode: a worker that owns the
    source rows ``rows`` (disjoint from every other shard) reduces its
    share of the streamed similarity to exactly these arrays, and
    :func:`merge_partials` combines any two shards into one — the
    column-max reduction is the lexicographic maximum by
    ``(value, -source row)``, which is associative and commutative, so the
    merged result is independent of worker completion order and of how the
    rows were partitioned (the property the sharded property tests pin).

    ``col_top`` carries the running per-column top-``csls_k`` values the
    CSLS column means are computed from; it is ``None`` on the
    candidate-restricted path (no CSLS statistics there).
    ``worker_rss_mb`` is the producing process's peak RSS — summed by the
    merge so the out-of-core benchmark can report multi-process memory
    instead of the parent's RSS alone.
    """

    rows: np.ndarray               # (m,) global source row ids, ascending
    indices: np.ndarray            # (m, k_keep) column ids (local to decode)
    scores: np.ndarray             # (m, k_keep) descending
    col_max: np.ndarray            # (n_cols,)
    col_argmax: np.ndarray         # (n_cols,) global source ids
    col_top: np.ndarray | None     # (<= csls_k_col, n_cols) or None
    csls_k_col: int
    computed_cells: int
    worker_rss_mb: float = 0.0

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def merge_partials(a: PartialTopK, b: PartialTopK) -> PartialTopK:
    """Merge two disjoint row shards' reductions into one.

    Associative and commutative:

    * row top-k lists concatenate (shards own disjoint rows) and are kept
      sorted by global row id;
    * the column max/argmax merge takes, per column, the lexicographically
      larger ``(value, -source row)`` — on exact value ties the lower
      source row wins, exactly the dense ``np.argmax(axis=0)``
      first-row-wins semantics the single-process engine maintains with
      its strictly-greater running update;
    * the column top-``csls_k`` values merge as a multiset top-k (the
      top-k of a union is the top-k of the partial top-ks), which keeps
      the final ascending-sorted CSLS column means bit-identical to the
      single-process accumulation.
    """
    if a.csls_k_col != b.csls_k_col:
        raise ValueError("partials disagree on csls_k_col")
    rows = np.concatenate([a.rows, b.rows])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    indices = np.concatenate([a.indices, b.indices], axis=0)[order]
    scores = np.concatenate([a.scores, b.scores], axis=0)[order]

    take_b = (b.col_max > a.col_max) | ((b.col_max == a.col_max)
                                        & (b.col_argmax < a.col_argmax))
    col_max = np.where(take_b, b.col_max, a.col_max)
    col_argmax = np.where(take_b, b.col_argmax, a.col_argmax)

    col_top: np.ndarray | None = None
    if a.col_top is not None and b.col_top is not None:
        stacked = np.concatenate([a.col_top, b.col_top], axis=0)
        if stacked.shape[0] > a.csls_k_col:
            stacked = np.partition(stacked, stacked.shape[0] - a.csls_k_col,
                                   axis=0)[stacked.shape[0] - a.csls_k_col:]
        col_top = stacked

    return PartialTopK(
        rows=rows, indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=col_top,
        csls_k_col=a.csls_k_col,
        computed_cells=a.computed_cells + b.computed_cells,
        worker_rss_mb=a.worker_rss_mb + b.worker_rss_mb,
    )


def merge_partial_topk(partials) -> PartialTopK:
    """Reduce any number of disjoint shards; invariant to their order."""
    partials = list(partials)
    if not partials:
        raise ValueError("no partials to merge")
    merged = partials[0]
    for partial in partials[1:]:
        merged = merge_partials(merged, partial)
    return merged


def _select_topk(block: np.ndarray, k_keep: int) -> np.ndarray:
    """Column positions of each row's ``k_keep`` best cells, ties to the lowest.

    ``np.argpartition`` keeps an arbitrary subset of the cells that tie the
    k-th score.  A row holding more than ``k_keep`` cells at or above its
    k-th score has such a tie across the boundary; only those rows are
    re-selected, by a stable sort of the whole row, so every row keeps the
    canonical (score desc, position asc) set — the set a full sort keeps.
    Position 0 of the sorted selection is then the row's first-index
    ``argmax``.
    """
    width = block.shape[1]
    if k_keep >= width:
        return np.broadcast_to(np.arange(width), block.shape).copy()
    part = np.argpartition(block, width - k_keep, axis=1)[:, width - k_keep:]
    kth = np.take_along_axis(block, part[:, :1], axis=1)
    tied = np.flatnonzero(np.count_nonzero(block >= kth, axis=1) > k_keep)
    if len(tied):
        part[tied] = np.argsort(-block[tied], axis=1, kind="stable")[:, :k_keep]
    return part


def block_scores(source_norm: list[np.ndarray], target_norm: list[np.ndarray],
                 start: int, stop: int) -> np.ndarray:
    """Round-averaged similarity of source rows [start, stop), as float64.

    The exhaustive scan's one block product: a GEMM per round at the
    states' dtype, summed in round order, then averaged.  The scan reduces
    it and :meth:`TopKSimilarity.row_scores` replays it; both call it on
    the same block grid, so their cells agree bit for bit.
    """
    num_rounds = len(source_norm)
    block = source_norm[0][start:stop] @ target_norm[0].T
    for round_index in range(1, num_rounds):
        block = block + source_norm[round_index][start:stop] @ target_norm[round_index].T
    block = np.asarray(block, dtype=np.float64)
    if num_rounds > 1:
        block = block / num_rounds
    return block


def compute_partial_topk(source_norm: list[np.ndarray],
                         target_norm: list[np.ndarray],
                         row_start: int, row_stop: int,
                         k_keep: int, csls_k_col: int,
                         block_size: int) -> PartialTopK:
    """Exhaustive streamed reduction of the source rows [row_start, row_stop).

    The states must already be the engine's normalised tables (the caller
    — :func:`blockwise_topk` or a sharded worker — performs the one
    up-front normalisation pass).  ``row_start`` should be a multiple of
    ``block_size`` so a sharded scan issues the very same block GEMMs as
    the single-process one, making the merged decode bit-identical.
    The kernel meters nothing: the caller charges ``computed_cells``.
    """
    num_rows = row_stop - row_start
    num_cols = target_norm[0].shape[0]

    indices = np.empty((num_rows, k_keep), dtype=np.int64)
    scores = np.empty((num_rows, k_keep), dtype=np.float64)
    col_max = np.full(num_cols, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(num_cols, dtype=np.int64)
    # Running top-(csls_k) values per column, merged block by block.
    col_top = np.empty((0, num_cols), dtype=np.float64)

    for start in range(row_start, row_stop, block_size):
        stop = min(start + block_size, row_stop)
        local = start - row_start
        block = block_scores(source_norm, target_norm, start, stop)

        # (a) exact row top-k: the canonical selection, then a
        # (score desc, target id asc) sort of it.
        part = _select_topk(block, k_keep)
        part_scores = np.take_along_axis(block, part, axis=1)
        order = np.lexsort((part, -part_scores))
        indices[local:local + (stop - start)] = np.take_along_axis(part, order, axis=1)
        scores[local:local + (stop - start)] = np.take_along_axis(part_scores, order, axis=1)

        # (b) running column max / argmax; strictly-greater update keeps the
        # first (lowest source id) maximiser, matching np.argmax(axis=0).
        block_max = block.max(axis=0)
        block_argmax = block.argmax(axis=0)
        improved = block_max > col_max
        col_max[improved] = block_max[improved]
        col_argmax[improved] = start + block_argmax[improved]

        # (c) running per-column top-k for the CSLS column means.
        stacked = np.concatenate([col_top, block], axis=0)
        if stacked.shape[0] > csls_k_col:
            stacked = np.partition(stacked, stacked.shape[0] - csls_k_col,
                                   axis=0)[stacked.shape[0] - csls_k_col:]
        col_top = stacked

    return PartialTopK(
        rows=np.arange(row_start, row_stop, dtype=np.int64),
        indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=col_top,
        csls_k_col=csls_k_col,
        computed_cells=num_rows * num_cols * len(source_norm),
    )


def blockwise_topk(source, target, k: int = 10,
                   block_size: int | None = None,
                   dtype=np.float64,
                   csls_k: int = 10,
                   row_candidates: RowCandidates | None = None,
                   pre_normalized: bool = False,
                   num_workers: int | None = None) -> TopKSimilarity:
    """Stream the (round-averaged) cosine similarity and reduce to top-k.

    Parameters
    ----------
    source, target:
        Embedding matrices, or lists of per-propagation-round states whose
        cosine similarities are averaged (the paper's decoding rule).  Rows
        are L2-normalised once up front, in float64.
    k:
        Neighbours kept per source row: the first ``k`` of the row's full
        (score desc, id asc) sort.
    block_size:
        Source rows per streamed block; peak transient memory is
        ``O(block_size · n_t)``.
    dtype:
        Compute dtype of the streamed products (float64 default; float32
        halves memory traffic for large decodes).
    csls_k:
        ``k`` of the CSLS local-scaling means (10 in the literature).
    row_candidates:
        Optional per-row candidate sets from :mod:`repro.core.ann`; the
        block loop then gathers only the candidate cells (one per-edge dot
        product each, :func:`compute_partial_topk_candidates`) instead of
        full block matmuls, dropping decode FLOPs below ``O(n_s · n_t)``.
        The result is flagged ``approximate`` and carries no CSLS
        statistics.  ``None`` or a *complete* candidate set (every row
        holds every column — e.g. IVF with ``nprobe == n_clusters``) runs
        the exhaustive GEMM scan, the latter reproducing it bit for bit.
    pre_normalized:
        Declare that every state is already the output of the engine's own
        row normalisation at ``dtype`` (``_normalize_rows(...).astype``),
        skipping the per-call normalisation pass.  The serving path caches
        the normalised tables once per artifact and decodes row subsets
        against them — bit-identically, because the very same normalised
        values enter the products.
    num_workers:
        ``> 1`` shards the source rows across that many forked worker
        processes (see :mod:`repro.core.sharded`): each worker owns a
        block-aligned row shard and streams it exactly as the
        single-process engine would, and the partial reductions are merged
        by the associative :func:`merge_partials` reducer — bit-identical
        to ``num_workers=None``.  Falls back to the in-process scan when
        forking is unavailable.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if csls_k <= 0:
        raise ValueError("csls_k must be positive")
    if block_size is None:
        block_size = DEFAULT_BLOCK_SIZE
    if block_size <= 0:
        raise ValueError("block_size must be positive")

    source_states = _as_state_list(source)
    target_states = _as_state_list(target)
    if len(source_states) != len(target_states):
        raise ValueError("source and target must have the same number of rounds")

    if row_candidates is not None:
        if row_candidates.num_rows != np.asarray(source_states[0]).shape[0]:
            raise ValueError("row_candidates row count must match the source rows")
        if row_candidates.num_columns != np.asarray(target_states[0]).shape[0]:
            raise ValueError("row_candidates column count must match the targets")
        if row_candidates.is_complete():
            # Probing everything is the exhaustive decode; take the identical
            # GEMM path so the results match bit for bit.
            row_candidates = None

    dtype = np.dtype(dtype)
    if pre_normalized:
        source_norm = [np.asarray(state) for state in source_states]
        target_norm = [np.asarray(state) for state in target_states]
    else:
        source_norm = [_normalize_rows(state).astype(dtype, copy=False)
                       for state in source_states]
        target_norm = [_normalize_rows(state).astype(dtype, copy=False)
                       for state in target_states]

    num_source = source_norm[0].shape[0]
    num_cols = target_norm[0].shape[0]
    if row_candidates is None:
        # One row selection serves both the decode top-k and the CSLS row
        # mean, so the exhaustive scan keeps max(k, csls_k) columns.
        k_keep = min(max(k, csls_k), num_cols)
        csls_k_col = min(csls_k, num_source)
    else:
        # No CSLS statistics exist on the candidate path, so only the
        # requested k columns are kept.  Deficient rows get the smallest
        # missing column ids appended (a few exact extra dot products), so
        # stored rows never contain padding sentinels.
        k_keep = min(k, num_cols)
        csls_k_col = 0
        row_candidates = row_candidates.padded(k_keep)

    scan = dict(k_keep=k_keep, csls_k_col=csls_k_col, block_size=block_size,
                row_candidates=row_candidates, dtype=dtype)
    if num_workers is not None and num_workers > 1 and num_source > 1:
        from .sharded import scan_partials_parallel
        partial = merge_partial_topk(scan_partials_parallel(
            source_norm, target_norm, num_workers=num_workers, **scan))
    else:
        partial = scan_rows(source_norm, target_norm, 0, num_source, **scan)
    count_dot_products(partial.computed_cells)
    return topk_from_partial(partial, (num_source, num_cols), csls_k=csls_k,
                             dtype=dtype, block_size=block_size,
                             source_norm=source_norm, target_norm=target_norm)


def scan_rows(source_norm: list[np.ndarray], target_norm: list[np.ndarray],
              row_start: int, row_stop: int, *, k_keep: int, csls_k_col: int,
              block_size: int, row_candidates: RowCandidates | None,
              dtype) -> PartialTopK:
    """Reduce rows [row_start, row_stop) with the kernel the candidates pick.

    The exhaustive block-GEMM scan (:func:`compute_partial_topk`) when
    ``row_candidates`` is ``None``, the per-edge candidate gather
    (:func:`compute_partial_topk_candidates`, candidates already padded to
    ``k_keep``) otherwise.  The serial decode and every sharded worker
    run this one dispatch.
    """
    if row_candidates is None:
        return compute_partial_topk(source_norm, target_norm, row_start,
                                    row_stop, k_keep=k_keep,
                                    csls_k_col=csls_k_col,
                                    block_size=block_size)
    return compute_partial_topk_candidates(
        source_norm, target_norm, row_candidates, row_start, row_stop,
        k_keep=k_keep, block_size=block_size, dtype=dtype)


def topk_from_partial(partial: PartialTopK, shape: tuple[int, int], *,
                      csls_k: int, dtype, block_size: int,
                      source_norm: list[np.ndarray],
                      target_norm: list[np.ndarray]) -> TopKSimilarity:
    """The :class:`TopKSimilarity` of a partial covering every source row.

    With ``col_top`` (an exhaustive scan) the CSLS means are taken over
    ascending-sorted values, bit-identical to the dense
    ``np.sort(...)[-k:].mean()`` formulation; without it (a candidate
    decode or an incremental merge) they are NaN and the table is flagged
    ``approximate``.  ``computed_cells`` is the partial's own count;
    ``block_size`` is the grid the partial was scanned on.
    """
    num_source, num_cols = shape
    approximate = partial.col_top is None
    if approximate:
        row_knn_mean = np.full(num_source, np.nan)
        col_knn_mean = np.full(num_cols, np.nan)
    else:
        csls_k_row = min(csls_k, num_cols)
        row_knn_mean = np.sort(partial.scores[:, :csls_k_row], axis=1).mean(axis=1)
        col_knn_mean = np.sort(partial.col_top, axis=0).mean(axis=0)
    return TopKSimilarity(
        shape=(num_source, num_cols),
        k=partial.indices.shape[1],
        csls_k=csls_k,
        indices=partial.indices,
        scores=partial.scores,
        col_max=partial.col_max,
        col_argmax=partial.col_argmax,
        row_knn_mean=row_knn_mean,
        col_knn_mean=col_knn_mean,
        dtype=np.dtype(dtype),
        block_size=block_size,
        approximate=approximate,
        computed_cells=partial.computed_cells,
        worker_rss_mb=partial.worker_rss_mb,
        _source_norm=source_norm,
        _target_norm=target_norm,
    )


def column_max_cells(cols: np.ndarray, values: np.ndarray,
                     num_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The best cell of each column among cells ``(cols[e], values[e])``.

    Returns ``(columns, cells)``: ``cells[i]`` is the lowest cell index
    holding column ``columns[i]``'s maximum value — the lowest source row
    when the cells are in row order.  Two scatter passes replace a sort of
    every cell: ``np.fmax.at`` takes each column's maximum (NaN never
    wins) and ``np.minimum.at`` the first cell at it.  Columns without a
    cell, or with only NaN cells, are left out.  Callers read the winner's
    own ``values[cells]``: ``-0.0`` ties ``0.0``, and only the winning
    cell says which of the two it holds.
    """
    peak = np.full(num_cols, -np.inf, dtype=np.float64)
    np.fmax.at(peak, cols, values)
    at_max = np.flatnonzero(values == peak[cols])
    first = np.full(num_cols, len(values), dtype=np.int64)
    np.minimum.at(first, cols[at_max], at_max)
    columns = np.flatnonzero(first < len(values))
    return columns, first[columns]


def compute_partial_topk_candidates(source_norm: list[np.ndarray],
                                    target_norm: list[np.ndarray],
                                    row_candidates: RowCandidates,
                                    row_start: int, row_stop: int,
                                    k_keep: int, block_size: int,
                                    dtype) -> PartialTopK:
    """Candidate-restricted streamed reduction of rows [row_start, row_stop).

    ``row_candidates`` must already be padded to ``k_keep`` (row-local, so
    padding before or after sharding is equivalent).  Each candidate cell
    is one per-edge ``einsum`` dot product per round, computed from that
    cell's own source and target rows only
    (:func:`~repro.core.ann.edge_dot_products` gathers them in cache-sized
    chunks of edges), so neither shard membership, nor the chunking, nor
    which other rows share the call (a served row subset, an incremental
    re-decode) can change a value.  The kernel meters nothing: the caller
    charges ``computed_cells``.
    """
    dtype = np.dtype(dtype)
    indptr, cand_indices = row_candidates.indptr, row_candidates.indices
    num_cols = row_candidates.num_columns
    num_rounds = len(source_norm)
    total_rows = row_stop - row_start

    indices = np.empty((total_rows, k_keep), dtype=np.int64)
    scores = np.empty((total_rows, k_keep), dtype=np.float64)
    col_max = np.full(num_cols, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(num_cols, dtype=np.int64)
    computed = 0

    for start in range(row_start, row_stop, block_size):
        stop = min(start + block_size, row_stop)
        num_rows = stop - start
        local = start - row_start
        cols = cand_indices[indptr[start]:indptr[stop]]
        counts = np.diff(indptr[start:stop + 1])
        rows_local = np.repeat(np.arange(num_rows), counts)
        computed += len(cols) * num_rounds
        values = edge_dot_products([state[start:stop] for state in source_norm],
                                   target_norm, rows_local, cols, dtype)

        # (a) per-row top-k over the candidate cells.  Rows are padded into
        # a (num_rows, width) matrix with -inf sentinels; every row holds at
        # least k_keep real candidates, so sentinels are never selected.
        width = int(counts.max()) if num_rows else 0
        block = np.full((num_rows, width), -np.inf, dtype=np.float64)
        cand_ids = np.zeros((num_rows, width), dtype=np.int64)
        pos_in_row = np.arange(len(cols)) - np.repeat(np.cumsum(counts) - counts,
                                                      counts)
        block[rows_local, pos_in_row] = values
        cand_ids[rows_local, pos_in_row] = cols
        # Candidates ascend within a row, so the lowest position among
        # tied cells is the lowest target id.
        part = _select_topk(block, k_keep)
        part_scores = np.take_along_axis(block, part, axis=1)
        part_ids = np.take_along_axis(cand_ids, part, axis=1)
        order = np.lexsort((part_ids, -part_scores))
        indices[local:local + num_rows] = np.take_along_axis(part_ids, order, axis=1)
        scores[local:local + num_rows] = np.take_along_axis(part_scores, order, axis=1)

        # (b) running column max/argmax over the computed cells only.  Per
        # column pick the block's best cell (cells are in row order, so the
        # lowest source row wins ties), then apply the strictly-greater
        # cross-block update.
        lead_cols, lead = column_max_cells(cols, values, num_cols)
        improved = values[lead] > col_max[lead_cols]
        col_max[lead_cols[improved]] = values[lead][improved]
        col_argmax[lead_cols[improved]] = start + rows_local[lead][improved]

    return PartialTopK(
        rows=np.arange(row_start, row_stop, dtype=np.int64),
        indices=indices, scores=scores,
        col_max=col_max, col_argmax=col_argmax, col_top=None,
        csls_k_col=0,
        computed_cells=computed,
    )
