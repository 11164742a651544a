"""Memory bounds of the decode kernels (tracemalloc, no wall clock).

A candidate block used to gather the source and the target row of every
edge at once: two ``edges x d`` float64 copies per round.  The gather now
streams cache-sized chunks of edges, so one call's traced peak must stay
below a quarter of one such operand — for the decode kernel and for the
exact-escalation probe of ``IVFIndex`` alike, whose candidate sets must
also equal the one-gather-per-probe reference.

The exhaustive scan without column statistics (the cosine decode) used to
keep the previous block, its whole ``argpartition`` output and the CSLS
column merge alive while it summed the next block's rounds: about five
block-sized arrays.  It now holds at most two at once — the block and one
round's product, or the block and its ``argpartition`` indices — and so
does the exact-rank replay of rows inside one block, besides the rows it
returns.
"""

import tracemalloc

import numpy as np

from oracles import reference_escalated_candidates
from repro.core.ann import IVFIndex, RowCandidates, _normalize_rows
from repro.core.similarity import (blockwise_topk,
                                   compute_partial_topk_candidates)

DIM = 64


def _traced_peak(function, *args, **kwargs):
    """``(result, peak bytes)`` of allocations made during one call."""
    tracemalloc.start()
    try:
        result = function(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_candidate_kernel_peak_is_below_a_quarter_of_one_gathered_operand():
    rng = np.random.default_rng(0)
    num_rows, per_row, num_targets = 256, 200, 2_000
    source = [_normalize_rows(rng.normal(size=(num_rows, DIM)))
              for _ in range(2)]
    target = [_normalize_rows(rng.normal(size=(num_targets, DIM)))
              for _ in range(2)]
    rows = np.repeat(np.arange(num_rows), per_row)
    cols = np.concatenate([rng.choice(num_targets, per_row, replace=False)
                           for _ in range(num_rows)])
    candidates = RowCandidates.from_pairs(rows, cols, num_rows, num_targets)
    operand_bytes = num_rows * per_row * DIM * 8        # 26.2 MB

    partial, peak = _traced_peak(
        compute_partial_topk_candidates, source, target, candidates,
        0, num_rows, 10, 1024, np.float64)

    assert partial.computed_cells == 2 * num_rows * per_row
    assert peak < operand_bytes / 4, (peak, operand_bytes)


def test_escalation_peak_is_below_a_quarter_of_one_probe_operand():
    rng = np.random.default_rng(1)
    num_clusters, per_cluster, num_queries = 10, 200, 256
    centres = rng.normal(size=(num_clusters, DIM))
    vectors = _normalize_rows(np.repeat(centres, per_cluster, axis=0)
                              + 0.05 * rng.normal(size=(num_clusters * per_cluster,
                                                        DIM)))
    queries = _normalize_rows(vectors[rng.choice(len(vectors), num_queries,
                                                 replace=False)]
                              + 0.01 * rng.normal(size=(num_queries, DIM)))
    index = IVFIndex(vectors, n_clusters=num_clusters, seed=0)
    # The first probe position gathers every query's nearest bucket.
    first_probe_edges = int(np.diff(index.bucket_indptr)[
        np.argmax(index.centroid_scores(queries), axis=1)].sum())
    operand_bytes = first_probe_edges * DIM * 8

    candidates, peak = _traced_peak(index.escalated_candidates, queries)

    reference = reference_escalated_candidates(index, queries)
    assert np.array_equal(candidates.indptr, reference.indptr)
    assert np.array_equal(candidates.indices, reference.indices)
    assert peak < operand_bytes / 4, (peak, operand_bytes)


def _three_round_tables(num_source, num_targets, seed):
    rng = np.random.default_rng(seed)
    source = [_normalize_rows(rng.normal(size=(num_source, DIM)))
              for _ in range(3)]
    target = [_normalize_rows(rng.normal(size=(num_targets, DIM)))
              for _ in range(3)]
    return source, target


def test_cosine_scan_holds_at_most_two_blocks():
    num_source, num_targets, block_size = 700, 2_000, 256
    source, target = _three_round_tables(num_source, num_targets, 2)
    block_bytes = block_size * num_targets * 8          # 4.1 MB

    topk, peak = _traced_peak(blockwise_topk, source, target, k=10,
                              block_size=block_size, pre_normalized=True,
                              column_stats=False)

    assert topk.col_max is None and topk.col_knn_mean is None
    output_bytes = topk.indices.nbytes + topk.scores.nbytes
    assert peak < 2.25 * block_bytes + output_bytes, (peak, block_bytes)


def test_row_scores_of_one_block_hold_at_most_two_blocks():
    num_source, num_targets, block_size = 700, 2_000, 256
    source, target = _three_round_tables(num_source, num_targets, 3)
    block_bytes = block_size * num_targets * 8
    topk = blockwise_topk(source, target, k=10, block_size=block_size,
                          pre_normalized=True, column_stats=False)
    ids = np.arange(block_size, 2 * block_size, 2)      # inside block 1

    rows, peak = _traced_peak(topk.row_scores, ids)

    assert rows.shape == (len(ids), num_targets)
    # The block and one round's product, or the block and the returned
    # rows; a staged copy of the rows beside the product would add one
    # more output.
    bound = max(2 * block_bytes, block_bytes + rows.nbytes) + block_bytes / 4
    assert peak < bound, (peak, block_bytes)
