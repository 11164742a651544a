"""Memory bounds of the candidate gather (no wall clock).

A candidate block used to gather the source and the target row of every
edge at once: two ``edges x d`` float64 copies per round.  The gather now
streams cache-sized chunks of edges, so one call's traced peak must stay
below a quarter of one such operand — for the decode kernel and for the
exact-escalation probe of ``IVFIndex`` alike, whose candidate sets must
also equal the one-gather-per-probe reference.
"""

import tracemalloc

import numpy as np

from oracles import reference_escalated_candidates
from repro.core.ann import IVFIndex, RowCandidates, _normalize_rows
from repro.core.similarity import compute_partial_topk_candidates

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
