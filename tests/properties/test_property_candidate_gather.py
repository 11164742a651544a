"""Property: the rectangle and chunked candidate gather equals one gather of every edge.

``compute_partial_topk_candidates`` scores each block's cells through
``edge_dot_products``: shared-row-set rectangles as one ``einsum`` block
per round, every other edge a chunk of edges at a time; it takes the
block's column max with two scatter passes.  None of it may move a bit:
over random padded candidate CSRs and IVF-shaped ones (each row the union
of 1–3 disjoint buckets, deficient rows padded), with 1–3 rounds, float64
and float32, block sizes that need not divide the row count, duplicated
source rows that tie exactly in every column and an all-zero row, the
kernel must equal ``tests/oracles.py::reference_candidate_topk`` — the
unchunked ``einsum`` over every edge, the ``np.lexsort`` column max and
the (score desc, id asc) row sort — in ``indices``, ``scores``,
``col_max`` and ``col_argmax`` bit for bit, sign bits included, and in
``computed_cells``.  Every case runs twice: with the rectangle cut-off at
zero (every column group a rectangle) and above any block (per-edge
only; a one-row call is one rectangle either way).  The module's byte
budget is shrunk to a few rows or edges per call, so tiles and chunks
split rows and blocks.

``edge_dot_products`` is also checked directly on inputs a rectangle
must not mis-read: duplicate edges, edges out of row order and a served
row subset; and, without a wall clock, that an IVF-shaped block is scored
as one ``einsum`` per bucket rectangle and round, not per edge.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core.ann as ann
from oracles import reference_candidate_topk, reference_edge_dot_products
from repro.core.ann import RowCandidates, _normalize_rows, edge_dot_products
from repro.core.similarity import compute_partial_topk_candidates

SETTINGS = settings(max_examples=60, deadline=None)

#: ``RECTANGLE_MIN_CELLS`` values forcing every column group into a
#: rectangle, and forcing the per-edge path.
CUT_OFFS = (0, 1 << 62)


def _states(rng, num_source, num_target, dim, rounds, dtype, quantised):
    source, target = [], []
    for _ in range(rounds):
        src = rng.normal(size=(num_source, dim))
        tgt = rng.normal(size=(num_target, dim))
        if quantised:  # coarse values: many exact ties inside rows too
            src, tgt = np.round(src), np.round(tgt)
        src[1] = src[0]        # a duplicated row ties exactly in every column
        src[-1] = 0.0          # an all-zero row scores 0.0 everywhere
        source.append(_normalize_rows(src).astype(dtype))
        target.append(_normalize_rows(tgt).astype(dtype))
    return source, target


def _ivf_pairs(draw, rng, num_source, num_target):
    """(rows, cols) of IVF-shaped candidates: unions of disjoint buckets."""
    num_buckets = draw(st.integers(min_value=1, max_value=min(6, num_target)))
    bucket_of = rng.permutation(np.arange(num_target) % num_buckets)
    rows, cols = [], []
    for row in range(num_source):
        probes = rng.choice(num_buckets, size=min(num_buckets,
                                                  int(rng.integers(1, 4))),
                            replace=False)
        if row == 1:           # the duplicated source row probes alike
            probes = previous
        previous = probes
        members = np.flatnonzero(np.isin(bucket_of, probes))
        rows.append(np.full(len(members), row))
        cols.append(members)
    return np.concatenate(rows), np.concatenate(cols)


@st.composite
def candidate_case(draw, max_source=30, max_target=24, max_dim=12):
    num_source = draw(st.integers(min_value=2, max_value=max_source))
    num_target = draw(st.integers(min_value=1, max_value=max_target))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    rounds = draw(st.integers(min_value=1, max_value=3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    quantised = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    source, target = _states(rng, num_source, num_target, dim, rounds, dtype,
                             quantised)

    if draw(st.booleans()):
        rows, cols = _ivf_pairs(draw, rng, num_source, num_target)
    else:
        density = draw(st.floats(min_value=0.05, max_value=1.0))
        rows, cols = np.nonzero(rng.random((num_source, num_target)) < density)
    # k_keep above a row's candidate count pads it with the lowest ids.
    k_keep = draw(st.integers(min_value=1, max_value=num_target))
    candidates = RowCandidates.from_pairs(rows, cols, num_source,
                                          num_target).padded(k_keep)
    row_start = draw(st.integers(min_value=0, max_value=num_source - 1))
    row_stop = draw(st.integers(min_value=row_start + 1, max_value=num_source))
    block_size = draw(st.integers(min_value=1, max_value=num_source + 2))
    budget = draw(st.sampled_from([1, 8, 40, 256, 4096]))
    return (source, target, candidates, row_start, row_stop, k_keep,
            block_size, dtype, budget)


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint64)


class TestChunkedGatherMatchesUnchunkedGather:
    @SETTINGS
    @given(candidate_case())
    def test_every_output_is_bit_identical(self, case):
        (source, target, candidates, row_start, row_stop, k_keep, block_size,
         dtype, budget) = case
        args = (source, target, candidates, row_start, row_stop, k_keep,
                block_size, dtype)
        reference = reference_candidate_topk(*args)
        for cut_off in CUT_OFFS:
            with mock.patch.object(ann, "GATHER_CHUNK_BYTES", budget), \
                    mock.patch.object(ann, "RECTANGLE_MIN_CELLS", cut_off):
                kernel = compute_partial_topk_candidates(*args)

            assert np.array_equal(kernel.indices, reference.indices), cut_off
            assert np.array_equal(_bits(kernel.scores), _bits(reference.scores))
            assert np.array_equal(_bits(kernel.col_max),
                                  _bits(reference.col_max))
            assert np.array_equal(kernel.col_argmax, reference.col_argmax)
            assert kernel.computed_cells == reference.computed_cells
            assert np.array_equal(kernel.rows, reference.rows)


@st.composite
def edge_case(draw):
    """IVF-shaped edges, then duplicated, shuffled or a served row subset."""
    num_source = draw(st.integers(min_value=2, max_value=30))
    num_target = draw(st.integers(min_value=1, max_value=24))
    dim = draw(st.integers(min_value=1, max_value=12))
    rounds = draw(st.integers(min_value=1, max_value=3))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(min_value=0,
                                                 max_value=2 ** 31 - 1)))
    source, target = _states(rng, num_source, num_target, dim, rounds, dtype,
                             draw(st.booleans()))
    rows, cols = _ivf_pairs(draw, rng, num_source, num_target)
    twist = draw(st.sampled_from(["duplicates", "shuffled", "subset"]))
    if twist == "duplicates":
        again = rng.integers(0, len(rows), size=int(rng.integers(1, 8)))
        at = np.sort(rng.integers(0, len(rows), size=len(again)))
        rows, cols = np.insert(rows, at, rows[again]), np.insert(cols, at,
                                                                 cols[again])
    elif twist == "shuffled":
        order = rng.permutation(len(rows))
        rows, cols = rows[order], cols[order]
    else:  # the serving call: selected rows (repeats allowed), renumbered
        candidates = RowCandidates.from_pairs(rows, cols, num_source,
                                              num_target)
        ids = rng.integers(0, num_source, size=int(rng.integers(1, 6)))
        subset = candidates.select_rows(ids)
        source = [state[ids] for state in source]
        rows, cols = np.repeat(np.arange(len(ids)), subset.counts), subset.indices
    budget = draw(st.sampled_from([1, 40, 4096]))
    return source, target, rows, cols, dtype, budget


class TestEdgeDotProductsMatchPerEdgeOracle:
    @SETTINGS
    @given(edge_case())
    def test_values_are_bit_identical(self, case):
        source, target, rows, cols, dtype, budget = case
        reference = reference_edge_dot_products(source, target, rows, cols,
                                                dtype)
        for cut_off in CUT_OFFS:
            with mock.patch.object(ann, "GATHER_CHUNK_BYTES", budget), \
                    mock.patch.object(ann, "RECTANGLE_MIN_CELLS", cut_off):
                values = edge_dot_products(source, target, rows, cols, dtype)
            assert np.array_equal(_bits(values), _bits(reference)), cut_off


class TestBucketBlocksAreRectangles:
    def test_one_einsum_per_bucket_rectangle_and_round(self):
        """Counted calls, no wall clock: a per-edge fallback needs more.

        128 rows each probe 2 of 8 disjoint 40-member buckets (d = 64,
        float64), so the block is one rectangle per distinct probing row
        set (at most 8), each inside one tile.  The per-edge path would
        need 20 chunks of 512 edges per round.
        """
        rng = np.random.default_rng(11)
        num_rows, num_buckets, per_bucket, dim, rounds = 128, 8, 40, 64, 3
        bucket_of = rng.permutation(np.arange(num_buckets * per_bucket)
                                    % num_buckets)
        probes = [rng.choice(num_buckets, 2, replace=False)
                  for _ in range(num_rows)]
        rows = np.concatenate([np.full(2 * per_bucket, row)
                               for row in range(num_rows)])
        cols = np.concatenate([np.flatnonzero(np.isin(bucket_of, probed))
                               for probed in probes])
        source = [_normalize_rows(rng.normal(size=(num_rows, dim)))
                  for _ in range(rounds)]
        target = [_normalize_rows(rng.normal(size=(len(bucket_of), dim)))
                  for _ in range(rounds)]
        row_sets = {tuple(row for row in range(num_rows) if bucket in probes[row])
                    for bucket in range(num_buckets)}

        with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
            values = edge_dot_products(source, target, rows, cols, np.float64)

        subscripts = [call.args[0] for call in einsum.call_args_list]
        assert subscripts.count("rd,cd->rc") == len(row_sets) * rounds
        assert subscripts.count("ed,ed->e") == 0
        assert len(subscripts) <= num_buckets * rounds
        reference = reference_edge_dot_products(source, target, rows, cols,
                                                np.float64)
        assert np.array_equal(_bits(values), _bits(reference))
