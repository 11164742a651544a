"""Property: the chunked candidate gather equals one gather of every edge.

``compute_partial_topk_candidates`` gathers each block's rows a chunk of
edges at a time and takes the block's column max with two scatter passes.
Neither may move a bit: over random padded candidate CSRs (1–3 rounds,
float64 and float32, block sizes that need not divide the row count,
duplicated source rows that tie exactly in every column, an all-zero
row), the kernel must equal ``tests/oracles.py::reference_candidate_topk``
— the unchunked ``einsum`` over every edge, the ``np.lexsort`` column max
and the (score desc, id asc) row sort — in ``indices``, ``scores``,
``col_max`` and ``col_argmax`` bit for bit, sign bits included, and in
``computed_cells``.  The module's byte budget is shrunk to a few edges per
chunk, so chunks split rows and blocks.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.core.ann as ann
from oracles import reference_candidate_topk
from repro.core.ann import RowCandidates, _normalize_rows
from repro.core.similarity import compute_partial_topk_candidates

SETTINGS = settings(max_examples=60, deadline=None)


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

    density = draw(st.floats(min_value=0.05, max_value=1.0))
    rows, cols = np.nonzero(rng.random((num_source, num_target)) < density)
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
        with mock.patch.object(ann, "GATHER_CHUNK_BYTES", budget):
            kernel = compute_partial_topk_candidates(*args)
        reference = reference_candidate_topk(*args)

        assert np.array_equal(kernel.indices, reference.indices)
        assert np.array_equal(_bits(kernel.scores), _bits(reference.scores))
        assert np.array_equal(_bits(kernel.col_max), _bits(reference.col_max))
        assert np.array_equal(kernel.col_argmax, reference.col_argmax)
        assert kernel.computed_cells == reference.computed_cells
        assert np.array_equal(kernel.rows, reference.rows)
