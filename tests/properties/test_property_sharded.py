"""Property-based pins for the sharded decode and the out-of-core store.

Three guarantees are exercised under hypothesis-driven shapes, shard
layouts and quantised (exact-tie-rich) inputs:

* **Reducer algebra** — :func:`repro.core.similarity.merge_partials` is
  associative and permutation-invariant even when scores tie *exactly*
  across shards: any merge order / grouping of the per-shard partials
  yields bitwise-equal merged arrays, because the column-max reduction is
  the lexicographic max by ``(value, -source row)`` and the row/col top-k
  merges are multiset reductions.

* **Sharded = serial** — a block-aligned sharded scan merged by that
  reducer equals the single-process engine array for array, for any
  worker count and block size, with or without column statistics (the
  bit-identity contract of ``num_workers``).

* **Mapped = in-memory** — decoding straight off ``np.load(mmap_mode="r")``
  views of an :class:`~repro.core.store.EmbeddingStore` produces bitwise
  the same decode as the in-RAM arrays: the engine's arithmetic never
  depends on where the pages live.

The exact-tie regime mirrors ``test_property_topk_decode``: a quantised
source against an identity target makes the similarity equal the source
matrix bitwise, so ties are plentiful and every tie-break rule is pinned.
"""

import tempfile
from functools import reduce
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.similarity import (
    _normalize_rows,
    blockwise_topk,
    compute_partial_topk,
    merge_partial_topk,
    merge_partials,
)
from repro.core.sharded import shard_boundaries
from repro.core.store import EmbeddingStore

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def tie_rich_case(draw, max_source=28, max_target=14):
    """Quantised source + identity target: bitwise-equal similarities with
    plenty of exact cross-shard score ties."""
    num_source = draw(st.integers(min_value=2, max_value=max_source))
    num_target = draw(st.integers(min_value=2, max_value=max_target))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    source = np.round(rng.normal(size=(num_source, num_target)) * 2) / 2
    target = np.eye(num_target)
    block_size = draw(st.integers(min_value=1, max_value=max_source + 4))
    num_workers = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=num_target))
    return source, target, k, block_size, num_workers


def _partials_of(source, target, block_size, num_workers, k_keep, csls_k_col):
    source_norm = [_normalize_rows(source)]
    target_norm = [_normalize_rows(target)]
    return [compute_partial_topk(source_norm, target_norm, start, stop,
                                 k_keep=k_keep, csls_k_col=csls_k_col,
                                 block_size=block_size)
            for start, stop in shard_boundaries(len(source), num_workers,
                                                block_size)]


def _assert_partials_equal(a, b):
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.col_max, b.col_max)
    assert np.array_equal(a.col_argmax, b.col_argmax)
    # col_top is an order-free multiset of per-column top values.
    assert np.array_equal(np.sort(a.col_top, axis=0),
                          np.sort(b.col_top, axis=0))
    assert a.computed_cells == b.computed_cells


class TestReducerAlgebra:
    @SETTINGS
    @given(case=tie_rich_case(), permutation_seed=st.integers(0, 2 ** 31 - 1))
    def test_merge_is_permutation_invariant_under_exact_ties(
            self, case, permutation_seed):
        source, target, k, block_size, num_workers = case
        partials = _partials_of(source, target, block_size, num_workers,
                                k_keep=k, csls_k_col=min(5, len(source)))
        merged = merge_partial_topk(partials)
        order = np.random.default_rng(permutation_seed).permutation(len(partials))
        shuffled = merge_partial_topk([partials[i] for i in order])
        _assert_partials_equal(merged, shuffled)

    @SETTINGS
    @given(case=tie_rich_case())
    def test_merge_is_associative(self, case):
        source, target, k, block_size, num_workers = case
        partials = _partials_of(source, target, block_size, num_workers,
                                k_keep=k, csls_k_col=min(4, len(source)))
        left = reduce(merge_partials, partials)
        right = partials[-1]
        for partial in partials[-2::-1]:
            right = merge_partials(partial, right)
        _assert_partials_equal(left, right)


class TestShardedEqualsSerial:
    @SETTINGS
    @given(case=tie_rich_case(), column_stats=st.booleans())
    def test_sharded_scan_is_bit_identical_under_exact_ties(self, case,
                                                             column_stats):
        source, target, k, block_size, num_workers = case
        serial = blockwise_topk(source, target, k=k, block_size=block_size,
                                column_stats=column_stats)
        sharded = blockwise_topk(source, target, k=k, block_size=block_size,
                                 num_workers=num_workers,
                                 column_stats=column_stats)
        assert np.array_equal(serial.indices, sharded.indices)
        assert np.array_equal(serial.scores, sharded.scores)
        statistics = ("col_max", "col_argmax", "row_knn_mean", "col_knn_mean")
        for name in statistics:
            if column_stats:
                assert np.array_equal(getattr(serial, name),
                                      getattr(sharded, name))
            else:
                assert getattr(serial, name) is None
                assert getattr(sharded, name) is None
        assert serial.computed_cells == sharded.computed_cells


class TestMappedEqualsInMemory:
    @SETTINGS
    @given(seed=st.integers(0, 2 ** 31 - 1),
           num_source=st.integers(3, 24), num_target=st.integers(3, 20),
           num_rounds=st.integers(1, 3), k=st.integers(1, 8),
           block_size=st.integers(1, 16))
    def test_decode_off_mmap_store_is_bit_identical(
            self, seed, num_source, num_target, num_rounds, k, block_size):
        rng = np.random.default_rng(seed)
        source = [rng.normal(size=(num_source, 6)) for _ in range(num_rounds)]
        target = [rng.normal(size=(num_target, 6)) for _ in range(num_rounds)]
        with tempfile.TemporaryDirectory() as tmp:
            EmbeddingStore.create(Path(tmp) / "store", source_states=source,
                                  target_states=target)
            store = EmbeddingStore.open(Path(tmp) / "store", mmap=True)
            mapped_source, mapped_target = store.states()
            in_memory = blockwise_topk(source, target, k=k,
                                       block_size=block_size)
            mapped = blockwise_topk(mapped_source, mapped_target, k=k,
                                    block_size=block_size)
        assert np.array_equal(in_memory.indices, mapped.indices)
        assert np.array_equal(in_memory.scores, mapped.scores)
        assert np.array_equal(in_memory.col_max, mapped.col_max)
        assert np.array_equal(in_memory.col_argmax, mapped.col_argmax)
        assert np.array_equal(in_memory.row_knn_mean, mapped.row_knn_mean)
        assert np.array_equal(in_memory.col_knn_mean, mapped.col_knn_mean)
