"""Unit tests for the multi-process sharded decode (repro.core.sharded).

The contract under test is *bit-identity*: a sharded scan — forked worker
pool or the in-process fallback — must merge to exactly the arrays the
single-process engine produces, on both the exhaustive GEMM path and the
candidate-restricted gather path.  The brute-force oracles back the
exhaustive comparison so a failure localises to the sharding layer rather
than the streaming engine.
"""

import numpy as np
import pytest

from oracles import reference_topk
from repro.core.ann import AnnConfig, flops_counter, generate_candidates
from repro.core.sharded import (
    default_num_workers,
    scan_partials_parallel,
    shard_boundaries,
)
from repro.core.similarity import (
    _normalize_rows,
    blockwise_topk,
    merge_partial_topk,
)


@pytest.fixture
def pair():
    rng = np.random.default_rng(11)
    source = rng.normal(size=(90, 10))
    target = np.vstack([source + 0.2 * rng.normal(size=source.shape),
                        rng.normal(size=(30, 10))])
    return source, target


class TestShardBoundaries:
    def test_boundaries_are_block_aligned_and_cover_rows(self):
        for num_rows, workers, block in ((100, 4, 8), (7, 3, 2), (64, 5, 16),
                                         (1, 4, 1024), (1000, 7, 33)):
            bounds = shard_boundaries(num_rows, workers, block)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == num_rows
            for (start, stop), (next_start, _) in zip(bounds, bounds[1:]):
                assert stop == next_start
            for start, stop in bounds:
                assert start % block == 0
                assert start < stop

    def test_no_empty_shards(self):
        # More workers than blocks: shard count collapses to the block count.
        bounds = shard_boundaries(10, 16, 4)
        assert len(bounds) == 3  # ceil(10 / 4)
        assert all(start < stop for start, stop in bounds)

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_boundaries(0, 2, 4)
        with pytest.raises(ValueError):
            shard_boundaries(10, 0, 4)
        with pytest.raises(ValueError):
            shard_boundaries(10, 2, 0)

    def test_default_num_workers_positive(self):
        assert default_num_workers() >= 1


class TestShardedExhaustive:
    def test_sharded_decode_bit_identical_to_serial(self, pair):
        source, target = pair
        serial = blockwise_topk(source, target, k=7, block_size=16)
        sharded = blockwise_topk(source, target, k=7, block_size=16,
                                 num_workers=4)
        assert np.array_equal(serial.indices, sharded.indices)
        assert np.array_equal(serial.scores, sharded.scores)
        assert np.array_equal(serial.col_max, sharded.col_max)
        assert np.array_equal(serial.col_argmax, sharded.col_argmax)
        assert np.array_equal(serial.row_knn_mean, sharded.row_knn_mean)
        assert np.array_equal(serial.col_knn_mean, sharded.col_knn_mean)

    def test_sharded_decode_matches_oracle(self, pair):
        source, target = pair
        sharded = blockwise_topk(source, target, k=5, block_size=32,
                                 num_workers=3)
        dense = (_normalize_rows(source) @ _normalize_rows(target).T)
        ids, scores = reference_topk(dense, k=5)
        assert np.array_equal(sharded.indices[:, :5], ids)
        np.testing.assert_allclose(sharded.scores[:, :5], scores, atol=1e-12)

    def test_flops_counted_once(self, pair):
        source, target = pair
        with flops_counter() as serial_counter:
            blockwise_topk(source, target, k=5, block_size=16)
        with flops_counter() as sharded_counter:
            blockwise_topk(source, target, k=5, block_size=16, num_workers=4)
        assert serial_counter.cells == sharded_counter.cells > 0

    def test_merge_is_invariant_to_shard_order(self, pair):
        source, target = pair
        source_norm = [_normalize_rows(source)]
        target_norm = [_normalize_rows(target)]
        partials = scan_partials_parallel(
            source_norm, target_norm, num_workers=4,
            block_size=8, k_keep=6, csls_k_col=5)
        merged = merge_partial_topk(partials)
        shuffled = merge_partial_topk(partials[::-1])
        assert np.array_equal(merged.indices, shuffled.indices)
        assert np.array_equal(merged.scores, shuffled.scores)
        assert np.array_equal(merged.col_max, shuffled.col_max)
        assert np.array_equal(merged.col_argmax, shuffled.col_argmax)
        assert np.array_equal(np.sort(merged.col_top, axis=0),
                              np.sort(shuffled.col_top, axis=0))

    def test_single_row_and_single_worker_paths(self, pair):
        source, target = pair
        one = blockwise_topk(source[:1], target, k=3, num_workers=4)
        ref = blockwise_topk(source[:1], target, k=3)
        assert np.array_equal(one.indices, ref.indices)
        same = blockwise_topk(source, target, k=3, num_workers=1)
        assert np.array_equal(same.indices,
                              blockwise_topk(source, target, k=3).indices)


class TestShardedCandidates:
    def test_sharded_candidate_decode_bit_identical(self, pair):
        source, target = pair
        candidates = generate_candidates(
            "ivf", source, target, AnnConfig(n_clusters=6, nprobe=2, seed=0))
        serial = blockwise_topk(source, target, k=5, block_size=16,
                                row_candidates=candidates)
        sharded = blockwise_topk(source, target, k=5, block_size=16,
                                 row_candidates=candidates, num_workers=4)
        assert sharded.approximate
        assert np.array_equal(serial.indices, sharded.indices)
        assert np.array_equal(serial.scores, sharded.scores)
        assert np.array_equal(serial.col_max, sharded.col_max)
        assert np.array_equal(serial.col_argmax, sharded.col_argmax)
        assert serial.computed_cells == sharded.computed_cells


class TestFallback:
    def test_in_process_fallback_matches_pool(self, pair, monkeypatch):
        """With fork unavailable the scan degrades to in-process shards."""
        import multiprocessing

        source, target = pair
        pooled = blockwise_topk(source, target, k=5, block_size=16,
                                num_workers=4)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with flops_counter() as counter:
            fallback = blockwise_topk(source, target, k=5, block_size=16,
                                      num_workers=4)
        assert np.array_equal(pooled.indices, fallback.indices)
        assert np.array_equal(pooled.scores, fallback.scores)
        # The fallback must not double-count: the scan kernels meter
        # nothing, and the engine charges the merged cells once.
        assert counter.cells == fallback.computed_cells

    def test_fallback_reports_no_worker_rss(self, pair, monkeypatch):
        import multiprocessing

        source, target = pair
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        fallback = blockwise_topk(source, target, k=5, num_workers=4)
        assert fallback.worker_rss_mb == 0.0


class TestWorkerRss:
    def test_sharded_decode_reports_summed_worker_rss(self, pair):
        source, target = pair
        sharded = blockwise_topk(source, target, k=5, block_size=16,
                                 num_workers=3)
        serial = blockwise_topk(source, target, k=5, block_size=16)
        assert serial.worker_rss_mb == 0.0
        # Each forked worker self-reports a real peak; the merge sums them,
        # so three workers report at least three single-process floors.
        assert sharded.worker_rss_mb > 0.0
