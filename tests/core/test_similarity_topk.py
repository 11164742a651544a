"""Unit tests for the blockwise top-k similarity decoding engine."""

import numpy as np
import pytest

from oracles import (
    reference_blockwise_similarity,
    reference_csls,
    reference_mutual_pairs,
    reference_ranks,
    reference_similarity,
    reference_topk,
)
from repro.core import DESAlign, DESAlignConfig, rules
from repro.core.alignment import (
    cosine_similarity,
    csls_similarity,
    greedy_one_to_one,
    mutual_nearest_pairs,
)
from repro.core.ann import RowCandidates, flops_counter
from repro.core.similarity import TopKSimilarity, blockwise_topk
from repro.eval.metrics import evaluate_alignment, ranks_from_similarity


@pytest.fixture
def embeddings():
    rng = np.random.default_rng(5)
    return rng.normal(size=(23, 6)), rng.normal(size=(17, 6))


class TestResolveDecode:
    """``"auto"`` and ``"blockwise"`` both resolve to the one streaming decode."""

    def test_explicit_modes_pass_through(self):
        rules.check_decode_method("auto")
        rules.check_decode_method("blockwise")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            rules.check_decode_method("streamed")


class TestBlockwiseTopK:
    def test_shapes_and_ordering(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=5, block_size=4, csls_k=3)
        assert topk.shape == (23, 17)
        assert topk.indices.shape == topk.scores.shape == (23, topk.k)
        # Scores descend; ties (none here) would break by ascending id.
        assert np.all(np.diff(topk.scores, axis=1) <= 1e-15)

    def test_matches_dense_cosine(self, embeddings):
        source, target = embeddings
        dense = cosine_similarity(source, target)
        for block_size in (1, 4, 23, 100):
            topk = blockwise_topk(source, target, k=6, block_size=block_size)
            _, expected_scores = reference_topk(dense, topk.k)
            assert np.allclose(topk.scores, expected_scores, atol=1e-12)
            assert np.array_equal(topk.col_argmax, dense.argmax(axis=0))
            assert np.allclose(topk.col_max, dense.max(axis=0), atol=1e-12)

    def test_k_larger_than_targets_stores_full_rows(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=99, block_size=7)
        assert topk.k == 17
        assert topk.is_exhaustive()
        dense = cosine_similarity(source, target)
        assert np.allclose(topk.dense(), dense, atol=1e-12)

    def test_row_scores_fallback_matches_dense(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=3, block_size=6)
        dense = cosine_similarity(source, target)
        for row in (0, 11, 22):
            assert np.allclose(topk.row_scores(row), dense[row], atol=1e-12)

    def test_round_averaging_matches_dense_mean(self):
        rng = np.random.default_rng(9)
        sources = [rng.normal(size=(12, 4)) for _ in range(3)]
        targets = [rng.normal(size=(10, 4)) for _ in range(3)]
        dense = np.mean([cosine_similarity(s, t) for s, t in zip(sources, targets)],
                        axis=0)
        topk = blockwise_topk(sources, targets, k=10, block_size=5)
        assert np.allclose(topk.dense(), dense, atol=1e-12)

    def test_mismatched_round_counts_rejected(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError):
            blockwise_topk([source, source], [target], k=3)

    def test_float32_option_is_close_and_compact(self, embeddings):
        source, target = embeddings
        exact = blockwise_topk(source, target, k=5, block_size=8)
        fast = blockwise_topk(source, target, k=5, block_size=8, dtype=np.float32)
        assert fast._source_norm[0].dtype == np.float32
        assert np.abs(exact.scores - fast.scores).max() < 1e-5

    def test_ties_across_the_kth_place_keep_the_lowest_ids(self, embeddings):
        """An all-zero row ties every cell at 0.0: it stores ids 0, 1, 2.

        ``np.argpartition`` alone kept ``[0, 3, 4]`` here (and ``[0, 2, 3]``
        over the candidates), an id set no full (score desc, id asc) sort
        would keep.
        """
        source = np.zeros((1, 6))
        target = embeddings[1][:5]
        exhaustive = blockwise_topk(source, target, k=3, csls_k=3)
        assert exhaustive.indices.tolist() == [[0, 1, 2]]
        candidates = RowCandidates.from_pairs([0, 0, 0, 0], [0, 1, 2, 3], 1, 5)
        restricted = blockwise_topk(source, target, k=3,
                                    row_candidates=candidates)
        assert restricted.indices.tolist() == [[0, 1, 2]]
        for table in (exhaustive, restricted):
            assert np.all(table.scores == 0.0)

    def test_invalid_parameters_rejected(self, embeddings):
        source, target = embeddings
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=0)
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=2, block_size=0)
        with pytest.raises(ValueError):
            blockwise_topk(source, target, k=2, csls_k=0)


class TestTopKReductions:
    def test_csls_scores_match_dense_kept_entries(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=4, block_size=6, csls_k=5)
        dense_csls = reference_csls(cosine_similarity(source, target), k=5)
        rows = np.arange(topk.shape[0])[:, None]
        assert np.allclose(topk.csls_scores(), dense_csls[rows, topk.indices],
                           atol=1e-12)

    def test_mutual_pairs_match_dense(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        dense = cosine_similarity(source, target)
        for threshold in (-1.0, 0.0, 0.25):
            assert topk.mutual_nearest_pairs(threshold) == \
                reference_mutual_pairs(dense, threshold)
        assert topk.mutual_nearest_pairs(0.0, exclude_source={0, 3},
                                         exclude_target={1}) == \
            reference_mutual_pairs(dense, 0.0, exclude_source={0, 3},
                                   exclude_target={1})

    def test_dispatch_through_alignment_helper(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        dense = cosine_similarity(source, target)
        assert mutual_nearest_pairs(topk) == reference_mutual_pairs(dense)

    def test_full_matrix_helpers_reject_topk_with_guidance(self, embeddings):
        source, target = embeddings
        topk = blockwise_topk(source, target, k=2, block_size=5)
        with pytest.raises(TypeError, match="csls_scores"):
            csls_similarity(topk)
        with pytest.raises(TypeError, match="dense"):
            greedy_one_to_one(topk)


class TestTopKRanks:
    def test_ranks_match_dense_with_fallback(self, embeddings):
        source, target = embeddings
        rng = np.random.default_rng(3)
        pairs = np.stack([rng.choice(23, size=9, replace=False),
                          rng.choice(17, size=9, replace=False)], axis=1)
        dense = cosine_similarity(source, target)
        # k=1 forces the gold outside the stored top-k for most rows, so the
        # exactness fallback carries the ranking.
        for k in (1, 3, 50):
            topk = blockwise_topk(source, target, k=k, block_size=4)
            for restrict in (True, False):
                assert np.array_equal(
                    ranks_from_similarity(topk, pairs, restrict),
                    ranks_from_similarity(dense, pairs, restrict)), (k, restrict)

    def test_metrics_match_dense(self, embeddings):
        source, target = embeddings
        pairs = np.array([[0, 1], [5, 5], [9, 12], [20, 16]])
        dense = cosine_similarity(source, target)
        topk = blockwise_topk(source, target, k=10, block_size=6)
        assert evaluate_alignment(topk, pairs) == evaluate_alignment(dense, pairs)


class TestRowScoresReplay:
    """``row_scores`` replays the scan's blocks, so it returns the scan's cells."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("num_rounds", [1, 3])
    def test_rows_are_the_scans_own_cells(self, dtype, num_rounds):
        rng = np.random.default_rng(num_rounds)
        sources = [rng.normal(size=(23, 6)) for _ in range(num_rounds)]
        targets = [rng.normal(size=(17, 6)) for _ in range(num_rounds)]
        topk = blockwise_topk(sources, targets, k=4, block_size=7, dtype=dtype)
        assert topk.block_size == 7
        dense = topk.dense()
        assert np.array_equal(np.take_along_axis(dense, topk.indices, axis=1),
                              topk.scores)
        ids = np.array([22, 3, 3, 15, 0])
        assert np.array_equal(topk.row_scores(ids), dense[ids])
        assert np.array_equal(topk.row_scores(15), dense[15])
        expected_csls = (2.0 * dense[ids] - topk.row_knn_mean[ids][:, None]
                         - topk.col_knn_mean)
        assert np.array_equal(topk.csls_row(ids), expected_csls)
        assert np.array_equal(topk.csls_row(3), expected_csls[1])
        if dtype == np.float64:
            assert np.array_equal(
                dense, reference_blockwise_similarity(sources, targets, 7))

    def test_rejects_ids_outside_the_table(self, embeddings):
        topk = blockwise_topk(*embeddings, k=3, block_size=6)
        for bad in (23, -1, [0, 23]):
            with pytest.raises(IndexError):
                topk.row_scores(bad)


class TestFallbackMetering:
    """The exact-rank fallback charges every cell it replays."""

    @pytest.fixture
    def decode(self):
        rng = np.random.default_rng(11)
        sources = [rng.normal(size=(100, 8)) for _ in range(2)]
        targets = [rng.normal(size=(40, 8)) for _ in range(2)]
        return sources, targets, blockwise_topk(sources, targets, k=5,
                                                block_size=32)

    def test_charges_each_touched_block_once(self, decode):
        sources, targets, topk = decode
        # Golds outside the top-k in blocks 0 and 2; stored top-1 golds
        # (strictly inside the top-k) in blocks 1 and 3.
        fallback = np.array([1, 5, 31, 64, 70, 95])
        inside = np.array([33, 50, 97])
        dense = topk.dense()
        pairs = np.concatenate([
            np.stack([fallback, dense[fallback].argmin(axis=1)], axis=1),
            np.stack([inside, topk.indices[inside, 0]], axis=1)])
        with flops_counter() as counter:
            ranks = ranks_from_similarity(topk, pairs, restrict_candidates=False)
        assert counter.cells == 64 * 40 * 2
        assert np.array_equal(ranks, reference_ranks(
            reference_blockwise_similarity(sources, targets, 32), pairs,
            restrict_candidates=False))

    def test_golds_inside_the_topk_charge_nothing(self, decode):
        _, _, topk = decode
        rows = np.arange(100)
        pairs = np.stack([rows, topk.indices[rows, 0]], axis=1)
        with flops_counter() as counter:
            ranks = ranks_from_similarity(topk, pairs, restrict_candidates=False)
        assert counter.cells == 0
        assert np.all(ranks == 1)


class TestModelDecode:
    def test_similarity_decode_switch(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        states = model.decode_states()
        dense = reference_similarity(*states)
        assert isinstance(dense, np.ndarray)
        topk = blockwise_topk(*states, k=10, block_size=7)
        assert isinstance(topk, TopKSimilarity)
        metrics_dense = evaluate_alignment(dense, tiny_task.test_pairs)
        metrics_topk = evaluate_alignment(topk, tiny_task.test_pairs)
        assert abs(metrics_dense.mrr - metrics_topk.mrr) < 1e-9
        assert np.abs(topk.dense() - dense).max() < 1e-9

    def test_decode_topk_without_propagation(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        states = model.decode_states(use_propagation=False)
        dense = reference_similarity(*states)
        topk = blockwise_topk(*states, k=5, block_size=9)
        assert np.abs(topk.dense() - dense).max() < 1e-9

    def test_decode_topk_respects_last_round_rule(self, tiny_task):
        config = DESAlignConfig(hidden_dim=16, seed=0, propagation_average=False)
        model = DESAlign(tiny_task, config)
        # The dense oracle on the final round of the averaging decode
        # (same seed, hence the same parameters and propagation rounds).
        averaging = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        all_source, all_target = averaging.decode_states()
        dense = reference_similarity(all_source[-1], all_target[-1])
        topk = blockwise_topk(*model.decode_states(), k=5, block_size=9)
        assert np.abs(topk.dense() - dense).max() < 1e-9
