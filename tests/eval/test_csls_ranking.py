"""Streaming CSLS-ranked evaluation: exactness against the dense CSLS path."""

import numpy as np
import pytest

from oracles import reference_csls, reference_similarity
from repro.core.alignment import cosine_similarity
from repro.core.similarity import blockwise_topk
from repro.eval.evaluator import Evaluator
from repro.eval.metrics import evaluate_alignment, ranks_from_similarity


def _random_case(num_source=40, num_target=50, dim=8, seed=0, num_test=25):
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(num_source, dim))
    target = rng.normal(size=(num_target, dim))
    test_rows = rng.choice(num_source, size=num_test, replace=False)
    test_cols = rng.choice(num_target, size=num_test, replace=False)
    test_pairs = np.stack([test_rows, test_cols], axis=1)
    return source, target, test_pairs


class TestDenseCSLSRanking:
    def test_dense_ranking_equals_explicit_csls_matrix(self):
        source, target, pairs = _random_case(seed=1)
        similarity = cosine_similarity(source, target)
        expected = ranks_from_similarity(reference_csls(similarity, k=10), pairs)
        got = ranks_from_similarity(similarity, pairs, ranking="csls", csls_k=10)
        assert np.array_equal(got, expected)

    def test_invalid_ranking_rejected(self):
        source, target, pairs = _random_case(seed=2)
        with pytest.raises(ValueError):
            ranks_from_similarity(cosine_similarity(source, target), pairs,
                                  ranking="euclidean")


class TestStreamingCSLSRanking:
    @pytest.mark.parametrize("k", [3, 10, 64])
    @pytest.mark.parametrize("restrict", [True, False])
    def test_topk_csls_ranks_match_dense(self, k, restrict):
        """Exact for any k: small k exercises the bound + fallback path."""
        source, target, pairs = _random_case(seed=3)
        similarity = cosine_similarity(source, target)
        expected = ranks_from_similarity(reference_csls(similarity, k=10), pairs,
                                         restrict_candidates=restrict)
        topk = blockwise_topk(source, target, k=k, block_size=7, csls_k=10)
        got = ranks_from_similarity(topk, pairs, restrict_candidates=restrict,
                                    ranking="csls")
        assert np.array_equal(got, expected)

    def test_metrics_match_dense_csls(self):
        source, target, pairs = _random_case(seed=4)
        similarity = cosine_similarity(source, target)
        dense = evaluate_alignment(reference_csls(similarity, k=10), pairs)
        streamed = evaluate_alignment(
            blockwise_topk(source, target, k=5, block_size=11), pairs,
            ranking="csls")
        assert streamed.as_dict() == dense.as_dict()

    def test_exact_tie_regime(self):
        """Identity targets make every path reproduce scores bit for bit."""
        rng = np.random.default_rng(5)
        num = 24
        source = rng.normal(size=(num, num))
        target = np.eye(num)
        # duplicate rows induce exact cross-row ties in every column
        source[1] = source[0]
        source[7] = source[0]
        pairs = np.stack([np.arange(num), rng.permutation(num)], axis=1)
        similarity = cosine_similarity(source, target)
        expected = ranks_from_similarity(reference_csls(similarity, k=4), pairs)
        topk = blockwise_topk(source, target, k=3, block_size=5, csls_k=4)
        got = ranks_from_similarity(topk, pairs, ranking="csls")
        assert np.array_equal(got, expected)

    def test_cosine_ranking_unchanged_by_default(self):
        source, target, pairs = _random_case(seed=6)
        topk = blockwise_topk(source, target, k=6, block_size=9)
        assert np.array_equal(
            ranks_from_similarity(topk, pairs),
            ranks_from_similarity(cosine_similarity(source, target), pairs))


class TestEvaluatorCSLS:
    def test_evaluator_ranking_field(self, tiny_task):
        from repro.core import DESAlign, DESAlignConfig

        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        cosine = Evaluator(tiny_task).evaluate_model(model)
        csls_dense = evaluate_alignment(
            reference_similarity(*model.decode_states()), tiny_task.test_pairs,
            ranking="csls")
        csls_streamed = Evaluator(tiny_task, ranking="csls").evaluate_model(model)
        assert csls_dense.num_queries == cosine.num_queries
        for key, value in csls_dense.as_dict().items():
            assert abs(csls_streamed.as_dict()[key] - value) < 1e-9, key
