"""Property-based guarantees of the IVF candidate-generation layer.

Three contracts, each over random seeded geometries:

* **Escalation exactness** — with ``exact_escalation=True`` the IVF layer's
  centroid-plus-radius bound proves every row's top-1, so recall@1 against
  the exhaustive decode is exactly 1.0 for *any* geometry, and the
  escalated mutual-NN pair set matches the dense selection.
* **Complete probing is exhaustive** — ``nprobe == n_clusters`` covers
  every bucket, and the engine must reproduce the exhaustive blockwise
  decode *bit for bit* (same dispatch, same arrays).
* **Determinism** — candidate sets are a pure function of the inputs and
  the seed: regenerating with the same seed yields identical structures,
  probed and escalated alike.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import reference_mutual_pairs
from repro.core.alignment import cosine_similarity
from repro.core.ann import AnnConfig, IVFIndex, generate_candidates, recall_at_k
from repro.core.similarity import blockwise_topk

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def random_geometry(draw, max_entities=40, max_dim=8):
    """Continuous random embeddings (ties almost surely absent)."""
    num_source = draw(st.integers(min_value=2, max_value=max_entities))
    num_target = draw(st.integers(min_value=2, max_value=max_entities))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(num_source, dim))
    # A mix of noisy copies and unrelated rows: realistic ANN structure.
    copied = min(num_source, num_target)
    target = rng.normal(size=(num_target, dim))
    target[:copied] = source[:copied] + 0.3 * rng.normal(size=(copied, dim))
    ann_seed = draw(st.integers(min_value=0, max_value=10_000))
    return source, target, ann_seed


class TestEscalationExactness:
    @SETTINGS
    @given(random_geometry())
    def test_recall_at_1_is_one_for_any_seeded_geometry(self, case):
        source, target, ann_seed = case
        exact = blockwise_topk(source, target, k=1)
        cands = generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=ann_seed, exact_escalation=True))
        approx = blockwise_topk(source, target, k=1, row_candidates=cands)
        assert recall_at_k(approx.indices, exact.indices, k=1) == 1.0

    @SETTINGS
    @given(random_geometry())
    def test_escalated_mutual_pairs_match_dense(self, case):
        source, target, ann_seed = case
        dense = cosine_similarity(source, target)
        cands = generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=ann_seed, exact_escalation=True))
        approx = blockwise_topk(source, target, k=2, row_candidates=cands)
        assert approx.mutual_nearest_pairs() == reference_mutual_pairs(dense)


class TestCompleteProbingIsExhaustive:
    @SETTINGS
    @given(random_geometry(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=12))
    def test_nprobe_equals_n_clusters_reproduces_blockwise_bitwise(
            self, case, n_clusters, k):
        source, target, ann_seed = case
        exact = blockwise_topk(source, target, k=k, block_size=7)
        # The front door short-circuits full probing to None (exhaustive,
        # nothing materialised)...
        assert generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=ann_seed, n_clusters=n_clusters,
                      nprobe=n_clusters)) is None
        # ... and an explicitly materialised complete candidate set must
        # dispatch to the identical GEMM path, bit for bit.
        index = IVFIndex(target, n_clusters=n_clusters, seed=ann_seed)
        cands = index.candidates(source, nprobe=index.n_clusters)
        assert cands.is_complete()
        via = blockwise_topk(source, target, k=k, block_size=7,
                             row_candidates=cands)
        assert not via.approximate
        assert np.array_equal(via.indices, exact.indices)
        assert np.array_equal(via.scores, exact.scores)
        assert np.array_equal(via.col_max, exact.col_max)
        assert np.array_equal(via.col_argmax, exact.col_argmax)
        assert np.array_equal(via.row_knn_mean, exact.row_knn_mean)
        assert np.array_equal(via.col_knn_mean, exact.col_knn_mean)


class TestDeterminism:
    @SETTINGS
    @given(random_geometry())
    def test_candidates_reproducible_for_fixed_seed(self, case):
        source, target, ann_seed = case
        config = AnnConfig(seed=ann_seed)
        first = generate_candidates("ivf", source, target, config)
        second = generate_candidates("ivf", source, target, config)
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)

    @SETTINGS
    @given(random_geometry())
    def test_escalated_candidates_reproducible(self, case):
        source, target, ann_seed = case
        config = AnnConfig(seed=ann_seed, exact_escalation=True)
        first = generate_candidates("ivf", source, target, config)
        second = generate_candidates("ivf", source, target, config)
        assert np.array_equal(first.indptr, second.indptr)
        assert np.array_equal(first.indices, second.indices)
