"""Property-based equivalence of blockwise top-k decoding vs the dense path.

Two input regimes are exercised:

* **Exact-tie regime** — quantised inputs with plenty of *exact* score
  ties.  Either the target side is an identity matrix, so the similarity
  equals the normalised source matrix bitwise however it is computed
  (multiplying by ``I`` introduces no rounding), or both sides are
  half-integer-quantised tables over 1–3 propagation rounds, whose cells'
  last bits depend on the GEMM that computes them.  The oracle is the dense
  matrix on the scan's own block grid: ``reference_similarity`` when one
  block holds every source row, ``reference_blockwise_similarity``
  otherwise.  Every reduction — cosine and CSLS ranks with their
  strictly-better + ties-before-gold semantics, CSLS values on kept pairs,
  mutual-NN pair sets — must match it exactly, across random shapes, block
  sizes and ``k`` values (including ``k > n_t``).  This holds only because
  the exact-rank fallback replays the scan's blocks.  Each rank case is
  also decoded without column statistics: its rows, score bits and cell
  count equal the full decode's, it stays exact (``approximate=False``)
  and ranks by cosine as the oracle does, and its CSLS and mutual-NN
  readers raise.

* **Continuous regime** — random Gaussian embeddings, where the block-GEMM
  and the full-GEMM may differ in the last ulp; score values must agree to
  1e-12 and every reduction must agree exactly whenever the similarity
  values are separated by more than that noise floor.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    reference_blockwise_similarity,
    reference_csls,
    reference_mutual_pairs,
    reference_ranks,
    reference_similarity,
    reference_topk,
)
from repro.core.alignment import (
    cosine_similarity,
    csls_similarity,
    greedy_one_to_one,
    mutual_nearest_pairs,
)
from repro.core.similarity import blockwise_topk
from repro.eval.metrics import evaluate_alignment, ranks_from_similarity

SETTINGS = settings(max_examples=40, deadline=None)
#: A tie broken differently by a mis-rounded cell shows in a few percent of
#: the quantised cases, so the rank property draws more of them.
RANK_SETTINGS = settings(max_examples=100, deadline=None)


@st.composite
def exact_tie_case(draw, max_source=64, max_target=48, max_dim=16):
    """Tied inputs: a quantised source against an identity target, or
    half-integer-quantised tables over 1–3 rounds."""
    num_source = draw(st.integers(min_value=2, max_value=max_source))
    num_target = draw(st.integers(min_value=2, max_value=max_target))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        source = np.round(rng.normal(size=(num_source, num_target)) * 2) / 2
        target = np.eye(num_target)
    else:
        num_rounds = draw(st.integers(min_value=1, max_value=3))
        dim = draw(st.integers(min_value=1, max_value=max_dim))
        source = [np.round(rng.normal(size=(num_source, dim)) * 2) / 2
                  for _ in range(num_rounds)]
        target = [np.round(rng.normal(size=(num_target, dim)) * 2) / 2
                  for _ in range(num_rounds)]
    k = draw(st.integers(min_value=1, max_value=num_target + 8))
    # Half the cases scan one block, where the oracle is the dense matrix.
    block_size = draw(st.one_of(
        st.integers(min_value=1, max_value=num_source),
        st.integers(min_value=num_source, max_value=num_source + 4)))
    csls_k = draw(st.integers(min_value=1, max_value=12))
    num_test = draw(st.integers(min_value=1, max_value=min(num_source, num_target)))
    sources = rng.choice(num_source, size=num_test, replace=False)
    targets = rng.choice(num_target, size=num_test, replace=False)
    test_pairs = np.stack([sources, targets], axis=1)
    return source, target, k, block_size, csls_k, test_pairs


def tie_oracle(source, target, block_size: int) -> np.ndarray:
    """The dense similarity a decode with ``block_size`` must reproduce bitwise."""
    num_source = len(source) if isinstance(source, np.ndarray) else len(source[0])
    if block_size >= num_source:
        return reference_similarity(source, target)
    return reference_blockwise_similarity(source, target, block_size)


class TestExactTieEquivalence:
    @RANK_SETTINGS
    @given(exact_tie_case())
    def test_metrics_and_ranks_match_dense_exactly(self, case):
        source, target, k, block_size, csls_k, test_pairs = case
        dense = tie_oracle(source, target, block_size)
        topk = blockwise_topk(source, target, k=k, block_size=block_size,
                              csls_k=csls_k)
        for ranking in ("cosine", "csls"):
            for restrict in (True, False):
                assert np.array_equal(
                    ranks_from_similarity(topk, test_pairs, restrict,
                                          ranking=ranking),
                    ranks_from_similarity(dense, test_pairs, restrict,
                                          ranking=ranking, csls_k=csls_k))
            assert evaluate_alignment(topk, test_pairs, ranking=ranking) == \
                evaluate_alignment(dense, test_pairs, ranking=ranking,
                                   csls_k=csls_k)

        # The same case decoded without column statistics: the same rows,
        # score bits and cell count, still exact, cosine ranks equal to the
        # dense oracle, and every CSLS or mutual-NN reader refuses.
        lean = blockwise_topk(source, target, k=k, block_size=block_size,
                              csls_k=csls_k, column_stats=False)
        assert not topk.approximate and not lean.approximate
        assert np.array_equal(lean.indices, topk.indices)
        assert lean.scores.dtype == topk.scores.dtype
        assert lean.scores.tobytes() == topk.scores.tobytes()
        assert lean.computed_cells == topk.computed_cells
        for restrict in (True, False):
            assert np.array_equal(
                ranks_from_similarity(lean, test_pairs, restrict),
                ranks_from_similarity(dense, test_pairs, restrict))
            assert evaluate_alignment(lean, test_pairs, restrict) == \
                evaluate_alignment(dense, test_pairs, restrict)
        for read in (lean.csls_scores, lean.mutual_nearest_pairs,
                     lambda: lean.csls_row(test_pairs[:, 0]),
                     lambda: ranks_from_similarity(lean, test_pairs,
                                                   ranking="csls")):
            with pytest.raises(ValueError, match="column_stats=True"):
                read()

    @SETTINGS
    @given(exact_tie_case())
    def test_csls_kept_values_match_dense_exactly(self, case):
        source, target, k, block_size, csls_k, _ = case
        dense_csls = reference_csls(tie_oracle(source, target, block_size),
                                    k=csls_k)
        topk = blockwise_topk(source, target, k=k, block_size=block_size,
                              csls_k=csls_k)
        rows = np.arange(topk.shape[0])[:, None]
        assert np.array_equal(topk.csls_scores(), dense_csls[rows, topk.indices])

    @SETTINGS
    @given(exact_tie_case(), st.sampled_from([-0.5, 0.0, 0.3]))
    def test_mutual_pair_sets_match_dense_exactly(self, case, threshold):
        source, target, k, block_size, csls_k, test_pairs = case
        dense = tie_oracle(source, target, block_size)
        topk = blockwise_topk(source, target, k=k, block_size=block_size,
                              csls_k=csls_k)
        assert topk.mutual_nearest_pairs(threshold) == \
            reference_mutual_pairs(dense, threshold)
        exclude_source = {int(test_pairs[0, 0])}
        exclude_target = {int(test_pairs[0, 1])}
        assert topk.mutual_nearest_pairs(threshold, exclude_source, exclude_target) \
            == reference_mutual_pairs(dense, threshold, exclude_source, exclude_target)


class TestQuantisedTables:
    """Integer-quantised 300 x 250 tables, d = 16, one round, one scan block.

    Nearly every gold falls outside the stored top-k, so almost every rank
    comes from the exact fallback.  A fallback that scores a row with its
    own GEMV (or a GEMM over only the fallback rows) rounds differently from
    the scan and breaks ties differently from the dense oracle.
    """

    @pytest.mark.parametrize("k", [1, 10])
    def test_evaluation_matches_dense_oracle(self, k):
        mismatched = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            source = np.round(rng.normal(size=(300, 16)))
            target = np.round(rng.normal(size=(250, 16)))
            pairs = np.stack([rng.permutation(300)[:250],
                              rng.permutation(250)], axis=1)
            topk = blockwise_topk(source, target, k=k)
            if evaluate_alignment(topk, pairs) != evaluate_alignment(
                    reference_similarity(source, target), pairs):
                mismatched.append(seed)
        assert mismatched == []


@st.composite
def continuous_case(draw, max_entities=20, max_dim=6):
    num_source = draw(st.integers(min_value=2, max_value=max_entities))
    num_target = draw(st.integers(min_value=2, max_value=max_entities))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    source = rng.normal(size=(num_source, dim))
    target = rng.normal(size=(num_target, dim))
    k = draw(st.integers(min_value=1, max_value=max_entities + 5))
    block_size = draw(st.integers(min_value=1, max_value=max_entities))
    return source, target, k, block_size


def _well_separated(dense: np.ndarray, noise_floor: float = 1e-9) -> bool:
    """True when no two similarity values sit within the GEMM noise floor."""
    values = np.sort(dense.ravel())
    gaps = np.diff(values)
    return bool(len(gaps) == 0 or gaps.min() > noise_floor)


class TestContinuousEquivalence:
    @SETTINGS
    @given(continuous_case())
    def test_scores_match_dense_within_tolerance(self, case):
        source, target, k, block_size = case
        dense = cosine_similarity(source, target)
        topk = blockwise_topk(source, target, k=k, block_size=block_size)
        _, expected_scores = reference_topk(dense, topk.k)
        assert np.allclose(topk.scores, expected_scores, atol=1e-12)
        assert np.allclose(topk.col_max, dense.max(axis=0), atol=1e-12)
        assert np.allclose(topk.dense(), dense, atol=1e-12)

    @SETTINGS
    @given(continuous_case())
    def test_reductions_match_dense_when_separated(self, case):
        source, target, k, block_size = case
        dense = cosine_similarity(source, target)
        if not _well_separated(dense):  # pragma: no cover - measure-zero event
            return
        topk = blockwise_topk(source, target, k=k, block_size=block_size)
        rng = np.random.default_rng(0)
        num_test = min(dense.shape)
        pairs = np.stack([rng.choice(dense.shape[0], num_test, replace=False),
                          rng.choice(dense.shape[1], num_test, replace=False)],
                         axis=1)
        assert np.array_equal(ranks_from_similarity(topk, pairs),
                              ranks_from_similarity(dense, pairs))
        assert topk.mutual_nearest_pairs() == mutual_nearest_pairs(dense)


@st.composite
def similarity_and_pairs(draw, max_entities=14):
    num_source = draw(st.integers(min_value=2, max_value=max_entities))
    num_target = draw(st.integers(min_value=2, max_value=max_entities))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    quantise = draw(st.booleans())
    rng = np.random.default_rng(seed)
    similarity = rng.normal(size=(num_source, num_target))
    if quantise:
        similarity = np.round(similarity)
    num_test = draw(st.integers(min_value=1, max_value=min(num_source, num_target)))
    sources = rng.choice(num_source, size=num_test, replace=False)
    targets = rng.choice(num_target, size=num_test, replace=False)
    return similarity, np.stack([sources, targets], axis=1)


class TestVectorisedHelpers:
    @SETTINGS
    @given(similarity_and_pairs(), st.booleans())
    def test_vectorised_ranks_match_loop_reference(self, case, restrict):
        similarity, test_pairs = case
        assert np.array_equal(
            ranks_from_similarity(similarity, test_pairs, restrict),
            reference_ranks(similarity, test_pairs, restrict))

    @SETTINGS
    @given(similarity_and_pairs(), st.integers(min_value=1, max_value=20))
    def test_partitioned_csls_bit_identical_to_full_sort(self, case, k):
        similarity, _ = case
        assert np.array_equal(csls_similarity(similarity, k=k),
                              reference_csls(similarity, k=k))

    @SETTINGS
    @given(similarity_and_pairs(), st.sampled_from([-0.5, 0.0, 0.3]))
    def test_vectorised_mutual_pairs_match_scan_reference(self, case, threshold):
        similarity, test_pairs = case
        assert mutual_nearest_pairs(similarity, threshold) == \
            reference_mutual_pairs(similarity, threshold)
        exclude_source = {int(test_pairs[0, 0])}
        exclude_target = {int(test_pairs[0, 1])}
        assert mutual_nearest_pairs(similarity, threshold, exclude_source,
                                    exclude_target) == \
            reference_mutual_pairs(similarity, threshold, exclude_source,
                                   exclude_target)

    @SETTINGS
    @given(similarity_and_pairs())
    def test_greedy_partial_selection_is_valid_and_tie_deterministic(self, case):
        similarity, _ = case
        matches = greedy_one_to_one(similarity)
        sources = [s for s, _ in matches]
        targets = [t for _, t in matches]
        assert len(matches) == min(similarity.shape)
        assert len(set(sources)) == len(matches)
        assert len(set(targets)) == len(matches)
        assert matches == greedy_one_to_one(similarity)  # deterministic
