"""Property-based tests for Semantic Propagation and the evaluation metrics."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.propagation import SemanticPropagation, closed_form_interpolation
from repro.eval.metrics import (
    evaluate_alignment,
    hits_at_k,
    mean_reciprocal_rank,
    ranks_from_similarity,
)
from oracles import reference_laplacian
from repro.kg.laplacian import dirichlet_energy

SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def connected_graph_features_mask(draw, max_nodes=10, max_dim=4):
    """A connected random graph, features, and a non-trivial known-mask."""
    num_nodes = draw(st.integers(min_value=3, max_value=max_nodes))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_nodes, num_nodes)) < 0.4).astype(float)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    # Guarantee connectivity with a chain.
    for i in range(num_nodes - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    features = rng.normal(size=(num_nodes, dim))
    num_known = draw(st.integers(min_value=1, max_value=num_nodes - 1))
    known = np.zeros(num_nodes, dtype=bool)
    known[rng.choice(num_nodes, size=num_known, replace=False)] = True
    return adjacency, features, known


class TestPropagationProperties:
    @SETTINGS
    @given(connected_graph_features_mask(), st.integers(min_value=1, max_value=6))
    def test_known_rows_always_preserved(self, case, iterations):
        adjacency, features, known = case
        propagation = SemanticPropagation(iterations=iterations, reset_known=True)
        states = propagation.propagate_features(features, adjacency, known)
        for state in states:
            assert np.allclose(state[known], features[known])

    @SETTINGS
    @given(connected_graph_features_mask(), st.integers(min_value=1, max_value=6))
    def test_energy_never_increases_without_reset(self, case, iterations):
        adjacency, features, _ = case
        propagation = SemanticPropagation(iterations=iterations, reset_known=False)
        states = propagation.propagate_features(features, adjacency)
        laplacian = reference_laplacian(adjacency)
        energies = [dirichlet_energy(state, laplacian) for state in states]
        for previous, current in zip(energies, energies[1:]):
            assert current <= previous + 1e-8

    @SETTINGS
    @given(connected_graph_features_mask())
    def test_closed_form_is_energy_optimal(self, case):
        adjacency, features, known = case
        solution = closed_form_interpolation(features, adjacency, known)
        laplacian = reference_laplacian(adjacency)
        best = dirichlet_energy(solution, laplacian)
        rng = np.random.default_rng(0)
        perturbed = solution.copy()
        perturbed[~known] += 0.05 * rng.normal(size=perturbed[~known].shape)
        assert dirichlet_energy(perturbed, laplacian) >= best - 1e-8

    @SETTINGS
    @given(connected_graph_features_mask(), st.integers(min_value=0, max_value=4))
    def test_decoder_similarity_is_bounded(self, case, iterations):
        adjacency, features, known = case
        propagation = SemanticPropagation(iterations=iterations)
        result = propagation(features, features, adjacency, adjacency,
                             source_known=known, target_known=known)
        similarity = result.final_similarity()
        assert np.all(similarity <= 1.0 + 1e-7)
        assert np.all(similarity >= -1.0 - 1e-7)
        assert len(result.similarities) == iterations + 1


@st.composite
def similarity_and_test_pairs(draw, max_entities=12):
    num_source = draw(st.integers(min_value=2, max_value=max_entities))
    num_target = draw(st.integers(min_value=2, max_value=max_entities))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    similarity = rng.normal(size=(num_source, num_target))
    num_test = draw(st.integers(min_value=1, max_value=min(num_source, num_target)))
    sources = rng.choice(num_source, size=num_test, replace=False)
    targets = rng.choice(num_target, size=num_test, replace=False)
    return similarity, np.stack([sources, targets], axis=1)


class TestMetricProperties:
    @SETTINGS
    @given(similarity_and_test_pairs())
    def test_metric_invariants(self, case):
        similarity, test_pairs = case
        metrics = evaluate_alignment(similarity, test_pairs)
        assert 0.0 <= metrics.hits_at_1 <= metrics.hits_at_10 <= 1.0
        assert metrics.hits_at_1 <= metrics.mrr <= 1.0
        assert metrics.num_queries == len(test_pairs)

    @SETTINGS
    @given(similarity_and_test_pairs())
    def test_ranks_within_candidate_range(self, case):
        similarity, test_pairs = case
        ranks = ranks_from_similarity(similarity, test_pairs)
        num_candidates = len(np.unique(test_pairs[:, 1]))
        assert np.all(ranks >= 1)
        assert np.all(ranks <= num_candidates)

    @SETTINGS
    @given(similarity_and_test_pairs())
    def test_oracle_similarity_achieves_perfect_scores(self, case):
        similarity, test_pairs = case
        oracle = np.full_like(similarity, -1.0)
        for source_id, target_id in test_pairs:
            oracle[source_id, target_id] = 1.0
        metrics = evaluate_alignment(oracle, test_pairs)
        assert metrics.hits_at_1 == 1.0
        assert metrics.mrr == 1.0

    @SETTINGS
    @given(similarity_and_test_pairs(), st.integers(min_value=1, max_value=20))
    def test_hits_monotone_in_k(self, case, k):
        similarity, test_pairs = case
        ranks = ranks_from_similarity(similarity, test_pairs)
        assert hits_at_k(ranks, k) <= hits_at_k(ranks, k + 1)
        assert mean_reciprocal_rank(ranks) <= 1.0
