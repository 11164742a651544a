"""Tests for Semantic Propagation (Algorithm 1) and its closed-form limit."""

import numpy as np
import pytest

from oracles import reference_laplacian, reference_normalized_adjacency
from repro.core import SemanticPropagation, closed_form_interpolation
from repro.kg.laplacian import dirichlet_energy


@pytest.fixture
def path_graph():
    """A 8-node path graph adjacency."""
    adjacency = np.zeros((8, 8))
    for i in range(7):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    return adjacency


@pytest.fixture
def features(path_graph):
    rng = np.random.default_rng(0)
    return rng.normal(size=(8, 4))


class TestPropagateFeatures:
    def test_zero_iterations_is_identity(self, path_graph, features):
        states = SemanticPropagation(iterations=0).propagate_features(features, path_graph)
        assert len(states) == 1
        assert np.allclose(states[0], features)

    def test_number_of_states(self, path_graph, features):
        states = SemanticPropagation(iterations=3).propagate_features(features, path_graph)
        assert len(states) == 4

    def test_known_rows_are_reset(self, path_graph, features):
        known = np.zeros(8, dtype=bool)
        known[[0, 3, 7]] = True
        propagation = SemanticPropagation(iterations=4, reset_known=True)
        states = propagation.propagate_features(features, path_graph, known)
        for state in states:
            assert np.allclose(state[known], features[known])

    def test_without_reset_known_rows_change(self, path_graph, features):
        known = np.zeros(8, dtype=bool)
        known[0] = True
        propagation = SemanticPropagation(iterations=2, reset_known=False)
        states = propagation.propagate_features(features, path_graph, known)
        assert not np.allclose(states[-1][0], features[0])

    def test_propagation_is_low_pass_filter(self, path_graph, features):
        """Eq. 21: without resets the Dirichlet energy decreases every round."""
        propagation = SemanticPropagation(iterations=5, reset_known=False)
        states = propagation.propagate_features(features, path_graph)
        laplacian = reference_laplacian(path_graph)
        energies = [dirichlet_energy(state, laplacian) for state in states]
        assert all(energies[i + 1] <= energies[i] + 1e-9 for i in range(len(energies) - 1))

    def test_one_step_matches_normalized_adjacency_product(self, path_graph, features):
        states = SemanticPropagation(iterations=1, reset_known=False).propagate_features(
            features, path_graph)
        expected = reference_normalized_adjacency(path_graph) @ features
        assert np.allclose(states[1], expected)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            SemanticPropagation(iterations=-1)


class TestClosedForm:
    def test_known_rows_untouched(self, path_graph, features):
        known = np.array([True, True, False, False, True, False, True, True])
        solution = closed_form_interpolation(features, path_graph, known)
        assert np.allclose(solution[known], features[known])

    def test_all_known_is_identity(self, path_graph, features):
        solution = closed_form_interpolation(features, path_graph, np.ones(8, dtype=bool))
        assert np.allclose(solution, features)

    def test_minimises_dirichlet_energy_over_unknown_rows(self, path_graph, features):
        """Proposition 4: the closed form is the energy minimiser."""
        known = np.array([True, False, False, True, False, False, False, True])
        solution = closed_form_interpolation(features, path_graph, known)
        laplacian = reference_laplacian(path_graph)
        best = dirichlet_energy(solution, laplacian)
        rng = np.random.default_rng(1)
        for _ in range(10):
            perturbed = solution.copy()
            perturbed[~known] += 0.1 * rng.normal(size=perturbed[~known].shape)
            assert dirichlet_energy(perturbed, laplacian) >= best - 1e-9

    def test_euler_iteration_converges_to_closed_form(self, path_graph, features):
        """The explicit Euler scheme (Eq. 22) approaches the Prop. 4 solution."""
        known = np.array([True, False, True, False, False, True, False, True])
        closed = closed_form_interpolation(features, path_graph, known)
        propagation = SemanticPropagation(iterations=300, reset_known=True)
        states = propagation.propagate_features(features, path_graph, known)
        gap_early = np.linalg.norm(states[1][~known] - closed[~known])
        gap_late = np.linalg.norm(states[-1][~known] - closed[~known])
        assert gap_late < gap_early
        assert gap_late < 0.2 * gap_early


class TestPairDecoding:
    def test_similarity_shapes(self, path_graph, features):
        propagation = SemanticPropagation(iterations=2)
        result = propagation(features, features[:6], path_graph, path_graph[:6, :6])
        assert result.averaged_similarity.shape == (8, 6)
        assert result.num_rounds == 2
        assert len(result.similarities) == 3

    def test_average_vs_last_round(self, path_graph, features):
        propagation = SemanticPropagation(iterations=3, average_similarities=True)
        result = propagation(features, features, path_graph, path_graph)
        averaged = result.final_similarity(average=True)
        last = result.final_similarity(average=False)
        assert averaged.shape == last.shape
        assert not np.allclose(averaged, last)

    def test_identical_inputs_have_unit_diagonal_at_round_zero(self, path_graph, features):
        result = SemanticPropagation(iterations=0)(features, features, path_graph, path_graph)
        assert np.allclose(np.diag(result.similarities[0]), 1.0, atol=1e-8)

    def test_known_masks_per_side(self, path_graph, features):
        source_known = np.zeros(8, dtype=bool)
        source_known[:4] = True
        propagation = SemanticPropagation(iterations=2)
        result = propagation(features, features, path_graph, path_graph,
                             source_known=source_known, target_known=None)
        assert np.allclose(result.source_states[-1][:4], features[:4])
        assert not np.allclose(result.target_states[-1], features)
