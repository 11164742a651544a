"""Property-based tests (hypothesis) for the Dirichlet-energy machinery.

These validate the paper's mathematical claims on randomly generated graphs
and feature matrices: Definition 3 (the two energy forms agree and are
non-negative), Proposition 1 (convexity lower bound), Proposition 2
(singular-value bounds), Corollary 1 (gap bound), and the spectral range of
the normalised Laplacian.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import reference_dirichlet_energy_pairwise
from repro.kg.laplacian import (
    dirichlet_energy,
    energy_gap_bounds,
    largest_laplacian_eigenvalue,
    layer_energy_bounds,
)
from repro.kg.sparse import graph_laplacian_sparse, normalized_adjacency_sparse

SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def random_graph_and_features(draw, max_nodes=12, max_dim=5):
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.9))
    rng = np.random.default_rng(seed)
    adjacency = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    adjacency = np.triu(adjacency, k=1)
    adjacency = adjacency + adjacency.T
    features = rng.normal(size=(num_nodes, dim))
    return adjacency, features


class TestDefinition3:
    @SETTINGS
    @given(random_graph_and_features())
    def test_energy_non_negative(self, graph_and_features):
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        assert dirichlet_energy(features, laplacian) >= -1e-9

    @SETTINGS
    @given(random_graph_and_features())
    def test_trace_equals_pairwise_form(self, graph_and_features):
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        trace_form = dirichlet_energy(features, laplacian)
        pairwise_form = reference_dirichlet_energy_pairwise(features, adjacency)
        assert np.isclose(trace_form, pairwise_form, rtol=1e-7, atol=1e-8)

    @SETTINGS
    @given(random_graph_and_features(), st.floats(min_value=0.1, max_value=10.0))
    def test_energy_is_quadratic_in_scaling(self, graph_and_features, scale):
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        base = dirichlet_energy(features, laplacian)
        scaled = dirichlet_energy(scale * features, laplacian)
        assert np.isclose(scaled, scale ** 2 * base, rtol=1e-6, atol=1e-8)


class TestSpectrum:
    @SETTINGS
    @given(random_graph_and_features())
    def test_laplacian_eigenvalues_in_range(self, graph_and_features):
        adjacency, _ = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        eigenvalues = np.linalg.eigvalsh(laplacian.toarray())
        assert eigenvalues.min() >= -1e-8
        assert largest_laplacian_eigenvalue(laplacian) <= 2.0 + 1e-8

    @SETTINGS
    @given(random_graph_and_features())
    def test_normalized_adjacency_spectral_radius_at_most_one(self, graph_and_features):
        adjacency, _ = graph_and_features
        normalised = normalized_adjacency_sparse(adjacency)
        eigenvalues = np.linalg.eigvalsh(normalised.toarray())
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-8


class TestProposition1:
    @SETTINGS
    @given(random_graph_and_features(), st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.01, max_value=2.0))
    def test_convexity_lower_bound(self, graph_and_features, seed, magnitude):
        """L(X̂) - L(X) >= 2 <ΔX, X̂ - X> (first-order convexity bound)."""
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        rng = np.random.default_rng(seed)
        modified = features + magnitude * rng.normal(size=features.shape)
        gap = dirichlet_energy(modified, laplacian) - dirichlet_energy(features, laplacian)
        first_order = 2.0 * float(np.sum((laplacian @ features) * (modified - features)))
        assert gap >= first_order - 1e-7


class TestCorollary1:
    @SETTINGS
    @given(random_graph_and_features(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_lower_bound_never_exceeds_distance(self, graph_and_features, seed):
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        rng = np.random.default_rng(seed)
        modified = features + rng.normal(size=features.shape)
        lower, distance, _ = energy_gap_bounds(features, modified, laplacian)
        assert lower <= distance + 1e-7


class TestProposition2:
    @SETTINGS
    @given(random_graph_and_features(), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_linear_layer_energy_bounds(self, graph_and_features, seed):
        adjacency, features = graph_and_features
        laplacian = graph_laplacian_sparse(adjacency)
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(features.shape[1], features.shape[1]))
        previous = dirichlet_energy(features, laplacian)
        lower, upper = layer_energy_bounds(weight, previous)
        energy_next = dirichlet_energy(features @ weight, laplacian)
        assert lower - 1e-7 <= energy_next <= upper + max(1e-7, 1e-9 * abs(upper))
