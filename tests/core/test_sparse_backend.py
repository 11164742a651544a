"""CSR task preparation, propagation, energy and training against the dense oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from oracles import (
    dense_graph_formulas,
    reference_adjacency,
    reference_closed_form,
    reference_laplacian,
    reference_normalized_adjacency,
    reference_propagation,
)
from oracles import reference_similarity
from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.losses import dirichlet_energy_tensor
from repro.core.model import DESAlign
from repro.core.propagation import SemanticPropagation, closed_form_interpolation
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.autograd import Tensor
from repro.data.synthetic import SyntheticPairConfig, generate_pair


@pytest.fixture(scope="module")
def pair():
    return generate_pair(SyntheticPairConfig(num_entities=40, seed=11))


@pytest.fixture(scope="module")
def sparse_task(pair):
    return prepare_task(pair, structure_dim=16, seed=0)


@pytest.fixture(scope="module")
def dense_adjacency(pair):
    return reference_adjacency(pair.source)


class TestPreparedTaskBackend:
    def test_sparse_task_holds_csr(self, sparse_task):
        for side in (sparse_task.source, sparse_task.target):
            assert sp.issparse(side.adjacency)
            assert sp.issparse(side.normalized_adjacency)
            assert sp.issparse(side.laplacian)

    def test_matrices_match_dense(self, pair, sparse_task):
        for graph, sparse_side in ((pair.source, sparse_task.source),
                                   (pair.target, sparse_task.target)):
            dense = reference_adjacency(graph)
            assert np.allclose(dense, sparse_side.adjacency.toarray())
            assert np.allclose(reference_normalized_adjacency(dense),
                               sparse_side.normalized_adjacency.toarray(), atol=1e-15)
            assert np.allclose(reference_laplacian(dense),
                               sparse_side.laplacian.toarray(), atol=1e-15)


class TestPropagationSparse:
    def test_states_match_dense(self, dense_adjacency, sparse_task):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(sparse_task.source.num_entities, 6))
        known = rng.random(sparse_task.source.num_entities) < 0.5
        propagation = SemanticPropagation(iterations=3)
        dense_states = reference_propagation(features, dense_adjacency, known, iterations=3)
        sparse_states = propagation.propagate_features(
            features, sparse_task.source.adjacency, known)
        assert len(dense_states) == len(sparse_states)
        for dense_state, sparse_state in zip(dense_states, sparse_states):
            assert np.allclose(dense_state, sparse_state, atol=1e-12)

    def test_closed_form_matches_dense(self, dense_adjacency, sparse_task):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(sparse_task.source.num_entities, 4))
        known = np.zeros(sparse_task.source.num_entities, dtype=bool)
        known[:: 2] = True
        dense_solution = reference_closed_form(features, dense_adjacency, known)
        sparse_solution = closed_form_interpolation(
            features, sparse_task.source.adjacency, known)
        assert np.allclose(dense_solution, sparse_solution, atol=1e-8)

    def test_closed_form_all_known_short_circuits(self, sparse_task):
        features = np.ones((sparse_task.source.num_entities, 2))
        known = np.ones(sparse_task.source.num_entities, dtype=bool)
        assert np.array_equal(
            closed_form_interpolation(features, sparse_task.source.adjacency, known),
            features)


class TestDifferentiableEnergySparse:
    def test_energy_tensor_matches_dense(self, dense_adjacency, sparse_task):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(sparse_task.source.num_entities, 5))
        dense_in = Tensor(data, requires_grad=True)
        sparse_in = Tensor(data, requires_grad=True)
        dense_energy = dirichlet_energy_tensor(dense_in, reference_laplacian(dense_adjacency))
        sparse_energy = dirichlet_energy_tensor(sparse_in, sparse_task.source.laplacian)
        assert dense_energy.item() == pytest.approx(sparse_energy.item(), rel=1e-10)
        dense_energy.backward()
        sparse_energy.backward()
        assert np.allclose(dense_in.grad, sparse_in.grad, atol=1e-10)


class TestDESAlignBackendSwitch:
    """A whole DESAlign fit on CSR against the same fit on the dense formulas."""

    def test_training_metrics_match_dense(self, sparse_task):
        training = TrainingConfig(epochs=4, eval_every=0, seed=0)
        config = DESAlignConfig(hidden_dim=16, gat_layers=1, seed=0)
        with dense_graph_formulas():
            dense_model = DESAlign(sparse_task, config)
            dense_result = Trainer(dense_model, sparse_task, training).fit()
            dense_similarity = reference_similarity(*dense_model.decode_states())
        sparse_model = DESAlign(sparse_task, config)
        sparse_result = Trainer(sparse_model, sparse_task, training).fit()
        for key, value in dense_result.metrics.as_dict().items():
            assert sparse_result.metrics.as_dict()[key] == pytest.approx(value, abs=1e-6)
        assert np.allclose(dense_similarity,
                           reference_similarity(*sparse_model.decode_states()),
                           atol=1e-6)
