"""Scaling benchmark for the CSR graph representation.

Demonstrates the headline capability of keeping every graph operator in
CSR form: training DESAlign and running Semantic Propagation on a synthetic
pair with >= 5,000 entities per side.  A dense ``n x n`` graph matrix at
this size takes ~200 MB per float64 copy, several of which would be live
at once; CSR keeps every graph operator at ``O(|E|)``.  A guard patches
scipy's sparse densifiers so the benchmark *fails* if any graph matrix with
more than ``DENSE_GUARD_THRESHOLD`` rows and columns is densified.

Two companion checks: the guard trips on a deliberately densified 5k
matrix, and training on CSR reproduces training on the dense ``n x n``
formulas (the test oracles) within 1e-6 on the seed-scale experiment grid.
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import no_grad
from repro.core.config import DESAlignConfig
from repro.core.model import DESAlign
from repro.core.propagation import SemanticPropagation
from repro.core.task import prepare_task
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.experiments import build_task
from repro.kg import MultiModalKG
from repro.kg.laplacian import largest_laplacian_eigenvalue
from repro.kg.sparse import dirichlet_energy_edges, graph_laplacian_sparse
from repro.nn import AdamW

from conftest import BENCH_SCALE
from oracles import dense_graph_formulas, reference_similarity

SCALING_ENTITIES = 5000
DENSE_GUARD_THRESHOLD = 1000


def _densifying_methods() -> list[tuple[type, str]]:
    """``(class, name)`` of every scipy sparse ``toarray`` / ``todense`` definition.

    Found through the MRO of each public ``scipy.sparse`` class, so the
    private base classes that actually define them are covered too.
    """
    found = []
    for name in dir(sp):
        cls = getattr(sp, name)
        if not isinstance(cls, type):
            continue
        for klass in cls.__mro__:
            for method in ("toarray", "todense"):
                if method in vars(klass) and (klass, method) not in found:
                    found.append((klass, method))
    return found


@contextlib.contextmanager
def forbid_dense_graph_matrices(threshold: int = DENSE_GUARD_THRESHOLD):
    """Fail the benchmark if a large sparse graph matrix is densified.

    Every graph matrix is CSR, so densifying one goes through a scipy
    sparse ``toarray`` or ``todense``.  Both are patched on every class
    that defines them: a matrix with more than ``threshold`` rows and
    columns raises before its dense array is allocated.
    """
    originals = {(klass, name): vars(klass)[name]
                 for klass, name in _densifying_methods()}

    def guarded(original):
        @functools.wraps(original)
        def method(self, *args, **kwargs):
            if len(self.shape) == 2 and min(self.shape) > threshold:
                raise AssertionError(
                    f"densified a sparse matrix of shape {self.shape}")
            return original(self, *args, **kwargs)
        return method

    for (klass, name), original in originals.items():
        setattr(klass, name, guarded(original))
    try:
        yield
    finally:
        for (klass, name), original in originals.items():
            setattr(klass, name, original)


def _train_and_propagate_sparse(num_entities: int) -> dict[str, float]:
    """Build, train (a few full-batch steps) and decode a large sparse task."""
    pair = generate_pair(SyntheticPairConfig(
        num_entities=num_entities, avg_degree=5.0, seed_ratio=0.1,
        seed=7, name="scaling"))
    task = prepare_task(pair, structure_dim=16, relation_dim=24,
                        attribute_dim=24)
    assert sp.issparse(task.source.adjacency)
    assert sp.issparse(task.source.normalized_adjacency)
    assert sp.issparse(task.source.laplacian)

    model = DESAlign(task, DESAlignConfig(hidden_dim=16, gat_layers=1, seed=0))
    optimizer = AdamW(model.parameters(), lr=5e-3)
    source_seed, target_seed = task.seed_arrays()
    losses = []
    for _ in range(3):
        optimizer.zero_grad()
        breakdown = model.loss(source_seed, target_seed)
        breakdown.total.backward()
        optimizer.step()
        losses.append(breakdown.total.item())
        # Drop the step's tape before the next forward builds another one.
        del breakdown

    # Semantic Propagation on the trained joint embeddings: sparse Euler
    # steps only — no full n x n similarity matrix is ever formed.
    with no_grad():
        source_output, target_output = model.encode_both()
    source_known, target_known = model.propagation_masks()
    propagation = SemanticPropagation(iterations=2)
    source_states = propagation.propagate_features(
        source_output.original.numpy(), task.source.adjacency, source_known)
    target_states = propagation.propagate_features(
        target_output.original.numpy(), task.target.adjacency, target_known)

    # Decode a subset of test rows against all targets (O(rows * n), not n²).
    source_index, target_index = task.test_arrays()
    rows = source_index[:64]
    anchor = source_states[-1][rows]
    anchor = anchor / np.maximum(np.linalg.norm(anchor, axis=1, keepdims=True), 1e-12)
    candidates = target_states[-1]
    candidates = candidates / np.maximum(
        np.linalg.norm(candidates, axis=1, keepdims=True), 1e-12)
    similarity_block = anchor @ candidates.T
    ranks = (similarity_block >= similarity_block[
        np.arange(len(rows)), target_index[:64]][:, None]).sum(axis=1)

    energy = dirichlet_energy_edges(source_states[-1], task.source.adjacency)
    eigenvalue = largest_laplacian_eigenvalue(task.source.laplacian)
    return {
        "entities": num_entities,
        "first_loss": losses[0],
        "last_loss": losses[-1],
        "propagated_energy": energy,
        "largest_eigenvalue": eigenvalue,
        "mean_rank_subset": float(ranks.mean()),
    }


def test_scaling_sparse_5000_entities(benchmark):
    with forbid_dense_graph_matrices():
        report = benchmark.pedantic(_train_and_propagate_sparse,
                                    args=(SCALING_ENTITIES,),
                                    rounds=1, iterations=1)
    print("\nsparse scaling report:", report)
    assert report["entities"] == SCALING_ENTITIES
    assert np.isfinite(report["first_loss"]) and np.isfinite(report["last_loss"])
    assert report["last_loss"] < report["first_loss"]
    assert report["propagated_energy"] >= 0.0
    assert 0.0 <= report["largest_eigenvalue"] < 2.0 + 1e-9


def _seed_scale_metrics(task, scale) -> tuple[dict[str, float], np.ndarray]:
    model = DESAlign(task, DESAlignConfig(hidden_dim=scale.hidden_dim,
                                          seed=scale.seed))
    result = Trainer(model, task, TrainingConfig(
        epochs=scale.epochs, eval_every=0, seed=scale.seed)).fit()
    return result.metrics.as_dict(), reference_similarity(*model.decode_states())


def test_sparse_backend_matches_dense_on_seed_grid(benchmark):
    def compare():
        scale = BENCH_SCALE.with_overrides(epochs=20)
        task = build_task("FBDB15K", scale, seed_ratio=0.3)
        with dense_graph_formulas():
            dense_metrics, dense_similarity = _seed_scale_metrics(task, scale)
        sparse_metrics, sparse_similarity = _seed_scale_metrics(task, scale)
        return dense_metrics, sparse_metrics, dense_similarity, sparse_similarity

    dense_metrics, sparse_metrics, dense_similarity, sparse_similarity = \
        benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\ndense:", dense_metrics, "\nsparse:", sparse_metrics)
    for key, value in dense_metrics.items():
        assert abs(sparse_metrics[key] - value) < 1e-6, key
    assert np.abs(dense_similarity - sparse_similarity).max() < 1e-6


def test_dense_guard_trips_on_densified_5000_entity_matrix():
    ring = MultiModalKG.from_triples(
        SCALING_ENTITIES, [(i, 0, (i + 1) % SCALING_ENTITIES)
                           for i in range(SCALING_ENTITIES)])
    laplacian = graph_laplacian_sparse(ring.adjacency_matrix())
    originals = {(klass, name): vars(klass)[name]
                 for klass, name in _densifying_methods()}
    with forbid_dense_graph_matrices():
        for densify in (lambda m: m.toarray(), lambda m: m.todense(),
                        lambda m: m.tocoo().toarray(), lambda m: m.tocsc().todense()):
            with pytest.raises(AssertionError, match="densified"):
                densify(laplacian)
        # Row blocks and matrices at the threshold stay allowed.
        assert laplacian[:2].toarray().shape == (2, SCALING_ENTITIES)
        small = sp.identity(DENSE_GUARD_THRESHOLD, format="csr")
        assert np.array_equal(small.toarray(), np.eye(DENSE_GUARD_THRESHOLD))
    assert all(vars(klass)[name] is original
               for (klass, name), original in originals.items())
