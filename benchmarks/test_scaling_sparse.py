"""Scaling benchmark for the sparse graph backend.

Demonstrates the headline capability the CSR refactor buys: training
DESAlign and running Semantic Propagation on a synthetic pair with >= 5,000
entities per side.  The dense path needs ``O(n²)`` memory per graph matrix
(~200 MB per float64 matrix at this size, several of which would be live at
once) and is out of reach; the sparse path keeps every graph operator at
``O(|E|)``.  A guard patches the dense materialisation entry points so the
benchmark *fails* if any ``n x n`` dense graph matrix is ever built.

A companion check asserts the sparse backend reproduces the dense backend's
metrics within 1e-6 on the seed-scale experiment grid.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse as sp

from repro.autograd import no_grad
from repro.core.config import DESAlignConfig
from repro.core.model import DESAlign
from repro.core.propagation import SemanticPropagation
from repro.core.task import prepare_task
from repro.core.trainer import Trainer, TrainingConfig
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.experiments import build_task
from repro.kg.laplacian import largest_laplacian_eigenvalue
from repro.kg.sparse import dirichlet_energy_edges
from repro.nn import AdamW

from conftest import BENCH_SCALE
from oracles import reference_similarity

SCALING_ENTITIES = 5000
DENSE_GUARD_THRESHOLD = 1000


@contextlib.contextmanager
def forbid_dense_graph_matrices(threshold: int = DENSE_GUARD_THRESHOLD):
    """Fail the benchmark if a large dense graph matrix is materialised.

    Patches the two dense entry points — ``MultiModalKG.adjacency_matrix``
    (dense mode) and the ``_as_dense`` densifier inside ``kg.laplacian`` —
    so any attempt to build an ``n x n`` array for ``n > threshold`` raises.
    """
    from repro.kg import graph as graph_module
    from repro.kg import laplacian as laplacian_module

    original_adjacency = graph_module.MultiModalKG.adjacency_matrix
    original_as_dense = laplacian_module._as_dense

    def guarded_adjacency(self, weighted=False, sparse=False):
        if not sparse and self.num_entities > threshold:
            raise AssertionError(
                f"dense adjacency materialised for {self.num_entities} entities")
        return original_adjacency(self, weighted=weighted, sparse=sparse)

    def guarded_as_dense(adjacency):
        if adjacency.shape[0] > threshold:
            raise AssertionError(
                f"densified a graph matrix of size {adjacency.shape}")
        return original_as_dense(adjacency)

    graph_module.MultiModalKG.adjacency_matrix = guarded_adjacency
    laplacian_module._as_dense = guarded_as_dense
    try:
        yield
    finally:
        graph_module.MultiModalKG.adjacency_matrix = original_adjacency
        laplacian_module._as_dense = original_as_dense


def _train_and_propagate_sparse(num_entities: int) -> dict[str, float]:
    """Build, train (a few full-batch steps) and decode a large sparse task."""
    pair = generate_pair(SyntheticPairConfig(
        num_entities=num_entities, avg_degree=5.0, seed_ratio=0.1,
        seed=7, name="scaling"))
    task = prepare_task(pair, structure_dim=16, relation_dim=24,
                        attribute_dim=24, backend="sparse")
    assert sp.issparse(task.source.adjacency)
    assert sp.issparse(task.source.normalized_adjacency)
    assert sp.issparse(task.source.laplacian)

    model = DESAlign(task, DESAlignConfig(hidden_dim=16, gat_layers=1,
                                          seed=0, backend="sparse"))
    optimizer = AdamW(model.parameters(), lr=5e-3)
    source_seed, target_seed = task.seed_arrays()
    losses = []
    for _ in range(3):
        optimizer.zero_grad()
        breakdown = model.loss(source_seed, target_seed)
        breakdown.total.backward()
        optimizer.step()
        losses.append(breakdown.total.item())

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


def _seed_scale_metrics(backend: str) -> tuple[dict[str, float], np.ndarray]:
    scale = BENCH_SCALE.with_overrides(epochs=20, backend=backend)
    task = build_task("FBDB15K", scale, seed_ratio=0.3)
    model = DESAlign(task, DESAlignConfig(hidden_dim=scale.hidden_dim,
                                          seed=scale.seed, backend=backend))
    result = Trainer(model, task, TrainingConfig(
        epochs=scale.epochs, eval_every=0, seed=scale.seed)).fit()
    return result.metrics.as_dict(), reference_similarity(*model.decode_states())


def test_sparse_backend_matches_dense_on_seed_grid(benchmark):
    def compare():
        dense_metrics, dense_similarity = _seed_scale_metrics("dense")
        sparse_metrics, sparse_similarity = _seed_scale_metrics("sparse")
        return dense_metrics, sparse_metrics, dense_similarity, sparse_similarity

    dense_metrics, sparse_metrics, dense_similarity, sparse_similarity = \
        benchmark.pedantic(compare, rounds=1, iterations=1)
    print("\ndense:", dense_metrics, "\nsparse:", sparse_metrics)
    for key, value in dense_metrics.items():
        assert abs(sparse_metrics[key] - value) < 1e-6, key
    assert np.abs(dense_similarity - sparse_similarity).max() < 1e-6
