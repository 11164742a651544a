"""Scaling benchmark for neighbour-sampled mini-batch training.

Demonstrates the headline capability of the subgraph-sampling training
pipeline: training DESAlign end to end — encoder forwards, MMSL loss,
evaluation decode — on a synthetic pair with >= 20,000 entities per side,
where a single full-graph forward pass (all-entity GAT + cross-modal
attention on every optimiser step) is the wall-clock and memory ceiling.
A guard patches the encoder entry point so the benchmark *fails* if any
full-graph forward is ever executed: training must go through sampled
subgraph batches, and evaluation through batched (scatter-back) inference
plus the streaming blockwise decode.

A companion check asserts the equivalence contract: with full-neighbourhood
fanouts the sampled strategy reproduces full-graph training — per-epoch
losses and final metrics — within 1e-6 on the seed-scale experiment grid.
"""

from __future__ import annotations

import contextlib

import numpy as np
import scipy.sparse as sp

from repro.core.config import DESAlignConfig
from repro.core.model import DESAlign
from repro.core.trainer import NeighbourSampledLoop, Trainer, TrainingConfig
from repro.data.synthetic import SyntheticPairConfig, generate_pair
from repro.core.task import prepare_task
from repro.experiments import build_task

from conftest import BENCH_SCALE

SCALING_ENTITIES = 20_000
#: Any full-graph encoder forward over more entities than this fails the guard.
FULL_FORWARD_GUARD = 2_000


@contextlib.contextmanager
def forbid_full_graph_forward(threshold: int = FULL_FORWARD_GUARD):
    """Fail the benchmark if the encoder runs a full-graph forward pass.

    Patches ``MultiModalEncoder.forward`` so any call without a subgraph
    view on a graph larger than ``threshold`` raises — covering training
    losses, evaluation embeddings and the iterative decode alike.
    """
    from repro.core import encoder as encoder_module

    original = encoder_module.MultiModalEncoder.forward

    def guarded(self, side, features, adjacency, subgraph=None):
        if subgraph is None:
            num_entities = self.structural_embedding(side).shape[0]
            if num_entities > threshold:
                raise AssertionError(
                    f"full-graph encoder forward over {num_entities} entities")
        return original(self, side, features, adjacency, subgraph=subgraph)

    encoder_module.MultiModalEncoder.forward = guarded
    try:
        yield
    finally:
        encoder_module.MultiModalEncoder.forward = original


def _train_sampled(num_entities: int) -> dict[str, float]:
    """Build and train a large pair with neighbour-sampled mini-batches."""
    pair = generate_pair(SyntheticPairConfig(
        num_entities=num_entities, avg_degree=5.0, seed_ratio=0.1,
        seed=13, name="train-scaling"))
    task = prepare_task(pair, structure_dim=16, relation_dim=24,
                        attribute_dim=24)
    assert sp.issparse(task.source.adjacency)

    model = DESAlign(task, DESAlignConfig(hidden_dim=16, gat_layers=1, seed=0))
    config = TrainingConfig(epochs=2, eval_every=0, seed=0,
                            sampling="neighbour", fanouts=(8,),
                            batch_size=512, eval_batch_size=4096)
    trainer = Trainer(model, task, config)
    assert isinstance(trainer.loop, NeighbourSampledLoop)
    result = trainer.fit()
    return {
        "entities": num_entities,
        "losses": result.history.losses,
        "h1": result.metrics.hits_at_1,
        "h10": result.metrics.hits_at_10,
        "mrr": result.metrics.mrr,
        "train_seconds": result.train_seconds,
        "decode_seconds": result.decode_seconds,
    }


def test_scaling_train_20000_entities(benchmark):
    with forbid_full_graph_forward():
        report = benchmark.pedantic(_train_sampled, args=(SCALING_ENTITIES,),
                                    rounds=1, iterations=1)
    print("\nneighbour-sampled training report:", report)
    assert report["entities"] == SCALING_ENTITIES
    losses = report["losses"]
    assert len(losses) == 2
    assert all(np.isfinite(loss) for loss in losses)
    assert losses[-1] < losses[0]
    # Two epochs of sampled training on a noisy-copy pair: far from
    # converged, but the evaluation pipeline must produce sane metrics.
    assert 0.0 <= report["h1"] <= report["h10"] <= 1.0
    assert 0.0 <= report["mrr"] <= 1.0


def _train_both_strategies() -> dict:
    """Train full-graph and full-fanout sampled on the seed-scale grid."""
    scale = BENCH_SCALE.with_overrides(epochs=20)
    task = build_task("FBDB15K", scale, seed_ratio=0.3)
    results = {}
    for sampling in ("full", "neighbour"):
        model = DESAlign(task, DESAlignConfig(hidden_dim=scale.hidden_dim,
                                              seed=scale.seed))
        result = Trainer(model, task, TrainingConfig(
            epochs=scale.epochs, eval_every=0, seed=scale.seed,
            sampling=sampling)).fit()
        results[sampling] = result
    return results


def test_full_fanout_sampled_training_matches_full_graph(benchmark):
    results = benchmark.pedantic(_train_both_strategies, rounds=1, iterations=1)
    full, sampled = results["full"], results["neighbour"]
    print("\nfull:", full.metrics, "\nsampled:", sampled.metrics)
    np.testing.assert_allclose(sampled.history.losses, full.history.losses,
                               rtol=0, atol=1e-8)
    for key, value in full.metrics.as_dict().items():
        assert abs(sampled.metrics.as_dict()[key] - value) < 1e-6, key
