"""Scaling benchmark for blockwise top-k similarity decoding.

Demonstrates the headline capability of the streaming decode engine:
evaluating H@1 / H@10 / MRR, CSLS scores and mutual-NN pairs on a
10,000 x 10,000 entity pair — where the dense similarity matrix alone would
be 800 MB of float64 — under a guard that *fails* the benchmark if any code
path materialises a large ``n_s x n_t`` similarity matrix.  Peak transient
memory of the engine is ``O(block · n_t)`` (~20 MB at block 512).

A companion check asserts the blockwise decode reproduces the dense
decoding path's metrics within 1e-9 (and the CSLS / mutual-NN reductions
exactly) on the seed-scale experiment grid, for DESAlign with Semantic
Propagation and for a baseline.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.core.config import DESAlignConfig
from repro.core.model import DESAlign
from repro.core.similarity import TopKSimilarity, blockwise_topk
from repro.core.trainer import Trainer, TrainingConfig
from repro.eval.metrics import evaluate_alignment
from repro.experiments import build_task

from conftest import BENCH_SCALE
from oracles import reference_similarity

DECODE_ENTITIES = 10_000
#: Any dense similarity matrix bigger than this many cells fails the guard.
DENSE_CELL_GUARD = 1_000_000


@contextlib.contextmanager
def forbid_dense_similarity_matrices(cell_limit: int = DENSE_CELL_GUARD):
    """Fail the benchmark if a large dense similarity matrix is materialised.

    Patches the dense decode entry points — ``alignment.cosine_similarity``,
    the propagation decoder's internal cosine, and
    ``TopKSimilarity.dense()`` — so any attempt to build an ``n_s x n_t``
    similarity matrix above ``cell_limit`` cells raises.
    """
    from repro.core import alignment as alignment_module
    from repro.core import propagation as propagation_module

    original_cosine = alignment_module.cosine_similarity
    original_prop_cosine = propagation_module._cosine_similarity
    original_dense = TopKSimilarity.dense

    def guard(num_source: int, num_target: int) -> None:
        if num_source * num_target > cell_limit:
            raise AssertionError(
                f"dense {num_source} x {num_target} similarity matrix materialised")

    def guarded_cosine(source, target):
        guard(len(source), len(target))
        return original_cosine(source, target)

    def guarded_prop_cosine(source, target):
        guard(len(source), len(target))
        return original_prop_cosine(source, target)

    def guarded_dense(self):
        guard(self.shape[0], self.num_columns)
        return original_dense(self)

    alignment_module.cosine_similarity = guarded_cosine
    propagation_module._cosine_similarity = guarded_prop_cosine
    TopKSimilarity.dense = guarded_dense
    try:
        yield
    finally:
        alignment_module.cosine_similarity = original_cosine
        propagation_module._cosine_similarity = original_prop_cosine
        TopKSimilarity.dense = original_dense


def _decode_10k() -> dict[str, float]:
    """Stream-decode a noisy-copy alignment at 10,000 entities per side."""
    rng = np.random.default_rng(11)
    hidden = 32
    source = rng.normal(size=(DECODE_ENTITIES, hidden))
    target = source + 0.35 * rng.normal(size=(DECODE_ENTITIES, hidden))

    # Exact top-k + CSLS stats + mutual-NN reductions in one float32 stream.
    topk = blockwise_topk(source, target, k=10, block_size=512,
                          dtype=np.float32, csls_k=10)

    test_rows = rng.choice(DECODE_ENTITIES, size=1000, replace=False)
    test_pairs = np.stack([test_rows, test_rows], axis=1)
    metrics = evaluate_alignment(topk, test_pairs)

    csls = topk.csls_scores()
    pairs = topk.mutual_nearest_pairs(threshold=0.0)
    correct_mutual = sum(1 for s, t in pairs if s == t)
    return {
        "entities": DECODE_ENTITIES,
        "h1": metrics.hits_at_1,
        "h10": metrics.hits_at_10,
        "mrr": metrics.mrr,
        "csls_finite": float(np.isfinite(csls).all()),
        "mutual_pairs": len(pairs),
        "mutual_precision": correct_mutual / max(1, len(pairs)),
    }


def test_scaling_decode_10000_entities(benchmark):
    with forbid_dense_similarity_matrices():
        report = benchmark.pedantic(_decode_10k, rounds=1, iterations=1)
    print("\nblockwise decode scaling report:", report)
    assert report["entities"] == DECODE_ENTITIES
    # Noisy-copy targets: gold should usually win among 1000 candidates.
    assert report["h1"] > 0.5
    assert report["h1"] <= report["h10"] <= 1.0
    assert report["h1"] <= report["mrr"] <= 1.0
    assert report["csls_finite"] == 1.0
    assert report["mutual_pairs"] > 0
    assert report["mutual_precision"] > 0.9


def _seed_scale_decode_comparison() -> dict:
    """Train DESAlign briefly, decode both ways, and compare every reduction."""
    scale = BENCH_SCALE.with_overrides(epochs=20)
    task = build_task("FBDB15K", scale, seed_ratio=0.3)
    model = DESAlign(task, DESAlignConfig(hidden_dim=scale.hidden_dim, seed=scale.seed))
    Trainer(model, task, TrainingConfig(epochs=scale.epochs, eval_every=0,
                                        seed=scale.seed)).fit()

    comparisons = {}
    for use_propagation in (True, False):
        states = model.decode_states(use_propagation=use_propagation)
        dense = reference_similarity(*states)
        topk = blockwise_topk(*states, k=10, block_size=17)
        comparisons[use_propagation] = (dense, topk)
    return {"task": task, "comparisons": comparisons}


def test_blockwise_decode_matches_dense_on_seed_grid(benchmark):
    from repro.core.alignment import csls_similarity, mutual_nearest_pairs

    bundle = benchmark.pedantic(_seed_scale_decode_comparison, rounds=1, iterations=1)
    task = bundle["task"]
    for use_propagation, (dense, topk) in bundle["comparisons"].items():
        dense_metrics = evaluate_alignment(dense, task.test_pairs).as_dict()
        topk_metrics = evaluate_alignment(topk, task.test_pairs).as_dict()
        print(f"\npropagation={use_propagation} dense:", dense_metrics,
              "blockwise:", topk_metrics)
        for key, value in dense_metrics.items():
            assert abs(topk_metrics[key] - value) < 1e-9, (use_propagation, key)
        # CSLS values of the kept pairs match the full-matrix CSLS.
        dense_csls = csls_similarity(dense, k=topk.csls_k)
        kept = topk.csls_scores()
        rows = np.arange(topk.shape[0])[:, None]
        assert np.abs(kept - dense_csls[rows, topk.indices]).max() < 1e-9
        # Mutual-NN pair sets match the dense selection.
        assert topk.mutual_nearest_pairs() == mutual_nearest_pairs(dense)
        # And the streamed values themselves reproduce the dense matrix.
        assert np.abs(topk.dense() - dense).max() < 1e-9
