"""Scaling benchmark for approximate (IVF) candidate-generation decoding.

The third decode-stack layer: PR 2's blockwise engine bounded decode
*memory* at ``O(block · n_t)``; the candidate-generation layer now bounds
decode *FLOPs* below ``O(n_s · n_t)``.  This benchmark decodes a
50,000 × 50,000 noisy-copy alignment — 2.5 billion similarity cells, 20 GB
as a float64 matrix — under two guards:

* the no-dense-matrix guard of the blockwise benchmark (any large dense
  similarity materialisation fails the run), and
* a FLOPs-budget guard: every dot product of the run is metered through
  :func:`repro.core.ann.flops_counter` (k-means, centroid scoring and the
  sparse-gather decode alike) and the benchmark fails if more than 15% of
  the ``n_s · n_t`` products are computed.

Measured recall@1 against the exact decode (reference top-1 computed on a
2,000-row sample by direct GEMM, before the guards engage) must stay at or
above 0.99.  The decode's traced allocation peak (``tracemalloc``) must
stay below one gathered operand of its largest block (that block's edges ×
d × itemsize): the candidate gather streams cache-sized chunks of edges
instead of copying every candidate row of a block.

A companion seed-scale check pins the exactness contract: probing every
bucket (``nprobe == n_clusters``) reproduces the exhaustive blockwise
decode bit for bit on a trained DESAlign model, and exact-escalation
recovers recall@1 == 1.0.  A third check runs the default ``AnnConfig`` on
the 3,000-entity noisy copy of ``test_scaling_decode.py``: IVF must meter
fewer dot products than the exhaustive decode and keep recall@1 >= 0.9.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.ann import AnnConfig, flops_counter, generate_candidates, recall_at_k
from repro.core.config import DESAlignConfig
from repro.core.model import DESAlign
from repro.core.similarity import blockwise_topk
from repro.core.trainer import Trainer, TrainingConfig
from repro.experiments import build_task

from conftest import BENCH_SCALE
from test_scaling_decode import forbid_dense_similarity_matrices, noisy_copy_3000

ANN_ENTITIES = 50_000
HIDDEN = 32
NOISE = 0.25
N_CLUSTERS = 224          # ≈ sqrt(50,000)
NPROBE = 12
SAMPLE_ROWS = 2_000
BLOCK_SIZE = 512
#: The run fails if more than this fraction of all n_s * n_t dot products
#: is computed (index construction included).
FLOPS_BUDGET = 0.15


def _exact_top1_sample(source: np.ndarray, target: np.ndarray,
                       rows: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Exact cosine argmax of the sampled rows by direct chunked GEMM."""
    source_norm = source / np.linalg.norm(source, axis=1, keepdims=True)
    target_norm = (target / np.linalg.norm(target, axis=1, keepdims=True)
                   ).astype(np.float32)
    top1 = np.empty(len(rows), dtype=np.int64)
    for start in range(0, len(rows), chunk):
        batch = rows[start:start + chunk]
        sims = source_norm[batch].astype(np.float32) @ target_norm.T
        top1[start:start + chunk] = sims.argmax(axis=1)
    return top1


def _decode_50k() -> dict[str, float]:
    rng = np.random.default_rng(17)
    source = rng.normal(size=(ANN_ENTITIES, HIDDEN))
    target = source + NOISE * rng.normal(size=(ANN_ENTITIES, HIDDEN))

    # Exact reference for the measured recall, before any guard engages.
    sample = rng.choice(ANN_ENTITIES, size=SAMPLE_ROWS, replace=False)
    exact_top1 = _exact_top1_sample(source, target, sample)

    with forbid_dense_similarity_matrices():
        with flops_counter() as counter:
            candidates = generate_candidates(
                "ivf", source, target,
                AnnConfig(seed=0, n_clusters=N_CLUSTERS, nprobe=NPROBE,
                          kmeans_iters=5))
            tracemalloc.start()
            try:
                topk = blockwise_topk(source, target, k=10,
                                      block_size=BLOCK_SIZE, dtype=np.float32,
                                      row_candidates=candidates)
                _, decode_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        pairs = topk.mutual_nearest_pairs(threshold=0.0)

    block_edges = np.diff(candidates.indptr[
        np.r_[0:ANN_ENTITIES:BLOCK_SIZE, ANN_ENTITIES]])
    block_operand = int(block_edges.max()) * HIDDEN * np.dtype(np.float32).itemsize

    correct_mutual = sum(1 for s, t in pairs if s == t)
    total_cells = ANN_ENTITIES * ANN_ENTITIES
    return {
        "entities": ANN_ENTITIES,
        "approximate": float(topk.approximate),
        "flops_fraction": counter.cells / total_cells,
        "decode_cells_fraction": topk.computed_cells / total_cells,
        "candidate_density": candidates.density,
        "recall1": float(np.mean(topk.indices[sample, 0] == exact_top1)),
        "mutual_pairs": len(pairs),
        "mutual_precision": correct_mutual / max(1, len(pairs)),
        "decode_peak_mb": decode_peak / 1e6,
        "block_operand_mb": block_operand / 1e6,
    }


def test_scaling_ann_decode_50000_entities(benchmark):
    report = benchmark.pedantic(_decode_50k, rounds=1, iterations=1)
    print("\nANN decode scaling report:", report)
    assert report["entities"] == ANN_ENTITIES
    assert report["approximate"] == 1.0
    # FLOPs budget: the whole run — index build included — must stay below
    # 15% of the exhaustive decode's dot products.
    assert report["flops_fraction"] <= FLOPS_BUDGET, report["flops_fraction"]
    assert report["decode_cells_fraction"] <= FLOPS_BUDGET
    # Measured recall@1 against the exact decode.
    assert report["recall1"] >= 0.99, report["recall1"]
    assert report["mutual_pairs"] > 0
    assert report["mutual_precision"] > 0.9
    # The decode never holds a block's gathered candidate rows at once.
    assert report["decode_peak_mb"] < report["block_operand_mb"], report


def _seed_scale_exactness() -> dict:
    """Train DESAlign briefly; compare candidate decodes against exhaustive."""
    scale = BENCH_SCALE.with_overrides(epochs=10)
    task = build_task("FBDB15K", scale, seed_ratio=0.3)
    model = DESAlign(task, DESAlignConfig(hidden_dim=scale.hidden_dim,
                                          seed=scale.seed))
    Trainer(model, task, TrainingConfig(epochs=scale.epochs, eval_every=0,
                                        seed=scale.seed)).fit()
    n_clusters = 6
    source, target = model.decode_states()
    exhaustive = blockwise_topk(source, target, k=10, block_size=17)
    complete = blockwise_topk(
        source, target, k=10, block_size=17,
        row_candidates=generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=0, n_clusters=n_clusters, nprobe=n_clusters)))
    escalated = blockwise_topk(
        source, target, k=10, block_size=17,
        row_candidates=generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=0, n_clusters=n_clusters, exact_escalation=True)))
    return {"exhaustive": exhaustive, "complete": complete,
            "escalated": escalated}


def test_full_probing_matches_exhaustive_bitwise_at_seed_scale(benchmark):
    bundle = benchmark.pedantic(_seed_scale_exactness, rounds=1, iterations=1)
    exhaustive = bundle["exhaustive"]
    complete = bundle["complete"]
    escalated = bundle["escalated"]
    # nprobe == n_clusters is the exhaustive decode, bit for bit.
    assert not complete.approximate
    assert np.array_equal(complete.indices, exhaustive.indices)
    assert np.array_equal(complete.scores, exhaustive.scores)
    assert np.array_equal(complete.col_max, exhaustive.col_max)
    assert np.array_equal(complete.col_argmax, exhaustive.col_argmax)
    # Exact escalation guarantees the top-1 of every row.
    assert recall_at_k(escalated.indices, exhaustive.indices, k=1) == 1.0
    print("\nseed-scale exactness: complete==exhaustive bitwise, "
          f"escalated recall@1 == 1.0 over {exhaustive.shape[0]} rows")


def _metered_topk(source: np.ndarray, target: np.ndarray, candidates: str):
    """A k=10 decode and every dot product it metered, index build included."""
    with flops_counter() as counter:
        row_candidates = None
        if candidates != "exhaustive":
            row_candidates = generate_candidates(
                candidates, source, target, AnnConfig(seed=0))
        topk = blockwise_topk(source, target, k=10, block_size=512,
                              row_candidates=row_candidates)
    return topk, counter.cells


def _default_ivf_3000() -> dict:
    source, target = noisy_copy_3000()
    total_cells = len(source) * len(target)
    exact, exact_cells = _metered_topk(source, target, "exhaustive")
    ivf, ivf_cells = _metered_topk(source, target, "ivf")
    return {"exhaustive_flops_fraction": round(exact_cells / total_cells, 4),
            "ivf_flops_fraction": round(ivf_cells / total_cells, 4),
            "recall1": round(recall_at_k(ivf.indices, exact.indices, k=1), 4)}


def test_default_ivf_cuts_flops_at_3000_entities(benchmark):
    report = benchmark.pedantic(_default_ivf_3000, rounds=1, iterations=1)
    print("\ndefault-config IVF report:", report)
    assert report["exhaustive_flops_fraction"] == 1.0
    # The IVF candidate layer cuts FLOPs below the exhaustive stream while
    # keeping the measured recall@1 high on the noisy-copy geometry.
    assert report["ivf_flops_fraction"] < report["exhaustive_flops_fraction"]
    assert report["recall1"] >= 0.9
