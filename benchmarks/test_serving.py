"""Serving benchmark: sustained concurrent load against a loaded artifact.

Drives a hot-entity (zipf-ish) workload of single-row ``rank`` queries two
ways — a sequential one-query-at-a-time baseline through ``Aligner.rank``
and 32 concurrent clients through the micro-batched ``ServingEngine`` —
and records p50/p99 latency, queries/sec and the cache hit rate.  The
serving rows are spliced into ``results/efficiency.json`` next to the
other efficiency figures (old ``serving-*`` rows are replaced), so the
efficiency table carries the inference-stack numbers too.

Guards (the CI sanity gate):

* every served response is bit-identical to the direct ``Aligner.rank``
  output of the same artifact,
* micro-batched throughput is at least 2x the sequential baseline,
* the hot-id workload actually hits the LRU result cache, and
* p99 latency stays within a loose sanity bound (no wedged workers).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.core.ann import AnnConfig
from repro.core.config import TrainingConfig
from repro.pipeline import (
    Aligner,
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PipelineSpec,
)
from repro.serve import ServingEngine

from conftest import FULL, splice_efficiency_rows

NUM_CLIENTS = 32
NUM_REQUESTS = 2048 if FULL else 1024
HOT_IDS = 8            # zipf-ish head: most queries land on a few entities
HOT_FRACTION = 0.7
RANK_K = 5
#: Sanity bound on the served p99 (seconds): far above anything a healthy
#: engine produces at this scale, tight enough to catch a wedged worker.
P99_BOUND_SECONDS = 2.0


def _serving_spec(num_entities: int) -> PipelineSpec:
    """A candidate-restricted (IVF) artifact — the path micro-batching
    amortises: every uncached rank pays a per-row candidate gather."""
    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=num_entities,
                      seed_ratio=0.3, seed=0),
        model=ModelSpec(name="DESAlign", hidden_dim=16,
                        options={"propagation_iters": 2}),
        training=TrainingConfig(epochs=2, eval_every=0, seed=0),
        decode=DecodeSpec(k=10, decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=8, nprobe=1)),
    )


def _workload(num_entities: int, rng: np.random.Generator) -> list[int]:
    """Hot-skewed single-entity queries: a small head takes most traffic."""
    hot = rng.choice(num_entities, size=HOT_IDS, replace=False)
    ids = np.where(rng.random(NUM_REQUESTS) < HOT_FRACTION,
                   hot[rng.integers(0, HOT_IDS, size=NUM_REQUESTS)],
                   rng.integers(0, num_entities, size=NUM_REQUESTS))
    return [int(entity) for entity in ids]


def _sequential_baseline(artifact, workload) -> dict[str, float]:
    aligner = Aligner.load(artifact)
    latencies = np.empty(len(workload))
    start = time.perf_counter()
    for position, entity in enumerate(workload):
        begin = time.perf_counter()
        aligner.rank([entity], k=RANK_K)
        latencies[position] = time.perf_counter() - begin
    elapsed = time.perf_counter() - start
    return {
        "qps": len(workload) / elapsed,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "seconds": elapsed,
    }


def _concurrent_serving(artifact, workload, expected) -> dict[str, float]:
    latencies = np.zeros(len(workload))
    errors: list[Exception] = []
    with ServingEngine.from_artifact(artifact, mmap=True, batch_window=0.002,
                                     max_batch=64, pool_size=4,
                                     queue_size=256) as engine:
        def client(offset: int) -> None:
            try:
                for position in range(offset, len(workload), NUM_CLIENTS):
                    entity = workload[position]
                    begin = time.perf_counter()
                    table = engine.rank([entity], RANK_K, timeout=30)
                    latencies[position] = time.perf_counter() - begin
                    if not (np.array_equal(table.target_ids,
                                           expected.target_ids[[entity]])
                            and np.array_equal(table.scores,
                                               expected.scores[[entity]])):
                        raise AssertionError(
                            f"served result diverged for entity {entity}")
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=client, args=(offset,))
                   for offset in range(NUM_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = engine.stats()
    if errors:
        raise errors[0]
    return {
        "qps": len(workload) / elapsed,
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "seconds": elapsed,
        "cache_hit_rate": stats["cache"]["hit_rate"],
        "batches": stats["batches"],
        "batched_requests": stats["batched_requests"],
        "cache_only_requests": stats["cache_only_requests"],
    }


def _run_serving_benchmark(tmp_dir: str, num_entities: int) -> dict:
    artifact = os.path.join(tmp_dir, "artifact")
    AlignmentPipeline.from_spec(_serving_spec(num_entities)).fit().save(artifact)
    expected = Aligner.load(artifact).align(k=RANK_K)
    workload = _workload(num_entities, np.random.default_rng(23))
    sequential = _sequential_baseline(artifact, workload)
    served = _concurrent_serving(artifact, workload, expected)
    return {
        "entities": num_entities,
        "requests": len(workload),
        "clients": NUM_CLIENTS,
        "sequential": sequential,
        "served": served,
        "speedup": served["qps"] / sequential["qps"],
    }


def _splice_serving_rows(report: dict) -> None:
    """Replace the ``serving-*`` rows of ``results/efficiency.json``."""
    common = {"dataset": "FBDB15K", "entities": report["entities"],
              "requests": report["requests"]}
    splice_efficiency_rows("serving-", [
        {**common, "model": "serving-sequential",
         "qps": round(report["sequential"]["qps"], 1),
         "p50_ms": round(report["sequential"]["p50_ms"], 3),
         "p99_ms": round(report["sequential"]["p99_ms"], 3)},
        {**common, "model": "serving-microbatched",
         "clients": report["clients"],
         "qps": round(report["served"]["qps"], 1),
         "p50_ms": round(report["served"]["p50_ms"], 3),
         "p99_ms": round(report["served"]["p99_ms"], 3),
         "cache_hit_rate": round(report["served"]["cache_hit_rate"], 4),
         "batches": report["served"]["batches"],
         "speedup": round(report["speedup"], 2)},
    ])


def test_serving_sustains_concurrent_load(benchmark, bench_scale, tmp_path):
    report = benchmark.pedantic(
        _run_serving_benchmark, args=(str(tmp_path), bench_scale.num_entities),
        rounds=1, iterations=1)
    print("\nserving report:", json.dumps(report, indent=2))
    _splice_serving_rows(report)

    served, sequential = report["served"], report["sequential"]
    # 32 concurrent clients were sustained: every request was answered and
    # verified bit-identical inside the clients (errors re-raise above).
    assert report["clients"] == NUM_CLIENTS
    assert report["requests"] >= 1024
    # Micro-batching + caching beat one-query-at-a-time by at least 2x.
    assert report["speedup"] >= 2.0, report["speedup"]
    # The hot-id workload exercises the LRU result cache.
    assert served["cache_hit_rate"] > 0.3, served["cache_hit_rate"]
    assert served["cache_only_requests"] > 0
    # Coalescing happened: decoded batches number far below requests.
    assert served["batches"] < report["requests"]
    # Latency sanity: no wedged worker, and the engine kept pace.
    assert served["p99_ms"] < P99_BOUND_SECONDS * 1e3
    assert served["qps"] > sequential["qps"]
