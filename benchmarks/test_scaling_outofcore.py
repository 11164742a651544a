"""Million-entity out-of-core decode benchmark (store + sharding + gathers).

The decode stack's fourth scaling layer: PR 2 bounded decode *memory*
(blockwise streaming), PR 3 bounded decode *FLOPs* (IVF candidates); this
benchmark exercises the out-of-core layer that lets both run when the
embedding tables themselves no longer belong in the parent process —
synthesising the tables straight into an :class:`~repro.core.store.
EmbeddingStore` chunk by chunk, building an escalated IVF candidate CSR on
memory-mapped inputs, and decoding via forked row-shard workers that gather
one per-edge dot product per candidate cell and fault in only the pages
they score.

``REPRO_BENCH_SCALE`` picks the scale: ``smoke`` (50,000 entities — the
default, also run by CI), ``mid`` (200,000), ``full`` (1,000,000 — the
nightly million-entity run, 10¹² similarity cells), or any integer.

Guards:

* the no-dense-matrix guard of the blockwise benchmark stays armed for the
  whole decode phase;
* recall@1 of the adaptive-escalation decode, measured against exact
  top-1 on a sampled row subset (direct chunked GEMM), must be >= 0.99;
* the sharded decode must be **bit-identical** to a single-process decode
  of the same store (indices, scores and both column reductions);
* the decode phase must grow the parent's resident set by well under the
  in-memory footprint of the decode state (normalised tables + candidate
  CSR) — the heavy pages live in the build child and the decode workers;
* metered decode FLOPs must stay a small fraction of ``n_s · n_t``.

The serial-vs-sharded wall-clock and RSS figures (parent plus summed
worker peaks — ``RUSAGE_CHILDREN`` cannot sum a pool) are spliced into
``results/efficiency.json`` as ``outofcore-*`` rows; the >= 2x sharded
throughput assertion only arms on machines with at least 4 usable CPUs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.ann import IVFIndex, RowCandidates, _normalize_rows, flops_counter
from repro.core.similarity import blockwise_topk
from repro.core.store import EmbeddingStore, allocate_npy

from conftest import FULL, splice_efficiency_rows
from test_scaling_decode import forbid_dense_similarity_matrices

_PRESETS = {"smoke": 50_000, "mid": 200_000, "full": 1_000_000}
_raw_scale = os.environ.get("REPRO_BENCH_SCALE", "").strip()
if not _raw_scale:
    _raw_scale = "full" if FULL else "smoke"
NUM_ENTITIES = _PRESETS.get(_raw_scale) or int(_raw_scale)

HIDDEN = 32
NOISE = 0.25
#: Rows per synthesis chunk (bounds the normal-draw transients).
CHUNK_ROWS = 65_536
#: Rows per escalated-candidate chunk: the per-probe gather materialises
#: roughly ``chunk x mean_bucket_size`` edge vectors, so this stays small.
CANDIDATE_CHUNK = 16_384
#: Rows are padded to this many candidates in the build child so the decode
#: parent's ``padded(k)`` is a guaranteed no-op (no parent-side CSR rebuild).
PAD_MIN = 16
#: k-means training subsample cap (the out-of-core IVF build dial).
TRAIN_SIZE = 65_536
BLOCK_SIZE = 1_024
#: Adaptive-nprobe slack of the escalated candidate generation.  On the
#: unit sphere in 32 dimensions the bucket radii are wide, so the exact
#: bound (slack 0) keeps probing long after the true match (cosine ~0.97
#: at NOISE 0.25) has been found; 0.35 stops most queries within a couple
#: of buckets and measurably keeps recall@1 at the floor or above.
SLACK = 0.35
WORKERS = 4
SAMPLE_ROWS = 512
RECALL_FLOOR = 0.99


def _n_clusters(num_entities: int) -> int:
    return max(64, int(round(num_entities ** 0.5)))


def _self_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


def _vm_rss_mb() -> float:
    """Current (not peak) resident set, for before/after decode deltas."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:  # pragma: no cover - non-Linux
        pass
    return float("nan")


def _run_in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child; return its (picklable) result.

    Keeps the stage's transients — synthesis buffers, k-means distance
    chunks, the candidate CSR under construction — out of the parent's
    resident set entirely, which is what makes the parent-RSS guard of
    this benchmark meaningful.
    """
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)

    def runner(conn):
        try:
            conn.send(("ok", fn(*args)))
        except BaseException as error:  # pragma: no cover - child diagnostics
            conn.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()

    process = context.Process(target=runner, args=(child_conn,))
    process.start()
    child_conn.close()
    status, payload = parent_conn.recv()
    process.join()
    parent_conn.close()
    if status != "ok":
        raise RuntimeError(f"child stage failed: {payload}")
    return payload


# ---------------------------------------------------------------------------
# Build stage (runs in a forked child)
# ---------------------------------------------------------------------------
def _synthesize_tables(workdir: Path, num_entities: int) -> None:
    """Stream normalised noisy-copy tables straight into ``.npy`` memmaps.

    Row ``i`` of the target is a noisy copy of source row ``i`` (identity
    ground truth).  Rows are written already L2-normalised so the decode
    can run ``pre_normalized=True`` off the mapped files without ever
    materialising a normalisation copy.
    """
    rng = np.random.default_rng(17)
    source = allocate_npy(workdir / "source.npy", (num_entities, HIDDEN),
                          np.float64)
    target = allocate_npy(workdir / "target.npy", (num_entities, HIDDEN),
                          np.float64)
    for lo in range(0, num_entities, CHUNK_ROWS):
        hi = min(lo + CHUNK_ROWS, num_entities)
        block = rng.normal(size=(hi - lo, HIDDEN))
        noisy = block + NOISE * rng.normal(size=block.shape)
        source[lo:hi] = _normalize_rows(block)
        target[lo:hi] = _normalize_rows(noisy)
    source.flush()
    target.flush()


def _build_store(workdir_str: str, num_entities: int) -> dict:
    """Synthesise tables, build the IVF candidates and write the store."""
    workdir = Path(workdir_str)
    start = time.perf_counter()
    with flops_counter() as counter:
        _synthesize_tables(workdir, num_entities)
        source = np.load(workdir / "source.npy", mmap_mode="r")
        target = np.load(workdir / "target.npy", mmap_mode="r")
        index = IVFIndex(target, n_clusters=_n_clusters(num_entities),
                         kmeans_iters=8, seed=0, train_size=TRAIN_SIZE)
        # Adaptive-escalation candidates, one query chunk at a time, so the
        # (chunk x n_clusters) bound matrices never exceed the chunk size.
        indptr = np.zeros(num_entities + 1, dtype=np.int64)
        parts = []
        total = 0
        for lo in range(0, num_entities, CANDIDATE_CHUNK):
            hi = min(lo + CANDIDATE_CHUNK, num_entities)
            chunk = index.escalated_candidates(np.asarray(source[lo:hi]),
                                               slack=SLACK)
            parts.append(chunk.indices)
            indptr[lo + 1:hi + 1] = total + chunk.indptr[1:]
            total += int(chunk.indptr[-1])
        candidates = RowCandidates(indptr=indptr,
                                   indices=np.concatenate(parts),
                                   num_columns=num_entities)
        del parts
        # Top up any deficient rows *here*, in the child: the decode calls
        # ``padded(k)`` and a deficient row would make the parent rebuild
        # the whole CSR in memory, defeating the out-of-core layout.
        candidates = candidates.padded(PAD_MIN)
        EmbeddingStore.create(workdir / "store", source_states=[source],
                              target_states=[target],
                              row_candidates=candidates,
                              block_size=BLOCK_SIZE)
    return {
        "build_seconds": time.perf_counter() - start,
        "build_cells": int(counter.cells),
        "build_rss_mb": _self_rss_mb(),
        "candidate_total": int(candidates.total),
        "n_clusters": int(index.n_clusters),
    }


# ---------------------------------------------------------------------------
# Decode stages
# ---------------------------------------------------------------------------
def _serial_decode(store_dir: str) -> dict:
    """Single-process decode of the store (forked: keeps the parent clean)."""
    store = EmbeddingStore.open(store_dir, mmap=True)
    source_states, target_states = store.states()
    candidates = store.row_candidates()
    start = time.perf_counter()
    with flops_counter() as counter:
        topk = blockwise_topk(source_states, target_states, k=10,
                              block_size=store.block_size,
                              row_candidates=candidates, pre_normalized=True)
    return {
        "seconds": time.perf_counter() - start,
        "cells": int(counter.cells),
        "rss_mb": _self_rss_mb(),
        "indices": topk.indices,
        "scores": topk.scores,
        "col_max": topk.col_max,
        "col_argmax": topk.col_argmax,
    }


def _exact_top1_sample(source_states, target_states, rows: np.ndarray,
                       col_chunk: int = 16_384) -> np.ndarray:
    """Exact top-1 of the sampled rows by direct chunked GEMM off the maps.

    The strictly-greater running update keeps the lowest target id on exact
    ties — ``np.argmax`` semantics, the same contract the decode keeps.
    """
    queries = np.asarray(source_states[0][rows])
    num_targets = target_states[0].shape[0]
    best = np.full(len(rows), -np.inf)
    best_id = np.zeros(len(rows), dtype=np.int64)
    for lo in range(0, num_targets, col_chunk):
        hi = min(lo + col_chunk, num_targets)
        sims = queries @ np.asarray(target_states[0][lo:hi]).T
        arg = sims.argmax(axis=1)
        val = sims[np.arange(len(rows)), arg]
        better = val > best
        best[better] = val[better]
        best_id[better] = lo + arg[better]
    return best_id


def _run_outofcore(workdir: str) -> dict:
    report: dict = {"entities": NUM_ENTITIES, "scale": _raw_scale,
                    "workers": WORKERS}
    report["build"] = _run_in_child(_build_store, workdir, NUM_ENTITIES)

    with forbid_dense_similarity_matrices():
        # Serial reference decode in a forked child: the parent's resident
        # set must stay free of full table/CSR pages for the RSS guard.
        serial = _run_in_child(_serial_decode, os.path.join(workdir, "store"))
        report["serial"] = {key: serial[key]
                            for key in ("seconds", "cells", "rss_mb")}

        store = EmbeddingStore.open(os.path.join(workdir, "store"), mmap=True)
        source_states, target_states = store.states()
        candidates = store.row_candidates()
        rss_before = _vm_rss_mb()

        start = time.perf_counter()
        with flops_counter() as counter:
            topk = blockwise_topk(source_states, target_states, k=10,
                                  block_size=store.block_size,
                                  row_candidates=candidates,
                                  pre_normalized=True, num_workers=WORKERS)
        sharded_seconds = time.perf_counter() - start

        report["sharded"] = {
            "seconds": sharded_seconds,
            "cells": int(counter.cells),
            "worker_rss_mb": topk.worker_rss_mb,
            "parent_rss_delta_mb": _vm_rss_mb() - rss_before,
        }
        report["identical"] = bool(
            np.array_equal(topk.indices, serial["indices"])
            and np.array_equal(topk.scores, serial["scores"])
            and np.array_equal(topk.col_max, serial["col_max"])
            and np.array_equal(topk.col_argmax, serial["col_argmax"]))

        rng = np.random.default_rng(23)
        sample = np.sort(rng.choice(NUM_ENTITIES, size=SAMPLE_ROWS,
                                    replace=False))
        exact = _exact_top1_sample(source_states, target_states, sample)
        report["recall1"] = float(np.mean(topk.indices[sample, 0] == exact))

    table_mb = 2 * NUM_ENTITIES * HIDDEN * 8 / 1024.0 ** 2
    csr_mb = ((report["build"]["candidate_total"] + 2 * NUM_ENTITIES + 1) * 8
              / 1024.0 ** 2)
    report["in_memory_state_mb"] = table_mb + csr_mb
    report["flops_fraction"] = (report["sharded"]["cells"]
                                / (float(NUM_ENTITIES) * NUM_ENTITIES))
    report["speedup"] = report["serial"]["seconds"] / sharded_seconds
    return report


def _splice_outofcore_rows(report: dict) -> None:
    """Replace the ``outofcore-*`` rows of ``results/efficiency.json``."""
    common = {"dataset": "synthetic", "entities": report["entities"],
              "flops_fraction": round(report["flops_fraction"], 6),
              "recall1": round(report["recall1"], 4)}
    splice_efficiency_rows("outofcore-", [
        {**common, "model": "outofcore-serial",
         "decode_seconds": round(report["serial"]["seconds"], 3),
         "rows_per_second": round(report["entities"]
                                  / report["serial"]["seconds"], 1),
         "rss_mb": round(report["serial"]["rss_mb"], 1)},
        {**common, "model": f"outofcore-sharded-w{report['workers']}",
         "workers": report["workers"],
         "decode_seconds": round(report["sharded"]["seconds"], 3),
         "rows_per_second": round(report["entities"]
                                  / report["sharded"]["seconds"], 1),
         "rss_mb": round(report["sharded"]["parent_rss_delta_mb"]
                         + report["sharded"]["worker_rss_mb"], 1),
         "worker_rss_mb": round(report["sharded"]["worker_rss_mb"], 1),
         "speedup": round(report["speedup"], 2),
         "identical": report["identical"]},
    ])


def test_outofcore_sharded_decode(benchmark, tmp_path):
    report = benchmark.pedantic(_run_outofcore, args=(str(tmp_path),),
                                rounds=1, iterations=1)
    printable = {key: value for key, value in report.items()}
    print("\nout-of-core decode report:", json.dumps(printable, indent=2,
                                                     default=float))
    _splice_outofcore_rows(report)

    assert report["entities"] == NUM_ENTITIES
    # The sharded decode merged bit-identically to the single-process scan.
    assert report["identical"] is True
    # Adaptive escalation kept the decode honest on the sampled subset.
    assert report["recall1"] >= RECALL_FLOOR, report["recall1"]
    # Candidate-restricted gathers stayed far below the n_s * n_t grid.
    assert report["flops_fraction"] < 0.05, report["flops_fraction"]
    assert report["serial"]["cells"] == report["sharded"]["cells"]
    # Out-of-core contract: the decode phase grew the parent's resident set
    # by well under the in-memory decode state (tables + candidate CSR) —
    # table and CSR pages are faulted by the build child and the decode
    # workers, never wholesale by the parent.
    parent_delta = report["sharded"]["parent_rss_delta_mb"]
    if np.isfinite(parent_delta):
        assert parent_delta < 0.6 * report["in_memory_state_mb"], report
    # Forked workers really ran and self-reported their peaks (one block
    # collapses to the in-process fallback, which reports none).
    if NUM_ENTITIES > WORKERS * BLOCK_SIZE:
        assert report["sharded"]["worker_rss_mb"] > 0.0
    # The throughput claim only arms where 4 workers have 4 CPUs to use.
    if len(os.sched_getaffinity(0)) >= WORKERS:
        assert report["speedup"] >= 2.0, report["speedup"]
