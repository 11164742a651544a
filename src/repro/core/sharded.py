"""Multi-process sharded execution of the blockwise decode scan.

:func:`repro.core.similarity.blockwise_topk` reduces the streamed
similarity row-shard by row-shard through :class:`~repro.core.similarity.
PartialTopK`; because the merge reducer is associative and commutative,
the scan parallelises trivially — each worker process owns a contiguous,
*block-aligned* range of source rows, streams it exactly as the
single-process engine would, and ships its partial reduction back to the
parent for merging.

Three properties make the parallel result bit-identical to the serial one
(pinned by ``tests/properties/test_property_sharded.py`` against the
brute-force oracles):

* shard boundaries are multiples of ``block_size``, so every worker issues
  the very same block GEMMs the serial scan would (float summation order
  inside each block is unchanged), and a candidate gather computes each
  cell from its own two rows wherever the row lands;
* normalisation is row-local and performed once by the caller — workers
  receive the already-normalised tables;
* :func:`~repro.core.similarity.merge_partials` resolves cross-shard
  column-max ties exactly like the serial strictly-greater running update
  (lowest source row wins).

Workers are **forked**, never spawned: the normalised tables are inherited
copy-on-write (or as shared file-backed pages when they are memory-mapped
:class:`~repro.core.store.EmbeddingStore` arrays), so no embedding data is
ever pickled.  Only the task descriptor (a row range) travels to each
worker and only the partial reduction travels back.  Platforms without
``fork`` — or pool start-up failures — degrade to an in-process scan of
the same shards, which merges to the identical result.

FLOPs accounting: the scan kernels meter nothing themselves — they return
``computed_cells`` — and the decode engine charges the *merged* partial's
count to the parent's :func:`~repro.core.ann.flops_counter` stack once,
whether the shards ran in forked workers or in-process.

Memory accounting: each forked worker records its own peak RSS
(``RUSAGE_SELF``, a per-process high-water mark) into
``PartialTopK.worker_rss_mb``; the merge *sums* them, giving the
out-of-core benchmark a multi-process memory figure —
``RUSAGE_CHILDREN`` only tracks the single largest child and would
under-report a pool.
"""

from __future__ import annotations

import os
import resource
import sys

import numpy as np

from .ann import RowCandidates

__all__ = ["shard_boundaries", "scan_partials_parallel", "default_num_workers"]


def default_num_workers() -> int:
    """CPUs available to this process (the sensible worker-count default)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard_boundaries(num_rows: int, num_workers: int,
                     block_size: int) -> list[tuple[int, int]]:
    """Contiguous block-aligned row shards, as even as block granularity allows.

    Every boundary is a multiple of ``block_size`` (the last shard absorbs
    the tail), so a sharded scan issues exactly the block GEMMs of the
    serial scan — the alignment the bit-identity guarantee rests on.  At
    most ``ceil(num_rows / block_size)`` shards are returned: a worker with
    no blocks would be pure fork overhead.
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    num_blocks = -(-num_rows // block_size)
    num_shards = min(num_workers, num_blocks)
    base, extra = divmod(num_blocks, num_shards)
    bounds: list[tuple[int, int]] = []
    next_block = 0
    for shard in range(num_shards):
        start_block = next_block
        next_block += base + (1 if shard < extra else 0)
        bounds.append((start_block * block_size,
                       min(num_rows, next_block * block_size)))
    return bounds


# Worker inputs are published module-globally immediately before forking so
# the pool inherits them through copy-on-write pages — nothing but the row
# range is pickled per task, and nothing but the partial comes back.
_FORK_STATE: dict | None = None


def _run_shard(bounds: tuple[int, int]):
    from .similarity import scan_rows

    state = _FORK_STATE
    assert state is not None, "worker forked without published state"
    partial = scan_rows(state["source_norm"], state["target_norm"], *bounds,
                        **state["scan"])
    if state["report_rss"]:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kilobytes on Linux, bytes on macOS.
        partial.worker_rss_mb = peak / (1024.0 ** 2 if sys.platform == "darwin"
                                        else 1024.0)
    return partial


def scan_partials_parallel(source_norm: list[np.ndarray],
                           target_norm: list[np.ndarray], *,
                           num_workers: int,
                           block_size: int,
                           k_keep: int,
                           csls_k_col: int = 0,
                           row_candidates: RowCandidates | None = None,
                           dtype=np.float64,
                           column_stats: bool = True):
    """Scan all source rows as ``num_workers`` forked row shards.

    Each shard runs :func:`~repro.core.similarity.scan_rows`: block GEMMs
    when ``row_candidates`` is ``None`` (``csls_k_col`` sets the CSLS
    column depth), otherwise candidate gathers over the already padded
    ``row_candidates``; ``column_stats`` says whether each shard reduces
    the column statistics.  Returns the per-shard
    :class:`~repro.core.similarity.PartialTopK` list in shard order —
    callers merge with :func:`~repro.core.similarity.merge_partial_topk`,
    whose result is invariant to that order.
    """
    num_rows = source_norm[0].shape[0]
    bounds = shard_boundaries(num_rows, num_workers, block_size)

    global _FORK_STATE
    state = {
        "source_norm": source_norm,
        "target_norm": target_norm,
        "scan": dict(k_keep=k_keep, csls_k_col=csls_k_col,
                     block_size=block_size, row_candidates=row_candidates,
                     dtype=dtype, column_stats=column_stats),
        "report_rss": True,
    }

    import multiprocessing

    if len(bounds) > 1 and "fork" in multiprocessing.get_all_start_methods():
        _FORK_STATE = state
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=len(bounds)) as pool:
                return pool.map(_run_shard, bounds)
        except OSError:  # pragma: no cover - fork resource exhaustion
            pass
        finally:
            _FORK_STATE = None

    # In-process fallback: same shards, same partials, same merge — minus
    # the parallelism.
    state["report_rss"] = False
    _FORK_STATE = state
    try:
        return [_run_shard(shard_bounds) for shard_bounds in bounds]
    finally:
        _FORK_STATE = None
