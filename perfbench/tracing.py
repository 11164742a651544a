"""Spans recorded from outside the program, by wrapping layer functions.

The benchmark's traced run (``--trace 1``) installs a :class:`Tracer`,
which replaces each function named in :data:`TARGETS` with a wrapper that
records a :class:`Span` per call.  Nothing under ``src/`` changes.

A module that did ``from .similarity import blockwise_topk`` holds its own
reference to the function, so patching only the defining module would miss
its calls.  :meth:`Tracer.install` therefore rebinds every ``repro`` module
attribute that is the original function object and records where it did.
Methods are patched on their class and on every subclass that overrides
them.  Each target names the workloads that must call it, and a traced run
in which one records no span fails (:meth:`Tracer.missing`), which also
catches a call path that still reaches an unwrapped reference.

Spans stay in memory until the run ends.  A span records its name, start,
end, parent span and thread; serving batch spans also carry the ids of the
requests in the batch.
"""

from __future__ import annotations

import functools
import gc
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Target", "TARGETS", "Span", "Tracer", "percentile"]


@dataclass(frozen=True)
class Target:
    """One wrapped function: where it is defined and what its span is called.

    ``expect`` lists the workloads whose measured phase must call it; the
    traced run fails when one of them records no span for it.  ``attrs``
    turns ``(args, kwargs, result)`` into span attributes.
    """

    span: str
    module: str
    qualname: str
    expect: tuple = ()
    attrs: object = None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _pairs_attrs(args, kwargs, result):
    return {"pairs": len(_arg(args, kwargs, 1, "test_pairs"))}


def _rows_attrs(args, kwargs, result):
    return {"rows": int(np.asarray(_arg(args, kwargs, 1, "entity_ids")).size)}


def _scan_attrs(args, kwargs, result):
    source_norm = _arg(args, kwargs, 0, "source_norm")
    target_norm = _arg(args, kwargs, 1, "target_norm")
    block = int(_arg(args, kwargs, 6, "block_size"))
    rows = int(_arg(args, kwargs, 3, "row_stop")) - int(
        _arg(args, kwargs, 2, "row_start"))
    return {"cells": int(result.computed_cells),
            "dim": int(source_norm[0].shape[1]),
            "block": (min(block, rows), int(source_norm[0].shape[1]),
                      int(target_norm[0].shape[0]))}


def _gather_attrs(args, kwargs, result):
    return {"cells": int(result.computed_cells)}


def _probe_attrs(args, kwargs, result):
    index = args[0]
    queries = _arg(args, kwargs, 1, "queries")
    return {"cells": int(result.total),
            "space": int(len(queries)) * int(len(index.vectors))}


def _mutual_attrs(args, kwargs, result):
    return {"pairs": len(result)}


def _ingest_attrs(args, kwargs, result):
    rows = result.aligner.decode_states()[0][0].shape[0]
    return {"rows_encoded": int(result.rows_encoded),
            "rows_decoded": int(result.rows_decoded),
            "num_source": int(rows), "refit": bool(result.refit),
            "noop": bool(result.noop)}


#: Every wrapped function, grouped by layer.  Span names are shared where
#: two functions make up one per-layer metric (``eval.evaluate`` is the
#: evaluator's entry point and the artifact's; only the outermost counts).
TARGETS = (
    Target("autograd.backward", "repro.autograd.tensor", "Tensor.backward",
           ("fit",)),
    Target("nn.step", "repro.nn.optim", "AdamW.step", ("fit",)),
    Target("nn.clip", "repro.nn.optim", "GradientClipper.clip", ("fit",)),
    Target("encoder.forward", "repro.core.encoder",
           "MultiModalEncoder.forward", ("fit",)),
    Target("encoder.subgraph", "repro.core.model", "DESAlign.encode_subgraph",
           ("ingest",)),
    Target("trainer.loss", "repro.core.model", "DESAlign.loss", ("fit",)),
    Target("trainer.pseudo_seed", "repro.core.trainer",
           "TrainingLoop.model_similarity", ("fit",)),
    Target("trainer.pseudo_seed", "repro.core.alignment",
           "mutual_nearest_pairs", ("fit",), _mutual_attrs),
    Target("data.build_task", "repro.pipeline.facade",
           "AlignmentPipeline.build_task", ("fit",)),
    Target("kg.sample", "repro.kg.sampling", "NeighbourSampler.sample",
           ("ingest",)),
    Target("propagation.propagate", "repro.core.propagation",
           "SemanticPropagation.propagate_features", ("fit", "ingest")),
    Target("eval.evaluate", "repro.eval.evaluator", "Evaluator.evaluate_model",
           ("fit",)),
    Target("eval.evaluate", "repro.pipeline.facade", "Aligner.evaluate",
           ("decode",)),
    Target("eval.rank", "repro.eval.metrics", "evaluate_alignment",
           ("fit", "decode"), _pairs_attrs),
    Target("eval.row_scores", "repro.core.similarity",
           "TopKSimilarity.row_scores", ("decode",)),
    Target("similarity.topk", "repro.core.similarity", "blockwise_topk",
           ("decode",)),
    Target("similarity.scan", "repro.core.similarity", "compute_partial_topk",
           ("decode",), _scan_attrs),
    Target("similarity.gather", "repro.core.similarity",
           "compute_partial_topk_candidates", ("decode", "serve", "ingest"),
           _gather_attrs),
    Target("similarity.merge", "repro.core.similarity", "merge_partials",
           ("ingest",)),
    Target("ann.generate", "repro.core.ann", "generate_candidates",
           ("decode",)),
    Target("ann.kmeans", "repro.core.ann", "IVFIndex.__init__", ("decode",)),
    Target("ann.probe", "repro.core.ann", "IVFIndex.candidates",
           ("decode", "ingest"), _probe_attrs),
    Target("ann.insert", "repro.core.ann", "IVFIndex.insert", ("ingest",)),
    Target("store.create", "repro.core.store", "EmbeddingStore.create",
           ("fit",)),
    Target("store.open", "repro.core.store", "EmbeddingStore.open",
           ("decode",)),
    Target("pipeline.rank_rows", "repro.pipeline.facade", "Aligner.rank_rows",
           ("serve", "ingest"), _rows_attrs),
    Target("serve.swap", "repro.serve.engine", "ServingEngine.swap",
           ("ingest",)),
    Target("incremental.ingest", "repro.incremental.aligner",
           "IncrementalAligner.ingest", ("ingest",), _ingest_attrs),
    Target("incremental.apply", "repro.incremental.delta", "apply_delta",
           ("ingest",)),
)


@dataclass(slots=True)
class Span:
    """One recorded call; times are ``time.perf_counter()`` seconds."""

    id: int
    name: str
    start: float
    thread: int
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def percentile(values, q: float) -> float:
    """``q``-th percentile of ``values`` (0.0 for an empty sample)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class Tracer:
    """In-memory span recorder plus the function patches that feed it.

    Wrappers are installed once; they record only while ``recording`` is
    set, so set-up and warm-up calls leave no spans.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = False
        #: Dot products metered (``flops_counter``) while recording.
        self.cells = 0
        self.gc_pauses: list[tuple[int, float]] = []
        self.binding_sites: dict[str, list[str]] = {}
        #: Per request: ``MicroBatcher.submit`` → ``WorkerPool.submit`` (s).
        self.batch_waits: list[float] = []
        #: Per batch: ``WorkerPool.submit`` → task start (s).
        self.pool_waits: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_start = 0.0

    # -- span recording ------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(),
                    threading.get_ident(), stack[-1].id if stack else None,
                    attrs=attrs)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            span = tracer.begin(target.span, target=target.key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if target.attrs is not None:
                span.attrs.update(target.attrs(args, kwargs, result))
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every target at every binding site; register GC callbacks."""
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner = module
            *path, attr = target.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._patch_method(owner, attr, target)
            else:
                self._patch_function(module, attr, target)
        gc.callbacks.append(self._on_gc)

    def _patch_method(self, cls: type, attr: str, target: Target) -> None:
        classes, pending = [], [cls]
        while pending:
            current = pending.pop()
            if attr in current.__dict__ and current not in classes:
                classes.append(current)
            pending.extend(current.__subclasses__())
        sites = []
        for owner in classes:
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrap(raw.__func__, target))
            else:
                patched = self._wrap(raw, target)
            setattr(owner, attr, patched)
            sites.append(f"{owner.__module__}.{owner.__qualname__}")
        self.binding_sites[target.key] = sites

    def _patch_function(self, module, attr: str, target: Target) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(original, target)
        sites = []
        for name, loaded in sorted(sys.modules.items()):
            if loaded is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    sites.append(f"{name}.{key}")
        self.binding_sites[target.key] = sites

    def install_serving(self) -> None:
        """Time the serving queues and tag each batch span with its requests.

        Must run before the engine is built: the batch hook wraps the
        ``dispatch`` callback a :class:`MicroBatcher` receives at
        construction.  ``WorkerPool.submit`` is called from inside that
        callback, on the batcher thread, which is how a pool task learns
        which requests it carries.
        """
        from repro.serve import MicroBatcher, WorkerPool

        tracer, local = self, threading.local()
        enqueued: dict[int, tuple[int, float]] = {}
        request_ids = itertools.count()
        init, submit = MicroBatcher.__init__, MicroBatcher.submit
        pool_submit = WorkerPool.submit

        def traced_submit(batcher, request):
            if tracer.recording:
                enqueued[id(request)] = (next(request_ids), time.perf_counter())
            return submit(batcher, request)

        def traced_init(batcher, dispatch, *args, **kwargs):
            def traced_dispatch(batch):
                now = time.perf_counter()
                ids = []
                for request in batch:
                    entry = enqueued.pop(id(request), None)
                    if entry is not None:
                        ids.append(entry[0])
                        tracer.batch_waits.append(now - entry[1])
                local.batch = ids
                try:
                    dispatch(batch)
                finally:
                    local.batch = None

            init(batcher, traced_dispatch, *args, **kwargs)

        def traced_pool_submit(pool, task):
            ids = getattr(local, "batch", None)
            if not ids or not tracer.recording:
                return pool_submit(pool, task)
            submitted = time.perf_counter()

            def traced_task():
                started = time.perf_counter()
                tracer.pool_waits.append(started - submitted)
                span = tracer.begin("serve.batch", requests=ids)
                try:
                    task()
                finally:
                    tracer.end(span)

            return pool_submit(pool, traced_task)

        MicroBatcher.__init__ = traced_init
        MicroBatcher.submit = traced_submit
        WorkerPool.submit = traced_pool_submit

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((int(info["generation"]),
                                   time.perf_counter() - self._gc_start))

    # -- summaries -----------------------------------------------------
    def outermost(self, name: str) -> list[Span]:
        """Spans called ``name`` with no ancestor of the same name."""
        by_id = {span.id: span for span in self.spans}
        found = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != name:
                parent = by_id.get(parent.parent)
            if parent is None:
                found.append(span)
        return found

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.outermost(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.duration)
        totals: dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = (totals.get(span.name, 0.0) + span.duration
                                 - child_time.get(span.id, 0.0))
        return totals

    def unattributed(self, start: float, stop: float) -> float:
        """Share of ``[start, stop]`` that no top-level span covers."""
        intervals = sorted((max(span.start, start), min(span.end, stop))
                           for span in self.spans if span.parent is None)
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        window = stop - start
        return max(0.0, 1.0 - covered / window) if window > 0 else 0.0

    def missing(self, workload: str) -> list[str]:
        """Targets the workload must call that recorded no span."""
        seen = {span.attrs.get("target") for span in self.spans}
        return [target.key for target in TARGETS
                if workload in target.expect and target.key not in seen]

    def calls_with_child(self, name: str, child: str) -> int:
        """How many ``name`` spans have a ``child`` span directly inside them."""
        parents = {span.parent for span in self.spans if span.name == child}
        return sum(1 for span in self.spans
                   if span.name == name and span.id in parents)
