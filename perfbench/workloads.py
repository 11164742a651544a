"""The four workloads, each driven through the repository's public API.

* ``fit`` trains DESAlign from a spec and saves the artifact: the autograd,
  nn, encoder, trainer and propagation layers, with the paper's mutual-NN
  pseudo-seed decode.
* ``decode`` loads a barely trained artifact, aligns, evaluates and
  re-decodes through IVF: the scan, the exact-rank fallback, k-means,
  probing and gathers, with no training.
* ``serve`` sends open-loop single-entity ``rank`` requests at three fixed
  rates to a :class:`~repro.serve.ServingEngine` whose corpus is much larger
  than its result cache, so the tail reaches ``Aligner.rank_rows``.
* ``ingest`` applies a fixed sequence of deltas through
  ``ServingEngine.ingest`` while one reader thread keeps serving.

Every input is generated from the workload seed.  Artifacts are fitted in
a separate process, so the measured phase's peak memory is not the fit's.
Each set-up ends with one untimed operation of the measured kind: the
first one in a process runs markedly slower (first-touch page faults,
first calls), and users of a long-lived process do not pay it per call.
An untimed full garbage collection precedes every timed ``fit`` and
``decode`` operation and every ``ingest`` pass, so each starts from the
same collector state.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import shutil
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.ann import flops_counter
from repro.core.config import TrainingConfig
from repro.core.store import EmbeddingStore
from repro.data.benchmarks import load_benchmark
from repro.incremental import DeltaBatch, SideDelta
from repro.pipeline import (Aligner, AlignmentPipeline, DataSpec,
                            DecodeSpec, PipelineSpec)
from repro.pipeline.facade import STORE_DIRNAME
from repro.serve import ServingEngine

from .traffic import CompletionProbe, PhaseResult, ZipfEntities, run_phase

__all__ = ["WORKLOADS", "build_artifact"]

#: The checkout root, from which the artifact-building child imports.
ROOT = Path(__file__).resolve().parent.parent

K = 10
DATASET = "FBDB15K"
#: Rows sampled by the row-level output checks.
CHECK_ROWS = 64

# fit: full-graph DESAlign, 30 epochs evaluated every 10, one iterative round.
FIT_ENTITIES = 200
# decode: a 1-epoch neighbour-sampled fit, so ~99% of gold pairs fall
# outside the stored top-10 and the exact-rank fallback runs per test row.
DECODE_ENTITIES = 2000
# serve: the corpus is 8x the result cache; Zipf(0.6) puts the steady
# request hit rate near one third, so p50 sits on the decode path.
SERVE_ENTITIES = 2000
SERVE_CACHE = 256
ZIPF_S = 0.6
#: Open-loop rates (requests/s): ~25%, 60% and 90% of the ~1,650 req/s
#: closed-loop capacity (16 clients) this engine reached on a 2-CPU host.
SERVE_RATES = {"low": 400.0, "mid": 1000.0, "high": 1500.0}
#: p99 latency a rate must meet to count toward ``max_rate_qps``.
P99_LIMIT_MS = 50.0
WARM_REQUESTS = 600
# ingest: default engine settings; the 1,500-entity corpus fits in the
# 4,096-entry cache, so every swap's eviction shows in the read tail.
INGEST_ENTITIES = 1500
INGEST_RATE = 200.0
DELTA_ENTITIES = 5
#: Deltas per measured pass.  Every pass reopens the base artifact, so each
#: run times the same deltas on the same corpus sizes, refits included.
DELTAS_PER_PASS = 10
#: The ingest reader asks for fewer candidates than the artifact's decode
#: ``k``: every promoted aligner carries its ``k=10`` table, which
#: ``Aligner.rank_rows`` would only slice, while other ``k`` decode the
#: requested rows over their candidates as ``serve``'s cache misses do.
READ_K = 5


def fit_spec(seed: int) -> PipelineSpec:
    return PipelineSpec(
        data=DataSpec(dataset=DATASET, num_entities=FIT_ENTITIES,
                      backend="sparse", seed=seed, dataset_seed=seed),
        training=TrainingConfig(epochs=30, eval_every=10, iterative=True,
                                iterative_rounds=1, iterative_epochs=10,
                                seed=seed),
        decode=DecodeSpec(k=K))


def artifact_spec(kind: str, seed: int) -> PipelineSpec:
    """The brief neighbour-sampled fit behind the decode/serve/ingest artifacts."""
    if kind == "decode":
        data = DataSpec(dataset="custom", num_entities=DECODE_ENTITIES,
                        backend="sparse", seed=seed)
        decode = DecodeSpec(k=K, decode="blockwise", encode="sampled")
    else:
        size = SERVE_ENTITIES if kind == "serve" else INGEST_ENTITIES
        data = DataSpec(dataset=DATASET, num_entities=size, backend="sparse",
                        seed=seed, dataset_seed=seed)
        decode = DecodeSpec(k=K, encode="sampled", candidates="ivf")
    return PipelineSpec(
        data=data,
        training=TrainingConfig(epochs=1, eval_every=0, sampling="neighbour",
                                fanouts=(5, 5), seed=seed),
        decode=decode)


def build_artifact(kind: str, seed: int, directory: str) -> None:
    """Fit and save one workload's artifact (runs in a child process)."""
    pipeline = AlignmentPipeline.from_spec(artifact_spec(kind, seed))
    if kind == "decode":
        # A custom pair: the loaded artifact evaluates its stored table
        # instead of rebuilding the model.
        pair = load_benchmark(DATASET, num_entities=DECODE_ENTITIES, seed=seed)
        aligner = pipeline.fit(pair)
    else:
        aligner = pipeline.fit()
    aligner.save(directory)


def _build_in_child(kind: str, seed: int, directory: Path) -> None:
    """Run :func:`build_artifact` in a fresh interpreter and wait for it.

    A ``multiprocessing`` child would also start a resource tracker that
    outlives the build; a plain subprocess leaves nothing running.
    """
    path = [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.workloads", kind, str(seed),
         str(directory)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, path))))
    if completed.returncode != 0:
        raise RuntimeError(f"building the {kind} artifact failed "
                           f"(exit code {completed.returncode})")


def _directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def _median(values) -> float:
    return float(np.median(values))


def _same_rows(a, b) -> bool:
    return (np.array_equal(a.target_ids, b.target_ids)
            and np.array_equal(a.scores, b.scores))


class Workload:
    """Set-up, measured phase and output checks of one workload.

    ``ops_s`` holds the duration of every measured operation; ``detail``
    maps named results to ``(value, unit)``.  ``attempted`` and ``failed``
    count operations and output checks alike.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, probe: CompletionProbe):
        self.seed = seed
        self.workdir = workdir
        self.probe = probe
        self.tracer = None
        self._reset()

    def _reset(self) -> None:
        self.ops_s: list[float] = []
        self.detail: dict[str, tuple[float, str]] = {}
        self.checks: dict[str, list[int]] = {}
        self.attempted = 0
        self.failed = 0
        self.windows: list[tuple[float, float]] = []

    def check(self, name: str, passed: bool) -> None:
        counts = self.checks.setdefault(name, [0, 0])
        counts[0] += int(passed)
        counts[1] += 1
        self.attempted += 1
        self.failed += int(not passed)

    @contextlib.contextmanager
    def window(self):
        """A measured stretch: spans and dot products are recorded only inside one."""
        start = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with flops_counter() as counter:
                self.tracer.recording = True
                try:
                    yield
                finally:
                    self.tracer.recording = False
                    self.tracer.cells += counter.cells
        self.windows.append((start, time.perf_counter()))

    def _timed(self, operation) -> tuple[bool, object]:
        """Run ``operation()`` once as a measured operation."""
        self.attempted += 1
        try:
            with self.window():
                start = time.perf_counter()
                result = operation()
                self.ops_s.append(time.perf_counter() - start)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False, None
        return True, result

    def _repeat(self, seconds: float, operation, after) -> None:
        """Time ``operation()`` back to back for ``seconds``; ``after`` checks each result."""
        deadline = time.perf_counter() + seconds
        while True:
            gc.collect()
            passed, result = self._timed(operation)
            if not passed:
                return
            after(result)
            if time.perf_counter() >= deadline:
                return

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def restart(self, tracer) -> None:
        """Forget measured results and reopen the workload for a traced pass."""
        self.close()
        self._reset()
        self.tracer = tracer
        self._open()

    def _open(self) -> None:
        """The part of set-up a traced pass repeats (engines, warm-up)."""

    def close(self) -> None:
        pass

    def serve_metrics(self) -> dict:
        """Serving-layer counters of the last measured phase (if any)."""
        return {}


class Fit(Workload):
    """``AlignmentPipeline.from_spec(spec).fit()`` then ``Aligner.save``."""

    name = "fit"

    def setup(self) -> None:
        self.spec = fit_spec(self.seed)
        self._open()

    def _open(self) -> None:
        self.reps = 0
        shutil.rmtree(self._fit_and_save(), ignore_errors=True)

    def _fit_and_save(self) -> Path:
        directory = self.workdir / f"fit-{self.reps}"
        self.reps += 1
        self.aligner = AlignmentPipeline.from_spec(self.spec).fit()
        self.aligner.save(directory)
        return directory

    def measure(self, seconds: float) -> None:
        hits1, mrr, pseudo, sizes = [], [], [], []

        def after(directory: Path) -> None:
            aligner = self.aligner
            self.check("reloaded_align_identical",
                       _same_rows(Aligner.load(directory).align(K),
                                  aligner.align(K)))
            hits1.append(aligner.metrics.hits_at_1)
            mrr.append(aligner.metrics.mrr)
            pseudo.append(sum(aligner.result.history.pseudo_pairs))
            sizes.append(_directory_mb(directory))
            shutil.rmtree(directory)

        self._repeat(seconds, self._fit_and_save, after)
        if hits1:
            self.detail.update({
                "fit_s": (_median(self.ops_s), "s"),
                "hits1": (_median(hits1), "fraction"),
                "mrr": (_median(mrr), "fraction"),
                "pseudo_pairs": (_median(pseudo), "count"),
                "artifact_mb": (_median(sizes), "MB"),
            })


class Decode(Workload):
    """load → align → evaluate → IVF re-decode, on a barely trained artifact."""

    name = "decode"

    def setup(self) -> None:
        self.artifact = self.workdir / "artifact"
        _build_in_child("decode", self.seed, self.artifact)
        store = EmbeddingStore.open(self.artifact / STORE_DIRNAME, mmap=False)
        self.test_pairs = np.asarray(store.test_pairs)
        self._cycle()

    def _cycle(self) -> dict:
        start = time.perf_counter()
        loaded = Aligner.load(self.artifact, mmap=True)
        exact = loaded.align(K)
        aligned = time.perf_counter()
        metrics = loaded.evaluate()
        evaluated = time.perf_counter()
        approx = loaded.with_decode(
            replace(loaded.spec.decode, candidates="ivf")).align(K)
        return {"loaded": loaded, "exact": exact, "metrics": metrics,
                "approx": approx, "align_s": aligned - start,
                "eval_s": evaluated - aligned,
                "align_ivf_s": time.perf_counter() - evaluated}

    def measure(self, seconds: float) -> None:
        stages = {"align_s": [], "eval_s": [], "align_ivf_s": []}
        recall1 = []
        rng = np.random.default_rng([self.seed, 3])

        def after(cycle: dict) -> None:
            for name, values in stages.items():
                values.append(cycle[name])
            recall1.append(float(np.mean(cycle["approx"].target_ids[:, 0]
                                         == cycle["exact"].target_ids[:, 0])))
            self._check_cycle(cycle, rng)
            self.hits1 = cycle["metrics"].hits_at_1

        self._repeat(seconds, self._cycle, after)
        if recall1:
            self.detail.update({name: (_median(values), "s")
                                for name, values in stages.items()})
            self.detail.update({
                "ivf_recall1": (_median(recall1), "fraction"),
                "hits1": (float(self.hits1), "fraction"),
                "artifact_mb": (_directory_mb(self.artifact), "MB"),
            })

    def _check_cycle(self, cycle: dict, rng: np.random.Generator) -> None:
        exact, approx = cycle["exact"], cycle["approx"]
        table = cycle["loaded"].topk(K)
        # evaluate() ranks among the test targets only, so the matching
        # align top-1 is the first test target in the row's (score desc,
        # id asc) top-k, or the best test target of the full row when the
        # top-k holds none.
        sources, targets = self.test_pairs[:, 0], self.test_pairs[:, 1]
        candidates = np.unique(targets)
        top1 = np.empty(len(sources), dtype=np.int64)
        for index, source in enumerate(sources):
            row = exact.target_ids[source]
            inside = row[np.isin(row, candidates)]
            if len(inside):
                top1[index] = inside[0]
            else:
                scores = table.row_scores(int(source))[candidates]
                top1[index] = candidates[np.argmax(scores)]
        self.check("evaluate_hits1_matches_align",
                   cycle["metrics"].hits_at_1 == float(np.mean(top1 == targets)))
        rows = rng.choice(approx.target_ids.shape[0], CHECK_ROWS, replace=False)
        self.check("ivf_scores_equal_exhaustive_cosine", all(
            np.allclose(approx.scores[row],
                        table.row_scores(int(row))[approx.target_ids[row]],
                        rtol=0.0, atol=1e-12)
            for row in rows))


class _Served(Workload):
    """A workload that owns a :class:`ServingEngine` over a built artifact."""

    def close(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None

    def serve_metrics(self) -> dict:
        def delta(key):
            return sum(after[key] - before[key] for before, after in self._stats)

        return {
            "serve.cache_hit_rate": (delta("cache_only_requests")
                                     / max(1, delta("requests")), "fraction"),
            "serve.requests_per_batch": (delta("batched_requests")
                                         / max(1, delta("batches")), "count"),
            "serve.overloads": (float(delta("overloads")), "count"),
            "serve.timeouts": (float(delta("timeouts")), "count"),
        }


class Serve(_Served):
    """Open-loop single-entity ``rank(k=10)`` traffic at three fixed rates."""

    name = "serve"

    def setup(self) -> None:
        self.artifact = self.workdir / "artifact"
        _build_in_child("serve", self.seed, self.artifact)
        self._open()

    def _open(self) -> None:
        self.engine = ServingEngine.from_artifact(self.artifact,
                                                  cache_size=SERVE_CACHE)
        self.rng = np.random.default_rng([self.seed, 5])
        self.entities = ZipfEntities(self.engine.stats()["num_source"],
                                     ZIPF_S, self.rng)
        run_phase(self.engine, self.probe,
                  self.entities.draw(self.rng, WARM_REQUESTS),
                  SERVE_RATES["mid"], self.rng, K)

    def measure(self, seconds: float) -> None:
        before = self.engine.stats()
        phase_seconds = seconds / len(SERVE_RATES)
        self.phases = {}
        for phase, rate in SERVE_RATES.items():
            # An untimed warm-up at the phase's rate brings its queue to a
            # steady state before timing starts.
            run_phase(self.engine, self.probe,
                      self.entities.draw(self.rng, int(rate * phase_seconds * 0.2)),
                      rate, self.rng, K)
            count = max(1000, int(rate * phase_seconds * 0.8))
            with self.window():
                result = run_phase(self.engine, self.probe,
                                   self.entities.draw(self.rng, count),
                                   rate, self.rng, K)
            self.phases[phase] = result
            self.attempted += result.sent
            self.failed += result.failed
            self.ops_s.extend(ms / 1e3 for ms in result.latencies_ms)
        self._stats = [(before, self.engine.stats())]
        self._check_answers()
        self._report()

    def _check_answers(self) -> None:
        full = Aligner.load(self.artifact, mmap=True).align(K)
        mismatched = sum(
            1 for result in self.phases.values()
            for entity, answer in result.answers
            if not (np.array_equal(answer.target_ids[0], full.target_ids[entity])
                    and np.array_equal(answer.scores[0], full.scores[entity])))
        # A wrong answer is a failed request as well as a failed check.
        self.failed += mismatched
        self.check("served_rows_equal_align", mismatched == 0)

    def _report(self) -> None:
        passing = [0.0]
        for phase, result in self.phases.items():
            self.detail.update({
                f"rank_p50_ms.{phase}": (result.p(50), "ms"),
                f"rank_p99_ms.{phase}": (result.p(99), "ms"),
                f"sent.{phase}": (float(result.sent), "count"),
                f"succeeded.{phase}": (float(result.succeeded), "count"),
                f"failed.{phase}": (float(result.failed), "count"),
                f"generator_late_ms.{phase}": (result.late_p99(), "ms"),
                f"backlog_end.{phase}": (float(result.backlog_end), "count"),
            })
            if (result.failed == 0 and not result.growing_backlog()
                    and result.p(99) <= P99_LIMIT_MS):
                passing.append(result.rate)
        self.detail["max_rate_qps"] = (max(passing), "1/s")
        self.detail["artifact_mb"] = (_directory_mb(self.artifact), "MB")
        self.detail["cache_hit_rate"] = self.serve_metrics()["serve.cache_hit_rate"]


class Ingest(_Served):
    """Back-to-back ``ServingEngine.ingest`` deltas beside one reader thread.

    A measured pass opens a fresh engine on the base artifact (untimed),
    applies the sequence's first ``DELTAS_PER_PASS`` deltas and checks the
    final state; passes repeat until the run's time is up.
    """

    name = "ingest"

    def setup(self) -> None:
        self.artifact = self.workdir / "artifact"
        _build_in_child("ingest", self.seed, self.artifact)
        pair = load_benchmark(DATASET, num_entities=INGEST_ENTITIES,
                              seed=self.seed)
        self.sides = {}
        for side, graph in (("source", pair.source), ("target", pair.target)):
            image = next(iter(graph.image_features.values()))
            self.sides[side] = (graph.num_entities, graph.num_relations,
                                graph.num_attributes, len(image))
        self.deltas = [self.delta(index) for index in range(DELTAS_PER_PASS)]
        self.rng = np.random.default_rng([self.seed, 7])
        self.entities = ZipfEntities(self.sides["source"][0], ZIPF_S, self.rng)
        self._open_engine()
        self.engine.ingest(self.deltas[0])
        self.close()

    def _open_engine(self) -> None:
        """An engine on the base artifact with its incremental wrapper and cache warm."""
        self.engine = ServingEngine.from_artifact(self.artifact)
        generation = self.engine.generation
        self.engine.ingest(DeltaBatch())
        self.check("empty_delta_keeps_generation",
                   self.engine.generation == generation)
        run_phase(self.engine, self.probe,
                  self.entities.draw(self.rng, WARM_REQUESTS // 2),
                  INGEST_RATE * 4, self.rng, READ_K)

    def delta(self, index: int) -> DeltaBatch:
        """The ``index``-th delta of the workload's fixed seeded sequence."""
        rng = np.random.default_rng([self.seed, 11, index])
        sides = {}
        for side, (base, relations, attributes, image_dim) in self.sides.items():
            first = base + index * DELTA_ENTITIES
            new = range(first, first + DELTA_ENTITIES)
            sides[side] = SideDelta(
                entity_names=[f"{side}-delta-{entity}" for entity in new],
                relation_triples=[
                    (entity, int(rng.integers(relations)),
                     int(rng.integers(first)))
                    for entity in new for _ in range(3)],
                attribute_triples=[
                    (entity, int(rng.integers(attributes)),
                     f"value-{int(rng.integers(1000))}")
                    for entity in new for _ in range(2)],
                image_features={entity: rng.normal(size=image_dim)
                                for entity in new})
        return DeltaBatch(source=sides["source"], target=sides["target"])

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        reads, reports = [], []
        self._stats = []
        while not reads or time.perf_counter() < deadline:
            if not self._pass(reads, reports):
                break
        read = PhaseResult.combined(reads)
        if reports:
            self.detail.update({
                "ingest_s": (_median(self.ops_s), "s"),
                "rank_p50_ms.ingest": (read.p(50), "ms"),
                "rank_p99_ms.ingest": (read.p(99), "ms"),
                "deltas": (float(len(reports)), "count"),
                "passes": (float(len(reads)), "count"),
                "sent.ingest": (float(read.sent), "count"),
                "succeeded.ingest": (float(read.succeeded), "count"),
                "failed.ingest": (float(read.failed), "count"),
                "generator_late_ms.ingest": (read.late_p99(), "ms"),
                "rows_decoded": (_median([r["rows_decoded"] for r in reports]),
                                 "count"),
                "artifact_mb": (_directory_mb(self.artifact), "MB"),
            })

    def _pass(self, reads: list, reports: list) -> bool:
        """One measured pass; False when a delta failed."""
        gc.collect()
        self._open_engine()
        stop = threading.Event()
        # More entities than the reader can send before the last delta.
        draws = self.entities.draw(self.rng, int(INGEST_RATE * 120))
        read = []
        reader = threading.Thread(
            target=lambda: read.append(run_phase(
                self.engine, self.probe, draws, INGEST_RATE, self.rng, READ_K,
                stop=stop)),
            name="perfbench-reader")
        before = self.engine.stats()
        reader.start()
        passed = True
        try:
            for delta in self.deltas:
                passed, report = self._timed(
                    functools.partial(self.engine.ingest, delta))
                if not passed:
                    break
                reports.append(report)
        finally:
            stop.set()
            reader.join()
        self._stats.append((before, self.engine.stats()))
        # A reader that raised counts as one failed request.
        reads.append(read[0] if read
                     else PhaseResult(INGEST_RATE, sent=1, failed=1))
        self.attempted += reads[-1].sent
        self.failed += reads[-1].failed
        if passed:
            self._check_final()
        self.close()
        return passed

    def _check_final(self) -> None:
        final = self.workdir / "final"
        generation = self.engine.generation
        # An empty delta with a directory persists the served artifact.
        self.engine.ingest(DeltaBatch(), directory=final)
        self.check("empty_delta_keeps_generation",
                   self.engine.generation == generation)
        reloaded = Aligner.load(final, mmap=True)
        sample = self.rng.choice(self.engine.stats()["num_source"], CHECK_ROWS,
                                 replace=False)
        # k=10 slices the table the deltas maintained; READ_K decodes rows.
        for k in (K, READ_K):
            full = reloaded.align(k)
            served = self.engine.rank(sample, k=k)
            self.check("served_rows_equal_full_decode",
                       np.array_equal(served.target_ids, full.target_ids[sample])
                       and np.array_equal(served.scores, full.scores[sample]))
        shutil.rmtree(final)


WORKLOADS = {cls.name: cls for cls in (Fit, Decode, Serve, Ingest)}


if __name__ == "__main__":
    build_artifact(sys.argv[1], int(sys.argv[2]), sys.argv[3])
