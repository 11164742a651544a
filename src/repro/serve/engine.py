"""The serving engine: micro-batched, cached, hot-swappable ranking.

Request path
------------
``rank(entity_ids, k)`` first probes the LRU result cache (all rows hot →
answered without touching the decoder, on the caller's thread).  Misses
enter the :class:`~repro.serve.batching.MicroBatcher`; coalesced batches
go to the bounded :class:`~repro.serve.workers.WorkerPool`, where one
worker decodes the union of all uncached rows in the batch via
:meth:`Aligner.rank_rows` — a row-subset decode whose per-row results are
bit-identical regardless of batch composition — then scatters per-request
results and inserts the fresh rows into the cache.

Lifecycle
---------
``swap(aligner)`` installs a new artifact without dropping in-flight
work: the replacement is fully loaded (and pre-warmed) first, new batches
are briefly held, in-flight batches drain, then the aligner reference and
generation counter switch atomically and the cache is invalidated.  Every
batch executes against one consistent ``(aligner, generation)`` snapshot,
so a request is answered either entirely by the old artifact or entirely
by the new one — never a torn mix.

Robustness
----------
Per-request timeouts surface as structured :class:`ServingTimeout` errors
while the worker keeps running (its late result is discarded); a full
work queue fails fast with an ``overloaded`` error; decode exceptions are
routed to the requests that caused them and never kill a worker.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

from ..pipeline.facade import Aligner, TopKAlignment
from .batching import MicroBatcher
from .cache import ResultCache
from .faults import FaultInjector, WorkerDeath
from .workers import WorkerPool

__all__ = ["ServingEngine", "ServingError", "ServingTimeout", "PendingRequest"]


class ServingError(RuntimeError):
    """Structured serving failure: a machine-readable ``code`` + message."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def to_payload(self) -> dict:
        return {"code": self.code, "message": self.message}


class ServingTimeout(ServingError):
    """A request missed its deadline (the decode may still complete)."""

    def __init__(self, message: str):
        super().__init__("timeout", message)


class PendingRequest:
    """One in-flight ``rank`` request awaiting its batch."""

    __slots__ = ("entity_ids", "k", "event", "result", "error", "abandoned")

    def __init__(self, entity_ids: np.ndarray, k: int):
        self.entity_ids = entity_ids
        self.k = k
        self.event = threading.Event()
        self.result: TopKAlignment | None = None
        self.error: ServingError | None = None
        #: Set by a timed-out waiter so workers skip assembling the result.
        self.abandoned = False

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)

    def fail(self, error: ServingError) -> None:
        self.error = error
        self.event.set()

    def complete(self, result: TopKAlignment) -> None:
        self.result = result
        self.event.set()


class ServingEngine:
    """Long-lived query engine over one loaded :class:`Aligner`.

    Tuning knobs: ``batch_window`` (seconds the micro-batcher waits for
    company), ``max_batch`` (entity rows per coalesced batch),
    ``pool_size`` / ``queue_size`` (decode workers and their backpressure
    bound), ``cache_size`` (result-cache entries), ``cache_admission``
    (``"frequency"`` — the default, TinyLFU-style sketch gate — or plain
    ``"lru"``) and ``default_timeout`` (per-request deadline, seconds).
    ``fault_injector`` accepts a seeded
    :class:`~repro.serve.faults.FaultInjector` whose decode-failure,
    latency and worker-death hooks exercise the engine's isolation
    guarantees under test.
    """

    def __init__(self, aligner: Aligner, *, batch_window: float = 0.002,
                 max_batch: int = 64, pool_size: int = 2,
                 queue_size: int = 128, cache_size: int = 4096,
                 default_timeout: float = 30.0,
                 cache_admission: str = "frequency",
                 fault_injector: FaultInjector | None = None):
        self._cache = ResultCache(cache_size, admission=cache_admission)
        self._faults = fault_injector
        self._pool = WorkerPool(num_workers=pool_size, queue_size=queue_size)
        self._batcher = MicroBatcher(self._dispatch, window=batch_window,
                                     max_batch=max_batch)
        self.default_timeout = float(default_timeout)

        # Artifact state guarded by one condition: aligner snapshot,
        # generation counter, swap flag and the in-flight batch count.
        self._state = threading.Condition()
        self._aligner = aligner
        self._generation = 1
        self._fingerprint = aligner.decode_fingerprint()
        self._num_source = self._prewarm(aligner)
        self._swap_pending = False
        self._inflight = 0
        self._closed = False
        #: Lazily built incremental wrapper reused across ingest() calls
        #: (it carries the warm IVF quantiser and the cached decode table).
        self._incremental = None
        #: Serialises ingest(): the lazy wrapper build, the delta fold-in
        #: and the promotion run as one unit per call.
        self._ingest_lock = threading.Lock()

        self._metrics = threading.Lock()
        self._requests = 0
        self._cache_only_requests = 0
        self._batches = 0
        self._batched_requests = 0
        self._decoded_rows = 0
        self._timeouts = 0
        self._overloads = 0
        self._swaps = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_artifact(cls, directory, *, mmap: bool = True,
                      **kwargs) -> "ServingEngine":
        """Load an artifact directory (memory-mapped by default) and serve it."""
        return cls(Aligner.load(Path(directory), mmap=mmap), **kwargs)

    @staticmethod
    def _prewarm(aligner: Aligner) -> int:
        """Fit caches the hot path needs before traffic hits the aligner."""
        aligner.row_candidates()
        source_norm, _ = aligner._normalized_states()
        return source_norm[0].shape[0]

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _cache_key(self, generation: int, fingerprint: str, k: int,
                   entity: int):
        return (generation, fingerprint, k, entity)

    def _lookup(self, entity_ids, k: int | None):
        """Validate one request and look its rows up in the result cache.

        Returns ``(entity_ids, k, table)``: ``table`` is the assembled
        answer when every row is cache-resident, else ``None``.
        """
        with self._state:
            if self._closed:
                raise ServingError("shutdown", "the serving engine is closed")
            generation = self._generation
            fingerprint = self._fingerprint
            num_source = self._num_source
            default_k = self._aligner.spec.decode.k
        k = int(k) if k is not None else default_k
        entity_ids = np.asarray(entity_ids, dtype=np.int64).reshape(-1)
        # Python ints: cheaper than numpy reductions on the small requests
        # that dominate serving traffic, and the cache keys' own type.
        ids = entity_ids.tolist()
        if k <= 0:
            raise ServingError("bad_request", "k must be positive")
        if not ids:
            raise ServingError("bad_request", "entities must be non-empty")
        if min(ids) < 0 or max(ids) >= num_source:
            raise ServingError(
                "bad_request",
                f"entity ids must lie in [0, {num_source}), got "
                f"{min(ids)}..{max(ids)}")

        rows = []
        for entity in ids:
            value = self._cache.get(
                self._cache_key(generation, fingerprint, k, entity))
            if value is None:
                break
            rows.append(value)
        cached = len(rows) == len(entity_ids)
        with self._metrics:
            self._requests += 1
            self._cache_only_requests += cached
        return entity_ids, k, (self._assemble(entity_ids, rows) if cached
                               else None)

    def submit(self, entity_ids, k: int | None = None) -> PendingRequest:
        """Validate and enqueue one request; returns its pending handle.

        Fully cache-resident requests complete synchronously on the
        calling thread — the decoder and the batcher are never touched.
        """
        entity_ids, k, table = self._lookup(entity_ids, k)
        request = PendingRequest(entity_ids, k)
        if table is not None:
            request.complete(table)
        else:
            self._batcher.submit(request)
        return request

    def rank(self, entity_ids, k: int | None = None,
             timeout: float | None = None) -> TopKAlignment:
        """Blocking rank: submit, await the batch, raise structured errors.

        A fully cache-resident request returns straight from the cache
        lookup, without a pending handle to wait on.
        """
        entity_ids, k, table = self._lookup(entity_ids, k)
        if table is not None:
            return table
        request = PendingRequest(entity_ids, k)
        self._batcher.submit(request)
        timeout = self.default_timeout if timeout is None else float(timeout)
        if not request.event.wait(timeout):
            request.abandoned = True
            with self._metrics:
                self._timeouts += 1
            raise ServingTimeout(
                f"rank of {request.num_entities} entities missed its "
                f"{timeout:g}s deadline")
        if request.error is not None:
            raise request.error
        return request.result

    @staticmethod
    def _assemble(entity_ids: np.ndarray, rows: list) -> TopKAlignment:
        # np.array over the equal-length row arrays: the same stacked copy
        # as np.stack, at a fraction of its per-call overhead.
        return TopKAlignment(
            source_ids=entity_ids,
            target_ids=np.array([row[0] for row in rows]),
            scores=np.array([row[1] for row in rows]),
            approximate=rows[0][2],
        )

    # ------------------------------------------------------------------
    # Batch execution (micro-batcher -> worker pool)
    # ------------------------------------------------------------------
    def _dispatch(self, batch: list) -> None:
        if not self._pool.submit(lambda: self._execute(batch)):
            error = ServingError(
                "overloaded",
                f"work queue is full ({self._pool.num_workers} workers); "
                "retry later or raise queue_size")
            with self._metrics:
                self._overloads += len(batch)
            for request in batch:
                request.fail(error)

    def _execute(self, batch: list) -> None:
        # Hold new batches out while a swap drains, then pin one
        # consistent (aligner, generation) snapshot for the whole batch.
        with self._state:
            while self._swap_pending:
                self._state.wait()
            aligner = self._aligner
            generation = self._generation
            fingerprint = self._fingerprint
            self._inflight += 1
        try:
            if self._faults is not None:
                self._faults.maybe_kill_worker()
            live = [request for request in batch if not request.abandoned]
            by_k: dict[int, list] = {}
            for request in live:
                by_k.setdefault(request.k, []).append(request)
            for k, requests in by_k.items():
                try:
                    self._decode_group(aligner, generation, fingerprint, k,
                                       requests)
                except ServingError as error:
                    for request in requests:
                        request.fail(error)
                except Exception as error:  # decode bug: fail, don't wedge
                    failure = ServingError("internal",
                                           f"{type(error).__name__}: {error}")
                    for request in requests:
                        request.fail(failure)
            with self._metrics:
                self._batches += 1
                self._batched_requests += len(live)
        except WorkerDeath:
            # The worker thread is going down (fault injection / crash).
            # Fail every request that has not been answered yet with a
            # structured code — a client must never hang on a dead worker
            # — then let the death propagate to the pool, which respawns.
            death = ServingError(
                "worker_died", "the decode worker died mid-batch; retry")
            for request in batch:
                if not request.event.is_set():
                    request.fail(death)
            raise
        finally:
            with self._state:
                self._inflight -= 1
                self._state.notify_all()

    def _decode_group(self, aligner: Aligner, generation: int,
                      fingerprint: str, k: int, requests: list) -> None:
        """Decode the union of uncached rows once; scatter to each request."""
        rows: dict[int, tuple] = {}
        missing: list[int] = []
        for request in requests:
            for entity in request.entity_ids:
                entity = int(entity)
                if entity in rows or entity in missing:
                    continue
                value = self._cache.get(
                    self._cache_key(generation, fingerprint, k, entity))
                if value is None:
                    missing.append(entity)
                else:
                    rows[entity] = value
        if missing:
            if self._faults is not None:
                self._faults.before_decode()
            table = aligner.rank_rows(np.asarray(missing, dtype=np.int64), k)
            for index, entity in enumerate(missing):
                value = (table.target_ids[index], table.scores[index],
                         table.approximate)
                rows[entity] = value
                self._cache.put(
                    self._cache_key(generation, fingerprint, k, entity), value)
            with self._metrics:
                self._decoded_rows += len(missing)
        for request in requests:
            if request.abandoned:
                continue
            request.complete(self._assemble(
                request.entity_ids,
                [rows[int(entity)] for entity in request.entity_ids]))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def swap(self, aligner: Aligner) -> dict:
        """Hot-swap to ``aligner``: pre-warm, drain in-flight, switch, evict.

        The replacement's candidate structure and normalised tables are
        built *before* traffic is held, so the pause is only as long as
        the in-flight batches.  Queued-but-unstarted batches execute
        against the new artifact — each request is served entirely by one
        artifact version either way.
        """
        num_source = self._prewarm(aligner)
        fingerprint = aligner.decode_fingerprint()
        # An externally supplied artifact invalidates the incremental
        # wrapper (its cached states/index describe the previous lineage).
        if (self._incremental is not None
                and self._incremental.aligner is not aligner):
            self._incremental = None
        with self._state:
            if self._closed:
                raise ServingError("shutdown", "the serving engine is closed")
            self._swap_pending = True
            while self._inflight > 0:
                self._state.wait()
            self._aligner = aligner
            self._generation += 1
            self._fingerprint = fingerprint
            self._num_source = num_source
            self._swap_pending = False
            generation = self._generation
            self._state.notify_all()
        evicted = self._cache.clear()
        with self._metrics:
            self._swaps += 1
        return {"generation": generation, "fingerprint": fingerprint,
                "evicted": evicted}

    def swap_artifact(self, directory, *, mmap: bool = True) -> dict:
        """Load a new artifact directory and :meth:`swap` to it."""
        return self.swap(Aligner.load(Path(directory), mmap=mmap))

    def ingest(self, delta, *, directory=None) -> dict:
        """Fold a delta batch into the served artifact and promote it live.

        The updated artifact is built entirely off to the side — warm
        encode, IVF inserts and the selective re-decode all run on the
        caller's thread against a private
        :class:`~repro.incremental.IncrementalAligner`, while the engine
        keeps serving the current generation — then promoted through the
        same prewarm–drain–:meth:`swap` path as any other artifact, so no
        request ever observes a mixed-generation decode.  ``directory``
        optionally persists the updated artifact.  Concurrent calls are
        serialised: each one folds its delta into the artifact the
        previous one promoted.
        """
        from ..incremental import IncrementalAligner

        with self._ingest_lock:
            incremental = self._incremental
            if incremental is None:
                with self._state:
                    aligner = self._aligner
                incremental = self._incremental = IncrementalAligner(aligner)
            report = incremental.ingest(delta, directory=directory)
            payload = report.to_dict()
            if report.noop:
                # Bit-exact no-op: nothing to promote, the served artifact
                # already answers every query the updated one would.
                with self._state:
                    payload.update(generation=self._generation,
                                   fingerprint=self._fingerprint, evicted=0)
                return payload
            payload.update(self.swap(report.aligner))
            return payload

    @property
    def generation(self) -> int:
        with self._state:
            return self._generation

    def stats(self) -> dict:
        """Counter snapshot across the engine, its cache and its workers."""
        with self._state:
            payload = {
                "generation": self._generation,
                "fingerprint": self._fingerprint,
                "num_source": self._num_source,
                "default_k": self._aligner.spec.decode.k,
            }
        with self._metrics:
            payload.update({
                "requests": self._requests,
                "cache_only_requests": self._cache_only_requests,
                "batches": self._batches,
                "batched_requests": self._batched_requests,
                "decoded_rows": self._decoded_rows,
                "timeouts": self._timeouts,
                "overloads": self._overloads,
                "swaps": self._swaps,
            })
        payload["cache"] = self._cache.stats()
        payload["worker_failures"] = self._pool.task_failures
        payload["worker_deaths"] = self._pool.worker_deaths
        if self._faults is not None:
            payload["faults"] = self._faults.stats()
        return payload

    def close(self) -> None:
        """Stop accepting requests, drain the batcher and the pool."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        self._batcher.close()
        self._pool.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
