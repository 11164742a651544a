"""ServingEngine semantics: bit-identity, caching, timeouts, hot-swap."""

import threading
import time

import numpy as np
import pytest

from repro.pipeline import Aligner
from repro.serve import (
    MicroBatcher,
    ServingEngine,
    ServingError,
    ServingTimeout,
    WorkerPool,
)


@pytest.fixture()
def engine(artifacts):
    v1, _, _, _ = artifacts
    engine = ServingEngine.from_artifact(v1, mmap=True, batch_window=0.002,
                                         max_batch=64, pool_size=2,
                                         cache_size=256)
    yield engine
    engine.close()


class TestBitIdentity:
    def test_micro_batched_equals_sequential(self, artifacts, engine):
        v1, _, expected, _ = artifacts
        sequential = Aligner.load(v1)
        errors = []

        def client(index):
            try:
                ids = [(index * 5 + offset) % 40 for offset in range(3)]
                served = engine.rank(ids, 5, timeout=30)
                direct = sequential.rank(ids, 5)
                assert np.array_equal(served.target_ids, direct.target_ids)
                assert np.array_equal(served.scores, direct.scores)
                assert np.array_equal(served.target_ids, expected.target_ids[ids])
                assert np.array_equal(served.scores, expected.scores[ids])
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(32)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        stats = engine.stats()
        # coalescing actually happened: fewer batches than requests
        assert stats["batches"] < stats["requests"]

    def test_cache_served_results_are_bit_identical(self, artifacts, engine):
        _, _, expected, _ = artifacts
        ids = [4, 9, 21]
        first = engine.rank(ids, 5)
        before = engine.stats()
        second = engine.rank(ids, 5)
        after = engine.stats()
        assert np.array_equal(first.target_ids, second.target_ids)
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(second.scores, expected.scores[ids])
        # the repeat was answered from the cache, without a decode
        assert after["cache_only_requests"] == before["cache_only_requests"] + 1
        assert after["decoded_rows"] == before["decoded_rows"]

    def test_mixed_k_requests_in_one_window(self, artifacts, engine):
        _, _, expected, _ = artifacts
        table3 = engine.rank([1, 2], 3)
        table5 = engine.rank([1, 2], 5)
        assert table3.k == 3 and table5.k == 5
        assert np.array_equal(table5.scores, expected.scores[[1, 2]])
        assert np.array_equal(table3.scores, expected.scores[[1, 2], :3])


class TestValidationAndErrors:
    def test_out_of_range_is_structured_bad_request(self, engine):
        with pytest.raises(ServingError) as info:
            engine.rank([10_000], 5)
        assert info.value.code == "bad_request"

    def test_empty_request_rejected(self, engine):
        with pytest.raises(ServingError, match="non-empty"):
            engine.rank([], 5)

    def test_non_positive_k_rejected(self, engine):
        with pytest.raises(ServingError, match="k must be positive"):
            engine.rank([1], 0)

    def test_timeout_is_structured_and_worker_survives(self, artifacts, engine):
        _, _, expected, _ = artifacts
        # Stall the decoder so the deadline passes while the batch waits.
        original = Aligner.rank_rows
        release = threading.Event()

        def stalled(self, entity_ids, k=None):
            release.wait(5.0)
            return original(self, entity_ids, k)

        Aligner.rank_rows = stalled
        try:
            with pytest.raises(ServingTimeout) as info:
                engine.rank([30], 5, timeout=0.05)
            assert info.value.code == "timeout"
        finally:
            release.set()
            Aligner.rank_rows = original
        # The worker survived the abandoned batch and still serves.
        table = engine.rank([31], 5, timeout=30)
        assert np.array_equal(table.scores, expected.scores[[31]])
        assert engine.stats()["timeouts"] == 1

    def test_decode_exception_fails_requests_not_workers(self, artifacts,
                                                         engine):
        _, _, expected, _ = artifacts
        original = Aligner.rank_rows

        def broken(self, entity_ids, k=None):
            raise RuntimeError("injected decode failure")

        Aligner.rank_rows = broken
        try:
            with pytest.raises(ServingError) as info:
                engine.rank([32], 5, timeout=30)
            assert info.value.code == "internal"
        finally:
            Aligner.rank_rows = original
        table = engine.rank([33], 5, timeout=30)
        assert np.array_equal(table.scores, expected.scores[[33]])

    def test_closed_engine_refuses_requests(self, artifacts):
        v1, _, _, _ = artifacts
        engine = ServingEngine.from_artifact(v1)
        engine.close()
        with pytest.raises(ServingError) as info:
            engine.rank([0], 5)
        assert info.value.code == "shutdown"
        engine.close()  # idempotent


class TestHotSwap:
    def test_swap_switches_results_and_evicts_cache(self, artifacts):
        v1, v2, expected1, expected2 = artifacts
        with ServingEngine.from_artifact(v1, batch_window=0.001) as engine:
            before = engine.rank([5, 6], 5)
            assert np.array_equal(before.scores, expected1.scores[[5, 6]])
            assert len(engine._cache) > 0
            info = engine.swap_artifact(v2)
            assert info["generation"] == 2
            assert info["evicted"] > 0
            assert len(engine._cache) == 0
            after = engine.rank([5, 6], 5)
            assert np.array_equal(after.scores, expected2.scores[[5, 6]])
            assert engine.stats()["swaps"] == 1

    def test_concurrent_swap_never_serves_torn_results(self, artifacts):
        v1, v2, expected1, expected2 = artifacts
        with ServingEngine.from_artifact(v1, batch_window=0.001,
                                         pool_size=4) as engine:
            stop = threading.Event()
            torn, errors = [], []
            ids = [1, 2, 3, 4]

            def hammer():
                while not stop.is_set():
                    try:
                        table = engine.rank(ids, 5, timeout=30)
                    except Exception as error:  # pragma: no cover
                        errors.append(error)
                        return
                    from_v1 = np.array_equal(table.scores, expected1.scores[ids])
                    from_v2 = np.array_equal(table.scores, expected2.scores[ids])
                    if not (from_v1 or from_v2):
                        torn.append(table.scores)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            time.sleep(0.03)
            engine.swap(Aligner.load(v2, mmap=True))
            time.sleep(0.03)
            engine.swap(Aligner.load(v1, mmap=True))
            time.sleep(0.03)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors, errors[:3]
            # every response came wholly from one artifact version
            assert not torn
            assert engine.generation == 3
            final = engine.rank(ids, 5)
            assert np.array_equal(final.scores, expected1.scores[ids])


class TestIngestPromotion:
    def test_ingest_promotes_atomically_under_load(self, artifacts):
        """Concurrent rank() during ingest never sees a mixed generation.

        Every response must come wholly from the pre-ingest artifact or
        wholly from the promoted one — the prewarm–drain–swap path builds
        the updated aligner off to the side and switches under the same
        barrier swap_artifact uses.
        """
        from repro.incremental import DeltaBatch, SideDelta

        v1, _, expected1, _ = artifacts
        with ServingEngine.from_artifact(v1, batch_window=0.001,
                                         pool_size=4) as engine:
            ids = [1, 2, 3, 4]
            before = engine.rank(ids, 5)
            assert np.array_equal(before.scores, expected1.scores[ids])
            assert len(engine._cache) > 0
            # pay the lazy IncrementalAligner warm-start (model rebuild +
            # quantiser re-derivation) before the load starts
            assert engine.ingest(DeltaBatch())["noop"]
            n_s, n_t = Aligner.load(v1).topk(5).shape

            stop = threading.Event()
            observed, errors = [], []

            def hammer():
                while not stop.is_set():
                    try:
                        observed.append(engine.rank(ids, 5, timeout=30).scores)
                    except Exception as error:  # pragma: no cover
                        errors.append(error)
                        return
                    time.sleep(0.001)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.03)
            info = engine.ingest(DeltaBatch(
                source=SideDelta(entity_names=["s-live"],
                                 relation_triples=[(n_s, 0, 1)]),
                target=SideDelta(entity_names=["t-live"],
                                 relation_triples=[(n_t, 0, 2)])))
            time.sleep(0.03)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors, errors[:3]
            assert info["generation"] == 2
            assert info["rows_decoded"] > 0

            after = engine.rank(ids, 5)
            torn = [scores for scores in observed
                    if not (np.array_equal(scores, expected1.scores[ids])
                            or np.array_equal(scores, after.scores))]
            assert not torn
            # the promoted artifact serves the extended id range
            grown = engine.rank([n_s], 5)
            assert grown.scores.shape == (1, 5)

    def test_concurrent_ingests_are_serialised(self, artifacts, monkeypatch):
        """Two threads ingesting at once fold their deltas one after the other.

        Both race for the lazy incremental build; a slowed-down ingest
        makes any overlap between the two folds observable.
        """
        from repro.incremental import DeltaBatch, IncrementalAligner, SideDelta

        original = IncrementalAligner.ingest
        guard = threading.Lock()
        active, overlaps = [0], [0]

        def slow_ingest(self, delta, **kwargs):
            with guard:
                active[0] += 1
                overlaps[0] += active[0] > 1
            try:
                time.sleep(0.2)
                return original(self, delta, **kwargs)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(IncrementalAligner, "ingest", slow_ingest)
        v1, _, _, _ = artifacts
        # Each delta only links existing entities, so both are valid in
        # either order.
        deltas = [DeltaBatch(
            source=SideDelta(relation_triples=[(1 + index, 0, 20 + index)]),
            target=SideDelta(relation_triples=[(3 + index, 0, 30 + index)]))
            for index in range(2)]
        with ServingEngine.from_artifact(v1, batch_window=0.001) as engine:
            start = threading.Barrier(len(deltas))
            payloads, errors = [], []

            def ingest(delta):
                try:
                    start.wait(timeout=30)
                    payloads.append(engine.ingest(delta))
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [threading.Thread(target=ingest, args=(delta,))
                       for delta in deltas]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert not errors, errors
            assert overlaps[0] == 0
            assert engine.generation == 3
            assert sorted(payload["generation"] for payload in payloads) == [2, 3]
            final = engine._incremental.aligner.align(5)
            served = engine.rank(np.arange(len(final.source_ids)), 5)
            assert np.array_equal(served.target_ids, final.target_ids)
            assert np.array_equal(served.scores, final.scores)

    def test_empty_delta_ingest_is_a_noop(self, artifacts):
        from repro.incremental import DeltaBatch

        v1, _, expected1, _ = artifacts
        with ServingEngine.from_artifact(v1, batch_window=0.001) as engine:
            before = engine.rank([7, 8], 5)
            info = engine.ingest(DeltaBatch())
            assert info["generation"] == 1
            assert info["evicted"] == 0
            assert engine.stats()["swaps"] == 0
            after = engine.rank([7, 8], 5)
            assert np.array_equal(before.scores, after.scores)
            assert np.array_equal(after.scores, expected1.scores[[7, 8]])


class TestBackpressure:
    def test_full_queue_fails_fast_with_overloaded(self, artifacts):
        v1, _, _, _ = artifacts
        engine = ServingEngine.from_artifact(v1, batch_window=0.0,
                                             pool_size=1, queue_size=1)
        block = threading.Event()
        original = Aligner.rank_rows

        def stalled(self, entity_ids, k=None):
            block.wait(5.0)
            return original(self, entity_ids, k)

        Aligner.rank_rows = stalled
        try:
            # one executing batch + one queued batch, then overflow
            pending = [engine.submit([index], 5) for index in range(8)]
            deadline = time.monotonic() + 5.0
            overloaded = []
            while time.monotonic() < deadline and not overloaded:
                overloaded = [request for request in pending
                              if request.error is not None
                              and request.error.code == "overloaded"]
                time.sleep(0.005)
            assert overloaded, "expected overloaded failures with a full queue"
        finally:
            block.set()
            Aligner.rank_rows = original
            engine.close()


class TestBuildingBlocks:
    def test_micro_batcher_coalesces_within_window(self):
        batches = []

        class Item:
            num_entities = 1

        batcher = MicroBatcher(batches.append, window=0.05, max_batch=8)
        items = [Item() for _ in range(4)]
        for item in items:
            batcher.submit(item)
        batcher.close()
        assert sum(len(batch) for batch in batches) == 4
        assert len(batches) == 1  # all four arrived within one window

    def test_micro_batcher_respects_max_batch(self):
        batches = []

        class Item:
            num_entities = 3

        batcher = MicroBatcher(batches.append, window=0.05, max_batch=4)
        for _ in range(4):
            batcher.submit(Item())
        batcher.close()
        assert sum(len(batch) for batch in batches) == 4
        assert all(len(batch) <= 2 for batch in batches)  # 2 items hit 6 >= 4

    def test_worker_pool_survives_task_exceptions(self):
        pool = WorkerPool(num_workers=1, queue_size=4)
        done = threading.Event()

        def failing():
            raise RuntimeError("boom")

        assert pool.submit(failing)
        assert pool.submit(done.set)
        assert done.wait(5.0)
        pool.close()
        assert pool.task_failures == 1
        assert not pool.submit(done.set)  # closed pools refuse work
