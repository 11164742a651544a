"""Open-loop serving traffic: Zipf-distributed entities on a Poisson schedule.

Independent users make an open loop: requests are sent when they are due,
whether or not earlier ones have been answered, so a slow engine builds a
queue instead of receiving less load.  Every latency is measured from the
request's due time, which charges a stall to every request it delays, and
the generator reports how late it ran behind its own schedule.

Completion times come from a probe on ``PendingRequest.complete`` and
``PendingRequest.fail``: the generator never blocks on a reply, and cache
hits complete inside ``ServingEngine.submit`` itself.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve import PendingRequest, ServingError

__all__ = ["ZipfEntities", "CompletionProbe", "PhaseResult", "run_phase"]

#: How long a phase waits for its last replies; the engine's own default
#: request timeout.
REPLY_TIMEOUT_S = 30.0


class ZipfEntities:
    """Entity ids with Zipf(``s``) popularity over a seeded permutation."""

    def __init__(self, num_entities: int, s: float, rng: np.random.Generator):
        self.order = rng.permutation(num_entities)
        weights = 1.0 / np.arange(1, num_entities + 1) ** s
        self._cdf = np.cumsum(weights / weights.sum())

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        ranks = np.searchsorted(self._cdf, rng.random(count))
        return self.order[np.minimum(ranks, len(self.order) - 1)]


class CompletionProbe:
    """Records when each :class:`PendingRequest` is completed or failed."""

    def __init__(self):
        self.done: dict[int, float] = {}
        complete, fail = PendingRequest.complete, PendingRequest.fail
        done = self.done

        def timed_complete(request, result):
            done[id(request)] = time.perf_counter()
            complete(request, result)

        def timed_fail(request, error):
            done[id(request)] = time.perf_counter()
            fail(request, error)

        PendingRequest.complete = timed_complete
        PendingRequest.fail = timed_fail


@dataclass
class PhaseResult:
    """One phase of traffic: what was sent, answered and how late."""

    rate: float
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)
    backlog_end: int = 0
    #: ``(entity, TopKAlignment)`` for every answered request.
    answers: list = field(default_factory=list)

    @classmethod
    def combined(cls, results: list) -> "PhaseResult":
        """Several phases at one rate pooled into one."""
        pooled = cls(rate=results[0].rate if results else 0.0)
        for result in results:
            pooled.sent += result.sent
            pooled.succeeded += result.succeeded
            pooled.failed += result.failed
            pooled.latencies_ms += result.latencies_ms
            pooled.late_ms += result.late_ms
            pooled.backlog_end = max(pooled.backlog_end, result.backlog_end)
            pooled.answers += result.answers
        return pooled

    def growing_backlog(self) -> bool:
        """More requests outstanding at the last send than a steady queue holds."""
        return self.backlog_end > max(10, 0.02 * self.sent)

    def p(self, q: float) -> float:
        """``q``-th percentile latency from due time (ms)."""
        return float(np.percentile(self.latencies_ms, q)) if self.latencies_ms else 0.0

    def late_p99(self) -> float:
        """p99 of how late the generator sent behind schedule (ms)."""
        return float(np.percentile(self.late_ms, 99)) if self.late_ms else 0.0


def run_phase(engine, probe: CompletionProbe, entities: np.ndarray,
              rate: float, rng: np.random.Generator, k: int,
              stop: threading.Event | None = None) -> PhaseResult:
    """Send ``entities`` one request each at Poisson ``rate``; await replies.

    ``stop`` ends the schedule early (the ``ingest`` reader runs until the
    writer finishes).  Requests still unanswered ``REPLY_TIMEOUT_S`` after
    the last send count as failed.
    """
    result = PhaseResult(rate=rate)
    gaps = rng.exponential(1.0 / rate, len(entities))
    start = time.perf_counter()
    dues = start + np.cumsum(gaps)
    pending = []
    last_send = start
    for entity, due in zip(entities, dues):
        if stop is not None and stop.is_set():
            break
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        last_send = time.perf_counter()
        result.late_ms.append((last_send - due) * 1e3)
        result.sent += 1
        try:
            pending.append((int(entity), float(due),
                            engine.submit([int(entity)], k)))
        except ServingError:
            result.failed += 1
    deadline = time.perf_counter() + REPLY_TIMEOUT_S
    for entity, due, request in pending:
        if not request.event.wait(max(0.0, deadline - time.perf_counter())):
            result.failed += 1
            continue
        if request.error is not None:
            result.failed += 1
            continue
        result.succeeded += 1
        result.latencies_ms.append((probe.done[id(request)] - due) * 1e3)
        result.answers.append((entity, request.result))
    result.backlog_end = sum(
        1 for _, _, request in pending
        if probe.done.get(id(request), np.inf) > last_send)
    for _, _, request in pending:
        probe.done.pop(id(request), None)
    return result
