"""Alignment-as-a-service: long-lived serving over persisted Aligner artifacts.

One process loads an artifact once and answers many concurrent
``rank(entity_ids, k)`` queries fast:

* :class:`ServingEngine` — owns the loaded
  :class:`~repro.pipeline.Aligner`; a micro-batcher coalesces requests
  arriving within a small window into one row-subset decode over the
  union of rows, a bounded worker pool executes batches, and a result
  cache (frequency-sketch admission) serves hot entities
  without touching the decoder.  Results are bit-identical to direct
  ``Aligner.rank`` calls.
* :class:`ServingServer` / :class:`ServingClient` — a newline-delimited
  JSON protocol (the ``repro serve`` CLI speaks it over stdin/stdout)
  and its in-process client with bounded, seeded retry of transient
  failures.
* Graceful lifecycle — artifact hot-swap that drains in-flight batches
  before an atomic switch, per-request timeouts with structured errors,
  and clean shutdown.
* Fault tolerance under test — a seeded :class:`FaultInjector` drives
  decode failures, latency and worker death through the real decode
  path; the pool respawns dead workers and every affected request gets
  a structured error, never a torn response.
"""

from .batching import MicroBatcher
from .cache import FrequencySketch, ResultCache
from .engine import PendingRequest, ServingEngine, ServingError, ServingTimeout
from .faults import FaultInjector, WorkerDeath
from .protocol import RETRYABLE_CODES, ServingClient, ServingServer
from .workers import WorkerPool

__all__ = [
    "FaultInjector",
    "FrequencySketch",
    "MicroBatcher",
    "PendingRequest",
    "RETRYABLE_CODES",
    "ResultCache",
    "ServingClient",
    "ServingEngine",
    "ServingError",
    "ServingServer",
    "ServingTimeout",
    "WorkerDeath",
    "WorkerPool",
]
