"""Thread-safe result cache for served rank rows.

Keys are ``(generation, fingerprint, k, entity_id)`` tuples — the engine's
artifact generation and the aligner's decode fingerprint together pin the
exact decode configuration, so a cached row can never outlive the
parameters that produced it (hot-swap bumps the generation and clears the
cache).  Values are per-entity ``(target_ids, scores, approximate)``
triples; serving a hot entity is then a dictionary lookup instead of a
decode.

Admission is TinyLFU-style: a count-min sketch tracks access frequencies
and, when the cache is full, a new key is only admitted if its estimated
frequency is at least that of the least recently used victim it would
displace — so a flood of one-shot keys (an adversarial scan, a cold crawl)
cannot wash the hot working set out of the cache.  Below capacity every
insert is admitted, and overflow evicts in LRU order.
"""

from __future__ import annotations

import functools
import threading
import zlib
from collections import OrderedDict

import numpy as np

__all__ = ["FrequencySketch", "ResultCache"]


class FrequencySketch:
    """Count-min sketch with periodic halving (TinyLFU-style aging).

    ``touch`` bumps a key's estimate across ``depth`` hashed rows;
    ``estimate`` reads the row minimum.  After every ``sample_size``
    touches all counters are halved, so the sketch tracks *recent*
    popularity and one-time keys decay back toward zero instead of
    accumulating forever.  Hashing is seeded and deterministic — the same
    access sequence always yields the same estimates.
    """

    def __init__(self, width: int = 1024, depth: int = 4,
                 sample_size: int | None = None, seed: int = 0):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = int(width)
        self.depth = int(depth)
        self.sample_size = (10 * self.width if sample_size is None
                            else int(sample_size))
        rng = np.random.default_rng(seed)
        # Odd multipliers for a multiply-shift family; one row per depth.
        self._salts = tuple(
            int(salt) | 1
            for salt in rng.integers(1, 2**31, size=self.depth))
        # Plain int lists: a served cache hit touches ``depth`` counters,
        # and list items update far cheaper than numpy scalars.
        self._tables = [[0] * self.width for _ in range(self.depth)]
        self._touches = 0
        # Hashing a key costs more than updating its counters, and served
        # traffic repeats keys: memoise each key's row indices (bounded).
        self._indices = functools.lru_cache(maxsize=4 * self.width)(
            self._row_indices)

    def _row_indices(self, key) -> list[int]:
        # CRC32 of the key's repr: stable across processes (unlike str
        # hash randomisation).  Each row remixes the digest with its own
        # odd salt and folds the high bits back in before reducing, so
        # two distinct digests collide per-row independently instead of
        # colliding in every row at once.
        digest = zlib.crc32(repr(key).encode())
        indices = []
        for salt in self._salts:
            mixed = (digest * salt) & 0xFFFFFFFF
            indices.append(((mixed >> 15) ^ mixed) % self.width)
        return indices

    def touch(self, key) -> None:
        """Record one access to ``key`` (ages the sketch periodically)."""
        for table, index in zip(self._tables, self._indices(key)):
            table[index] += 1
        self._touches += 1
        if self._touches >= self.sample_size:
            for table in self._tables:
                table[:] = [count >> 1 for count in table]
            self._touches = 0

    def estimate(self, key) -> int:
        """The (over-)estimated recent access count of ``key``."""
        return min(table[index]
                   for table, index in zip(self._tables, self._indices(key)))


class ResultCache:
    """Bounded mapping with hit/miss/eviction/rejection counters.

    Inserts into a full cache are gated through a :class:`FrequencySketch`
    (see the module docstring).
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()
        self._sketch = FrequencySketch()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Inserts refused by the frequency gate (key colder than victim).
        self.rejections = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key):
        """The cached value (refreshing its recency) or ``None``."""
        with self._lock:
            self._sketch.touch(key)
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        """Insert (or refresh) ``key``, evicting the least recent overflow.

        A *new* key arriving at a full cache is only admitted when the
        sketch estimates it at least as popular as the LRU victim it would
        displace; otherwise the insert is counted in ``rejections`` and
        dropped.  Refreshes of resident keys are always applied.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.max_entries:
                victim = next(iter(self._entries))
                if (self._sketch.estimate(key)
                        < self._sketch.estimate(victim)):
                    self.rejections += 1
                    return
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def keys(self) -> list:
        """Current keys, least recent first (tests inspect eviction order)."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> int:
        """Drop every entry (hot-swap invalidation); returns the count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            return dropped

    def stats(self) -> dict:
        """Counter snapshot; ``hit_rate`` is over all lookups so far."""
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "rejections": self.rejections,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
            }
