"""ResultCache: LRU order, eviction accounting, frequency admission, invalidation."""

import threading

import pytest

from repro.serve import FrequencySketch, ResultCache


class TestLRU:
    def test_eviction_follows_recency_order(self):
        cache = ResultCache(max_entries=3)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == 1          # refresh a: b is now least recent
        cache.put("d", 4)
        assert cache.keys() == ["c", "a", "d"]
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                  # refresh, not insert
        cache.put("c", 3)                   # evicts b, not a
        assert cache.get("a") == 10
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_counters_and_hit_rate(self):
        cache = ResultCache(max_entries=4)
        cache.put("x", 1)
        assert cache.get("x") == 1
        assert cache.get("y") is None
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["entries"] == 1

    def test_clear_reports_dropped_entries(self):
        cache = ResultCache(max_entries=8)
        for index in range(5):
            cache.put(index, index)
        assert cache.clear() == 5
        assert len(cache) == 0
        assert cache.get(0) is None         # post-clear lookups miss

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            ResultCache(max_entries=0)

    def test_concurrent_access_is_consistent(self):
        cache = ResultCache(max_entries=64)
        errors = []

        def worker(base):
            try:
                for index in range(200):
                    key = (base + index) % 100
                    cache.put(key, key)
                    value = cache.get(key)
                    assert value is None or value == key
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(base,))
                   for base in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 64


class TestFrequencySketch:
    def test_estimates_track_touch_counts(self):
        sketch = FrequencySketch(width=256, depth=4)
        for _ in range(7):
            sketch.touch("hot")
        sketch.touch("cold")
        assert sketch.estimate("hot") >= 7
        assert sketch.estimate("cold") >= 1
        assert sketch.estimate("hot") > sketch.estimate("cold")
        assert sketch.estimate("never-seen") == 0

    def test_aging_halves_counters(self):
        sketch = FrequencySketch(width=64, depth=2, sample_size=10)
        for _ in range(9):
            sketch.touch("key")
        assert sketch.estimate("key") == 9
        sketch.touch("key")                  # 10th touch triggers halving
        assert sketch.estimate("key") == 5

    def test_deterministic_under_seed(self):
        def estimates(seed):
            sketch = FrequencySketch(width=128, depth=4, seed=seed)
            for index in range(50):
                sketch.touch(index % 10)
            return [sketch.estimate(index) for index in range(10)]

        assert estimates(0) == estimates(0)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            FrequencySketch(width=0)


def _hot_hits_after_churn() -> tuple[int, ResultCache]:
    """Warm 8 hot keys, churn 200 one-shot keys, count surviving hot keys."""
    cache = ResultCache(max_entries=8)
    hot = [f"hot-{index}" for index in range(8)]
    for _ in range(10):
        for key in hot:
            if cache.get(key) is None:
                cache.put(key, key)
    # Adversarial one-shot churn: every key is seen exactly once, the
    # access pattern a pure-LRU cache is worst at.
    for index in range(200):
        key = f"cold-{index}"
        cache.get(key)
        cache.put(key, index)
    return sum(cache.get(key) is not None for key in hot), cache


class TestFrequencyAdmission:
    def test_hot_keys_survive_one_shot_churn(self):
        """The regression the gate exists for: under adversarial one-shot
        churn (which washes a plain-LRU cache out entirely) the
        sketch-gated cache keeps the hot working set resident."""
        sketch_hits, sketch_cache = _hot_hits_after_churn()
        assert sketch_hits == 8                  # the gate keeps it resident
        assert sketch_cache.rejections > 0

    def test_genuinely_popular_new_key_is_admitted(self):
        cache = ResultCache(max_entries=4)
        for index in range(4):
            for _ in range(5):
                if cache.get(index) is None:
                    cache.put(index, index)
        # A key hotter than the LRU victim passes the gate...
        for _ in range(8):
            cache.get("riser")
        cache.put("riser", "value")
        assert cache.get("riser") == "value"
        assert len(cache) == 4                   # ...displacing the victim

    def test_refreshing_resident_keys_is_always_allowed(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)                       # refresh despite full cache
        assert cache.get("a") == 10
        assert cache.rejections == 0

    def test_admission_below_capacity_is_unconditional(self):
        cache = ResultCache(max_entries=16)
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 10 and cache.rejections == 0

    def test_stats_report_policy_and_rejections(self):
        cache = ResultCache(max_entries=4)
        stats = cache.stats()
        assert stats["rejections"] == 0
