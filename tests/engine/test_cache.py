"""Unit tests for the engine's bounded LRU cache."""

import numpy as np
import pytest

from repro.engine import EngineConfig, ExecutionEngine, LRUCache
from repro.engine.cache import approx_nbytes
from repro.sim import PMF


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == 0.5

    def test_eviction_respects_bound(self):
        cache = LRUCache(3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7
        # Only the three most recent entries survive.
        assert 9 in cache and 8 in cache and 7 in cache
        assert 0 not in cache

    def test_lru_ordering(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" so "b" is the LRU entry
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache

    def test_zero_size_disables_storage(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
        assert cache.stats.misses == 1

    def test_put_existing_key_updates_without_eviction(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert cache.stats.evictions == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_empty_hit_rate_is_zero(self):
        assert LRUCache(2).stats.hit_rate == 0.0


class TestByteBound:
    def test_approx_nbytes_understands_payloads(self):
        state = np.zeros(2**6, dtype=complex)
        assert approx_nbytes(state) >= state.nbytes
        pmf = PMF.uniform(6)
        assert approx_nbytes(pmf) >= pmf.probs.nbytes

    def test_byte_budget_evicts_before_entry_cap(self):
        # Each value is ~8 KiB; a 20 KiB budget holds only two of them
        # even though the entry cap would allow 100.
        cache = LRUCache(100, max_bytes=20 * 1024)
        for i in range(5):
            cache.put(i, np.zeros(1024))
        assert len(cache) == 2
        assert cache.stats.evictions == 3
        assert 4 in cache and 3 in cache
        assert cache.bytes <= 20 * 1024

    def test_oversized_value_not_retained(self):
        cache = LRUCache(4, max_bytes=1024)
        cache.put("big", np.zeros(1024))  # 8 KiB > the whole budget
        assert "big" not in cache
        assert cache.bytes == 0

    def test_oversized_value_does_not_flush_smaller_entries(self):
        cache = LRUCache(8, max_bytes=8 * 1024)
        cache.put("a", np.zeros(256))
        cache.put("b", np.zeros(256))
        cache.put("big", np.zeros(4096))  # 32 KiB > the whole budget
        assert "big" not in cache
        assert "a" in cache and "b" in cache
        assert cache.stats.evictions == 0

    def test_oversized_replacement_drops_stale_value(self):
        cache = LRUCache(8, max_bytes=8 * 1024)
        cache.put("a", np.zeros(256))
        cache.put("a", np.zeros(4096))  # replacement exceeds the budget
        assert "a" not in cache
        assert cache.bytes == 0

    def test_replacing_key_updates_byte_accounting(self):
        cache = LRUCache(4, max_bytes=1 << 20)
        cache.put("a", np.zeros(1024))
        before = cache.bytes
        cache.put("a", np.zeros(2048))
        assert cache.bytes > before
        cache.clear()
        assert cache.bytes == 0

    def test_zero_max_bytes_is_unbounded(self):
        cache = LRUCache(8, max_bytes=0)
        for i in range(8):
            cache.put(i, np.zeros(4096))
        assert len(cache) == 8
        assert cache.stats.evictions == 0

    def test_negative_max_bytes_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(4, max_bytes=-1)


class TestEngineByteBudgets:
    def test_auto_budget_scales_with_device_width(self, backend):
        engine = ExecutionEngine(backend)
        n = backend.device.n_qubits
        expected = max(16 * 2**20, 8 * 2**n * 32)
        assert engine._pmf_cache.max_bytes == expected
        assert engine._state_cache.max_bytes == max(
            16 * 2**20, 16 * 2**n * 16
        )

    def test_explicit_budget_overrides_auto(self, backend):
        engine = ExecutionEngine(backend, EngineConfig(cache_bytes=4096))
        assert engine._pmf_cache.max_bytes == 4096
        # The state cache always keeps its automatic budget.
        n = backend.device.n_qubits
        assert engine._state_cache.max_bytes == max(
            16 * 2**20, 16 * 2**n * 16
        )
        unbounded = ExecutionEngine(backend, EngineConfig(cache_bytes=0))
        assert unbounded._pmf_cache.max_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            EngineConfig(cache_bytes=-1)

    def test_stats_surface_byte_budgets(self, backend):
        engine = ExecutionEngine(backend, EngineConfig(cache_bytes=1 << 20))
        stats = engine.stats
        assert stats.pmf_cache.max_bytes == 1 << 20
        assert stats.pmf_cache.bytes == 0
