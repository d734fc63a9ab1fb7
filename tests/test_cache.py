"""Unit tests for the cache models."""

import random

import pytest

from repro.cache.core import (
    InfiniteCache,
    SetAssociativeCache,
    make_cache,
)
from repro.common.config import CacheConfig
from repro.common.errors import ConfigError


def small_cache(policy="lru"):
    # 4 lines, 2-way: two sets; even blocks map to set 0, odd to set 1.
    return SetAssociativeCache(
        CacheConfig(size_bytes=64, block_size=16, associativity=2, replacement=policy)
    )


class TestSetAssociativeCache:
    def test_insert_and_lookup(self):
        c = small_cache()
        assert c.insert(0, "S") is None
        line = c.lookup(0)
        assert line is not None and line.block == 0 and line.state == "S"
        assert c.lookup(2) is None
        assert 0 in c and 2 not in c

    def test_insert_existing_updates_state(self):
        c = small_cache()
        c.insert(0, "S")
        assert c.insert(0, "E", dirty=True) is None
        line = c.lookup(0)
        assert line.state == "E" and line.dirty

    def test_lru_eviction_order(self):
        c = small_cache()
        c.insert(0, "S")
        c.insert(2, "S")
        c.touch(0)  # 0 becomes most recent; victim should be 2
        victim = c.insert(4, "S")
        assert victim.block == 2
        assert c.lookup(0) is not None and c.lookup(4) is not None

    def test_fifo_ignores_touch(self):
        c = small_cache(policy="fifo")
        c.insert(0, "S")
        c.insert(2, "S")
        c.touch(0)
        victim = c.insert(4, "S")
        assert victim.block == 0  # oldest inserted, touch had no effect

    def test_random_uses_rng(self):
        cfg = CacheConfig(size_bytes=64, block_size=16, associativity=2,
                          replacement="random")
        c = SetAssociativeCache(cfg, random.Random(7))
        c.insert(0, "S")
        c.insert(2, "S")
        victim = c.insert(4, "S")
        assert victim.block in (0, 2)

    def test_sets_are_independent(self):
        c = small_cache()
        # Fill set 0 (even blocks); odd block must not evict from it.
        c.insert(0, "S")
        c.insert(2, "S")
        assert c.insert(1, "S") is None
        assert len(c) == 3

    def test_remove(self):
        c = small_cache()
        c.insert(0, "S")
        removed = c.remove(0)
        assert removed.block == 0
        assert c.remove(0) is None
        assert len(c) == 0
        # A fresh 1 MB cache (16,384 sets, none built before a fill)
        # reads as empty everywhere.
        big = SetAssociativeCache(CacheConfig(size_bytes=1 << 20, block_size=16))
        assert len(big) == 0
        assert list(big.resident_blocks()) == []
        assert big.lookup(12345) is None
        assert big.remove(12345) is None
        big.touch(12345)
        assert 12345 not in big and len(big) == 0

    def test_eviction_returns_dirty_line(self):
        c = small_cache()
        c.insert(0, "D", dirty=True)
        c.insert(2, "S")
        c.touch(2)
        # block 0 is LRU now? insertion order: 0 then 2; touch(2) keeps 0 oldest
        victim = c.insert(4, "S")
        assert victim.block == 0 and victim.dirty

    def test_resident_blocks(self):
        c = small_cache()
        for b in (0, 1, 2):
            c.insert(b, "S")
        assert sorted(c.resident_blocks()) == [0, 1, 2]

    def test_rejects_infinite_config(self):
        with pytest.raises(ConfigError):
            SetAssociativeCache(CacheConfig(size_bytes=None))

    def test_capacity_respected(self):
        c = small_cache()
        for b in range(0, 20, 2):  # all map to set 0
            c.insert(b, "S")
        assert len(c) == 2


class TestInfiniteCache:
    def test_never_evicts(self):
        c = InfiniteCache()
        for b in range(10_000):
            assert c.insert(b, "S") is None
        assert len(c) == 10_000
        assert c.lookup(1234).block == 1234

    def test_remove(self):
        c = InfiniteCache()
        c.insert(5, "S")
        assert c.remove(5).block == 5
        assert c.remove(5) is None

    def test_touch_noop(self):
        c = InfiniteCache()
        c.touch(99)  # must not raise


class TestMakeCache:
    def test_dispatch(self):
        assert isinstance(make_cache(CacheConfig(size_bytes=None)), InfiniteCache)
        assert isinstance(make_cache(CacheConfig()), SetAssociativeCache)
