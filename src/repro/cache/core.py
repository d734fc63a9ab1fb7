"""Set-associative cache model.

The cache stores *coherence lines*: a block number plus a protocol-defined
state object and a dirty bit.  The protocols (directory or snooping) own the
meaning of the state; the cache only manages placement, lookup, and
replacement.

Replacement follows the paper's model: 4-way set-associative with LRU.
FIFO and random are provided for ablation studies.  An infinite cache
(:class:`InfiniteCache`) never evicts and is used for the block-size sweep
of Table 3, where the paper eliminates capacity and conflict misses.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator

from repro.common.config import CacheConfig
from repro.common.errors import ConfigError


@dataclass(slots=True)
class CacheLine:
    """One resident cache line.

    Attributes:
        block: block number held by this line.
        state: protocol-defined coherence state.
        dirty: True when the local copy has been modified and memory is
            stale.  Some protocols fold dirtiness into ``state``; the
            explicit bit is authoritative for writeback decisions.
    """

    block: int
    state: Any
    dirty: bool = False
    #: Version stamp used by the optional coherence checker; records which
    #: write to the block this copy reflects.
    version: int = 0
    #: Protocol-private counter (e.g. the competitive-update staleness
    #: count).  Protocols that do not use it leave it at zero.
    counter: int = 0


class Cache:
    """Interface shared by finite and infinite caches.

    Only valid lines are resident: invalidating a block removes it from the
    cache entirely, so iteration never yields stale entries.
    """

    __slots__ = ()

    def lookup(self, block: int) -> CacheLine | None:
        """Return the resident line for ``block`` or None (no LRU update)."""
        raise NotImplementedError

    def touch(self, block: int) -> None:
        """Record a use of ``block`` for the replacement policy."""
        raise NotImplementedError

    def insert(self, block: int, state: Any, dirty: bool = False) -> CacheLine | None:
        """Make ``block`` resident, evicting a victim if necessary.

        Returns:
            The evicted :class:`CacheLine`, or None when no eviction was
            needed.  The caller is responsible for any writeback or
            replacement notification the victim requires.
        """
        raise NotImplementedError

    def remove(self, block: int) -> CacheLine | None:
        """Invalidate ``block``; returns the removed line or None."""
        raise NotImplementedError

    def resident_blocks(self) -> Iterator[int]:
        """Iterate over the block numbers of all resident lines."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, block: int) -> bool:
        return self.lookup(block) is not None


class SetAssociativeCache(Cache):
    """A finite set-associative cache with LRU/FIFO/random replacement."""

    __slots__ = ("_config", "_num_sets", "_ways", "_sets", "_policy",
                 "_rng", "_size")

    def __init__(self, config: CacheConfig, rng: random.Random | None = None):
        if config.is_infinite:
            raise ConfigError("use InfiniteCache for size_bytes=None")
        self._config = config
        self._num_sets = config.num_sets
        self._ways = config.associativity
        # Each set maps block -> CacheLine in recency order (oldest
        # first).  A set is built on its first fill: a large cache
        # (16,384 sets at 1 MB) is mostly never-touched sets, and a
        # ``None`` slot reads as empty everywhere.
        self._sets: list[OrderedDict[int, CacheLine] | None] = (
            [None] * self._num_sets
        )
        self._policy = config.replacement
        self._rng = rng or random.Random(0)
        self._size = 0

    @property
    def config(self) -> CacheConfig:
        """The geometry this cache was built with."""
        return self._config

    def lookup(self, block: int) -> CacheLine | None:
        cache_set = self._sets[block % self._num_sets]
        return None if cache_set is None else cache_set.get(block)

    def touch(self, block: int) -> None:
        if self._policy == "lru":
            cache_set = self._sets[block % self._num_sets]
            if cache_set is not None and block in cache_set:
                cache_set.move_to_end(block)

    def insert(self, block: int, state: Any, dirty: bool = False) -> CacheLine | None:
        index = block % self._num_sets
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        elif block in cache_set:
            line = cache_set[block]
            line.state = state
            line.dirty = dirty
            self.touch(block)
            return None
        victim = None
        if len(cache_set) >= self._ways:
            victim = self._choose_victim(cache_set)
            del cache_set[victim.block]
            self._size -= 1
        cache_set[block] = CacheLine(block, state, dirty)
        self._size += 1
        return victim

    def _choose_victim(self, cache_set: OrderedDict[int, CacheLine]) -> CacheLine:
        if self._policy == "random":
            key = self._rng.choice(list(cache_set))
            return cache_set[key]
        # LRU and FIFO both evict the oldest entry; they differ only in
        # whether touch() refreshes recency.
        return next(iter(cache_set.values()))

    def remove(self, block: int) -> CacheLine | None:
        cache_set = self._sets[block % self._num_sets]
        if cache_set is None:
            return None
        line = cache_set.pop(block, None)
        if line is not None:
            self._size -= 1
        return line

    def resident_blocks(self) -> Iterator[int]:
        for cache_set in self._sets:
            if cache_set is not None:
                yield from cache_set

    def __len__(self) -> int:
        return self._size


class InfiniteCache(Cache):
    """A cache that never evicts (no capacity or conflict misses)."""

    __slots__ = ("_config", "_lines")

    def __init__(self, config: CacheConfig | None = None):
        self._config = config
        self._lines: dict[int, CacheLine] = {}

    def lookup(self, block: int) -> CacheLine | None:
        return self._lines.get(block)

    def touch(self, block: int) -> None:
        pass

    def insert(self, block: int, state: Any, dirty: bool = False) -> CacheLine | None:
        line = self._lines.get(block)
        if line is None:
            self._lines[block] = CacheLine(block, state, dirty)
        else:
            line.state = state
            line.dirty = dirty
        return None

    def remove(self, block: int) -> CacheLine | None:
        return self._lines.pop(block, None)

    def resident_blocks(self) -> Iterator[int]:
        yield from self._lines

    def __len__(self) -> int:
        return self._lines.__len__()


def make_cache(config: CacheConfig, rng: random.Random | None = None) -> Cache:
    """Build the cache implied by ``config`` (finite or infinite)."""
    if config.is_infinite:
        return InfiniteCache(config)
    return SetAssociativeCache(config, rng)
