"""Property test: the set-associative cache against a reference model.

The reference model is a deliberately naive per-set recency list; the
production cache must agree with it on every lookup/insert/remove
outcome under arbitrary operation sequences (hypothesis-generated).
Two geometries run: 2 sets, where every set fills almost at once, and
64 sets, where most sets are never filled, so ``lookup``, ``touch``,
``remove`` and ``resident_blocks`` also meet the cache's unbuilt
(lazily constructed) sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.core import SetAssociativeCache
from repro.common.config import CacheConfig

NUM_SETS = 2
#: The sparse geometry: blocks 0-9 land in sets of their own (most of
#: the 64 never filled), and a conflict group shares set 1.
SPARSE_SETS = 64
WAYS = 2


class ReferenceCache:
    """Brute-force LRU model: per-set list ordered oldest-first."""

    def __init__(self, num_sets=NUM_SETS):
        self.num_sets = num_sets
        self.sets = [[] for _ in range(num_sets)]  # lists of block ids

    def _set(self, block):
        return self.sets[block % self.num_sets]

    def lookup(self, block):
        return block in self._set(block)

    def touch(self, block):
        s = self._set(block)
        if block in s:
            s.remove(block)
            s.append(block)

    def insert(self, block):
        s = self._set(block)
        if block in s:
            s.remove(block)
            s.append(block)
            return None
        victim = None
        if len(s) >= WAYS:
            victim = s.pop(0)
        s.append(block)
        return victim

    def remove(self, block):
        s = self._set(block)
        if block in s:
            s.remove(block)
            return True
        return False

    def resident(self):
        return sorted(b for s in self.sets for b in s)


def operations(blocks):
    return st.lists(
        st.tuples(
            st.sampled_from(["lookup", "touch", "insert", "remove"]),
            blocks,
        ),
        max_size=200,
    )


@settings(max_examples=200, deadline=None)
@given(ops=operations(st.integers(0, 9)))
def test_matches_reference_model(ops):
    _check_against_model(ops, NUM_SETS)


@settings(max_examples=200, deadline=None)
@given(ops=operations(st.one_of(
    st.integers(0, 9),
    st.integers(0, 3).map(lambda k: k * SPARSE_SETS + 1),
)))
def test_matches_reference_model_on_sparse_sets(ops):
    _check_against_model(ops, SPARSE_SETS)


def _check_against_model(ops, num_sets):
    config = CacheConfig(
        size_bytes=num_sets * WAYS * 16, block_size=16, associativity=WAYS
    )
    real = SetAssociativeCache(config)
    model = ReferenceCache(num_sets)
    for op, block in ops:
        if op == "lookup":
            assert (real.lookup(block) is not None) == model.lookup(block)
        elif op == "touch":
            real.touch(block)
            model.touch(block)
        elif op == "insert":
            victim = real.insert(block, "S")
            expected = model.insert(block)
            assert (victim.block if victim else None) == expected
        elif op == "remove":
            removed = real.remove(block)
            assert (removed is not None) == model.remove(block)
        assert sorted(real.resident_blocks()) == model.resident()
        assert len(real) == len(model.resident())
