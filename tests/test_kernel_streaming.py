"""The streaming kernel backend (:mod:`repro.kernels.streaming`).

Four contracts are pinned here:

* **Chunk-boundary equivalence** — feeding a trace in segments of any
  size (including segments that split a block's accesses arbitrarily)
  produces stats and final machine state identical to the batch kernel
  and to the generic per-access loop.  Integer delta merges are
  order-independent, so this must hold exactly, not approximately.
* **O(chunk) memory** — a replay fed from a segment generator never
  materialises the whole trace: peak allocation during the feed phase
  stays far below the packed trace's own byte size when accesses
  outnumber blocks (per-block walk state is the machine's own floor
  and is excluded from the claim).
* **Envelope honesty** — ineligible machines raise from the
  constructor without touching the machine, and the
  :func:`replay_stream` convenience converts that into a counted
  fallback onto ``machine.run`` with identical results.
* **Pending state** — ``finish()`` writes the counters and leaves the
  per-block state packed; reading only counters never decodes it, and
  the first read of the caches, the entries or an ``access()`` decodes
  exactly the generic loop's state.
"""

import tracemalloc
from array import array

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats, MessageStats
from repro.directory.policy import AGGRESSIVE, BASIC
from repro.kernels import pending, registry
from repro.kernels.streaming import (
    BusStreamReplay,
    DirectoryStreamReplay,
    replay_stream,
    stream_replay_for,
)
from repro.kernels.tables import KernelUnsupported
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import AdaptiveSnoopingProtocol, MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.system.placement import FirstTouchPlacement
from repro.trace import synth
from repro.trace.packed import PackedTrace

NUM_PROCS = 6

CHUNK_SIZES = (1, 64, 997, 4096)


def _packed():
    trace = synth.interleave(
        [synth.migratory(num_procs=NUM_PROCS, num_objects=5, visits=10,
                         reads_per_visit=2, writes_per_visit=2, seed=21),
         synth.producer_consumer(num_procs=NUM_PROCS, num_objects=3,
                                 rounds=6, consumers=3, base=1 << 14,
                                 seed=22)],
        chunk=5, seed=23)
    return trace.pack()


def _negative_proc_packed():
    # Processor -1 would index a DFA node's edge list from the end.
    return PackedTrace(array("q", [0, 1, -1, 2, 0]),
                       array("b", [0, 1, 0, 1, 0]),
                       array("q", [0, 0, 16, 0, 16]))


def _config(num_procs=NUM_PROCS):
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=None, block_size=16),
    )


def _lines(machine):
    out = []
    for proc, cache in enumerate(machine.caches):
        for block in sorted(cache.resident_blocks()):
            line = cache.lookup(block)
            out.append((proc, block, line.state, line.dirty, line.counter))
    return out


def _dir_state(machine):
    return {
        "stats": machine.stats,
        "by_cause_short": machine.stats.by_cause_short,
        "by_cause_data": machine.stats.by_cause_data,
        "cache_stats": machine.cache_stats,
        "invalidation_sizes": machine.invalidation_sizes,
        "transitions": machine.protocol.transitions,
        "entries": {
            block: (ent.state, tuple(sorted(ent.copyset)),
                    ent.last_invalidator, ent.streak)
            for block, ent in machine.protocol.entries.items()
        },
        "lines": _lines(machine),
    }


def _bus_state(machine):
    return {
        "bus_stats": machine.bus_stats,
        "by_kind": machine.bus_stats.by_kind,
        "cache_stats": machine.cache_stats,
        "lines": _lines(machine),
    }


class TestChunkBoundaryEquivalence:
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_directory_matches_packed_loop(self, chunk):
        packed = _packed()
        reference = DirectoryMachine(_config(), AGGRESSIVE)
        with registry.disabled():
            reference.run(packed)
        registry.engagements.clear()
        machine = DirectoryMachine(_config(), AGGRESSIVE)
        replay = DirectoryStreamReplay(machine)
        for segment in packed.segments(chunk):
            replay.feed(segment)
        stats = replay.finish()
        assert registry.engagements["directory-stream"] == 1
        assert stats is machine.stats
        assert _dir_state(machine) == _dir_state(reference)

    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_bus_matches_packed_loop(self, chunk):
        packed = _packed()
        reference = BusMachine(_config(), AdaptiveSnoopingProtocol())
        with registry.disabled():
            reference.run(packed)
        registry.engagements.clear()
        machine = BusMachine(_config(), AdaptiveSnoopingProtocol())
        replay = BusStreamReplay(machine)
        for segment in packed.segments(chunk):
            replay.feed(segment)
        stats = replay.finish()
        assert registry.engagements["bus-stream"] == 1
        assert stats is machine.bus_stats
        assert _bus_state(machine) == _bus_state(reference)

    def test_matches_batch_kernel(self):
        # Both kernel backends run the same compiled rows: whole-trace
        # batch replay and chunked streaming replay must agree exactly.
        packed = _packed()
        batch = DirectoryMachine(_config(), BASIC)
        batch.run(packed)
        machine = DirectoryMachine(_config(), BASIC)
        replay_stream(machine, packed, chunk=513)
        assert _dir_state(machine) == _dir_state(batch)

    def test_first_touch_homes_assigned_identically(self):
        packed = _packed()
        reference = DirectoryMachine(
            _config(), BASIC, placement=FirstTouchPlacement())
        with registry.disabled():
            reference.run(packed)
        machine = DirectoryMachine(
            _config(), BASIC, placement=FirstTouchPlacement())
        replay_stream(machine, packed, chunk=97)
        assert machine.placement._homes == reference.placement._homes
        assert _dir_state(machine) == _dir_state(reference)

    def test_wide_processor_count_streams(self):
        config = _config(num_procs=200)
        packed = _packed()
        reference = DirectoryMachine(config, BASIC)
        with registry.disabled():
            reference.run(packed)
        registry.engagements.clear()
        machine = DirectoryMachine(config, BASIC)
        replay_stream(machine, packed, chunk=301)
        assert registry.engagements["directory-stream"] == 1
        assert _dir_state(machine) == _dir_state(reference)


class TestMemoryEnvelope:
    def test_feed_phase_is_o_chunk_not_o_trace(self):
        # 600 blocks x ~170 accesses each, synthesized chunk by chunk
        # from a generator: the whole trace (17 bytes/access packed)
        # never exists in memory, and the feed-phase peak must stay
        # well under its byte size.
        num_blocks, total = 600, 100_000
        chunk = 10_000

        def segments():
            procs = array("q")
            ops = array("b")
            addrs = array("q")
            for i in range(total):
                procs.append((i * 7) % 4)
                ops.append(1 if i % 3 == 0 else 0)
                addrs.append((i % num_blocks) * 16)
                if len(procs) == chunk:
                    yield PackedTrace(procs, ops, addrs)
                    procs, ops, addrs = array("q"), array("b"), array("q")
            if procs:
                yield PackedTrace(procs, ops, addrs)

        machine = BusMachine(_config(num_procs=4), MesiProtocol())
        replay = BusStreamReplay(machine)
        tracemalloc.start()
        try:
            for segment in segments():
                replay.feed(segment)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        replay.finish()
        trace_bytes = 17 * total
        assert peak < trace_bytes / 2, (peak, trace_bytes)
        # The replay really covered the whole synthetic trace.
        assert (machine.cache_stats.read_hits
                + machine.cache_stats.read_misses
                + machine.cache_stats.write_hits
                + machine.cache_stats.write_misses) == total


class TestEnvelope:
    def test_finite_cache_raises_without_touching_machine(self):
        config = MachineConfig(
            num_procs=4, cache=CacheConfig(size_bytes=64, block_size=16))
        machine = DirectoryMachine(config, BASIC)
        with pytest.raises(KernelUnsupported, match="finite-cache"):
            DirectoryStreamReplay(machine)
        assert machine.stats.short == 0 and not len(machine.caches[0])

    def test_not_fresh_machine_raises(self):
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_packed())
        with pytest.raises(KernelUnsupported, match="not-fresh"):
            BusStreamReplay(machine)

    def test_feed_after_finish_raises(self):
        machine = BusMachine(_config(), MesiProtocol())
        replay = BusStreamReplay(machine)
        replay.feed(_packed())
        replay.finish()
        with pytest.raises(ProtocolError):
            replay.feed(_packed())
        with pytest.raises(ProtocolError):
            replay.finish()

    def test_dispatch_picks_engine_by_machine(self):
        assert isinstance(
            stream_replay_for(DirectoryMachine(_config(), BASIC)),
            DirectoryStreamReplay)
        assert isinstance(
            stream_replay_for(BusMachine(_config(), MesiProtocol())),
            BusStreamReplay)

    def test_replay_stream_falls_back_identically(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16))
        packed = _packed()
        reference = DirectoryMachine(config, BASIC)
        with registry.disabled():
            reference.run(packed)
        registry.fallbacks.clear()
        machine = DirectoryMachine(config, BASIC)
        replay_stream(machine, packed)
        assert registry.fallbacks[("directory-stream", "finite-cache")] == 1
        assert _dir_state(machine) == _dir_state(reference)

    def test_negative_processor_id_raises_symbol_range(self):
        machine = DirectoryMachine(_config(), BASIC)
        replay = DirectoryStreamReplay(machine)
        replay.feed(_packed())
        with pytest.raises(KernelUnsupported,
                           match="directory-stream: symbol-range"):
            replay.feed(_negative_proc_packed())
        assert machine.stats == MessageStats()
        assert machine.cache_stats == CacheStats()
        assert not machine.protocol.entries
        assert not any(len(cache) for cache in machine.caches)

    def test_bus_negative_processor_id_raises_symbol_range(self):
        machine = BusMachine(_config(), MesiProtocol())
        replay = BusStreamReplay(machine)
        replay.feed(_packed())
        with pytest.raises(KernelUnsupported, match="bus-stream: symbol-range"):
            replay.feed(_negative_proc_packed())
        assert machine.bus_stats == BusStats()
        assert machine.cache_stats == CacheStats()
        assert not any(len(cache) for cache in machine.caches)

    def test_replay_stream_symbol_range_falls_back_identically(self):
        # Chunk 2 feeds one clean segment before the bad one, so the
        # fallback starts from a replay that was already under way.
        packed = _negative_proc_packed()
        reference = DirectoryMachine(_config(), BASIC)
        with registry.disabled():
            reference.run(packed)
        registry.fallbacks.clear()
        machine = DirectoryMachine(_config(), BASIC)
        replay_stream(machine, packed, chunk=2)
        assert registry.fallbacks[("directory-stream", "symbol-range")] == 1
        assert _dir_state(machine) == _dir_state(reference)


#: ``label -> (machine factory, counters, full state)`` per engine.
ENGINES = {
    "directory": (lambda: DirectoryMachine(_config(), AGGRESSIVE),
                  lambda m: (m.stats, m.cache_stats, m.invalidation_sizes,
                             m.protocol.transitions),
                  _dir_state),
    "first-touch": (lambda: DirectoryMachine(
                        _config(), BASIC, placement=FirstTouchPlacement()),
                    lambda m: (m.stats, m.cache_stats, m.invalidation_sizes,
                               m.protocol.transitions),
                    _dir_state),
    "bus": (lambda: BusMachine(_config(), AdaptiveSnoopingProtocol()),
            lambda m: (m.bus_stats, m.cache_stats), _bus_state),
}

#: The first read of a pending machine, applied alike to the generic
#: reference machine.
FIRST_READS = {
    "caches": lambda machine: [len(cache) for cache in machine.caches],
    "entries": lambda machine: len(machine.protocol.entries),
    "access": lambda machine: machine.access(2, False, 1 << 14),
}


def _streamed_pair(engine):
    """A streamed replay and the generic loop's, on one engine."""
    make = ENGINES[engine][0]
    packed = _packed()
    machine = make()
    replay_stream(machine, packed, chunk=97)
    reference = make()
    with registry.disabled():
        reference.run(packed)
    return machine, reference


class TestPendingState:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_finish_leaves_state_pending(self, engine):
        machine, reference = _streamed_pair(engine)
        counters = ENGINES[engine][1]
        assert counters(machine) == counters(reference)
        assert type(machine.caches) is pending.StandIn
        if engine != "bus":
            assert type(machine.protocol._entries) is pending.StandIn

    @pytest.mark.parametrize("engine,read", [
        (engine, read) for engine in ENGINES for read in FIRST_READS
        if not (engine == "bus" and read == "entries")
    ])
    def test_first_read_decodes_the_generic_state(self, engine, read):
        machine, reference = _streamed_pair(engine)
        FIRST_READS[read](machine)
        FIRST_READS[read](reference)
        assert type(machine.caches) is list
        state = ENGINES[engine][2]
        assert state(machine) == state(reference)
