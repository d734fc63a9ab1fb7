"""Tests for the packed columnar trace representation and disk cache."""

from array import array

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import TraceError
from repro.common.types import Access, Op, read, write
from repro.directory.policy import AGGRESSIVE
from repro.system.machine import DirectoryMachine
from repro.trace import diskcache, synth
from repro.trace.core import Trace
from repro.trace.packed import PackedTrace

ACCESSES = [read(0, 0), write(1, 16), read(2, 4096), write(0, 16)]


class TestPackedTrace:
    def test_round_trip_accesses(self):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        assert packed.to_accesses() == ACCESSES
        assert list(packed) == ACCESSES
        assert len(packed) == 4

    def test_iter_packed_columns(self):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        rows = list(packed.iter_packed())
        assert rows == [
            (acc.proc, 1 if acc.op is Op.WRITE else 0, acc.addr)
            for acc in ACCESSES
        ]

    def test_blocks_column(self):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        blocks = packed.blocks_column(4)
        assert list(blocks) == [acc.addr >> 4 for acc in ACCESSES]
        # Memoized per shift: same object back, new column on new shift.
        assert packed.blocks_column(4) is blocks
        assert list(packed.blocks_column(8)) == [
            acc.addr >> 8 for acc in ACCESSES
        ]

    def test_num_procs(self):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        assert packed.num_procs == 3
        assert PackedTrace.from_accesses([], "e").num_procs == 0

    def test_save_load(self, tmp_path):
        packed = PackedTrace.from_accesses(ACCESSES, "roundtrip")
        path = tmp_path / "t.ptrace"
        packed.save(path)
        loaded = PackedTrace.load(path)
        assert loaded.name == "roundtrip"
        assert loaded.to_accesses() == ACCESSES

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ptrace"
        path.write_bytes(b"not a packed trace")
        with pytest.raises(TraceError):
            PackedTrace.load(path)

    @pytest.mark.parametrize("flag", [2, -1])
    def test_rejects_write_flags_other_than_0_or_1(self, flag):
        # The kernels fold the flag into the symbol proc * 2 + flag, so
        # flag 2 would replay as the next processor's read.
        with pytest.raises(TraceError, match="write flags"):
            PackedTrace(array("q", [0, 1, 0]), array("b", [0, flag, 0]),
                        array("q", [0, 0, 0]))

    def test_load_rejects_a_write_flag_of_2(self, tmp_path):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        path = tmp_path / "t.ptrace"
        packed.save(path)
        raw = bytearray(path.read_bytes())
        # The ops column is the len(ACCESSES) bytes before the addresses.
        raw[-9 * len(ACCESSES)] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match="write flags"):
            PackedTrace.load(path)


class TestSetStreams:
    """Conflict sets are classified per processor, not per set."""

    # Two sets of two ways, 16-byte blocks.  Set 0 holds blocks 0, 2
    # and 4, but processor 0 touches only 0 and 2, processor 1 only 2
    # and 4: three blocks, yet no processor can fill the set.  In set 1
    # processor 2 alone touches blocks 1, 3 and 5: a conflict set.
    ACCESSES = [read(0, 0), write(1, 32), read(2, 16), read(0, 32),
                write(2, 48), read(1, 64), read(2, 80), write(2, 16)]

    def test_only_sets_a_processor_overflows_conflict(self):
        packed = PackedTrace.from_accesses(self.ACCESSES, "t")
        streams = packed.set_streams(4, 2, 2)
        assert list(streams) == [1]
        blocks, stream = streams[1]
        assert blocks == (1, 3, 5)
        # (dense id << 32) | proc * 2 + is_write, in program order.
        assert list(stream) == [(0 << 32) | 4, (1 << 32) | 5,
                                (2 << 32) | 4, (0 << 32) | 5]
        # A third way holds every processor's footprint.
        assert packed.set_streams(4, 2, 3) == {}

    def test_streams_of_builds_any_set(self):
        packed = PackedTrace.from_accesses(self.ACCESSES, "t")
        streams = packed.streams_of(4, 2, [0, 1])
        assert list(streams) == [0, 1]
        blocks, stream = streams[0]
        assert blocks == (0, 2, 4)
        assert list(stream) == [(0 << 32) | 0, (1 << 32) | 3,
                                (1 << 32) | 0, (2 << 32) | 2]
        assert streams[1] == packed.set_streams(4, 2, 2)[1]
        assert packed.streams_of(4, 2, []) == {}

    def test_wide_traces_classify_alike(self):
        # Past 128 processors the symbols no longer fit a byte; the
        # classification reads the 16-bit split instead.
        wide = [Access(acc.proc + 200, acc.op, acc.addr)
                for acc in self.ACCESSES]
        packed = PackedTrace.from_accesses(wide, "t")
        streams = packed.set_streams(4, 2, 2)
        assert list(streams) == [1]
        assert streams[1][0] == (1, 3, 5)

    def test_alternating_geometries_are_computed_once(self, monkeypatch):
        packed = PackedTrace.from_accesses(self.ACCESSES, "t")
        computed = []
        real = PackedTrace._conflict_sets

        def counted(self, *geometry):
            computed.append(geometry)
            return real(self, *geometry)

        monkeypatch.setattr(PackedTrace, "_conflict_sets", counted)
        first = packed.set_streams(4, 2, 2)
        for _ in range(3):
            assert packed.set_streams(4, 2, 3) == {}
            assert packed.set_streams(4, 2, 2) is first
        assert computed == [(4, 2, 2), (4, 2, 3)]
        # The memo is bounded: three more geometries push out the
        # oldest, which is then computed again.
        for ways in (4, 5, 6):
            packed.set_streams(4, 2, ways)
        assert packed.set_streams(4, 2, 3) == {}
        assert len(computed) == 5
        assert packed.set_streams(4, 2, 2) == first
        assert computed[-1] == (4, 2, 2)


class TestTracePacking:
    def test_pack_is_cached_and_lazy(self):
        trace = Trace(ACCESSES, "t")
        packed = trace.pack()
        assert trace.pack() is packed
        assert packed.to_accesses() == ACCESSES

    def test_mutation_invalidates_pack(self):
        trace = Trace(list(ACCESSES), "t")
        first = trace.pack()
        trace.append(read(3, 32))
        repacked = trace.pack()
        assert repacked is not first
        assert len(repacked) == 5

    def test_from_packed_round_trip(self):
        packed = PackedTrace.from_accesses(ACCESSES, "t")
        trace = Trace.from_packed(packed)
        assert list(trace) == ACCESSES
        assert trace.num_procs == 3

    def test_text_save_load_round_trip(self, tmp_path):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=3, seed=9)
        path = tmp_path / "t.trace"
        trace.save(path)
        assert list(Trace.load(path)) == list(trace)


class TestPackedDeterminism:
    def test_same_seed_same_stats(self):
        """Two same-seed builds replay to identical statistics."""
        cfg = MachineConfig(
            num_procs=8,
            cache=CacheConfig(size_bytes=16 * 1024, block_size=16),
        )
        totals = []
        for _ in range(2):
            trace = synth.interleave(
                [
                    synth.migratory(num_procs=8, num_objects=4, visits=10,
                                    seed=11),
                    synth.read_shared(num_procs=8, num_objects=4, rounds=5,
                                      base=1 << 20, seed=12),
                ],
                chunk=4,
                seed=13,
            )
            machine = DirectoryMachine(cfg, AGGRESSIVE)
            machine.run(trace)
            totals.append(
                (machine.stats.short, machine.stats.data,
                 dict(machine.stats.by_cause_short),
                 dict(machine.stats.by_cause_data))
            )
        assert totals[0] == totals[1]

    def test_packed_matches_generic_path(self):
        cfg = MachineConfig(
            num_procs=8,
            cache=CacheConfig(size_bytes=16 * 1024, block_size=16),
        )
        trace = synth.migratory(num_procs=8, num_objects=4, visits=10, seed=5)
        fast = DirectoryMachine(cfg, AGGRESSIVE)
        fast.run(trace)
        generic = DirectoryMachine(cfg, AGGRESSIVE)
        generic.run(list(trace))
        assert fast.stats.total == generic.stats.total
        assert fast.cache_stats == generic.cache_stats


class TestDiskCache:
    def test_load_or_build_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        calls = []

        def builder(app, num_procs, seed, scale):
            calls.append(app)
            return synth.migratory(num_procs=num_procs, num_objects=2,
                                   visits=3, seed=seed)

        first = diskcache.load_or_build("toy", 4, 1, 1.0, builder)
        second = diskcache.load_or_build("toy", 4, 1, 1.0, builder)
        assert calls == ["toy"]  # second call served from disk
        assert list(first.iter_packed()) == list(second.iter_packed())

    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        assert diskcache.cache_dir() is None
        calls = []

        def builder(app, num_procs, seed, scale):
            calls.append(app)
            return synth.migratory(num_procs=num_procs, num_objects=2,
                                   visits=3, seed=seed)

        diskcache.load_or_build("toy", 4, 1, 1.0, builder)
        diskcache.load_or_build("toy", 4, 1, 1.0, builder)
        assert calls == ["toy", "toy"]  # rebuilt every time

    def test_key_distinguishes_parameters(self):
        keys = {
            diskcache.trace_key("a", 16, 0, 1.0),
            diskcache.trace_key("a", 16, 0, 0.5),
            diskcache.trace_key("a", 16, 1, 1.0),
            diskcache.trace_key("a", 8, 0, 1.0),
            diskcache.trace_key("b", 16, 0, 1.0),
        }
        assert len(keys) == 5
