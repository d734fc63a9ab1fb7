"""The table-driven replay kernels of :mod:`repro.kernels`.

Four contracts are pinned here:

* **Equivalence** — on kernel-eligible replays, every statistic and
  every piece of final microarchitectural state (cache lines with dirty
  bits and competitive counters, directory entries with copy sets,
  invalidators and evidence streaks, classification transitions) is
  identical to the generic engines', across the full policy/protocol
  matrix and every cache geometry; finite caches' lines are compared
  in set and recency order, which later fills observe.
* **Pending state** — an engaged replay's counters are exact while its
  final state is still packed: reading only counters never decodes it,
  and the first read of the caches, the directory entries, an
  ``access()`` or a second ``run()`` decodes exactly the generic
  loop's state, so a kernel ``run(a)`` then ``run(b)`` equals the
  generic ``run(a + b)``.
* **Gating** — anything outside the kernel envelope (subclassed
  components, observation hooks, random replacement on a set some
  processor overflows, stale machines,
  processor counts past the wide cap, the kill switches) silently falls
  back to the generic loop with identical results and no engagement.
  Tiny evicting caches, first-touch placement, and processor counts up
  to 1024 are *inside* the envelope since the eviction-aware walks.
* **Compilation** — the probe-based compiler closes the evidence-streak
  axis by reachability for thresholded policies and produces stable,
  behaviour-keyed digests.
"""

import gc
import pickle
import random
import weakref

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import Access, Op
from repro.conformance import oracle
from repro.conformance.fuzzer import generate_case
from repro.directory.policy import (
    AGGRESSIVE,
    BASIC,
    CONSERVATIVE,
    CONVENTIONAL,
    AdaptivePolicy,
)
from repro.directory.representation import LimitedPointerDirectory
from repro.interconnect.costs import write_hit_counts, write_miss_counts
from repro.kernels import pending, registry
from repro.kernels.tables import (
    KernelUnsupported,
    compile_dir_rows,
    compile_snoop_rows,
    dir_table_digest,
    snoop_table_digest,
)
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import (
    AdaptiveSnoopingProtocol,
    AlwaysMigrateProtocol,
    MesiProtocol,
)
from repro.snooping.update_protocols import (
    CompetitiveUpdateProtocol,
    WriteUpdateProtocol,
)
from repro.system.machine import DirectoryMachine
from repro.system.placement import BestStaticPlacement, FirstTouchPlacement
from repro.timing.sim import TimingSimulator
from repro.trace import synth
from repro.trace.packed import PackedTrace

NUM_PROCS = 6

POLICIES = (
    CONVENTIONAL, CONSERVATIVE, BASIC, AGGRESSIVE,
    AdaptivePolicy("deep", migratory_threshold=5),
)

PROTOCOL_FACTORIES = (
    MesiProtocol,
    AdaptiveSnoopingProtocol,
    lambda: AdaptiveSnoopingProtocol(initial_migratory=True),
    AlwaysMigrateProtocol,
    WriteUpdateProtocol,
    lambda: CompetitiveUpdateProtocol(2),
)

#: (label, cache_size) geometries: infinite, roomy finite (eviction
#: free), and a tiny finite cache whose conflict sets replay on the
#: eviction-aware group walks.  All three engage the kernel.
GEOMETRIES = (
    ("infinite", None, True),
    ("eviction-free", 16 * 1024, True),
    ("tiny", 64, True),
)


def _trace():
    return synth.interleave(
        [synth.migratory(num_procs=NUM_PROCS, num_objects=4, visits=8,
                         reads_per_visit=2, writes_per_visit=2, seed=11),
         synth.read_shared(num_procs=NUM_PROCS, num_objects=3, rounds=4,
                           base=1 << 16, seed=12)],
        chunk=4, seed=13)


def _config(cache_size=None):
    return MachineConfig(
        num_procs=NUM_PROCS,
        cache=CacheConfig(size_bytes=cache_size, block_size=16),
    )


def _dir_state(machine):
    return {
        "short": machine.stats.short,
        "data": machine.stats.data,
        "by_cause_short": machine.stats.by_cause_short,
        "by_cause_data": machine.stats.by_cause_data,
        "cache_stats": machine.cache_stats,
        "invalidation_sizes": machine.invalidation_sizes,
        "transitions": machine.protocol.transitions,
        "entries": {
            block: (ent.state, tuple(sorted(ent.copyset)),
                    ent.last_invalidator, ent.streak, ent.overflowed)
            for block, ent in machine.protocol.entries.items()
        },
        "lines": oracle._final_lines(machine),
    }


def _bus_state(machine):
    return {
        "bus_stats": machine.bus_stats,
        "by_kind": machine.bus_stats.by_kind,
        "cache_stats": machine.cache_stats,
        "lines": oracle._final_lines(machine),
    }


def _run_directory(policy, cache_size, *, disabled, **kwargs):
    machine = DirectoryMachine(_config(cache_size), policy, **kwargs)
    if disabled:
        with registry.disabled():
            machine.run(_trace())
    else:
        machine.run(_trace())
    return machine


def _dir_counters(machine):
    """Every counter of a directory replay."""
    stats = machine.stats
    return {
        "short": stats.short,
        "data": stats.data,
        "by_cause_short": stats.by_cause_short,
        "by_cause_data": stats.by_cause_data,
        "cache_stats": machine.cache_stats,
        "invalidation_sizes": machine.invalidation_sizes,
        "transitions": machine.protocol.transitions,
    }


def _is_pending(machine) -> bool:
    """Whether ``machine``'s per-block state is still undecoded."""
    caches_pending = type(machine.caches) is pending.StandIn
    if isinstance(machine, DirectoryMachine):
        assert (type(machine.protocol._entries) is pending.StandIn
                ) is caches_pending
    return caches_pending


def _assert_dir_counters_match_decoded_run(policy, cache_size):
    """A ``run()`` read only through its counters keeps its final state
    pending and counts exactly what a decoded ``run()`` counts, and
    engages the kernel alike, on the default placement and on a
    first-touch one, whose homes it must assign identically."""
    for placement in (None, FirstTouchPlacement):
        run_placement = placement and placement()
        before = registry.engagements["directory"]
        full = _run_directory(policy, cache_size, disabled=False,
                              placement=run_placement)
        _dir_state(full)
        engaged = registry.engagements["directory"] - before
        only_placement = placement and placement()
        counted = _run_directory(policy, cache_size, disabled=False,
                                 placement=only_placement)
        assert registry.engagements["directory"] - before == 2 * engaged
        assert _dir_counters(counted) == _dir_counters(full)
        assert _is_pending(counted) == bool(engaged)
        if placement is not None:
            assert only_placement._homes == run_placement._homes


def _bus_counters(machine):
    return {
        "bus_stats": machine.bus_stats,
        "by_kind": machine.bus_stats.by_kind,
        "cache_stats": machine.cache_stats,
    }


def _run_bus(factory, cache_size, *, disabled, **kwargs):
    machine = BusMachine(_config(cache_size), factory(), **kwargs)
    if disabled:
        with registry.disabled():
            machine.run(_trace())
    else:
        machine.run(_trace())
    return machine


class TestDirectoryEquivalence:
    @pytest.mark.parametrize("policy", POLICIES,
                             ids=[p.name for p in POLICIES])
    @pytest.mark.parametrize("label,cache_size,eligible", GEOMETRIES,
                             ids=[g[0] for g in GEOMETRIES])
    def test_matches_legacy_engine(self, policy, label, cache_size, eligible):
        registry.engagements.clear()
        kernel = _run_directory(policy, cache_size, disabled=False)
        assert registry.engagements["directory"] == (1 if eligible else 0)
        legacy = _run_directory(policy, cache_size, disabled=True)
        assert _dir_state(kernel) == _dir_state(legacy)
        _assert_dir_counters_match_decoded_run(policy, cache_size)


class TestBusEquivalence:
    @pytest.mark.parametrize("factory", PROTOCOL_FACTORIES,
                             ids=[f().name for f in PROTOCOL_FACTORIES])
    @pytest.mark.parametrize("label,cache_size,eligible", GEOMETRIES,
                             ids=[g[0] for g in GEOMETRIES])
    def test_matches_legacy_engine(self, factory, label, cache_size, eligible):
        registry.engagements.clear()
        kernel = _run_bus(factory, cache_size, disabled=False)
        assert registry.engagements["bus"] == (1 if eligible else 0)
        legacy = _run_bus(factory, cache_size, disabled=True)
        assert _bus_state(kernel) == _bus_state(legacy)
        counted = _run_bus(factory, cache_size, disabled=False)
        assert registry.engagements["bus"] == (2 if eligible else 0)
        assert _bus_counters(counted) == _bus_counters(kernel)
        assert _is_pending(counted) == eligible


class TestGating:
    """Every gate falls back to the generic loop, bit for bit."""

    def _assert_directory_fallback(self, **kwargs):
        registry.engagements.clear()
        machine = _run_directory(BASIC, None, disabled=False, **kwargs)
        assert registry.engagements["directory"] == 0
        legacy = _run_directory(BASIC, None, disabled=True, **kwargs)
        assert machine.cache_stats == legacy.cache_stats
        assert machine.stats == legacy.stats
        return machine

    def test_subclassed_machine(self):
        class Watching(DirectoryMachine):
            pass

        registry.engagements.clear()
        machine = Watching(_config(), BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 0

    def test_subclassed_protocol(self):
        class Watching(MesiProtocol):
            pass

        registry.engagements.clear()
        machine = BusMachine(_config(), Watching())
        machine.run(_trace())
        assert registry.engagements["bus"] == 0

    def test_first_touch_placement_engages(self):
        # First-touch homes are resolved from each page's first symbol
        # before the walk, so the placement no longer forces a fallback
        # — and the assigned homes must match the legacy engine's.
        registry.engagements.clear()
        kernel = _run_directory(BASIC, None, disabled=False,
                                placement=FirstTouchPlacement())
        assert registry.engagements["directory"] == 1
        legacy = _run_directory(BASIC, None, disabled=True,
                                placement=FirstTouchPlacement())
        assert _dir_state(kernel) == _dir_state(legacy)
        assert kernel.placement._homes == legacy.placement._homes

    def test_limited_pointer_representation(self):
        # Dir2B and Dir2NB replay on the kernel (6 processors read the
        # read-shared objects, so 2 pointers overflow); a subclassed
        # representation may observe steps the kernel elides.
        for broadcast in (True, False):
            registry.engagements.clear()
            kernel = _run_directory(
                BASIC, None, disabled=False,
                representation=LimitedPointerDirectory(2, broadcast))
            assert registry.engagements["directory"] == 1
            checked = DirectoryMachine(
                _config(), BASIC, check=True,
                representation=LimitedPointerDirectory(2, broadcast))
            checked.run(_trace())
            assert _dir_state(kernel) == _dir_state(checked)

        class Watching(LimitedPointerDirectory):
            pass

        self._assert_directory_fallback(representation=Watching(pointers=2))

    def test_block_message_tracking(self):
        machine = self._assert_directory_fallback(track_blocks=True)
        assert machine.block_messages  # the observation actually happened

    def test_second_run_is_not_fresh(self):
        registry.engagements.clear()
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        machine.run(_trace())
        assert registry.engagements["directory"] == 1
        legacy = DirectoryMachine(_config(), BASIC)
        with registry.disabled():
            legacy.run(_trace())
            legacy.run(_trace())
        assert _dir_state(machine) == _dir_state(legacy)

    def test_processor_count_beyond_symbol_byte_engages(self):
        # 130 processors overflow the one-byte symbol encoding; the
        # kernel switches to the 16-bit wide form instead of falling
        # back, with identical results.
        config = MachineConfig(
            num_procs=130, cache=CacheConfig(size_bytes=None, block_size=16))
        registry.engagements.clear()
        machine = DirectoryMachine(config, BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 1
        legacy = DirectoryMachine(config, BASIC)
        with registry.disabled():
            legacy.run(_trace())
        assert _dir_state(machine) == _dir_state(legacy)

    def test_processor_count_beyond_wide_cap(self):
        config = MachineConfig(
            num_procs=1030, cache=CacheConfig(size_bytes=None, block_size=16))
        registry.engagements.clear()
        machine = DirectoryMachine(config, BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 0

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        registry.engagements.clear()
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 0

    def test_disabled_context_nests(self):
        registry.engagements.clear()
        with registry.disabled():
            with registry.disabled():
                pass
            # Still disabled until the outermost exit.
            machine = BusMachine(_config(), MesiProtocol())
            machine.run(_trace())
        assert registry.engagements["bus"] == 0
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_trace())
        assert registry.engagements["bus"] == 1

    def test_best_static_placement_engages(self):
        trace = _trace()
        placement = BestStaticPlacement.from_trace(trace, _config())
        registry.engagements.clear()
        kernel = DirectoryMachine(_config(), BASIC, placement=placement)
        kernel.run(trace)
        assert registry.engagements["directory"] == 1
        legacy = DirectoryMachine(
            _config(), BASIC,
            placement=BestStaticPlacement.from_trace(trace, _config()))
        with registry.disabled():
            legacy.run(trace)
        assert _dir_state(kernel) == _dir_state(legacy)


class TestEvictionAware:
    """The eviction-aware group walks replay conflict sets exactly."""

    def test_tiny_geometry_really_evicts(self):
        # Guard the geometry choice: the "tiny" equivalence runs above
        # are only meaningful if replacement actually happens.
        legacy = _run_directory(BASIC, 64, disabled=True)
        stats = legacy.cache_stats
        assert stats.evictions_dirty + stats.evictions_clean > 0

    def test_post_replay_accesses_observe_identical_order(self):
        # Replacement order is observable by accesses *after* the
        # replay: continue both machines through the generic per-access
        # path and require identical state afterwards, which pins the
        # kernel's per-set recency re-insertion order.
        tail = synth.migratory(num_procs=NUM_PROCS, num_objects=6, visits=6,
                               reads_per_visit=1, writes_per_visit=1, seed=99)
        registry.engagements.clear()
        kernel = _run_directory(BASIC, 64, disabled=False)
        assert registry.engagements["directory"] == 1
        legacy = _run_directory(BASIC, 64, disabled=True)
        kernel.run(tail)
        legacy.run(tail)
        assert _dir_state(kernel) == _dir_state(legacy)

    def test_fifo_replacement_engages(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16,
                              replacement="fifo"))
        registry.engagements.clear()
        kernel = DirectoryMachine(config, BASIC)
        kernel.run(_trace())
        assert registry.engagements["directory"] == 1
        legacy = DirectoryMachine(config, BASIC)
        with registry.disabled():
            legacy.run(_trace())
        assert _dir_state(kernel) == _dir_state(legacy)


class TestCompiler:
    def test_streak_axis_closes_by_reachability(self):
        # A deep threshold compiles because only *reachable* (state,
        # streak) pairs are probed; the streak axis tops out at the
        # promotion threshold instead of running away.
        rows = compile_dir_rows(AdaptivePolicy("deep", migratory_threshold=5))
        streaks = {streak for (_s, streak, _f) in rows.read_miss}
        assert max(streaks) <= 5
        assert len(streaks) > 1  # the hysteresis axis is really there

    def test_unthresholded_policy_has_flat_streak_axis(self):
        rows = compile_dir_rows(CONVENTIONAL)
        assert {streak for (_s, streak, _f) in rows.read_miss} == {0}

    def test_dir_digests_key_on_behaviour(self):
        assert dir_table_digest(BASIC) == dir_table_digest(
            AdaptivePolicy("renamed", migratory_threshold=1))
        assert dir_table_digest(BASIC) != dir_table_digest(AGGRESSIVE)

    def test_snoop_digest_rejects_subclasses(self):
        class OffEnvelope(MesiProtocol):
            pass

        assert snoop_table_digest(MesiProtocol()) != "uncompiled"
        assert snoop_table_digest(OffEnvelope()) == "uncompiled"

    def test_snoop_rows_memoized_per_variant(self):
        assert compile_snoop_rows(MesiProtocol()) is compile_snoop_rows(
            MesiProtocol())
        assert compile_snoop_rows(CompetitiveUpdateProtocol(1)) \
            is not compile_snoop_rows(CompetitiveUpdateProtocol(2))


class TestOracleKernelStage:
    """The conformance oracle's kernel-diff stage actually fires."""

    def test_clean_case_passes(self):
        case = generate_case(3, "kernel")
        assert oracle.run_case(case) is None

    def test_evict_profile_exercises_group_walks(self):
        registry.clear()
        case = generate_case(27, "evict")
        assert oracle.run_case(case) is None
        # The kernel-diff replays really engaged on the evicting
        # geometry rather than silently comparing packed to packed.
        assert registry.engagements["directory"] > 0
        assert registry.engagements["bus"] > 0

    def test_corrupted_bus_kernel_is_caught(self, monkeypatch):
        from repro.kernels import snooping

        original = snooping._apply_counters

        def skewed(machine, totals):
            original(machine, totals)
            machine.bus_stats.read_miss += 1

        monkeypatch.setattr(snooping, "_apply_counters", skewed)
        failure = oracle.run_case(generate_case(3, "kernel"))
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith("bus-kernel[")
        assert "read_miss" in failure.detail

    def test_corrupted_directory_kernel_is_caught(self, monkeypatch):
        from repro.kernels import directory

        original = directory._apply_counters

        def skewed(machine, totals, inv_sizes):
            original(machine, totals, inv_sizes)
            machine.stats.short += 1

        monkeypatch.setattr(directory, "_apply_counters", skewed)
        failure = oracle.run_case(generate_case(3, "kernel"))
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith("directory-kernel[")

    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_dropped_decoded_line_is_caught(self, engine, monkeypatch):
        # A decode that loses one line leaves every counter exact.  The
        # kernel-diff stage reads the counters while the state is
        # pending, then the decoded state, and fails on the lost line:
        # for the batch kernel, and for the streaming kernel once the
        # batch kernel declines.
        from repro.kernels import directory, snooping

        original = pending.defer

        def lossy(machine, fill, protocol=None):
            def fill_then_drop(caches, entries):
                fill(caches, entries)
                for cache in caches:
                    for block in cache.resident_blocks():
                        cache.remove(block)
                        return

            is_directory = isinstance(machine, DirectoryMachine)
            if is_directory == (engine == "directory"):
                original(machine, fill_then_drop, protocol)
            else:
                original(machine, fill, protocol)

        monkeypatch.setattr(pending, "defer", lossy)
        case = generate_case(3, "kernel")
        assert case.cache_size is None  # so the stream replay runs too
        failure = oracle.run_case(case)
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith(f"{engine}-kernel[")
        assert failure.detail.startswith("lines: generic=")
        kernel = directory if engine == "directory" else snooping
        monkeypatch.setattr(kernel, "try_replay",
                            lambda machine, packed, outcomes=None: None)
        failure = oracle.run_case(case)
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith(f"{engine}-stream[")
        assert failure.detail.startswith("lines: generic=")


#: Geometries of the pending-state tests: infinite caches, and tiny
#: LRU and FIFO caches whose conflict sets decode from the group walks'
#: final recency.
PENDING_GEOMETRIES = {
    "infinite": CacheConfig(size_bytes=None, block_size=16),
    "lru": CacheConfig(size_bytes=64, block_size=16),
    "fifo": CacheConfig(size_bytes=64, block_size=16, replacement="fifo"),
}

#: ``label -> (machine factory, counters, full state)`` per engine.
PENDING_ENGINES = {
    "directory": (lambda config: DirectoryMachine(config, BASIC),
                  _dir_counters, _dir_state),
    "first-touch": (lambda config: DirectoryMachine(
                        config, BASIC, placement=FirstTouchPlacement()),
                    _dir_counters, _dir_state),
    "bus": (lambda config: BusMachine(config, CompetitiveUpdateProtocol(2)),
            _bus_counters, _bus_state),
}

#: The first read of a pending machine, applied alike to the generic
#: reference machine.
FIRST_READS = {
    "caches": lambda machine: [len(cache) for cache in machine.caches],
    "entries": lambda machine: machine.protocol.entries.get(0),
    "access": lambda machine: machine.access(1, True, 0),
    "run": lambda machine: machine.run(_trace()),
}


def _pending_pair(engine, geometry):
    """A kernel replay and the generic loop's, on one engine."""
    make = PENDING_ENGINES[engine][0]
    config = MachineConfig(num_procs=NUM_PROCS,
                           cache=PENDING_GEOMETRIES[geometry])
    registry.engagements.clear()
    kernel = make(config)
    kernel.run(_trace())
    assert sum(registry.engagements.values()) == 1
    generic = make(config)
    with registry.disabled():
        generic.run(_trace())
    return kernel, generic


class TestPendingState:
    """An engaged replay's final state is decoded on first read only."""

    @pytest.mark.parametrize("geometry", PENDING_GEOMETRIES)
    @pytest.mark.parametrize("engine", PENDING_ENGINES)
    def test_counters_leave_state_pending(self, engine, geometry):
        kernel, generic = _pending_pair(engine, geometry)
        counters = PENDING_ENGINES[engine][1]
        assert counters(kernel) == counters(generic)
        assert _is_pending(kernel)
        if geometry != "infinite":
            # Guard the geometry: the group walks really evicted.
            stats = kernel.cache_stats
            assert stats.evictions_dirty + stats.evictions_clean > 0

    @pytest.mark.parametrize("geometry", PENDING_GEOMETRIES)
    @pytest.mark.parametrize("engine,read", [
        (engine, read) for engine in PENDING_ENGINES for read in FIRST_READS
        if not (engine == "bus" and read == "entries")
    ])
    def test_first_read_decodes_the_generic_state(self, engine, read,
                                                  geometry):
        kernel, generic = _pending_pair(engine, geometry)
        FIRST_READS[read](kernel)
        FIRST_READS[read](generic)
        assert not _is_pending(kernel)
        state = PENDING_ENGINES[engine][2]
        assert state(kernel) == state(generic)

    @pytest.mark.parametrize("engine", PENDING_ENGINES)
    def test_pickled_pending_machine_carries_the_decoded_state(self, engine):
        kernel, generic = _pending_pair(engine, "lru")
        copied = pickle.loads(pickle.dumps(kernel))
        assert not _is_pending(copied)
        state = PENDING_ENGINES[engine][2]
        assert state(copied) == state(generic)

    @pytest.mark.parametrize("engine", PENDING_ENGINES)
    def test_unread_machine_is_freed_without_the_cycle_collector(
            self, engine):
        # Nothing the pending state holds refers back to the machine, so
        # dropping an unread machine frees it (and its packed state) at
        # once, as callers that read only counters do on every replay.
        kernel, _ = _pending_pair(engine, "lru")
        assert _is_pending(kernel)
        gc.disable()
        try:
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
        finally:
            gc.enable()

    def test_decode_runs_once(self, monkeypatch):
        fills = []
        original = pending.defer

        def counted(machine, fill, protocol=None):
            def counted_fill(caches, entries):
                fills.append(1)
                fill(caches, entries)

            original(machine, counted_fill, protocol)

        monkeypatch.setattr(pending, "defer", counted)
        kernel, _ = _pending_pair("directory", "lru")
        entries = kernel.protocol.entries  # the stand-in, until decoded
        kernel.caches[0].lookup(0)
        assert not _is_pending(kernel)
        # A stand-in kept past the decode reads the real entries.
        assert len(entries) == len(kernel.protocol.entries) > 0
        assert entries.items() == kernel.protocol.entries.items()
        kernel.run(_trace())
        assert fills == [1]


#: Per-processor block footprints over one 4-way set (a 64-byte cache
#: of 16-byte blocks).  ``fits``: eight blocks share the set, but no
#: processor touches more than four, so the set never evicts and its
#: blocks take the per-block walks.  ``overflows``: processor 0 touches
#: six, so the set conflicts and takes the group walk.
CONTINUATION_FOOTPRINTS = {
    "fits": ((0, 1, 2, 3), (2, 3, 4, 5), (4, 5, 6, 7), (6, 7, 0, 1)),
    "overflows": ((0, 1, 2, 3, 4, 5), (2, 3, 4, 5), (4, 5, 6, 7),
                  (6, 7, 0, 1)),
}


def _footprint_trace(footprints, length: int, seed: int) -> PackedTrace:
    """``length`` seeded accesses, each processor within its footprint."""
    rng = random.Random(seed)
    accesses = []
    for _ in range(length):
        proc = rng.randrange(len(footprints))
        op = Op.WRITE if rng.random() < 0.3 else Op.READ
        accesses.append(Access(proc, op, 16 * rng.choice(footprints[proc])))
    return PackedTrace.from_accesses(accesses)


def _set_config(replacement: str) -> MachineConfig:
    return MachineConfig(
        num_procs=4,
        cache=CacheConfig(size_bytes=64, block_size=16,
                          replacement=replacement))


class TestContinuation:
    """A kernel ``run(a)`` followed by ``run(b)`` leaves exactly the
    state of the generic loop's ``run(a + b)``: the decoded per-set
    order is what the second run's fills evict by."""

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    @pytest.mark.parametrize("footprints", CONTINUATION_FOOTPRINTS)
    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_kernel_then_generic_equals_generic(self, engine, footprints,
                                                replacement):
        make, _counters, state = PENDING_ENGINES[engine]
        config = _set_config(replacement)
        tail_footprints = [range(10)] * 4  # the tail overflows every set
        for seed in range(4):
            head = _footprint_trace(CONTINUATION_FOOTPRINTS[footprints],
                                    60, seed)
            tail = _footprint_trace(tail_footprints, 30, seed + 100)
            conflicts = head.set_streams(4, 1, 4)
            assert bool(conflicts) == (footprints == "overflows")
            registry.engagements.clear()
            kernel = make(config)
            kernel.run(head)
            # Random replacement engages wherever no set can evict.
            assert sum(registry.engagements.values()) == (
                0 if conflicts and replacement == "random" else 1)
            kernel.run(tail)
            generic = make(config)
            with registry.disabled():
                generic.run(PackedTrace(head.procs + tail.procs,
                                        head.ops + tail.ops,
                                        head.addrs + tail.addrs))
            assert state(kernel) == state(generic)

    def test_the_lru_bug_repro_counts_like_the_generic_loop(self):
        # Processor 0 reads 0, 1, 2, 3, 0 and then 4, 0: the second 0 is
        # a hit only if the first run left block 1, not 0, least recent.
        def reads(*blocks):
            return PackedTrace.from_accesses(
                [Access(0, Op.READ, 16 * b) for b in blocks])

        config = MachineConfig(num_procs=2,
                               cache=CacheConfig(size_bytes=64, block_size=16))
        for make in (lambda: DirectoryMachine(config, BASIC),
                     lambda: BusMachine(config, MesiProtocol())):
            machine = make()
            machine.run(reads(0, 1, 2, 3, 0))
            machine.run(reads(4, 0))
            stats = machine.cache_stats
            assert (stats.read_hits, stats.read_misses,
                    stats.evictions_clean) == (2, 5, 1)


class TestRandomReplacement:
    @pytest.mark.parametrize("engine", ["directory", "bus"])
    def test_engages_when_every_processor_fits_its_sets(self, engine):
        make, _counters, state = PENDING_ENGINES[engine]
        config = _set_config("random")
        trace = _footprint_trace(CONTINUATION_FOOTPRINTS["fits"], 60, 0)
        registry.engagements.clear()
        registry.fallbacks.clear()
        kernel = make(config)
        kernel.run(trace)
        assert sum(registry.engagements.values()) == 1
        assert not registry.fallbacks
        generic = make(config)
        with registry.disabled():
            generic.run(trace)
        assert state(kernel) == state(generic)


class TestOwnLinesPremise:
    """Per-processor conflict classification assumes only a requester
    gains a line; an edge breaking that is refused, not walked."""

    def test_directory_edge(self, monkeypatch):
        from repro.kernels import directory

        table = registry._KernelTable(compile_dir_rows(CONVENTIONAL), 2, 2)
        root_key = table.rows.initial_state << 4
        root = table.node((0, root_key), root_key)
        # Claim processor 1 holds the block clean-exclusive: the read
        # miss's revocation then writes a SHARED line for processor 1.
        monkeypatch.setattr(directory, "_members", lambda lines: [(1, 2)])
        with pytest.raises(KernelUnsupported, match="another processor"):
            directory._expand(table, 0, root, 0)

    def test_bus_edge(self, monkeypatch):
        from repro.kernels import snooping

        rows = compile_snoop_rows(MesiProtocol())
        table = registry._KernelTable(
            rows, 2, 3 + rows.counter_threshold.bit_length())
        held = next(s for (s, _c), (ns, *_rest) in rows.read_react.items()
                    if s and ns)
        # The first snoop reports a holder processor 1 does not have; its
        # reaction then writes processor 1's field.
        real = snooping._holders
        fake = iter([[(1, held, 0)]])
        monkeypatch.setattr(snooping, "_holders",
                            lambda key, fb, skip: next(fake, None)
                            or real(key, fb, skip))
        with pytest.raises(KernelUnsupported, match="another processor"):
            snooping._expand(table, table.node(0, 0), 0)


#: Two per-block access sequences, one starting at processor 0 and one
#: at processor 2 (so first-touch homes their pages apart).
SHARED_SEQUENCES = (
    ((0, Op.READ), (0, Op.WRITE), (1, Op.READ), (1, Op.WRITE),
     (2, Op.READ), (3, Op.READ), (3, Op.WRITE)),
    ((2, Op.READ), (2, Op.WRITE), (0, Op.READ), (1, Op.READ)),
)

#: Geometries of the shared-sequence oracle: infinite caches, and 8-way
#: 1 KB caches (8 sets of 16-byte blocks) in which only set 0 conflicts.
SHARED_GEOMETRIES = {
    "infinite": CacheConfig(size_bytes=None, block_size=16),
    "conflict-set": CacheConfig(size_bytes=1024, block_size=16,
                                associativity=8),
}

#: ``label -> machine factory(config, check)`` of the oracle.
SHARED_ENGINES = {
    "directory": lambda config, check: DirectoryMachine(
        config, BASIC, check=check),
    "first-touch": lambda config, check: DirectoryMachine(
        config, BASIC, placement=FirstTouchPlacement(), check=check),
    "bus": lambda config, check: BusMachine(
        config, CompetitiveUpdateProtocol(2), check=check),
}


def _shared_sequence_trace() -> PackedTrace:
    """56 blocks replaying one of two sequences, interleaved, plus a
    conflict set.

    Each sequence covers 28 blocks, four in each of sets 1-7 and one
    4 KB page per slot, so no processor touches more than 8 blocks of
    those sets.  Processors 0 and 1 also hit 12 blocks of set 0 at
    random, which overflows processor 0's 8 ways there.
    """
    rng = random.Random(5)
    per_block = []
    for which, seq in enumerate(SHARED_SEQUENCES):
        for i in range(28):
            slot = 4 * which + i // 7  # also the block's page
            per_block.append((1 + i % 7 + 8 * slot + 256 * slot, seq))
    conflict_blocks = [8 * k + 256 * 8 for k in range(12)]
    accesses = []
    for step in range(max(map(len, SHARED_SEQUENCES))):
        for block, seq in per_block:
            if step < len(seq):
                proc, op = seq[step]
                accesses.append(Access(proc, op, 16 * block))
        for _ in range(10):
            op = Op.WRITE if rng.random() < 0.3 else Op.READ
            accesses.append(Access(rng.randrange(2), op,
                                   16 * rng.choice(conflict_blocks)))
    return PackedTrace.from_accesses(accesses)


class TestSharedSequences:
    """Blocks sharing one access sequence share one walk per replay, and
    the replay still matches the checked generic loop: counters at
    once, then the decoded state once the walk memo is gone."""

    @pytest.mark.parametrize("geometry", SHARED_GEOMETRIES)
    @pytest.mark.parametrize("engine", SHARED_ENGINES)
    def test_matches_the_checked_generic_loop(self, engine, geometry,
                                              monkeypatch):
        from repro.kernels import directory, snooping

        kernel_module = snooping if engine == "bus" else directory
        walked = []
        real_walk = kernel_module._walk

        def recording_walk(table, *args):
            *home, _root, syms = args
            walked.append((id(table), *home, bytes(syms)))
            return real_walk(table, *args)

        monkeypatch.setattr(kernel_module, "_walk", recording_walk)
        make = SHARED_ENGINES[engine]
        config = MachineConfig(num_procs=4, cache=SHARED_GEOMETRIES[geometry])
        trace = _shared_sequence_trace()
        registry.clear()
        kernel = make(config, False)
        kernel.run(trace)
        assert sum(registry.engagements.values()) == 1
        # Each distinct key was walked once: the 56 blocks replaying the
        # two shared sequences took at most one walk per sequence and
        # home, the 12 blocks of set 0 at most one each.
        assert len(set(walked)) == len(walked)
        shared = {bytes(2 * proc + (op is Op.WRITE) for proc, op in seq)
                  for seq in SHARED_SEQUENCES}
        assert 2 <= sum(key[-1] in shared for key in walked) <= 8
        assert len(walked) <= 8 + 12
        generic = make(config, True)
        generic.run(trace)
        counters, state = (
            (_bus_counters, _bus_state) if engine == "bus"
            else (_dir_counters, _dir_state))
        assert counters(kernel) == counters(generic)
        if geometry == "conflict-set":
            assert kernel.cache_stats.evictions_clean + \
                kernel.cache_stats.evictions_dirty > 0
        assert _is_pending(kernel)
        for table in (*registry._dir_tables.values(),
                      *registry._bus_tables.values()):
            table.seq_results.clear()
        assert state(kernel) == state(generic)
        if engine == "first-touch":
            assert kernel.placement._homes == generic.placement._homes


def _invalidation_families_trace(num_procs: int) -> PackedTrace:
    """Three blocks per ``k``: a write miss on ``k`` copies by a non-home
    processor, a home upgrade over ``k`` other copies, and a home write
    miss on ``k`` copies.  Each ``k`` interns new deltas."""
    accesses = []
    for k in range(1, num_procs):
        miss, upgrade, home_miss = 3 * k, 3 * k + 1, 3 * k + 2
        accesses += [Access(p, Op.READ, 16 * miss) for p in range(k)]
        accesses.append(Access(k, Op.WRITE, 16 * miss))
        accesses += [Access(p, Op.READ, 16 * upgrade) for p in range(k + 1)]
        accesses.append(Access(0, Op.WRITE, 16 * upgrade))
        accesses += [Access(p, Op.READ, 16 * home_miss)
                     for p in range(1, k + 1)]
        accesses.append(Access(0, Op.WRITE, 16 * home_miss))
    return PackedTrace.from_accesses(accesses)


class TestManyDeltas:
    def test_more_than_256_deltas_stay_engaged(self):
        # 100 processors keep the symbols in one byte, while the walks'
        # delta indices outgrow it.
        config = MachineConfig(num_procs=100,
                               cache=CacheConfig(size_bytes=None,
                                                 block_size=16))
        trace = _invalidation_families_trace(100)
        registry.clear()
        kernel = DirectoryMachine(config, BASIC)
        kernel.run(trace)
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks
        (table,) = registry._dir_tables.values()
        assert len(table.deltas) > 256
        generic = DirectoryMachine(config, BASIC, check=True)
        generic.run(trace)
        assert _dir_state(kernel) == _dir_state(generic)


def _reads(procs, block: int) -> list[Access]:
    return [Access(p, Op.READ, 16 * block) for p in procs]


def _limited_replay(accesses, pointers: int, broadcast: bool,
                    cache: CacheConfig | None = None, num_procs: int = 4):
    """Replay ``accesses`` under a limited-pointer directory on the
    kernel, which must engage and match the checked generic loop;
    returns the (decoded) kernel machine."""
    config = MachineConfig(
        num_procs=num_procs,
        cache=cache or CacheConfig(size_bytes=None, block_size=16))
    trace = PackedTrace.from_accesses(accesses)

    def make(**kwargs):
        return DirectoryMachine(
            config, BASIC,
            representation=LimitedPointerDirectory(pointers, broadcast),
            **kwargs)

    registry.engagements.clear()
    registry.fallbacks.clear()
    kernel = make()
    kernel.run(trace)
    assert registry.engagements == {"directory": 1}
    assert not registry.fallbacks
    checked = make(check=True)
    checked.run(trace)
    assert _dir_state(kernel) == _dir_state(checked)
    return kernel


def _limited_tables():
    """``(base, limited)``: the one full-map table and the one limited
    table in the registry."""
    (base,) = [t for t in registry._dir_tables.values() if t.limit is None]
    (limited,) = [t for t in registry._dir_tables.values() if t.limit]
    return base, limited


class TestLimitedPointers:
    """Dir_iB and Dir_iNB replays on the kernel, each against the
    checked generic loop.  Blocks 0-255 are homed at processor 0 and
    blocks 256-511 at processor 1 (4 KB round-robin pages)."""

    def test_dir1nb_victim_at_home_costs_nothing(self):
        # Processor 1's read miss overflows one pointer, so the lowest
        # other sharer, processor 0, loses its line: free on block 0,
        # whose home it is, 2 short messages on block 256.
        kernel = _limited_replay(_reads((0, 1), 0) + _reads((0, 1), 256),
                                 1, False)
        assert kernel.stats.by_cause_short["pointer_eviction"] == 2
        entries = kernel.protocol.entries
        assert entries[0].copyset == entries[256].copyset == {1}
        assert kernel.caches[0].lookup(0) is None

    def test_no_pointer_eviction_at_home_adds_no_cause(self):
        kernel = _limited_replay(_reads((0, 1), 0), 1, False)
        assert "pointer_eviction" not in kernel.stats.by_cause_short
        assert kernel.protocol.entries[0].copyset == {1}

    def test_broadcast_overflow_survives_eviction_until_the_last_copy(self):
        # One line per cache: every fill evicts.  Block 0 overflows,
        # shrinks to processor 2's copy by eviction, and its upgrade
        # still broadcasts.  Block 2 overflows, then loses both copies,
        # which clears the bit, so processor 3's write miss is charged
        # for no copies.  Block 3 ends overflowed.
        accesses = (_reads((1, 2), 0) + _reads((1,), 1)
                    + [Access(2, Op.WRITE, 0)]
                    + _reads((1, 2), 2) + _reads((1, 2), 3)
                    + [Access(3, Op.WRITE, 32)])
        kernel = _limited_replay(
            accesses, 1, True,
            CacheConfig(size_bytes=16, block_size=16, associativity=1))
        cache_stats = kernel.cache_stats
        assert cache_stats.evictions_clean + cache_stats.evictions_dirty >= 5
        short = kernel.stats.by_cause_short
        # num_procs - |{writer, home}| = 2 distant copies
        assert short["write_hit"] == write_hit_counts(False, 2)[0]
        assert short["write_miss"] == write_miss_counts(False, False, 0)[0]
        entries = kernel.protocol.entries
        assert entries[3].overflowed and entries[3].copyset == {1, 2}
        assert not entries[2].overflowed and entries[2].copyset == {3}
        assert not entries[0].overflowed and not entries[0].copyset

    @pytest.mark.parametrize("broadcast", [True, False], ids=["B", "NB"])
    def test_decoded_overflow_bit(self, broadcast):
        accesses = (_reads(range(4), 0) + _reads((0, 1), 1)
                    + _reads(range(4), 2) + [Access(1, Op.WRITE, 32)])
        kernel = _limited_replay(accesses, 2, broadcast)
        assert _is_pending(kernel) is False  # _limited_replay decoded it
        overflowed = {block: ent.overflowed
                      for block, ent in kernel.protocol.entries.items()}
        assert overflowed == {0: broadcast, 1: False, 2: False}

    def test_diverging_key_beside_a_key_that_never_diverges(self):
        # Block 0's third read overflows two pointers mid-walk; block
        # 1's sequence never holds more than two sharers.
        diverging = [(1, Op.READ), (2, Op.READ), (3, Op.READ),
                     (1, Op.WRITE), (2, Op.READ)]
        plain = [(1, Op.READ), (2, Op.READ), (1, Op.WRITE), (2, Op.READ)]
        accesses = [Access(p, op, 0) for p, op in diverging]
        accesses += [Access(p, op, 16) for p, op in plain]
        registry.clear()
        kernel = _limited_replay(accesses, 2, False)
        assert kernel.stats.by_cause_short["pointer_eviction"] == 2
        base, limited = _limited_tables()

        def key(seq):
            return (0, bytes(2 * p + (op is Op.WRITE) for p, op in seq))

        assert limited.seq_results[key(plain)] is base.seq_results[key(plain)]
        walked = limited.seq_results[key(diverging)]
        reused = base.seq_results[key(diverging)]
        assert list(walked[0][:2]) == list(reused[0][:2])
        assert walked != reused
        # The limited table grew nodes only from the divergence point.
        assert len(limited.nodes) < len(base.nodes)

    def test_timing_profile_counts_pointer_evictions(self):
        # Processor 1's blocks: every second reader evicts a non-home
        # copy, so each such read miss carries 2 more messages.
        accesses = []
        for block in range(256, 260):
            accesses += _reads((2, 3, 0), block) + [Access(2, Op.WRITE,
                                                           16 * block)]
        trace = PackedTrace.from_accesses(accesses)
        config = MachineConfig(num_procs=4,
                               cache=CacheConfig(size_bytes=None,
                                                 block_size=16))

        def make(**kwargs):
            return DirectoryMachine(
                config, BASIC,
                representation=LimitedPointerDirectory(1, False), **kwargs)

        registry.engagements.clear()
        profile = TimingSimulator(make()).profile(trace)
        assert registry.engagements == {"directory": 1}
        assert profile == TimingSimulator(make(check=True)).profile(trace)
        full_map = TimingSimulator(DirectoryMachine(config, BASIC)).profile(
            trace)
        assert profile.read_miss_msgs != full_map.read_miss_msgs
        assert sum(profile.read_miss_msgs.values()) == sum(
            full_map.read_miss_msgs.values())
        limited = make()
        limited.run(trace)
        assert limited.stats.by_cause_short["pointer_eviction"] > 0

    def test_replay_after_the_base_table_was_replaced(self, monkeypatch):
        # Ten nodes fit the small limited replay but not the full-map
        # replay of the module trace, which fills the shared base.
        monkeypatch.setattr(registry, "NODE_LIMIT", 10)
        registry.clear()
        accesses = _reads(range(4), 0) + [Access(4, Op.WRITE, 0)]
        accesses += _reads((1,), 1)

        def replay():
            return _limited_replay(accesses, 2, True,
                                   num_procs=NUM_PROCS)

        replay()
        first_base, first = _limited_tables()
        registry.engagements.clear()
        DirectoryMachine(_config(), BASIC).run(_trace())
        assert registry.fallbacks == {("directory", "walk-abort"): 1}
        assert first_base.full
        replay()
        base, limited = _limited_tables()
        assert base is not first_base and limited is not first
        assert limited.base is base
        assert limited.deltas is base.deltas
        assert limited.delta_index is base.delta_index
        # A full limited table is replaced by one over the same base.
        refilled = limited.fresh()
        assert refilled.base is base and refilled.deltas is base.deltas
