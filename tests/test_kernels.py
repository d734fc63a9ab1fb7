"""The table-driven replay kernels of :mod:`repro.kernels`.

Three contracts are pinned here:

* **Equivalence** — on kernel-eligible replays, every statistic and
  every piece of final microarchitectural state (cache lines with dirty
  bits and competitive counters, directory entries with copy sets,
  invalidators and evidence streaks, classification transitions) is
  identical to the generic engines', across the full policy/protocol
  matrix and every cache geometry; and the stats-only replays
  (``replay_counters``) count exactly what ``run()`` counts.
* **Gating** — anything outside the kernel envelope (subclassed
  components, observation hooks, random replacement, stale machines,
  processor counts past the wide cap, the kill switches) silently falls
  back to the generic loop with identical results and no engagement.
  Tiny evicting caches, first-touch placement, and processor counts up
  to 1024 are *inside* the envelope since the eviction-aware walks.
* **Compilation** — the probe-based compiler closes the evidence-streak
  axis by reachability for thresholded policies and produces stable,
  behaviour-keyed digests.
"""

import pytest

from repro.common.config import CacheConfig, MachineConfig
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
from repro.kernels import registry
from repro.kernels.tables import (
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
from repro.trace import synth

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


def _lines(machine):
    out = []
    for proc, cache in enumerate(machine.caches):
        for block in sorted(cache.resident_blocks()):
            line = cache.lookup(block)
            out.append((proc, block, line.state, line.dirty, line.counter))
    return out


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


def _run_directory(policy, cache_size, *, disabled, **kwargs):
    machine = DirectoryMachine(_config(cache_size), policy, **kwargs)
    if disabled:
        with registry.disabled():
            machine.run(_trace())
    else:
        machine.run(_trace())
    return machine


def _dir_counters(counters):
    """Every counter of a directory replay, from a machine or from
    :meth:`DirectoryMachine.replay_counters`."""
    stats = counters.stats
    transitions = getattr(counters, "transitions", None)
    if transitions is None:
        transitions = counters.protocol.transitions
    return {
        "short": stats.short,
        "data": stats.data,
        "by_cause_short": stats.by_cause_short,
        "by_cause_data": stats.by_cause_data,
        "cache_stats": counters.cache_stats,
        "invalidation_sizes": counters.invalidation_sizes,
        "transitions": transitions,
    }


def _assert_dir_stats_only_matches_run(policy, cache_size):
    """The stats-only replay counts exactly what ``run()`` counts and
    engages the kernel alike, on the default placement and on a
    first-touch one, whose homes it must assign identically."""
    for placement in (None, FirstTouchPlacement):
        run_placement = placement and placement()
        before = registry.engagements["directory"]
        full = _run_directory(policy, cache_size, disabled=False,
                              placement=run_placement)
        engaged = registry.engagements["directory"] - before
        only_placement = placement and placement()
        counters = DirectoryMachine.replay_counters(
            _trace(), _config(cache_size), policy, only_placement)
        assert registry.engagements["directory"] - before == 2 * engaged
        assert _dir_counters(counters) == _dir_counters(full)
        if placement is not None:
            assert only_placement._homes == run_placement._homes


def _bus_counters(counters):
    return {
        "bus_stats": counters.bus_stats,
        "by_kind": counters.bus_stats.by_kind,
        "cache_stats": counters.cache_stats,
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
        _assert_dir_stats_only_matches_run(policy, cache_size)


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
        counters = BusMachine.replay_counters(
            _trace(), _config(cache_size), factory())
        assert registry.engagements["bus"] == (2 if eligible else 0)
        assert _bus_counters(counters) == _bus_counters(kernel)


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
        self._assert_directory_fallback(
            representation=LimitedPointerDirectory(pointers=2))

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

    def test_skewed_stats_only_replay_is_caught(self, monkeypatch):
        # A drift confined to the stats-only replay (run() stays exact)
        # is caught by its own comparison in the kernel-diff stage.
        from repro.kernels import directory

        original = directory.try_replay

        def skewed(machine, packed, final_state=True):
            result = original(machine, packed, final_state)
            if result is not None and not final_state:
                machine.stats.data += 1
            return result

        monkeypatch.setattr(directory, "try_replay", skewed)
        failure = oracle.run_case(generate_case(3, "kernel"))
        assert failure is not None
        assert failure.stage == "kernel-diff"
        assert failure.engine.startswith("directory-stats-only[")
        assert "data: generic=" in failure.detail
