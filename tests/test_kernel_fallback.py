"""Kernel fallback accounting (``repro_kernel_fallback_total``).

Every ``try_replay`` gate that routes a replay to the generic
per-access loop must say *why*: the module counter
(:data:`repro.kernels.registry.fallbacks`) keyed ``(engine, reason)``,
the ambient telemetry counter labelled the same way, and a DEBUG log
line.  An engaged kernel replay must count nothing — fallbacks measure
envelope gaps, not traffic.
"""

import logging
from array import array

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import Access, Op
from repro.directory.policy import BASIC, CONVENTIONAL
from repro.directory.representation import LimitedPointerDirectory
from repro.kernels import registry
from repro.protocols.classifier import ClassifierDirectoryMachine
from repro.protocols.hybrid import HybridUpdateInvalidateProtocol
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.trace.core import Trace
from repro.trace.packed import PackedTrace

NUM_PROCS = 4


def _trace(num_procs: int = NUM_PROCS, blocks: int = 2) -> Trace:
    accesses = []
    for _ in range(4):
        for proc in range(num_procs):
            for block in range(blocks):
                accesses.append(Access(proc, Op.READ, 16 * block))
                accesses.append(Access(proc, Op.WRITE, 16 * block))
    return Trace(accesses, name="fallback-probe")


def _config(num_procs: int = NUM_PROCS,
            size_bytes: int | None = None) -> MachineConfig:
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=size_bytes, block_size=16),
    )


@pytest.fixture(autouse=True)
def _fresh_counters():
    registry.engagements.clear()
    registry.fallbacks.clear()
    yield
    registry.engagements.clear()
    registry.fallbacks.clear()


class TestNoFalsePositives:
    def test_engaged_directory_replay_counts_nothing(self):
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    def test_engaged_bus_replay_counts_nothing(self):
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_trace())
        assert registry.engagements["bus"] == 1
        assert not registry.fallbacks

    def test_engaged_stream_replay_counts_nothing(self):
        from repro.kernels.streaming import replay_stream

        machine = DirectoryMachine(_config(), BASIC)
        replay_stream(machine, _trace().pack(), chunk=16)
        assert registry.engagements["directory-stream"] == 1
        assert not registry.fallbacks

    def test_stream_fallback_is_counted_under_its_own_engine(self):
        from repro.kernels.streaming import replay_stream

        machine = DirectoryMachine(_config(size_bytes=64), BASIC)
        replay_stream(machine, _trace(blocks=8).pack(), chunk=16)
        assert registry.fallbacks[("directory-stream", "finite-cache")] == 1
        # ... and the fallback replay itself still engaged the batch
        # kernel, so nothing else was counted against the envelope.
        assert registry.engagements["directory"] == 1


class TestReasons:
    def test_disabled_context_manager(self):
        with registry.disabled():
            DirectoryMachine(_config(), BASIC).run(_trace())
            BusMachine(_config(), MesiProtocol()).run(_trace())
        assert registry.fallbacks[("directory", "disabled")] == 1
        assert registry.fallbacks[("bus", "disabled")] == 1
        assert registry.engagements["directory"] == 0
        assert registry.engagements["bus"] == 0

    def test_no_kernel_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_KERNEL", "1")
        DirectoryMachine(_config(), BASIC).run(_trace())
        assert registry.fallbacks[("directory", "disabled")] == 1

    def test_not_fresh_machine(self):
        machine = DirectoryMachine(_config(), BASIC)
        machine.run(_trace())
        machine.run(_trace())  # second replay on a warm machine
        assert registry.engagements["directory"] == 1
        assert registry.fallbacks[("directory", "not-fresh")] == 1

    def test_evictions_on_a_tiny_finite_cache_engage(self):
        # 4 blocks of cache, 8 distinct blocks touched: replacement is
        # observable, and the eviction-aware group walks replay it —
        # the replay must engage and count NO fallback (segment
        # restarts are not fallbacks).
        machine = DirectoryMachine(_config(size_bytes=64), BASIC)
        machine.run(_trace(blocks=8))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks
        assert (machine.cache_stats.evictions_dirty
                + machine.cache_stats.evictions_clean) > 0

    def test_random_replacement_falls_back(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16,
                              replacement="random"),
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=8))
        assert registry.fallbacks[("directory", "replacement-random")] == 1
        BusMachine(config, MesiProtocol()).run(_trace(blocks=8))
        assert registry.fallbacks[("bus", "replacement-random")] == 1

    def test_random_replacement_without_conflicts_engages(self):
        # The RNG is only unobservable when a set can actually evict;
        # a conflict-free replay engages whatever the replacement says.
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16,
                              replacement="random"),
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=2))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    def test_silent_clean_evictions_fall_back(self):
        config = MachineConfig(
            num_procs=NUM_PROCS,
            cache=CacheConfig(size_bytes=64, block_size=16),
            eviction_notification=False,
        )
        DirectoryMachine(config, BASIC).run(_trace(blocks=8))
        assert registry.engagements["directory"] == 0
        assert registry.fallbacks[("directory", "eviction-silent")] == 1
        # Without conflicts the notification flag is moot: engage.
        registry.fallbacks.clear()
        registry.engagements.clear()
        DirectoryMachine(config, BASIC).run(_trace(blocks=2))
        assert registry.engagements["directory"] == 1
        assert not registry.fallbacks

    @pytest.mark.parametrize("engine, reason, machine_cls, parts", [
        ("directory", "representation", DirectoryMachine, lambda: {
            "policy": BASIC,
            "representation": LimitedPointerDirectory(4, True)}),
        ("directory", "representation", DirectoryMachine, lambda: {
            "policy": BASIC,
            "representation": LimitedPointerDirectory(4, False)}),
        ("bus", "family-unkerneled", BusMachine, lambda: {
            "protocol": HybridUpdateInvalidateProtocol()}),
        ("directory", "family-unkerneled", ClassifierDirectoryMachine,
         lambda: {"policy": CONVENTIONAL}),
    ], ids=["dir4B", "dir4NB", "hybrid-bus", "classifier"])
    def test_fallback_replay_matches_the_checked_generic_replay(
            self, engine, reason, machine_cls, parts):
        # 8 processors read every block, so 4 pointers overflow; the
        # first 4 each write their own word of it (false sharing).
        accesses = []
        for _ in range(4):
            for proc in range(8):
                for block in range(4):
                    accesses.append(Access(proc, Op.READ, 16 * block))
                    if proc < 4:
                        accesses.append(
                            Access(proc, Op.WRITE, 16 * block + 4 * proc))
        trace = Trace(accesses, name="fallback-words")
        config = _config(num_procs=8)
        checked = machine_cls(config, check=True, **parts())
        checked.run(list(trace))
        assert not registry.fallbacks  # the checker never asks a kernel
        fallback = machine_cls(config, **parts())
        fallback.run(trace.pack())
        assert registry.fallbacks == {(engine, reason): 1}
        assert not registry.engagements
        if engine == "bus":
            assert fallback.bus_stats == checked.bus_stats
        else:
            assert fallback.stats == checked.stats
            assert fallback.invalidation_sizes == checked.invalidation_sizes
        assert fallback.cache_stats == checked.cache_stats
        if isinstance(fallback, ClassifierDirectoryMachine):
            # The word taps see the same footprints from packed columns
            # as from Access records.
            labels = {block: fallback.protocol.classify(block)
                      for block in fallback.protocol.patterns}
            assert labels == {block: checked.protocol.classify(block)
                              for block in checked.protocol.patterns}
            assert set(labels.values()) == {"false-sharing"}
        # A second replay read only through its counters falls back
        # once, under the same reason, and counts what the checked
        # replay counted.
        registry.fallbacks.clear()
        counted = machine_cls(config, **parts())
        counted.run(trace.pack())
        assert registry.fallbacks == {(engine, reason): 1}
        assert not registry.engagements
        if engine == "bus":
            assert counted.bus_stats == checked.bus_stats
        else:
            assert counted.stats == checked.stats
            assert counted.invalidation_sizes == checked.invalidation_sizes
            assert counted.protocol.transitions == checked.protocol.transitions
        assert counted.cache_stats == checked.cache_stats

    @pytest.mark.parametrize("engine, make", [
        ("directory", lambda config: DirectoryMachine(config, BASIC)),
        ("bus", lambda config: BusMachine(config, MesiProtocol())),
    ])
    def test_negative_processor_id_is_symbol_range(self, engine, make):
        # Processor -1 has no symbol, so the batch split refuses it.
        packed = PackedTrace(array("q", [0, 1, -1, 2, 0]),
                             array("b", [0, 1, 0, 1, 0]),
                             array("q", [0, 0, 16, 0, 16]))
        machine = make(_config())
        machine.run(packed)
        assert registry.fallbacks == {(engine, "symbol-range"): 1}
        assert not registry.engagements
        reference = make(_config())
        with registry.disabled():
            reference.run(packed)
        assert machine.cache_stats == reference.cache_stats
        assert machine.cache_stats.accesses == len(packed)

    def test_bus_not_fresh(self):
        machine = BusMachine(_config(), MesiProtocol())
        machine.run(_trace())
        machine.run(_trace())
        assert registry.engagements["bus"] == 1
        assert registry.fallbacks[("bus", "not-fresh")] == 1

    @pytest.mark.parametrize("engine, make, table", [
        ("directory", lambda config: DirectoryMachine(config, BASIC),
         lambda: registry.dir_table(BASIC, NUM_PROCS)),
        ("bus", lambda config: BusMachine(config, MesiProtocol()),
         lambda: registry.bus_table(MesiProtocol(), NUM_PROCS)),
    ], ids=["directory", "bus"])
    def test_full_table_is_replaced_at_the_next_lookup(self, engine, make,
                                                       table):
        # A DFA allowed one node fills on the first replay, which falls
        # back; the next replay must start a fresh table and engage.
        registry.clear()
        table().node_limit = 1
        make(_config()).run(_trace())
        assert registry.fallbacks == {(engine, "walk-abort"): 1}
        registry.fallbacks.clear()
        make(_config()).run(_trace())
        assert registry.engagements[engine] == 1
        assert not registry.fallbacks

    def test_clear_resets_fallbacks(self):
        registry.record_fallback("directory", "probe")
        assert registry.fallbacks
        registry.clear()
        assert not registry.fallbacks


class TestSweepEnvelope:
    """Paper-sweep geometries stay on the kernel fast path.

    Table 2 (cache-size sweep) runs finite, evicting caches under
    best-static placement — exactly the configurations the
    eviction-aware walks brought inside the envelope.  The sweep must
    record *zero* eviction- or placement-shaped fallbacks.
    """

    def test_table2_style_sweep_records_no_envelope_fallbacks(self, monkeypatch):
        from repro.experiments import common, table2

        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        common.clear_caches()
        table2.run(apps=("mp3d",), cache_sizes=(4096,),
                   scale=0.1, num_procs=8)
        common.clear_caches()
        assert registry.engagements["directory"] > 0
        reasons = {reason for (_engine, reason) in registry.fallbacks}
        assert not reasons & {"evictions", "placement",
                              "replacement-random", "eviction-silent"}, (
            dict(registry.fallbacks))


class TestTelemetryMirror:
    def test_counter_lands_in_the_active_session(self, tmp_path):
        from repro.telemetry import runtime

        with runtime.session(tmp_path) as sess:
            with registry.disabled():
                DirectoryMachine(_config(), BASIC).run(_trace())
        counter = sess.registry.counter(registry.FALLBACK_METRIC)
        assert counter.value(engine="directory", reason="disabled") == 1

    def test_free_noop_without_a_session(self):
        # Must not raise (and must still count module-side).
        registry.record_fallback("bus", "probe")
        assert registry.fallbacks[("bus", "probe")] == 1


class TestDebugLog:
    def test_reason_logged_at_debug(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.kernels"):
            registry.record_fallback("directory", "evictions")
        assert any("engine=directory" in message
                   and "reason=evictions" in message
                   for message in caplog.messages)

    def test_quiet_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            registry.record_fallback("directory", "evictions")
        assert not caplog.messages
