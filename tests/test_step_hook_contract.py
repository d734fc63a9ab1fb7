"""The symmetric ``step_hook`` contract on both machines.

A hook installed before ``run`` forces the generic per-access path (on
both machines) and observes every protocol-visible step while leaving
every statistic bit-identical to the hook-free replay.  The generic
loop consults the hook at every step, so one that appears mid-replay
simply starts observing there (the kernel path, which sums the whole
trace before any hook could fire, rejects that case: see
``tests/test_kernel_hook_contract.py``).
"""

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import Access, Op
from repro.directory.policy import BASIC
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.trace.core import Trace

NUM_PROCS = 4


def _trace() -> Trace:
    accesses = []
    for round_no in range(8):
        for proc in range(NUM_PROCS):
            accesses.append(Access(proc, Op.READ, 16 * proc))
            accesses.append(Access(proc, Op.WRITE, 16 * proc))
            accesses.append(Access(proc, Op.READ, 0))
            if round_no % 2:
                accesses.append(Access(proc, Op.WRITE, 0))
    return Trace(accesses, name="hook-contract")


def _config() -> MachineConfig:
    return MachineConfig(
        num_procs=NUM_PROCS,
        cache=CacheConfig(size_bytes=None, block_size=16),
    )


class TestHookForcesGenericPath:
    """With a hook, both machines take the per-access path, fire the
    hook on every protocol-visible step, and keep identical stats."""

    def test_directory(self):
        unhooked = DirectoryMachine(_config(), BASIC)
        unhooked.run(_trace())
        seen = []
        hooked = DirectoryMachine(
            _config(), BASIC,
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        hooked.run(_trace())
        stats = hooked.cache_stats
        assert len(seen) == (stats.read_misses + stats.write_misses
                             + stats.upgrades)
        assert hooked.cache_stats == unhooked.cache_stats
        assert hooked.stats.short == unhooked.stats.short
        assert hooked.stats.data == unhooked.stats.data

    def test_bus(self):
        unhooked = BusMachine(_config(), MesiProtocol())
        unhooked.run(_trace())
        seen = []
        hooked = BusMachine(
            _config(), MesiProtocol(),
            step_hook=lambda m, p, b: seen.append((p, b)),
        )
        hooked.run(_trace())
        stats = hooked.cache_stats
        # The bus hook additionally fires on bus-silent write hits.
        assert len(seen) >= (stats.read_misses + stats.write_misses
                             + stats.upgrades)
        assert hooked.cache_stats == unhooked.cache_stats
        assert hooked.bus_stats.by_kind == unhooked.bus_stats.by_kind


class _HookInstallingPlacement:
    """Placement that sneaks a hook onto the machine during a replay."""

    def __init__(self):
        self.machine = None

    def home(self, page: int, accessor: int) -> int:
        if self.machine.step_hook is None:
            self.machine.step_hook = lambda m, p, b: None
        return 0


class TestMidReplayInstallRejected:
    """Only the kernel path rejects a mid-replay install."""

    def test_generic_path_tolerates_mid_replay_install(self):
        # The per-access path calls the hook from the step it appears
        # at onward, so installing one mid-replay is harmless — for a
        # plain iterable and for a packable trace the kernel declines
        # (a custom placement is outside its envelope).
        for trace in (iter(_trace()), _trace()):
            placement = _HookInstallingPlacement()
            machine = DirectoryMachine(_config(), BASIC, placement=placement)
            placement.machine = machine
            machine.run(trace)
            assert machine.step_hook is not None
