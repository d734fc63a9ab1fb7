"""The bus-based snooping multiprocessor model (Sections 2.1 and 4.3).

On a bus, the cost of running the coherence protocol is proportional to
the number of bus transactions rather than messages: any operation is at
most one (split) transaction, because requests broadcast and no individual
acknowledgements are needed.  :class:`BusMachine` counts read-miss,
write-miss, invalidation, and writeback transactions; the two cost models
of Section 4.3 are applied by :mod:`repro.snooping.costmodels`.

Clean replacements are silent (a snooping protocol keeps no state for
uncached blocks — this is exactly the "power" difference from the
directory protocols that Section 4.3 highlights).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.cache.core import Cache, CacheLine, make_cache
from repro.common.config import MachineConfig
from repro.conformance.invariants import check_snooping_block
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats
from repro.common.types import Access, Op
from repro.snooping.protocols import SnoopingProtocol
from repro.snooping.states import SnoopState as St


@dataclass(frozen=True, slots=True)
class BusCounters:
    """Every counter of one bus replay, without its final state.

    Returned by :meth:`BusMachine.replay_counters`; the fields are the
    machine's own counter objects.
    """

    bus_stats: BusStats
    cache_stats: CacheStats


class BusMachine:
    """A bus-based multiprocessor running one snooping protocol."""

    __slots__ = (
        "config", "protocol", "caches", "bus_stats", "cache_stats",
        "step_hook", "_check", "_block_shift", "_latest", "_version_counter",
    )

    #: Named kernel-fallback reason a subclass replay records (the
    #: table-driven kernels encode exactly this class's transitions).
    kernel_fallback_reason = "machine-subclass"

    def __init__(
        self,
        config: MachineConfig,
        protocol: SnoopingProtocol,
        check: bool = False,
        seed: int = 0,
        step_hook: Callable[["BusMachine", int, int], None] | None = None,
    ):
        self.config = config
        self.protocol = protocol
        rng = random.Random(seed)
        self.caches: list[Cache] = [
            make_cache(config.cache, random.Random(rng.random()))
            for _ in range(config.num_procs)
        ]
        self.bus_stats = BusStats()
        self.cache_stats = CacheStats()
        #: Observer called as ``step_hook(machine, proc, block)`` after
        #: every bus-visible step (the same points the built-in checker
        #: audits).  Installing one forces the generic replay path.
        self.step_hook = step_hook
        self._check = check
        self._block_shift = config.cache.block_size.bit_length() - 1
        self._latest: dict[int, int] = {}
        self._version_counter = 0

    def run(self, trace: Iterable[Access]) -> BusStats:
        """Process every access in ``trace``; returns bus statistics.

        Dispatches like :meth:`repro.system.machine.DirectoryMachine.run`:
        a packable trace with no checker and no step hook runs on the
        table-driven kernel when it is inside the kernel envelope, and
        every other replay — each kernel fallback named and counted —
        takes the generic per-access loop, fed from ``iter_packed``
        when the trace is columnar.  Install a step hook *before*
        calling ``run``.
        """
        if not self._kernel_replay(trace, final_state=True):
            self._generic_replay(trace)
        return self.bus_stats

    @classmethod
    def replay_counters(
        cls,
        trace: Iterable[Access],
        config: MachineConfig,
        protocol: SnoopingProtocol,
        **machine_kwargs,
    ) -> BusCounters:
        """Replay ``trace`` on a fresh machine and return only its counters.

        The stats-only replay, like
        :meth:`repro.system.machine.DirectoryMachine.replay_counters`:
        the machine is built as ``cls(config, protocol,
        **machine_kwargs)`` and dispatches exactly like :meth:`run`, but
        an engaged kernel skips the final-state backfill of cache lines,
        and the machine never leaves this method.
        """
        machine = cls(config, protocol, **machine_kwargs)
        if not machine._kernel_replay(trace, final_state=False):
            machine._generic_replay(trace)
        return BusCounters(machine.bus_stats, machine.cache_stats)

    def _kernel_replay(self, trace, final_state: bool) -> bool:
        """Try the table-driven kernel; whether it replayed ``trace``.

        Falls back exactly as
        :meth:`repro.system.machine.DirectoryMachine._kernel_replay`.
        """
        pack = getattr(trace, "pack", None)
        if pack is None or self._check or self.step_hook is not None:
            return False
        if type(self) is not BusMachine:
            from repro.kernels import registry as kernel_registry

            kernel_registry.record_fallback(
                "bus", self.kernel_fallback_reason
            )
            return False
        from repro.kernels.snooping import try_replay

        return try_replay(self, pack(), final_state) is not None

    def _generic_replay(self, trace) -> None:
        """The reference per-access loop over ``trace``."""
        access = self.access
        packer = getattr(trace, "iter_packed", None)
        if packer is not None:  # columnar traces skip Access boxing
            for proc, is_write, addr in packer():
                access(proc, is_write, addr)
        else:
            for acc in trace:
                access(acc.proc, acc.op is Op.WRITE, acc.addr)

    def access(self, proc: int, is_write: bool, addr: int) -> None:
        """Process one reference from ``proc`` to byte address ``addr``."""
        block = addr >> self._block_shift
        cache = self.caches[proc]
        line = cache.lookup(block)
        if not is_write:
            if line is not None:
                cache.touch(block)
                self.cache_stats.read_hits += 1
                self.protocol.read_hit(line)
                if self._check:
                    self._check_read(block, line)
                return
            self.cache_stats.read_misses += 1
            self.bus_stats.record("read_miss")
            state, dirty = self.protocol.read_miss_fill(self.caches, proc, block)
            self._fill(proc, block, state, dirty)
            if self._check:
                self._check_block(block)
            if self.step_hook is not None:
                self.step_hook(self, proc, block)
            return
        if line is not None:
            self.cache_stats.write_hits += 1
            cache.touch(block)
            if self.protocol.write_hit_needs_bus(line):
                kind = self.protocol.write_hit_bus(self.caches, proc, block, line)
                self.bus_stats.record(kind)
                self.cache_stats.upgrades += 1
            else:
                self.protocol.write_hit_silent(line)
            self._bump_version(block, line)
        else:
            self.cache_stats.write_misses += 1
            self.bus_stats.record("write_miss")
            state, dirty = self.protocol.write_miss_fill(self.caches, proc, block)
            self._fill(proc, block, state, dirty)
            self._bump_version(block, self.caches[proc].lookup(block))
        if self.protocol.updates_remote_copies:
            # Update broadcasts leave every surviving copy current.
            self._sync_versions(block)
        if self._check:
            self._check_block(block)
        if self.step_hook is not None:
            self.step_hook(self, proc, block)

    def _fill(self, proc: int, block: int, state: St, dirty: bool) -> None:
        victim = self.caches[proc].insert(block, state, dirty)
        if self._check:
            self.caches[proc].lookup(block).version = self._latest.get(block, 0)
        if victim is not None:
            if victim.dirty:
                self.bus_stats.record("writeback")
                self.cache_stats.evictions_dirty += 1
            else:
                # Clean replacement is silent on a bus.
                self.cache_stats.evictions_clean += 1

    # ------------------------------------------------------------------
    # Coherence checker (tests only)
    # ------------------------------------------------------------------

    def _bump_version(self, block: int, line: CacheLine) -> None:
        if not self._check:
            return
        self._version_counter += 1
        self._latest[block] = self._version_counter
        line.version = self._version_counter

    def _sync_versions(self, block: int) -> None:
        if not self._check:
            return
        latest = self._latest.get(block, 0)
        for cache in self.caches:
            line = cache.lookup(block)
            if line is not None:
                line.version = latest

    def _check_read(self, block: int, line: CacheLine) -> None:
        latest = self._latest.get(block, 0)
        if line.version != latest:
            raise ProtocolError(
                f"stale read of block {block}: copy version {line.version}, "
                f"latest write {latest}"
            )

    def _check_block(self, block: int) -> None:
        check_snooping_block(self, block)
