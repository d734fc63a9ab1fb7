"""The trace-driven CC-NUMA directory machine (Section 3.3).

:class:`DirectoryMachine` assembles per-node caches, a page-placement
policy, the directory protocol (conventional or adaptive), and Table 1
message charging.  Feeding it a trace of shared-data references reproduces
the measurement methodology behind Tables 2 and 3.

The model follows the paper:

* write-invalidate with delayed write-back; a modified block is written
  back when replaced or when another processor accesses it;
* blocks are loaded in a read-only (Shared) state by replicating read
  misses, and in an exclusive writable state by write misses and by the
  migratory migrate-on-read-miss path;
* a migratory block arrives with write permission, so the first write at
  its new node is silent — this is the entire saving;
* dropping a clean entry notifies the home node (charged at full message
  cost, as the paper chooses to); dirty victims are written back.

An optional coherence checker simulates block versions end-to-end and
asserts that every read observes the most recent write and that the
directory's copy set matches reality.  It is enabled in tests and disabled
in benchmark runs.  The structural invariants themselves live in
:mod:`repro.conformance.invariants` (shared with the model checker and
the conformance fuzzer), and external tools can observe every
protocol-visible step through :attr:`DirectoryMachine.step_hook`
without enabling the version checker.
"""

from __future__ import annotations

import enum
import random
from collections import Counter
from typing import Callable, Iterable

from repro.cache.core import Cache, CacheLine, make_cache
from repro.common.config import MachineConfig
from repro.conformance.invariants import check_directory_block
from repro.common.errors import ProtocolError
from repro.common.stats import CacheStats, MessageStats
from repro.common.types import Access, Op
from repro.directory.entry import DirState
from repro.directory.policy import AdaptivePolicy
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import (
    DirectoryRepresentation,
    FullMapDirectory,
)
from repro.interconnect.costs import (
    eviction_counts,
    read_miss_counts,
    write_hit_counts,
    write_miss_counts,
)
from repro.system.placement import PagePlacement, RoundRobinPlacement


class CState(enum.Enum):
    """Per-cache-line permission in the directory machine."""

    SHARED = "shared"  # read-only copy
    EXCL = "exclusive"  # write permission (dirty bit says if modified)


class DirectoryMachine:
    """A 16-node (configurable) CC-NUMA multiprocessor model."""

    __slots__ = (
        "config", "policy", "placement", "protocol", "representation",
        "block_messages", "caches", "stats", "cache_stats",
        "invalidation_sizes", "step_hook",
        "_check", "_block_shift", "_page_shift", "_home_shift",
        "_latest", "_version_counter", "__weakref__",
    )

    #: Named kernel-fallback reason a subclass replay records (the
    #: table-driven kernels encode exactly this class's transitions).
    kernel_fallback_reason = "machine-subclass"

    def __init__(
        self,
        config: MachineConfig,
        policy: AdaptivePolicy,
        placement: PagePlacement | None = None,
        check: bool = False,
        seed: int = 0,
        track_blocks: bool = False,
        representation: DirectoryRepresentation | None = None,
        step_hook: Callable[["DirectoryMachine", int, int], None] | None = None,
    ):
        self.config = config
        self.policy = policy
        self.placement = placement or RoundRobinPlacement(config.num_procs)
        self.protocol = DirectoryProtocol(policy)
        self.representation = representation or FullMapDirectory()
        #: Per-block message totals (populated when ``track_blocks``).
        self.block_messages: dict[int, int] | None = (
            {} if track_blocks else None
        )
        rng = random.Random(seed)
        self.caches: list[Cache] = [
            make_cache(config.cache, random.Random(rng.random()))
            for _ in range(config.num_procs)
        ]
        self.stats = MessageStats()
        self.cache_stats = CacheStats()
        #: Distribution of invalidation sizes: number of copies destroyed
        #: per invalidating write (Weber & Gupta's invalidation patterns).
        self.invalidation_sizes: Counter = Counter()
        #: Observer called as ``step_hook(machine, proc, block)`` after
        #: every protocol-visible step (misses, upgrades — the same
        #: points the built-in checker audits).  Installing one forces
        #: the generic per-access replay path.
        self.step_hook = step_hook
        self._check = check
        self._block_shift = config.cache.block_size.bit_length() - 1
        self._page_shift = config.page_size.bit_length() - 1
        # page_size >= block_size (validated by MachineConfig), so a
        # block's page is a single right shift away.
        self._home_shift = self._page_shift - self._block_shift
        # Coherence checker state: the latest version written to each block.
        self._latest: dict[int, int] = {}
        self._version_counter = 0

    # ------------------------------------------------------------------
    # Public driving interface
    # ------------------------------------------------------------------

    def run(self, trace: Iterable[Access]) -> MessageStats:
        """Process every access in ``trace``; returns the message stats.

        ``trace`` may be a :class:`repro.trace.core.Trace`, a
        :class:`repro.trace.packed.PackedTrace`, or any iterable of
        :class:`Access` records.  A packable trace replayed with no
        checker and no step hook runs on the table-driven kernel
        (:mod:`repro.kernels`) when it is inside the kernel envelope —
        bit-identical statistics and final state, more than an order of
        magnitude faster.  Its counters are written at once; the final
        cache lines and directory entries are decoded when first read
        (:mod:`repro.kernels.pending`), so a caller that reads only the
        counters never pays for them.  Every other replay, including
        each named and counted kernel fallback, takes the generic
        per-access loop, which columnar traces feed straight from
        ``iter_packed`` with no :class:`Access` boxing.  The hook contract is symmetric with
        :meth:`repro.snooping.machine.BusMachine.run`: install the hook
        *before* calling ``run``.
        """
        result = self._try_kernel(trace)
        if result is not None:
            return result
        access = self.access
        packer = getattr(trace, "iter_packed", None)
        if packer is not None:  # columnar traces skip Access boxing
            for proc, is_write, addr in packer():
                access(proc, is_write, addr)
        else:
            for acc in trace:
                access(acc.proc, acc.op is Op.WRITE, acc.addr)
        return self.stats

    def _try_kernel(self, trace, outcomes=None) -> MessageStats | None:
        """Replay ``trace`` on the table-driven kernel when it may.

        Returns the stats of an engaged replay, or ``None`` when the
        caller must take the generic loop: a trace with no ``pack``, a
        checker or a step hook (none of which is a fallback), or a named
        and counted kernel fallback.  ``outcomes`` is handed to
        :func:`repro.kernels.directory.try_replay` (the timing layer's
        per-access outcome counts).
        """
        pack = getattr(trace, "pack", None)
        if pack is None or self._check or self.step_hook is not None:
            return None
        if type(self) is not DirectoryMachine:
            from repro.kernels import registry as kernel_registry

            return kernel_registry.record_fallback(
                "directory", self.kernel_fallback_reason
            )
        from repro.kernels.directory import try_replay

        return try_replay(self, pack(), outcomes)

    def run_with_hints(
        self, trace: Iterable[Access], hints: Iterable[bool]
    ) -> MessageStats:
        """Process a trace with aligned read-exclusive hints.

        Hinted reads that miss fetch the block with ownership (one
        transaction), modelling a load-with-intent-to-modify instruction
        (see :mod:`repro.analysis.oracle`).
        """
        for acc, hint in zip(trace, hints):
            self.access(acc.proc, acc.op is Op.WRITE, acc.addr,
                        exclusive_hint=hint)
        return self.stats

    def access(
        self, proc: int, is_write: bool, addr: int,
        exclusive_hint: bool = False,
    ) -> None:
        """Process a single reference from ``proc`` to byte ``addr``.

        Args:
            exclusive_hint: for reads, fetch ownership on a miss (the
                off-line read-exclusive oracle); ignored for writes and
                read hits.
        """
        block = addr >> self._block_shift
        cache = self.caches[proc]
        line = cache.lookup(block)
        if not is_write:
            if line is not None:
                cache.touch(block)
                self.cache_stats.read_hits += 1
                if self._check:
                    self._check_read(block, line)
                return
            self.cache_stats.read_misses += 1
            if exclusive_hint:
                self._read_exclusive_miss(proc, block)
            else:
                self._read_miss(proc, block)
            if self._check:
                self._check_block(proc, block)
            if self.step_hook is not None:
                self.step_hook(self, proc, block)
            return
        if line is not None:
            if line.state is CState.EXCL:
                # Silent write: the node already holds write permission
                # (either it wrote before, or the block migrated in).
                line.dirty = True
                cache.touch(block)
                self.cache_stats.write_hits += 1
                self._bump_version(block, line)
                return
            self.cache_stats.write_hits += 1
            self._write_hit_shared(proc, block, line)
        else:
            self.cache_stats.write_misses += 1
            self._write_miss(proc, block)
        if self._check:
            self._check_block(proc, block)
        if self.step_hook is not None:
            self.step_hook(self, proc, block)

    def block_extra(self, block: int):
        """Per-block adaptation state beyond the directory entry.

        Family machines (see :mod:`repro.protocols`) whose decisions
        depend on more than the entry and the lines expose that state
        here so the bounded model checker can fold it into its global
        states.  ``None`` must mean "indistinguishable from a
        never-seen block".
        """
        return None

    def set_block_extra(self, block: int, extra) -> None:
        """Restore state previously returned by :meth:`block_extra`."""
        if extra is not None:
            raise ProtocolError(
                f"{type(self).__name__} keeps no per-block extra state"
            )

    # ------------------------------------------------------------------
    # Miss and upgrade handling
    # ------------------------------------------------------------------

    def _home_of(self, block: int, proc: int) -> int:
        return self.placement.home(block >> self._home_shift, proc)

    def _dirty_owner(self, block: int, copyset: set[int]) -> int | None:
        # A dirty copy can only exist while the copy set is a singleton:
        # every path that dirties a line (write miss, shared write hit,
        # silent write on an exclusive copy) first collapses the copy set
        # to the writer, and every path that adds a sharer flushes or
        # demotes the exclusive holder.  Larger copy sets therefore never
        # hold a dirty line, and the scan short-circuits.
        if len(copyset) == 1:
            (node,) = copyset
            line = self.caches[node].lookup(block)
            if line is not None and line.dirty:
                return node
        return None

    def _charge(self, cause: str, block: int, short: int, data: int) -> None:
        # Open-coded MessageStats.charge (counts from the helpers in
        # repro.interconnect.costs are already validated non-negative).
        stats = self.stats
        stats.short += short
        stats.data += data
        if short:
            stats.by_cause_short[cause] += short
        if data:
            stats.by_cause_data[cause] += data
        if self.block_messages is not None and (short or data):
            self.block_messages[block] = (
                self.block_messages.get(block, 0) + short + data
            )

    def _read_miss(self, proc: int, block: int) -> None:
        home = self._home_of(block, proc)
        ent = self.protocol.entry(block)
        dirty_owner = self._dirty_owner(block, ent.copyset)
        dirty = dirty_owner is not None
        was_migratory = ent.state is DirState.ONE_COPY_MIG
        migrate = self.protocol.read_miss(block, proc, dirty)
        home_local = home == proc
        if migrate:
            if dirty:
                dc = len(ent.copyset - {proc, home})
                short, data = read_miss_counts(home_local, True, dc)
                self.caches[dirty_owner].remove(block)
                ent.copyset.discard(dirty_owner)
            else:
                # Reloading a remembered-migratory block from memory.
                short, data = read_miss_counts(home_local, False, 0)
            self._charge("read_miss", block, short, data)
            self._fill(proc, block, CState.EXCL, dirty=False)
        else:
            if dirty:
                dc = len(ent.copyset - {proc, home})
                short, data = read_miss_counts(home_local, True, dc)
                owner_line = self.caches[dirty_owner].lookup(block)
                owner_line.state = CState.SHARED
                owner_line.dirty = False  # flushed to memory
            else:
                # Table 1 charges by the block's actual status: a *clean*
                # block — including a clean migratory one being demoted —
                # costs an ordinary clean read miss (memory is up to
                # date).  The paper's own accounting works this way, which
                # is why the aggressive protocol's data-message counts
                # barely rise on read-shared data (Table 2).
                short, data = read_miss_counts(home_local, False, 0)
                if was_migratory or len(ent.copyset) == 1:
                    # Revoke any clean-exclusive holder's silent-write
                    # permission (a demoted migratory copy or a hinted
                    # read-exclusive fill).  Exclusive copies only exist
                    # when the copy set is a singleton.
                    for node in ent.copyset:
                        owner_line = self.caches[node].lookup(block)
                        if owner_line is not None:
                            owner_line.state = CState.SHARED
            self._charge("read_miss", block, short, data)
            self._fill(proc, block, CState.SHARED, dirty=False)
        ent.copyset.add(proc)
        victim = self.representation.on_sharer_added(ent, proc)
        if victim is not None:
            # Dir_iNB pointer overflow: forcibly invalidate one sharer
            # (request + acknowledgement) to keep the directory exact.
            self.caches[victim].remove(block)
            ent.copyset.discard(victim)
            cost = 2 if victim != home else 0
            self._charge("pointer_eviction", block, cost, 0)

    def _read_exclusive_miss(self, proc: int, block: int) -> None:
        """A hinted read miss: fetch the block with ownership.

        Charged as a write miss (the fetch and the invalidations happen
        in one transaction); the line arrives exclusive-clean so the
        predicted write completes silently.
        """
        home = self._home_of(block, proc)
        ent = self.protocol.entry(block)
        dirty_owner = self._dirty_owner(block, ent.copyset)
        dirty = dirty_owner is not None
        self.protocol.write_miss(block, proc, dirty)
        dc = self.representation.invalidation_targets(
            ent, proc, home, self.config.num_procs
        )
        short, data = write_miss_counts(home == proc, dirty, dc)
        self._charge("read_exclusive", block, short, data)
        for node in ent.copyset:
            self.caches[node].remove(block)
        ent.copyset.clear()
        self._fill(proc, block, CState.EXCL, dirty=False)
        ent.copyset.add(proc)
        self.representation.on_exclusive(ent)

    def _write_miss(self, proc: int, block: int) -> None:
        home = self._home_of(block, proc)
        ent = self.protocol.entry(block)
        dirty_owner = self._dirty_owner(block, ent.copyset)
        dirty = dirty_owner is not None
        self.protocol.write_miss(block, proc, dirty)
        home_local = home == proc
        dc = self.representation.invalidation_targets(
            ent, proc, home, self.config.num_procs
        )
        short, data = write_miss_counts(home_local, dirty, dc)
        self._charge("write_miss", block, short, data)
        if ent.copyset:
            self.invalidation_sizes[len(ent.copyset)] += 1
        for node in ent.copyset:
            self.caches[node].remove(block)
        ent.copyset.clear()
        self._fill(proc, block, CState.EXCL, dirty=True)
        ent.copyset.add(proc)
        self.representation.on_exclusive(ent)
        self._bump_version(block, self.caches[proc].lookup(block))

    def _write_hit_shared(self, proc: int, block: int, line: CacheLine) -> None:
        home = self._home_of(block, proc)
        ent = self.protocol.entry(block)
        others = ent.copyset - {proc}
        self.protocol.write_hit(block, proc, sole_copy=not others)
        home_local = home == proc
        dc = self.representation.invalidation_targets(
            ent, proc, home, self.config.num_procs
        )
        short, data = write_hit_counts(home_local, dc)
        self._charge("write_hit", block, short, data)
        if others:
            self.invalidation_sizes[len(others)] += 1
        for node in others:
            self.caches[node].remove(block)
        ent.copyset.intersection_update({proc})
        ent.copyset.add(proc)
        self.representation.on_exclusive(ent)
        line.state = CState.EXCL
        line.dirty = True
        self.caches[proc].touch(block)
        self.cache_stats.upgrades += 1
        self._bump_version(block, line)

    def _fill(self, proc: int, block: int, state: CState, dirty: bool) -> None:
        victim = self.caches[proc].insert(block, state, dirty)
        if self._check:
            line = self.caches[proc].lookup(block)
            line.version = self._latest.get(block, 0)
        if victim is not None:
            self._evict(proc, victim)

    def _evict(self, proc: int, victim: CacheLine) -> None:
        vblock = victim.block
        home = self._home_of(vblock, proc)
        short, data = eviction_counts(
            victim.dirty, home == proc, self.config.eviction_notification
        )
        self._charge("eviction", vblock, short, data)
        if victim.dirty:
            self.cache_stats.evictions_dirty += 1
        else:
            self.cache_stats.evictions_clean += 1
        ent = self.protocol.peek(vblock)
        if ent is None:
            raise ProtocolError(f"evicting block {vblock} with no directory entry")
        if victim.dirty or self.config.eviction_notification:
            ent.copyset.discard(proc)
            if not ent.copyset:
                self.representation.on_exclusive(ent)
                self.protocol.note_uncached(vblock)

    # ------------------------------------------------------------------
    # Coherence checker (tests only)
    # ------------------------------------------------------------------

    def _bump_version(self, block: int, line: CacheLine) -> None:
        if not self._check:
            return
        self._version_counter += 1
        self._latest[block] = self._version_counter
        line.version = self._version_counter

    def _check_read(self, block: int, line: CacheLine) -> None:
        latest = self._latest.get(block, 0)
        if line.version != latest:
            raise ProtocolError(
                f"stale read of block {block}: copy has version "
                f"{line.version}, latest write is {latest}"
            )

    def _check_block(self, proc: int, block: int) -> None:
        """Verify structural invariants for one block after an operation."""
        check_directory_block(self, block)
        line = self.caches[proc].lookup(block)
        if line is not None:
            self._check_read(block, line)
