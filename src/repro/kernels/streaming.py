"""Streaming interpreter over the compiled replay tables.

The batch kernels (:mod:`repro.kernels.directory` / ``snooping``) need
the whole trace resident to split it into per-block symbol sequences.
That caps trace size at available RAM — a billion-access trace is tens
of gigabytes of columns before the walk even starts.  This module runs
the *same* compiled rows as a streaming interpreter: the caller feeds
:class:`~repro.trace.packed.PackedTrace` segments one at a time
(:meth:`PackedTrace.segments`, a synthesis generator, or chunks attached
from a shared-memory arena via :func:`repro.trace.shm.attach_packed`),
and the replay keeps only

* one DFA node reference per *block seen so far* — the block's current
  machine state, exactly what the machine itself must hold — and
* O(chunk) transient state per fed segment (that segment's per-block
  symbol runs and delta lists).

Statistics merge deterministically: every per-segment walk yields
integer delta totals, and integer addition is order-independent, so a
replay fed in 1-access segments produces byte-identical stats and final
machine state to the batch kernel and to the generic loop.

Blocks making their first appearance start at the DFA root and reuse
the batch kernels' per-sequence result caches; continuation walks (a
block spanning segments) resume from the stored node.  ``finish()``
writes the accumulated totals and final per-block states through the
batch kernels' own ``_apply`` helpers, so the two backends cannot
drift.

The streaming envelope is the batch envelope minus finite caches:
replacement needs the set's *global* conflict structure, which a
segment-local view cannot establish (a set that never conflicts within
any one segment may still conflict across them).  Ineligible machines
raise :class:`~repro.kernels.tables.KernelUnsupported` from the
constructor; :func:`replay_stream` converts that into an honest counted
fallback onto ``machine.run``.
"""

from __future__ import annotations

from repro.cache.core import InfiniteCache
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats, MessageStats
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import FullMapDirectory
from repro.kernels import registry, snooping
from repro.kernels import directory as dkernel
from repro.kernels.tables import KernelUnsupported
from repro.system.placement import FirstTouchPlacement


def _unsupported(engine: str, reason: str):
    """Raise the constructor-contract error for an ineligible machine."""
    raise KernelUnsupported(f"{engine}: {reason}")


class DirectoryStreamReplay:
    """Incremental table-driven replay for a ``DirectoryMachine``.

    Usage::

        replay = DirectoryStreamReplay(machine)
        for segment in packed.segments(1 << 20):
            replay.feed(segment)
        stats = replay.finish()

    The machine is untouched until :meth:`finish`; a
    :class:`KernelUnsupported` raised by the constructor or mid-feed
    leaves it fresh, so the caller can still run any other backend.
    """

    #: Engagement / fallback engine label.
    ENGINE = "directory-stream"

    def __init__(self, machine):
        config = machine.config
        if not registry.kernels_enabled():
            _unsupported(self.ENGINE, "disabled")
        if config.num_procs > dkernel._MAX_PROCS:
            _unsupported(self.ENGINE, "num-procs")
        if machine.block_messages is not None:
            _unsupported(self.ENGINE, "block-messages")
        if machine.step_hook is not None:
            _unsupported(self.ENGINE, "step-hook")
        from repro.system.machine import DirectoryMachine

        if type(machine) is not DirectoryMachine:
            # Family machines override the charging paths the compiled
            # rows encode; their class names the honest reason.
            _unsupported(
                self.ENGINE,
                getattr(machine, "kernel_fallback_reason", "machine-subclass"),
            )
        placement = machine.placement
        self._first_touch = type(placement) is FirstTouchPlacement
        if (not self._first_touch
                and type(placement) not in dkernel._PLACEMENT_TYPES):
            _unsupported(self.ENGINE, "placement")
        if type(machine.representation) is not FullMapDirectory:
            _unsupported(self.ENGINE, "representation")
        if type(machine.protocol) is not DirectoryProtocol:
            _unsupported(self.ENGINE, "protocol-type")
        if (machine.stats != MessageStats()
                or machine.cache_stats != CacheStats()
                or machine.protocol._entries or machine.protocol.transitions
                or machine.invalidation_sizes
                or any(len(cache) for cache in machine.caches)):
            _unsupported(self.ENGINE, "not-fresh")
        first = machine.caches[0] if machine.caches else None
        if type(first) is not InfiniteCache:
            # Replacement needs the set's global conflict structure,
            # which a segment-local view cannot establish.
            _unsupported(self.ENGINE, "finite-cache")
        try:
            self._table = registry.dir_table(machine.policy, config.num_procs)
        except KernelUnsupported:
            _unsupported(self.ENGINE, "table-unsupported")
        self.machine = machine
        self._wide = config.num_procs > 128
        self._root_key = self._table.rows.initial_state << (2 * config.num_procs)
        #: block -> (home, current DFA node) for every block seen so far.
        self._nodes: dict[int, tuple[int, list]] = {}
        if self._first_touch:
            self._homes = dict(placement._homes)
            self._new_homes: dict[int, int] = {}
        self._totals = [0] * dkernel._VEC
        self._inv_sizes: dict[int, int] = {}
        self._finished = False

    def feed(self, packed) -> None:
        """Replay one trace segment's accesses (no machine mutation)."""
        if self._finished:
            raise ProtocolError("feed() after finish() on a stream replay")
        machine = self.machine
        if packed.num_procs > machine.config.num_procs:
            _unsupported(self.ENGINE, "trace-procs")
        wide = self._wide
        try:
            if wide:
                seqs = packed.block_sequences_wide(machine._block_shift)
            else:
                seqs = packed.block_sequences(machine._block_shift)
        except (ValueError, OverflowError):
            _unsupported(self.ENGINE, "symbol-range")
        table = self._table
        node_of = table.node
        home_shift = machine._home_shift
        placement = machine.placement
        root_key = self._root_key
        nodes = self._nodes
        totals = self._totals
        inv_sizes = self._inv_sizes
        for block, seq in seqs.items():
            known = nodes.get(block)
            if known is None:
                page = block >> home_shift
                if self._first_touch:
                    home = self._homes.get(page)
                    if home is None:
                        # First access to the page: a fresh machine's
                        # first access is always a miss, so the home is
                        # the first symbol's processor.
                        sym0 = (seq[0] | seq[1] << 8) if wide else seq[0]
                        home = sym0 >> 1
                        self._homes[page] = self._new_homes[page] = home
                else:
                    home = placement.home(page, 0)
                # A root-start walk is exactly a batch per-block walk,
                # so it shares the batch per-sequence result cache.
                seq_key = (home, seq, 1) if wide else (home, seq)
                result = table.seq_results.get(seq_key)
                if result is None:
                    root = node_of((home, root_key), root_key)
                    syms = memoryview(seq).cast("H") if wide else seq
                    result = dkernel._walk(table, home, root, syms)
                    table.cache_seq_result(seq_key, result)
            else:
                home, node = known
                syms = memoryview(seq).cast("H") if wide else seq
                result = dkernel._walk(table, home, node, syms)
            vec, inv, final_key = result
            for i, v in enumerate(vec):
                totals[i] += v
            for size, count in inv:
                inv_sizes[size] = inv_sizes.get(size, 0) + count
            nodes[block] = (home, node_of((home, final_key), final_key))

    def finish(self):
        """Write the accumulated replay into the machine; return stats."""
        if self._finished:
            raise ProtocolError("finish() called twice on a stream replay")
        self._finished = True
        machine = self.machine
        if machine.step_hook is not None:
            raise ProtocolError(
                "step_hook installed mid-replay on the streaming kernel "
                "path: the hook missed every earlier step, so its "
                "observations are unreliable; install it before feeding "
                "to take the generic per-access path"
            )
        finals = [(block, hn[1][-1]) for block, hn in self._nodes.items()]
        dkernel._apply(machine, self._totals, self._inv_sizes, finals)
        if self._first_touch and self._new_homes:
            machine.placement._homes.update(self._new_homes)
        registry.engagements[self.ENGINE] += 1
        return machine.stats


class BusStreamReplay:
    """Incremental table-driven replay for a ``BusMachine``.

    Same shape as :class:`DirectoryStreamReplay`; bus charges carry no
    home node or invalidation sizes, so the per-block state is just the
    current DFA node.
    """

    ENGINE = "bus-stream"

    def __init__(self, machine):
        config = machine.config
        if not registry.kernels_enabled():
            _unsupported(self.ENGINE, "disabled")
        if config.num_procs > snooping._MAX_PROCS:
            _unsupported(self.ENGINE, "num-procs")
        if machine.step_hook is not None:
            _unsupported(self.ENGINE, "step-hook")
        from repro.snooping.machine import BusMachine

        if type(machine) is not BusMachine:
            _unsupported(
                self.ENGINE,
                getattr(machine, "kernel_fallback_reason", "machine-subclass"),
            )
        if (machine.bus_stats != BusStats()
                or machine.cache_stats != CacheStats()
                or any(len(cache) for cache in machine.caches)):
            _unsupported(self.ENGINE, "not-fresh")
        first = machine.caches[0] if machine.caches else None
        if type(first) is not InfiniteCache:
            _unsupported(self.ENGINE, "finite-cache")
        family_reason = getattr(
            machine.protocol, "kernel_fallback_reason", None
        )
        if family_reason is not None:
            _unsupported(self.ENGINE, family_reason)
        try:
            self._table = registry.bus_table(machine.protocol, config.num_procs)
        except (KernelUnsupported, ProtocolError):
            _unsupported(self.ENGINE, "table-unsupported")
        self.machine = machine
        self._wide = config.num_procs > 128
        #: block -> current DFA node for every block seen so far.
        self._nodes: dict[int, list] = {}
        self._totals = [0] * snooping._VEC
        self._finished = False

    def feed(self, packed) -> None:
        """Replay one trace segment's accesses (no machine mutation)."""
        if self._finished:
            raise ProtocolError("feed() after finish() on a stream replay")
        machine = self.machine
        if packed.num_procs > machine.config.num_procs:
            _unsupported(self.ENGINE, "trace-procs")
        wide = self._wide
        try:
            if wide:
                seqs = packed.block_sequences_wide(machine._block_shift)
            else:
                seqs = packed.block_sequences(machine._block_shift)
        except (ValueError, OverflowError):
            _unsupported(self.ENGINE, "symbol-range")
        table = self._table
        node_of = table.node
        nodes = self._nodes
        totals = self._totals
        for block, seq in seqs.items():
            node = nodes.get(block)
            if node is None:
                seq_key = (seq, 1) if wide else seq
                result = table.seq_results.get(seq_key)
                if result is None:
                    root = node_of(0, 0)
                    syms = memoryview(seq).cast("H") if wide else seq
                    result = snooping._walk(table, root, syms)
                    table.cache_seq_result(seq_key, result)
            else:
                syms = memoryview(seq).cast("H") if wide else seq
                result = snooping._walk(table, node, syms)
            vec, final_key = result
            for i, v in enumerate(vec):
                totals[i] += v
            nodes[block] = node_of(final_key, final_key)

    def finish(self):
        """Write the accumulated replay into the machine; return stats."""
        if self._finished:
            raise ProtocolError("finish() called twice on a stream replay")
        self._finished = True
        machine = self.machine
        if machine.step_hook is not None:
            raise ProtocolError(
                "step_hook installed mid-replay on the streaming kernel "
                "path: the hook missed every earlier step, so its "
                "observations are unreliable; install it before feeding "
                "to take the generic per-access path"
            )
        finals = [(block, node[-1]) for block, node in self._nodes.items()]
        snooping._apply(machine, self._table, self._totals, finals)
        registry.engagements[self.ENGINE] += 1
        return machine.bus_stats


def stream_replay_for(machine):
    """The stream-replay class matching ``machine``'s engine.

    Dispatches on duck type (directory machines track per-block
    messages and a placement; bus machines a bus), so callers need not
    import the machine classes.
    """
    if hasattr(machine, "placement"):
        return DirectoryStreamReplay(machine)
    return BusStreamReplay(machine)


def replay_stream(machine, packed, chunk: int = 1 << 20):
    """Replay ``packed`` on ``machine`` in O(chunk) resident memory.

    Feeds :meth:`PackedTrace.segments` chunks through the matching
    stream-replay; when the machine falls outside the streaming
    envelope the fallback is counted under the stream engine's label
    and the replay runs through ``machine.run`` (which may still engage
    the batch kernel) — behavior is identical either way.
    """
    try:
        replay = stream_replay_for(machine)
        for segment in packed.segments(chunk):
            replay.feed(segment)
        return replay.finish()
    except KernelUnsupported as exc:
        engine, _, reason = str(exc).partition(": ")
        registry.record_fallback(engine, reason or "unsupported")
        return machine.run(packed)
