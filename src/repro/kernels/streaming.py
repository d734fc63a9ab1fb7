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
* O(chunk) transient state per fed segment (one interned delta index
  per access).

Each segment is walked once in program order: every access looks up
its block's current node (the DFA root of the block's home on first
sight), follows the edge for its ``proc * 2 + is_write`` symbol
(growing it with the batch kernels' own ``_expand`` when missing), and
records the edge's delta index.  The segment's indices are summed once
with the batch kernels' ``_aggregate``.  Statistics merge
deterministically — integer addition is order-independent — so a
replay fed in 1-access segments produces byte-identical stats and
final machine state to the batch kernel and to the generic loop.
``finish()`` writes the accumulated totals through the batch kernels'
own ``_apply_counters`` and leaves the per-block state pending
(:mod:`repro.kernels.pending`): the block-to-node map is decoded by
the batch kernels' own ``_decode`` when the machine's per-block state
is first read, so the two backends cannot drift, and a replay read
only through its counters never builds the line or entry objects.

The streaming envelope is the batch envelope minus finite caches:
replacement needs the set's *global* conflict structure, which a
segment-local view cannot establish (a set that never conflicts within
any one segment may still conflict across them).  Ineligible machines
raise :class:`~repro.kernels.tables.KernelUnsupported` from the
constructor; :func:`replay_stream` converts that into an honest counted
fallback onto ``machine.run``.
"""

from __future__ import annotations

from functools import partial

from repro.cache.core import InfiniteCache
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats, MessageStats
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import FullMapDirectory
from repro.kernels import pending, registry, snooping
from repro.kernels import directory as dkernel
from repro.kernels.tables import KernelUnsupported
from repro.system.placement import FirstTouchPlacement


def _unsupported(engine: str, reason: str):
    """Raise the constructor-contract error for an ineligible machine."""
    raise KernelUnsupported(f"{engine}: {reason}")


def _check_symbols(engine: str, packed) -> None:
    """Refuse a segment whose symbols would index outside a DFA node.

    A negative processor id would index a node's list from the end
    instead of failing, so it is caught here, once per segment, with a
    C-level scan.  Write flags need no check: :class:`PackedTrace`
    admits only 0 and 1.
    """
    if min(packed.procs, default=0) < 0:
        _unsupported(engine, "symbol-range")


class DirectoryStreamReplay:
    """Incremental table-driven replay for a ``DirectoryMachine``.

    Usage::

        replay = DirectoryStreamReplay(machine)
        for segment in packed.segments(1 << 20):
            replay.feed(segment)
        stats = replay.finish()

    The machine is untouched until :meth:`finish`, which writes the
    counters and leaves the final state pending; a
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
        self._root_key = self._table.rows.initial_state << (2 * config.num_procs)
        #: block -> current DFA node for every block seen so far.
        self._nodes: dict[int, list] = {}
        if self._first_touch:
            self._homes = dict(placement._homes)
            self._new_homes: dict[int, int] = {}
        self._totals = [0] * dkernel._VEC
        self._inv_sizes: dict[int, int] = {}
        self._finished = False

    def _home(self, page: int, proc: int) -> int:
        """``page``'s home node; an unplaced first-touch page goes to ``proc``."""
        if not self._first_touch:
            return self.machine.placement.home(page, 0)
        home = self._homes.get(page)
        if home is None:
            # A fresh machine's first access to a page is always a miss,
            # so first-touch homes the page at the accessing processor.
            home = self._homes[page] = self._new_homes[page] = proc
        return home

    def feed(self, packed) -> None:
        """Replay one trace segment's accesses (no machine mutation)."""
        if self._finished:
            raise ProtocolError("feed() after finish() on a stream replay")
        machine = self.machine
        if packed.num_procs > machine.config.num_procs:
            _unsupported(self.ENGINE, "trace-procs")
        _check_symbols(self.ENGINE, packed)
        table = self._table
        node_of = table.node
        expand = dkernel._expand
        shift = machine._block_shift
        home_shift = machine._home_shift
        root_key = self._root_key
        nodes = self._nodes
        get = nodes.get
        out: list[int] = []
        append = out.append
        for proc, is_write, addr in zip(packed.procs, packed.ops, packed.addrs):
            block = addr >> shift
            node = get(block)
            if node is None:
                home = self._home(block >> home_shift, proc)
                node = node_of((home, root_key), root_key)
            sym = proc * 2 + is_write
            edge = node[sym]
            if edge is None:
                # Nodes live in their home's sub-DFA, so the home is
                # needed again only to grow a missing edge.
                edge = expand(table, self._home(block >> home_shift, proc),
                              node, sym)
            append(edge[1])
            nodes[block] = edge[0]
        vec, inv = dkernel._aggregate(table, out)
        totals = self._totals
        for i, v in enumerate(vec):
            totals[i] += v
        inv_sizes = self._inv_sizes
        for size, count in inv:
            inv_sizes[size] = inv_sizes.get(size, 0) + count

    def finish(self):
        """Write the counters into the machine and return its stats.

        The final per-block state stays pending until first read.
        """
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
        dkernel._apply_counters(machine, self._totals, self._inv_sizes)
        if self._first_touch and self._new_homes:
            machine.placement._homes.update(self._new_homes)
        # The generator holds the node map, not the replay or machine.
        finals = ((block, node[-1]) for block, node in self._nodes.items())
        shift2 = 2 * machine.config.num_procs
        pending.defer(machine, partial(dkernel._decode, finals, (), shift2),
                      machine.protocol)
        registry.engagements[self.ENGINE] += 1
        return machine.stats


class BusStreamReplay:
    """Incremental table-driven replay for a ``BusMachine``.

    Same shape as :class:`DirectoryStreamReplay`; bus charges carry no
    home node or invalidation sizes, so every block starts at the one
    DFA root.
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
        _check_symbols(self.ENGINE, packed)
        table = self._table
        expand = snooping._expand
        shift = machine._block_shift
        root = table.node(0, 0)
        nodes = self._nodes
        get = nodes.get
        out: list[int] = []
        append = out.append
        for proc, is_write, addr in zip(packed.procs, packed.ops, packed.addrs):
            block = addr >> shift
            node = get(block, root)
            sym = proc * 2 + is_write
            edge = node[sym]
            if edge is None:
                edge = expand(table, node, sym)
            append(edge[1])
            nodes[block] = edge[0]
        totals = self._totals
        for i, v in enumerate(snooping._aggregate(table, out)):
            totals[i] += v

    def finish(self):
        """Write the counters into the machine and return its stats.

        The final per-block state stays pending until first read.
        """
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
        snooping._apply_counters(machine, self._totals)
        finals = ((block, node[-1]) for block, node in self._nodes.items())
        pending.defer(machine, partial(snooping._decode, finals, (),
                                       self._table.field_bits))
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
