"""Process-wide registry of compiled kernels, plus the kill switches.

Compiled tables and their lazily-grown DFAs are shared by every machine
in the process: the first replay of a workload pays for edge expansion,
subsequent replays (other policies' tables are separate) walk hot edges
and hit the per-sequence result cache.  Tables only ever *accumulate*
reusable facts — node transitions and per-sequence walk results — until
a DFA reaches :data:`NODE_LIMIT` and is replaced by an empty one, so
sharing them across replays, threads (the stats accumulation is
per-replay, guarded by the GIL), and result-cache workers is safe.

Two switches pin replays to the generic per-access loop without touching
call sites:

* the ``REPRO_NO_KERNEL`` environment variable (checked per replay, so
  benchmark subprocesses and tests can toggle it);
* :func:`disabled`, a re-entrant context manager used by the
  conformance oracle to produce a generic reference replay for the
  protocols its checked stages exclude, and by benchmarks to time a
  fallback.
"""

from __future__ import annotations

import logging
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import chain

from repro.kernels import tables

#: Replays completed by each kernel (keys ``"directory"`` / ``"bus"``).
#: Tests and the conformance oracle use this to prove engagement; the
#: machines themselves have ``__slots__`` and carry no kernel marker.
engagements: Counter = Counter()

#: Replays that fell back from a kernel to the generic loop,
#: keyed ``(engine, reason)``.  The telemetry mirror (when a session is
#: active) is :data:`FALLBACK_METRIC`, so kernel-envelope gaps are
#: measurable in production traffic instead of silent.
fallbacks: Counter = Counter()

#: Telemetry counter mirroring :data:`fallbacks`, labelled by
#: ``engine`` and ``reason``.
FALLBACK_METRIC = "repro_kernel_fallback_total"

_log = logging.getLogger("repro.kernels")


def record_fallback(engine: str, reason: str) -> None:
    """Count one kernel-to-generic-loop fallback (and return ``None``,
    so gate sites read ``return record_fallback(...)``).

    Every ``try_replay`` gate routes through here: the module counter
    feeds tests and ``counts()``-style introspection, the ambient
    telemetry counter feeds ``repro-serve``'s ``/metrics``, and the
    debug log line names the reason for operators chasing a throughput
    regression back to an envelope gap.
    """
    fallbacks[(engine, reason)] += 1
    # Imported lazily: telemetry observes the kernels, the kernels must
    # not depend on it at import time.
    from repro.telemetry import runtime as telemetry

    telemetry.count(FALLBACK_METRIC,
                    "kernel-ineligible replays by engine and reason",
                    engine=engine, reason=reason)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("kernel fallback: engine=%s reason=%s", engine, reason)

#: Safety valve: a DFA that outgrows this stops expanding and the replay
#: falls back to the generic loop (the machine is only mutated after a
#: complete walk, so a mid-walk bailout is free).  The next lookup of a
#: full table replaces it with an empty one over the same rows.
NODE_LIMIT = 1 << 17

#: Per-sequence walk-result caches are cleared past this many entries.
SEQ_RESULT_LIMIT = 1 << 16

#: Conflict-set group-walk result caches are cleared past this many
#: entries (group keys embed whole interleaved streams, so the cap is
#: lower than the per-sequence one).
GROUP_RESULT_LIMIT = 1 << 12

_disable_depth = 0


@contextmanager
def disabled():
    """Force the generic loops for the duration of the ``with`` block."""
    global _disable_depth
    _disable_depth += 1
    try:
        yield
    finally:
        _disable_depth -= 1


def kernels_enabled() -> bool:
    """Whether kernel dispatch is currently allowed."""
    return not _disable_depth and not os.environ.get("REPRO_NO_KERNEL")


class _KernelTable:
    """A compiled row set plus its DFA, for one processor count.

    Nodes are lists of ``2 * num_procs`` edge slots (indexed by the
    symbol ``proc * 2 + is_write``) with the node's packed machine-state
    key in the final slot; edges are ``(next_node, delta_index)`` pairs.
    ``deltas`` interns the per-edge statistics tuples so a walk records
    one small integer per access (:meth:`indices`) and aggregates at C
    speed afterwards (:meth:`delta_counts`).
    """

    __slots__ = ("rows", "num_procs", "field_bits", "nodes", "deltas",
                 "delta_index", "seq_results", "group_results",
                 "node_limit", "base", "limit")

    def __init__(self, rows, num_procs: int, field_bits: int):
        self.rows = rows
        self.num_procs = num_procs
        #: Width of one per-processor field in a node's packed state key
        #: (2 for the directory's line states; 3 + counter bits for the
        #: bus's snoop states).
        self.field_bits = field_bits
        self.nodes: dict = {}
        self.deltas: list = []
        self.delta_index: dict = {}
        #: Per-block walk results ``(indices, final_key)`` — the walk's
        #: delta indices (:meth:`indices`) and the block's final packed
        #: state — keyed on the symbol sequence (with the home node on
        #: the directory), so each distinct key is walked once.
        self.seq_results: dict = {}
        #: Conflict-set group-walk results, keyed on the set's geometry +
        #: interleaved stream (see the eviction-aware walks in
        #: kernels.directory / kernels.snooping).
        self.group_results: dict = {}
        #: A limited-pointer directory table's full-map table, whose
        #: deltas it interns into, and its ``(pointers, broadcast)``;
        #: both None on every other table (see :meth:`limited`).
        self.base = None
        self.limit = None
        # Wide-processor nodes are proportionally larger (2n+1 slots), so
        # scale the DFA cap down past the classic 128-proc point to keep
        # the worst-case table footprint roughly constant.
        if num_procs <= 128:
            self.node_limit = NODE_LIMIT
        else:
            self.node_limit = max(4096, (NODE_LIMIT * 257) // (2 * num_procs + 1))

    @property
    def full(self) -> bool:
        """Whether :meth:`node` refuses new nodes."""
        return len(self.nodes) > self.node_limit

    def fresh(self) -> "_KernelTable":
        """An empty DFA over the same compiled rows (a limited table's
        keeps interning into its base's deltas)."""
        if self.base is not None:
            return self.base.limited(self.limit)
        return _KernelTable(self.rows, self.num_procs, self.field_bits)

    def limited(self, limit: tuple[int, bool]) -> "_KernelTable":
        """An empty DFA for a ``(pointers, broadcast)`` limited-pointer
        directory over this full-map table: same rows, and interning
        into the same deltas, so a walk's indices may mix both tables'
        edges."""
        table = _KernelTable(self.rows, self.num_procs, self.field_bits)
        table.deltas, table.delta_index = self.deltas, self.delta_index
        table.base, table.limit = self, limit
        return table

    def intern_delta(self, delta: tuple) -> int:
        idx = self.delta_index.get(delta)
        if idx is None:
            idx = self.delta_index[delta] = len(self.deltas)
            self.deltas.append(delta)
        return idx

    def indices(self, out: list[int]):
        """A walk's delta indices, compactly: a byte string while the
        table has interned at most 256 deltas, else an ``array('H')``
        (``'I'`` past 65,536)."""
        interned = len(self.deltas)
        if interned <= 256:
            return bytes(out)
        return array("H" if interned <= 1 << 16 else "I", out)

    @staticmethod
    def delta_counts(walks) -> dict[int, int]:
        """Occurrences of each delta index over ``(indices, multiplicity)``
        pairs, each walk counted ``multiplicity`` times.

        The byte-string walks of one multiplicity are joined and counted
        with C-level byte scans; wider index arrays go through
        :class:`Counter`.
        """
        by_kind: dict[tuple[int, bool], list] = {}
        for indices, mult in walks:
            by_kind.setdefault((mult, type(indices) is bytes), []).append(
                indices)
        counts: dict[int, int] = {}
        for (mult, narrow), columns in by_kind.items():
            if narrow:
                buf = b"".join(columns)
                found = [(idx, buf.count(idx)) for idx in set(buf)]
            else:
                found = Counter(chain.from_iterable(columns)).items()
            for idx, n in found:
                counts[idx] = counts.get(idx, 0) + mult * n
        return counts

    def node(self, map_key, state_key) -> list:
        """The node for ``map_key``, created holding ``state_key``.

        The directory kernel maps ``(home, packed_state)`` while the
        node itself carries only the packed machine state; the bus
        kernel uses the packed state for both.
        """
        node = self.nodes.get(map_key)
        if node is None:
            if self.full:
                raise tables.KernelUnsupported("kernel DFA node limit hit")
            node = self.nodes[map_key] = (
                [None] * (2 * self.num_procs) + [state_key]
            )
        return node

    def cache_seq_result(self, seq_key, result):
        if len(self.seq_results) > SEQ_RESULT_LIMIT:
            self.seq_results.clear()
        self.seq_results[seq_key] = result

    def cache_group_result(self, group_key, result):
        if len(self.group_results) > GROUP_RESULT_LIMIT:
            self.group_results.clear()
        self.group_results[group_key] = result


_dir_tables: dict = {}
_bus_tables: dict = {}


def dir_table(policy, num_procs: int) -> _KernelTable:
    """The directory kernel table for ``(policy, num_procs)``."""
    key = tables._policy_key(policy) + (num_procs,)
    table = _dir_tables.get(key)
    if table is None:
        rows = tables.compile_dir_rows(policy)
        table = _dir_tables.setdefault(key, _KernelTable(rows, num_procs, 2))
    elif table.full:
        table = _dir_tables[key] = table.fresh()
    return table


def limited_dir_table(policy, num_procs: int, pointers: int,
                      broadcast: bool) -> _KernelTable:
    """The directory kernel table for a Dir_iB (``broadcast``) or
    Dir_iNB limited-pointer directory over :func:`dir_table`'s.

    It is rebuilt whenever its full-map base has been replaced, so the
    pair always interns into one delta list.
    """
    base = dir_table(policy, num_procs)
    key = tables._policy_key(policy) + (num_procs, pointers, broadcast)
    table = _dir_tables.get(key)
    if table is None or table.base is not base:
        table = _dir_tables[key] = base.limited((pointers, broadcast))
    elif table.full:
        table = _dir_tables[key] = table.fresh()
    return table


def bus_table(protocol, num_procs: int) -> _KernelTable:
    """The snooping kernel table for ``(protocol, num_procs)``."""
    key = (type(protocol).__qualname__, protocol.name, num_procs)
    table = _bus_tables.get(key)
    if table is None:
        rows = tables.compile_snoop_rows(protocol)
        table = _bus_tables.setdefault(
            key,
            _KernelTable(
                rows, num_procs, 3 + rows.counter_threshold.bit_length()
            ),
        )
    elif table.full:
        table = _bus_tables[key] = table.fresh()
    return table


def clear() -> None:
    """Drop every compiled DFA (tests use this to measure cold growth)."""
    _dir_tables.clear()
    _bus_tables.clear()
    engagements.clear()
    fallbacks.clear()
