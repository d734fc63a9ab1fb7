"""Packed columnar trace representation.

:class:`PackedTrace` stores an access trace as three parallel ``array``
columns — processor ids (``'q'``), a write flag (``'b'``), and byte
addresses (``'q'``) — instead of a list of boxed
:class:`repro.common.types.Access` objects.  The machines' generic
replay loops consume the columns directly via :meth:`iter_packed`, with
no per-access dataclass attribute loads or ``Op`` enum comparisons, and
the table-driven kernels split them into per-block symbol sequences.

The representation also derives and memoises the per-``block_shift``
block-number column the kernels' sequence splits derive from
(:meth:`blocks_column`), so a sweep that replays the same trace under many
policies at one block size shifts each address exactly once.

A compact binary file format (:meth:`save` / :meth:`load`) backs the
on-disk trace cache (:mod:`repro.trace.diskcache`); it round-trips
exactly and loads an order of magnitude faster than the text format.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.common.errors import TraceError
from repro.common.types import Access, Op

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.trace.core import Trace

#: Magic prefix identifying the binary packed-trace format (version 1).
MAGIC = b"RPRO-PTRACE-1\n"


class PackedTrace:
    """An access trace as three parallel columns.

    Attributes:
        name: trace label (same role as :attr:`Trace.name`).
        procs: ``array('q')`` of issuing processor ids.
        ops: ``array('b')`` of write flags (1 = write, 0 = read).
        addrs: ``array('q')`` of byte addresses.
    """

    __slots__ = ("name", "procs", "ops", "addrs", "_blocks_shift",
                 "_blocks", "_seqs_shift", "_seqs", "_wide_shift",
                 "_wide_seqs", "_streams_key", "_streams", "_num_procs",
                 "_digest")

    def __init__(
        self,
        procs: array,
        ops: array,
        addrs: array,
        name: str = "trace",
    ):
        if not (len(procs) == len(ops) == len(addrs)):
            raise TraceError("packed trace columns must have equal length")
        # The kernels fold the flag into the symbol ``proc * 2 + op``,
        # so any other value would replay as another processor's access.
        if ops.tobytes().translate(None, b"\x00\x01"):
            raise TraceError("packed trace write flags must be 0 or 1")
        self.name = name
        self.procs = procs
        self.ops = ops
        self.addrs = addrs
        # One-entry memo for the derived block column (see blocks_column).
        self._blocks_shift: int | None = None
        self._blocks: array | None = None
        # One-entry memo for the per-block symbol split (block_sequences).
        self._seqs_shift: int | None = None
        self._seqs: dict[int, bytes] | None = None
        # One-entry memo for the wide (uint16 symbol) split.
        self._wide_shift: int | None = None
        self._wide_seqs: dict[int, bytes] | None = None
        # One-entry memo for the conflict-set streams (set_streams).
        self._streams_key: tuple[int, int, int] | None = None
        self._streams: dict[int, tuple[tuple[int, ...], array]] | None = None
        self._num_procs: int | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_accesses(
        cls, accesses: Iterable[Access], name: str = "trace"
    ) -> "PackedTrace":
        """Pack an iterable of :class:`Access` records into columns."""
        procs = array("q")
        ops = array("b")
        addrs = array("q")
        write = Op.WRITE
        for acc in accesses:
            procs.append(acc.proc)
            ops.append(1 if acc.op is write else 0)
            addrs.append(acc.addr)
        return cls(procs, ops, addrs, name=name)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------

    def pack(self) -> "PackedTrace":
        """Return self (so machines accept ``Trace`` and ``PackedTrace``
        interchangeably)."""
        return self

    def iter_packed(self) -> Iterator[tuple[int, int, int]]:
        """Iterate ``(proc, is_write, addr)`` int triples — the hot-loop
        form consumed by the machines' replay loops."""
        return zip(self.procs, self.ops, self.addrs)

    def blocks_column(self, block_shift: int) -> array:
        """The per-access block-number column for one block size.

        Memoised for the most recent ``block_shift`` — protocol sweeps
        replay one trace many times at a fixed block size, so the shift
        work is paid once per (trace, block size) rather than per replay.
        """
        if self._blocks_shift != block_shift:
            self._blocks = array("q", (a >> block_shift for a in self.addrs))
            self._blocks_shift = block_shift
        return self._blocks

    def block_sequences(self, block_shift: int) -> dict[int, bytes]:
        """Per-block ``proc * 2 + is_write`` symbol strings, in first-touch
        block order.

        This is the table-driven kernels' input form
        (:mod:`repro.kernels`): with no evictions, blocks evolve
        independently, so each block's accesses replay as one walk over
        a per-block byte string.  Requires every processor id to fit the
        symbol byte (``proc < 128``); memoised for the most recent
        ``block_shift`` like :meth:`blocks_column`.
        """
        if self._seqs_shift != block_shift:
            seqs: dict[int, list[int]] = {}
            get = seqs.get
            for proc, is_write, block in zip(
                self.procs, self.ops, self.blocks_column(block_shift)
            ):
                syms = get(block)
                if syms is None:
                    syms = seqs[block] = []
                syms.append(proc * 2 + is_write)
            self._seqs = {block: bytes(syms) for block, syms in seqs.items()}
            self._seqs_shift = block_shift
        return self._seqs

    def block_sequences_wide(self, block_shift: int) -> dict[int, bytes]:
        """Like :meth:`block_sequences`, but with 16-bit symbols.

        Each per-block value is the little-endian ``uint16`` encoding of
        the ``proc * 2 + is_write`` symbol run, so traces with up to 1024
        processors split the same way (walkers view the bytes through
        ``memoryview(seq).cast('H')``).  Keys and values stay hashable
        ``bytes`` so walk-result caches can use them directly.  Memoised
        for the most recent ``block_shift``.
        """
        if self._wide_shift != block_shift:
            seqs: dict[int, array] = {}
            get = seqs.get
            for proc, is_write, block in zip(
                self.procs, self.ops, self.blocks_column(block_shift)
            ):
                syms = get(block)
                if syms is None:
                    syms = seqs[block] = array("H")
                syms.append(proc * 2 + is_write)
            self._wide_seqs = {
                block: syms.tobytes() for block, syms in seqs.items()
            }
            self._wide_shift = block_shift
        return self._wide_seqs

    def set_streams(
        self, block_shift: int, num_sets: int, ways: int
    ) -> dict[int, tuple[tuple[int, ...], array]]:
        """Interleaved access streams for the cache sets that can evict.

        Groups accesses by cache set (``block % num_sets``).  A set whose
        distinct-block count is at most ``ways`` can never evict — every
        processor's per-set occupancy is bounded by the set's distinct
        blocks — so those blocks stay on the independent per-block walk.
        For each remaining *conflict* set the result maps ``set_index ->
        (blocks, stream)`` where ``blocks`` is the set's block numbers in
        first-touch order and ``stream`` is an ``array('q')`` of
        ``(dense_block_id << 32) | (proc * 2 + is_write)`` entries
        preserving the set's program order (``dense_block_id`` indexes
        ``blocks``).  Eviction-aware kernel walks consume these streams
        directly; memoised for the most recent geometry triple.
        """
        key = (block_shift, num_sets, ways)
        if self._streams_key != key:
            dense_ids: dict[int, dict[int, int]] = {}
            streams: dict[int, array] = {}
            for proc, is_write, block in zip(
                self.procs, self.ops, self.blocks_column(block_shift)
            ):
                set_idx = block % num_sets
                ids = dense_ids.get(set_idx)
                if ids is None:
                    ids = dense_ids[set_idx] = {}
                    streams[set_idx] = array("q")
                dense = ids.get(block)
                if dense is None:
                    dense = ids[block] = len(ids)
                streams[set_idx].append((dense << 32) | (proc * 2 + is_write))
            self._streams = {
                set_idx: (tuple(ids), streams[set_idx])
                for set_idx, ids in dense_ids.items()
                if len(ids) > ways
            }
            self._streams_key = key
        return self._streams

    def segments(self, chunk: int) -> Iterator["PackedTrace"]:
        """Yield the trace as column-sliced chunks of ``chunk`` accesses.

        Each segment is an independent :class:`PackedTrace` over slices of
        the parent columns (``array`` slices copy; shared-memory
        memoryview columns slice zero-copy).  The streaming kernel
        backend (:mod:`repro.kernels.streaming`) feeds these one at a
        time so resident memory stays O(chunk) for traces that never fit
        in RAM.
        """
        if chunk <= 0:
            raise TraceError("segment size must be positive")
        total = len(self)
        for start in range(0, total, chunk):
            stop = min(start + chunk, total)
            yield PackedTrace(
                self.procs[start:stop],
                self.ops[start:stop],
                self.addrs[start:stop],
                name=f"{self.name}[{start}:{stop}]",
            )

    def __len__(self) -> int:
        return len(self.procs)

    def __iter__(self) -> Iterator[Access]:
        """Iterate boxed :class:`Access` records (slow path; prefer
        :meth:`iter_packed` in performance-sensitive code)."""
        read, write = Op.READ, Op.WRITE
        for proc, is_write, addr in zip(self.procs, self.ops, self.addrs):
            yield Access(proc, write if is_write else read, addr)

    @property
    def num_procs(self) -> int:
        """One more than the largest processor id appearing in the trace."""
        if self._num_procs is None:
            self._num_procs = max(self.procs, default=-1) + 1
        return self._num_procs

    def digest(self) -> str:
        """Content digest of the trace bytes (hex, cached).

        Covers the raw column buffers and the trace length — not the
        name, which plays no role in replay results.  The result cache
        (:mod:`repro.experiments.resultcache`) uses this as the trace
        component of its keys.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(b"RPRO-PTRACE-DIGEST-1|")
            h.update(len(self).to_bytes(8, "little"))
            for column in (self.procs, self.ops, self.addrs):
                # Columns are array('q'/'b') or shared-memory memoryview
                # casts; both expose the buffer protocol directly.
                h.update(column)
            self._digest = h.hexdigest()
        return self._digest

    def to_accesses(self) -> list[Access]:
        """Materialise the boxed :class:`Access` list."""
        return list(self)

    def to_trace(self) -> "Trace":
        """Wrap in a :class:`repro.trace.core.Trace` (no copy; the trace
        materialises Access objects lazily)."""
        from repro.trace.core import Trace

        return Trace.from_packed(self)

    # ------------------------------------------------------------------
    # Binary format
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the columns in the binary packed format.

        The file holds a magic line, a JSON header (name, length, and the
        machine byte order), then the three raw column buffers.  Files are
        written in native byte order; :meth:`load` rejects files written
        on a machine with the opposite endianness.
        """
        import sys

        header = {
            "name": self.name,
            "length": len(self),
            "byteorder": sys.byteorder,
        }
        payload = json.dumps(header).encode("ascii") + b"\n"
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(payload)
            # ``tobytes`` (rather than ``array.tofile``) also accepts the
            # memoryview columns of shared-memory attached traces.
            fh.write(self.procs.tobytes())
            fh.write(self.ops.tobytes())
            fh.write(self.addrs.tobytes())

    @classmethod
    def load(cls, path: str | Path, name: str | None = None) -> "PackedTrace":
        """Read a trace written by :meth:`save`."""
        import sys

        with open(path, "rb") as fh:
            magic = fh.read(len(MAGIC))
            if magic != MAGIC:
                raise TraceError(f"{path}: not a packed trace file")
            try:
                header = json.loads(fh.readline().decode("ascii"))
                length = int(header["length"])
            except (ValueError, KeyError) as exc:
                raise TraceError(f"{path}: malformed header: {exc}") from exc
            if header.get("byteorder", sys.byteorder) != sys.byteorder:
                raise TraceError(
                    f"{path}: written on a {header['byteorder']}-endian "
                    f"machine; this machine is {sys.byteorder}-endian"
                )
            procs = array("q")
            ops = array("b")
            addrs = array("q")
            try:
                procs.fromfile(fh, length)
                ops.fromfile(fh, length)
                addrs.fromfile(fh, length)
            except EOFError as exc:
                raise TraceError(f"{path}: truncated packed trace") from exc
        return cls(procs, ops, addrs, name=name or str(header.get("name", Path(path).stem)))
