"""Table-driven replay for :class:`repro.system.machine.DirectoryMachine`.

With no evictions, cache contents couple blocks only through capacity,
so every block's coherence life is an independent finite state machine:
(per-node line states, directory state, evidence streak, last
invalidator).  The kernel packs that machine state into one integer,
grows a DFA over it lazily (one sub-DFA per home node, since Table 1
charges depend on whether the actor is home), and replays each block's
access sequence (:meth:`PackedTrace.block_sequences`) as a tight
walk appending one interned delta index per access.  Blocks with the
same (home, sequence) key share one walk: a replay counts its keys,
walks each distinct key once, and sums every walk's delta indices,
weighted by its key's count, in one pass at the end.  Each walk's
index bytes and final key are cached per key (``seq_results``), so
re-replaying a workload — the result-cache warm path, sweeps over
cache sizes sharing traffic patterns — skips the walks and only
re-counts their bytes.

Finite geometries replay on the same tables.  A processor's cache
holds only lines that processor filled itself (:func:`_step` refuses
any edge that gives another processor a line), so a set can evict only
if some processor touches more than ``ways`` of its blocks
(:meth:`PackedTrace.set_streams`).  Every other set keeps the
independent per-block walks, whatever its total block count; each
*conflict* set replays as one interleaved group walk
(:func:`_walk_dir_group`) that carries per-processor recency order
beside the per-block DFA nodes, charges each replacement through the
compiled ``uncached`` rows, and re-enters the victim's walk at its
post-eviction state — a segment restart instead of a whole-replay
fallback.  Group results are cached per (geometry, homes, stream), so
Table 2/3 cache-size sweeps hit dictionaries on the warm path too.

First-touch placement resolves every page home before walking (a fresh
machine's first access to a page is always a miss, so the home is the
first symbol's processor), and symbol sequences switch to 16-bit
encodings past 128 processors (:meth:`PackedTrace.block_sequences_wide`)
with chunk-skipping holder decodes, raising the processor cap to 1024.

Limited-pointer directories (Dir_iB, Dir_iNB) replay on a table of
their own (:func:`registry.limited_dir_table`) that interns into its
full-map base table's deltas.  A Dir_i directory behaves exactly like
the full map until a read miss leaves more than ``i`` sharers, so each
key reuses its full-map walk up to the first access whose full-map
successor overflows the pointers and walks only the rest on the
limited table (:func:`_walk_limited`), whose edges add what the
representation does (:func:`_expand_limited`): a Dir_iB overflow bit
in the packed key that turns invalidations into broadcasts, or a
Dir_iNB pointer eviction.  Keys that never overflow reuse the full-map
walk whole; conflict sets walk wholly on the limited table.

The timing layer reads per-access outcomes off the same walks: handed
an ``outcomes`` counter, ``try_replay`` counts each distinct key's
``(symbol, delta index)`` pairs once, weighted by its block count, and
each conflict set's stream against its group walk's indices, with every
replacement charged to the access whose fill caused it.

``try_replay`` returns ``None`` without touching the machine whenever
the replay falls outside the kernel envelope (see the gate comments);
the caller then runs the generic loop, keeping behavior identical.
When it engages it writes every counter the generic loop would and
leaves the final cache lines and directory entries pending
(:mod:`repro.kernels.pending`): :func:`_decode` writes them from the
final packed keys when the machine's per-block state is first read,
in the order the generic loop leaves them wherever a later access
could observe it (:func:`_order_free_sets`).
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import partial
from itertools import chain, compress, repeat

from repro.cache.core import InfiniteCache, SetAssociativeCache
from repro.common.errors import ProtocolError
from repro.common.stats import CacheStats, MessageStats
from repro.directory.entry import DirectoryEntry
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import (
    FullMapDirectory,
    LimitedPointerDirectory,
)
from repro.interconnect.costs import (
    eviction_counts,
    read_miss_counts,
    write_hit_counts,
    write_miss_counts,
)
from repro.kernels import pending, registry
from repro.kernels.tables import (
    DIR_STATES,
    KernelUnsupported,
    ONE_COPY_MIG_IDX,
)
from repro.system.placement import (
    BestStaticPlacement,
    FirstTouchPlacement,
    RoundRobinPlacement,
)


def _fallback(reason: str):
    """Count one fallback and return ``None`` (the try_replay contract)."""
    return registry.record_fallback("directory", reason)

#: Stateless placements whose ``home`` is a pure function of the page.
#: First-touch is handled separately: its homes are resolved from each
#: page's first symbol before the walk.
_PLACEMENT_TYPES = (RoundRobinPlacement, BestStaticPlacement)

#: Processor cap: symbols must fit the 16-bit wide encoding and node
#: keys must stay practical (2 bits per processor plus directory bits).
_MAX_PROCS = 1024

# Delta vector layout (18th slot is the invalidation size, not additive):
# 0 read_hits  1 read_misses  2 write_hits  3 write_misses  4 upgrades
# 5 short  6 data  7/8 read_miss short/data  9/10 write_miss short/data
# 11/12 write_hit short/data  13 promote  14 demote  15 evidence
# 16 pointer_eviction short
_VEC = 17

#: Offset above the ``2 * num_procs`` line bits of a limited-pointer
#: table's Dir_iB overflow bit, over the directory state (3 bits), the
#: evidence streak (7) and the last invalidator + 1 (11, 0 for None).
_OVERFLOW = 21

#: ``(dirty, home_local) -> (short, data)`` replacement charges with
#: clean-eviction notification on (the group walk requires it; silent
#: clean evictions desynchronise the copy set from the cache fields).
_EVICT_COUNTS = {
    (dirty, local): eviction_counts(bool(dirty), bool(local), True)
    for dirty in (False, True) for local in (False, True)
}


def _members(lines: int) -> list[tuple[int, int]]:
    """Decode the packed per-node fields into ``(node, field)`` pairs.

    Scans 16 processors (32 bits) at a time so wide-processor keys with
    sparse holders skip empty regions in one shift.
    """
    members = []
    base = 0
    while lines:
        chunk = lines & 0xFFFFFFFF
        if chunk:
            p = base
            while chunk:
                f = chunk & 3
                if f:
                    members.append((p, f))
                chunk >>= 2
                p += 1
        lines >>= 32
        base += 16
    return members


def _step(table, home: int, key: int, sym: int):
    """One access's full-map protocol semantics on the packed ``key``.

    Mirrors ``DirectoryMachine.access`` and its miss/upgrade
    handlers exactly: per-node line fields (0 absent, 1 SHARED, 2
    EXCL-clean, 3 EXCL-dirty) play the caches and the copy set, the
    compiled rows play :class:`DirectoryProtocol`, and the Table 1
    helpers are evaluated here — once per edge, never per access.
    Returns ``(next_key, delta, invalidation_size)``, ``delta`` a list.
    """
    rows = table.rows
    proc = sym >> 1
    shift2 = 2 * table.num_procs
    lines = key & ((1 << shift2) - 1)
    ds = (key >> shift2) & 7
    streak = (key >> (shift2 + 3)) & 127
    li = key >> (shift2 + 10)  # last_invalidator + 1; 0 means None
    pf = (lines >> (2 * proc)) & 3
    d = [0] * _VEC
    inv_size = 0
    new_lines = lines
    nds, nstreak, nli = ds, streak, li
    if not sym & 1:
        if pf:
            d[0] = 1  # read hit: touch only, no protocol involvement
        else:
            d[1] = 1
            members = _members(lines)
            ncopies = len(members)
            # A dirty copy only exists while the copy set is a singleton
            # (same invariant DirectoryMachine._dirty_owner relies on).
            dirty = 1 if ncopies == 1 and members[0][1] == 3 else 0
            was_migratory = ds == ONE_COPY_MIG_IDX
            nds, nstreak, promote, demote, evidence, migrate = (
                rows.read_miss[(ds, streak, dirty)]
            )
            d[13], d[14], d[15] = promote, demote, evidence
            if dirty:
                dc = sum(1 for p, _ in members if p != proc and p != home)
                short, data = read_miss_counts(proc == home, True, dc)
            else:
                short, data = read_miss_counts(proc == home, False, 0)
            d[5] = d[7] = short
            d[6] = d[8] = data
            if migrate:
                if dirty:
                    new_lines &= ~(3 << (2 * members[0][0]))
                new_lines |= 2 << (2 * proc)  # fill EXCL clean
            else:
                if dirty:
                    owner = members[0][0]  # demoted SHARED, flushed clean
                    new_lines = new_lines & ~(3 << (2 * owner)) | (1 << (2 * owner))
                elif was_migratory or ncopies == 1:
                    # Revoke any clean-exclusive holder's silent-write
                    # permission, as the replicating read miss does.
                    for p, f in members:
                        if f == 2:
                            new_lines = new_lines & ~(3 << (2 * p)) | (1 << (2 * p))
                new_lines |= 1 << (2 * proc)  # fill SHARED
    elif pf >= 2:
        d[2] = 1  # silent write on an exclusive copy
        new_lines |= 3 << (2 * proc)
    elif pf == 1:
        d[2] = d[4] = 1  # shared write hit: upgrade
        members = _members(lines)
        others = [p for p, _ in members if p != proc]
        same = 1 if li == proc + 1 else 0
        nds, nstreak, promote, demote, evidence = (
            rows.write_hit[(ds, streak, same, 0 if others else 1)]
        )
        d[13], d[14], d[15] = promote, demote, evidence
        dc = sum(1 for p in others if p != home)
        short, data = write_hit_counts(proc == home, dc)
        d[5] = d[11] = short
        d[6] = d[12] = data
        if others:
            inv_size = len(others)
            for p in others:
                new_lines &= ~(3 << (2 * p))
        new_lines |= 3 << (2 * proc)
        nli = proc + 1
    else:
        d[3] = 1  # write miss
        members = _members(lines)
        ncopies = len(members)
        dirty = 1 if ncopies == 1 and members[0][1] == 3 else 0
        same = 1 if li == proc + 1 else 0
        nds, nstreak, promote, demote, evidence = (
            rows.write_miss[(ds, streak, same, dirty)]
        )
        d[13], d[14], d[15] = promote, demote, evidence
        dc = sum(1 for p, _ in members if p != proc and p != home)
        short, data = write_miss_counts(proc == home, dirty, dc)
        d[5] = d[9] = short
        d[6] = d[10] = data
        if ncopies:
            inv_size = ncopies
        new_lines = 3 << (2 * proc)  # all other copies invalidated
        nli = proc + 1
    # Only the requester may gain a line: PackedTrace.set_streams rules
    # out evictions per processor on that premise.
    low = ((1 << shift2) - 1) // 3  # the low bit of every 2-bit field
    if ((new_lines | new_lines >> 1) & ~(lines | lines >> 1)
            & low & ~(1 << (2 * proc))):
        raise KernelUnsupported("an edge fills another processor's line")
    nkey = (new_lines | (nds << shift2) | (nstreak << (shift2 + 3))
            | (nli << (shift2 + 10)))
    return nkey, d, inv_size


def _expand(table, home: int, node: list, sym: int):
    """Grow one full-map DFA edge from :func:`_step`."""
    nkey, d, inv_size = _step(table, home, node[-1], sym)
    # The third slot holds the lazily-computed eviction metadata
    # (miss/removal summary) the group walks need; plain walks never
    # touch it (see _edge_meta).
    edge = node[sym] = [
        table.node((home, nkey), nkey), table.intern_delta((*d, inv_size)), None,
    ]
    return edge


def _expand_limited(table, home: int, node: list, sym: int):
    """Grow one edge of a limited-pointer table: the full-map step on
    the key without its overflow bit, then what
    :class:`LimitedPointerDirectory` adds to it.

    A read miss leaving more than ``pointers`` sharers sets the Dir_iB
    overflow bit, or (Dir_iNB) removes the lowest-numbered other
    sharer's line, charging ``pointer_eviction`` 2 short messages
    unless the victim is home.  Write misses and upgrades clear the
    bit, charging an overflowed block's invalidation as a broadcast to
    ``num_procs - |{writer, home}|`` distant copies.
    """
    pointers, broadcast = table.limit
    num_procs = table.num_procs
    shift2 = 2 * num_procs
    bit = 1 << (shift2 + _OVERFLOW)
    key = node[-1]
    over = key & bit
    proc = sym >> 1
    nkey, d, inv_size = _step(table, home, key ^ over, sym)
    if d[1]:
        members = _members(nkey & ((1 << shift2) - 1))
        if len(members) > pointers:
            if broadcast:
                over = bit
            else:
                victim = next(p for p, _ in members if p != proc)
                nkey &= ~(3 << (2 * victim))
                d[16] = 0 if victim == home else 2
                d[5] += d[16]
    elif d[3] or d[4]:
        if over:
            targets = num_procs - (1 if proc == home else 2)
            if d[3]:
                members = _members(key & ((1 << shift2) - 1))
                dirty = len(members) == 1 and members[0][1] == 3
                short, data = write_miss_counts(proc == home, dirty, targets)
                d[5] = d[9] = short
                d[6] = d[10] = data
            else:
                short, data = write_hit_counts(proc == home, targets)
                d[5] = d[11] = short
                d[6] = d[12] = data
        over = 0
    nkey |= over
    edge = node[sym] = [
        table.node((home, nkey), nkey), table.intern_delta((*d, inv_size)), None,
    ]
    return edge


def _edge_meta(src_key: int, dst_key: int, sym: int, lines_mask: int):
    """``(is_miss, removed)`` summary of one edge, for set bookkeeping.

    ``is_miss`` is whether the requester filled a line (its field was 0),
    ``removed`` the processors whose copy this access destroyed (field
    nonzero -> 0: invalidations and the migratory dirty-owner removal).
    Computed once per edge on first use by a group walk and memoised in
    the edge's third slot.
    """
    proc = sym >> 1
    src = src_key & lines_mask
    dst = dst_key & lines_mask
    is_miss = not (src >> (2 * proc)) & 3
    removed = []
    p = 0
    while src:
        schunk = src & 0xFFFFFFFF
        if schunk != dst & 0xFFFFFFFF:
            tchunk = dst & 0xFFFFFFFF
            q = p
            while schunk:
                if (schunk & 3) and not tchunk & 3:
                    removed.append(q)
                schunk >>= 2
                tchunk >>= 2
                q += 1
        src >>= 32
        dst >>= 32
        p += 16
    return (is_miss, tuple(removed))


def _totals(table, walks):
    """Sum ``(indices, multiplicity)`` walks into ``(totals, inv_items)``."""
    totals = [0] * _VEC
    inv: dict[int, int] = {}
    deltas = table.deltas
    for idx, count in table.delta_counts(walks).items():
        delta = deltas[idx]
        totals = [t + count * v for t, v in zip(totals, delta)]
        if delta[_VEC]:
            inv[delta[_VEC]] = inv.get(delta[_VEC], 0) + count
    return tuple(totals), tuple(sorted(inv.items()))


def _aggregate(table, out: list[int]):
    """Sum one walk's delta-index list into ``(totals, inv_items)``."""
    return _totals(table, [(table.indices(out), 1)])


def _walk(table, home: int, root: list, syms, expand=_expand):
    """Replay one block's symbol sequence from ``root``.

    ``syms`` is any iterable of symbol ints — the byte string of
    :meth:`block_sequences` or a ``memoryview('H')`` over the wide form.
    Returns ``(indices, final_key)``: the walk's delta indices in
    :meth:`_KernelTable.indices` form and the block's final packed state.
    """
    node = root
    out: list[int] = []
    append = out.append
    for sym in syms:
        edge = node[sym]
        if edge is None:
            edge = expand(table, home, node, sym)
        append(edge[1])
        node = edge[0]
    return table.indices(out), node[-1]


def _walk_limited(table, home: int, syms, seq_key):
    """One key's walk on a limited-pointer ``table``, reusing the
    full-map walk until the pointers overflow.

    A Dir_i directory behaves exactly like a full map until a read miss
    leaves more than ``i`` sharers, so the key takes its full-map walk
    (memoised in the base table's ``seq_results``) and, if some access's
    full-map successor holds more than ``i`` sharers, continues from
    that access's pre-state on the limited table.  Returns
    :func:`_walk`'s ``(indices, final_key)``.
    """
    base = table.base
    root_key = table.rows.initial_state << (2 * table.num_procs)
    root = base.node((home, root_key), root_key)
    result = base.seq_results.get(seq_key)
    if result is None:
        result = _walk(base, home, root, syms)
        base.cache_seq_result(seq_key, result)
    low = ((1 << (2 * table.num_procs)) - 1) // 3
    pointers = table.limit[0]
    node = root
    for pos, sym in enumerate(syms):
        nxt = node[sym][0]
        if not sym & 1:
            key = nxt[-1]
            if ((key | key >> 1) & low).bit_count() > pointers:
                break
        node = nxt
    else:
        return result
    key = node[-1]
    indices, final_key = _walk(table, home, table.node((home, key), key),
                               syms[pos:], _expand_limited)
    return table.indices([*result[0][:pos], *indices]), final_key


def _walk_dir_group(table, homes: tuple, stream, ways: int, lru: bool,
                    keep: bool = False):
    """Replay one conflict set's interleaved access stream.

    ``stream`` entries are ``(dense_block_id << 32) | symbol``
    (:meth:`PackedTrace.set_streams`); ``homes[dense_id]`` is each
    block's home node.  The walk advances each block's DFA node exactly
    like the independent walks, and additionally mirrors the machine's
    per-set replacement state: ``resident[proc]`` is that processor's
    recency list for this set (oldest first), updated on fills,
    invalidations, and — for LRU — hits.  A fill into a full set pops
    the victim, charges the Table 1 replacement cost, clears the
    victim's field (applying the compiled ``uncached`` row when the last
    copy disappears), and re-enters the victim's walk at the
    post-eviction node: the segment restart.

    Returns ``(totals, inv_items, final_keys, recency, evictions,
    indices, evicted)`` where ``final_keys[dense_id]`` is each block's
    final packed state, ``recency`` is ``((proc, dense_ids...), ...)``
    oldest-first per processor and ``evictions`` is ``(short, data,
    dirty, clean, forget)``.  With ``keep``, ``indices`` is the walk's
    delta indices in stream order and ``evicted`` an ``array('q')`` of
    flattened ``(position, messages)`` pairs, each charged replacement's
    messages against the stream position of the fill that caused it
    (see :func:`_group_outcomes`); without it both are ``None``, so a
    memoised result does not hold a byte per access nobody reads.
    """
    rows = table.rows
    expand = _expand if table.limit is None else _expand_limited
    shift2 = 2 * table.num_procs
    lines_mask = (1 << shift2) - 1
    # Keeps streak and invalidator, clears state and Dir_iB overflow.
    state_mask = ~(7 << shift2 | 1 << (shift2 + _OVERFLOW))
    root_key = rows.initial_state << shift2
    node_of = table.node
    uncached = rows.uncached
    nodes = [node_of((home, root_key), root_key) for home in homes]
    resident: dict[int, list[int]] = {}
    out: list[int] = []
    append = out.append
    evicted = array("q")
    ev_short = ev_data = ev_dirty = ev_clean = forget = 0
    for entry in stream:
        dense = entry >> 32
        sym = entry & 0xFFFFFFFF
        node = nodes[dense]
        edge = node[sym]
        if edge is None:
            edge = expand(table, homes[dense], node, sym)
        meta = edge[2]
        if meta is None:
            meta = edge[2] = _edge_meta(node[-1], edge[0][-1], sym, lines_mask)
        append(edge[1])
        nodes[dense] = edge[0]
        proc = sym >> 1
        if meta[1]:
            for q in meta[1]:
                resident[q].remove(dense)
        rp = resident.get(proc)
        if rp is None:
            rp = resident[proc] = []
        if meta[0]:
            # A fill; evict the oldest line first when the set is full,
            # exactly as SetAssociativeCache.insert does.
            if len(rp) >= ways:
                victim = rp.pop(0)
                vnode = nodes[victim]
                vkey = vnode[-1]
                vshift = 2 * proc
                dirty = (vkey >> vshift) & 3 == 3
                if dirty:
                    ev_dirty += 1
                else:
                    ev_clean += 1
                vs, vd = _EVICT_COUNTS[(dirty, homes[victim] == proc)]
                ev_short += vs
                ev_data += vd
                if vs or vd:
                    evicted.extend((len(out) - 1, vs + vd))
                nvkey = vkey & ~(3 << vshift)
                if not nvkey & lines_mask:
                    # Last copy gone: the directory notes the block
                    # uncached (note_uncached), via the compiled row,
                    # and drops any overflow (on_exclusive).
                    ds = (nvkey >> shift2) & 7
                    nds, reset, fg = uncached[ds]
                    forget += fg
                    if reset:
                        nvkey = nds << shift2
                    else:
                        nvkey = nvkey & state_mask | (nds << shift2)
                nodes[victim] = node_of((homes[victim], nvkey), nvkey)
            rp.append(dense)
        elif lru:
            rp.remove(dense)
            rp.append(dense)
    indices = table.indices(out)
    totals, inv = _totals(table, [(indices, 1)])
    if not keep:
        indices = evicted = None
    finals = tuple(node[-1] for node in nodes)
    recency = tuple(
        (proc, tuple(ids))
        for proc, ids in sorted(resident.items()) if ids
    )
    return (totals, inv, finals, recency,
            (ev_short, ev_data, ev_dirty, ev_clean, forget),
            indices, evicted)


def _group_walk(table, homes: tuple, stream, ways: int, lru: bool,
                keep: bool = False):
    """:func:`_walk_dir_group`, memoised per (geometry, homes, stream).

    A memoised result made without ``keep`` is walked again, with it,
    when a caller first asks for the per-access outcomes.
    """
    group_key = (ways, lru, homes, stream.tobytes())
    result = table.group_results.get(group_key)
    if result is None or (keep and result[5] is None):
        result = _walk_dir_group(table, homes, stream, ways, lru, keep)
        table.cache_group_result(group_key, result)
    return result


def _order_free_sets(table, packed, geometry, page_home, home_shift, finals):
    """Move the blocks of never-evicting sets whose line order is
    observable out of ``finals`` and into recency groups.

    A set in which some processor ends up holding two or more lines has
    an observable order: a later fill into that processor's full set
    picks its victim by it, and the per-block walks keep no order.  Those
    sets' streams replay through the group walk, which cannot evict
    there (no processor touches more than ``ways`` of their blocks) and
    orders each processor's lines by last touch (LRU) or last fill (FIFO
    and random), as the cache does.  Returns ``(finals, groups)`` in
    :func:`_decode`'s forms.
    """
    block_shift, num_sets, ways, lru = geometry
    lines_mask = (1 << (2 * table.num_procs)) - 1
    finals = list(finals)
    held: set[tuple[int, int]] = set()
    ordered: set[int] = set()
    for block, final_key in finals:
        set_idx = block % num_sets
        for p, _ in _members(final_key & lines_mask):
            if (set_idx, p) in held:
                ordered.add(set_idx)
            else:
                held.add((set_idx, p))
    if not ordered:
        return finals, ()
    groups = []
    streams = packed.streams_of(block_shift, num_sets, sorted(ordered))
    for blocks, stream in streams.values():
        ghomes = tuple(page_home(b >> home_shift) for b in blocks)
        gfinals, recency = _group_walk(table, ghomes, stream, ways, lru)[2:4]
        groups.append((blocks, gfinals, recency))
    finals = [(b, k) for b, k in finals if b % num_sets not in ordered]
    return finals, groups


def _free_outcomes(keys, walks, wide: bool) -> Counter:
    """``(symbol, delta index, 0)`` counts over the free blocks' walks.

    ``keys`` are the distinct ``(home, sequence)`` keys and ``walks``
    their ``(indices, multiplicity)`` pairs, in the same order; each
    key's pairs are counted once and weighted by its block count.
    """
    by_mult: dict[int, list] = {}
    for (_home, seq), (indices, mult) in zip(keys, walks):
        syms = memoryview(seq).cast("H") if wide else seq
        by_mult.setdefault(mult, []).append(zip(syms, indices, repeat(0)))
    pairs: Counter = Counter()
    for mult, zipped in by_mult.items():
        for key, n in Counter(chain.from_iterable(zipped)).items():
            pairs[key] += mult * n
    return pairs


def _group_outcomes(pairs: Counter, stream, indices, evicted) -> None:
    """Add one conflict set's group walk to ``(symbol, delta index,
    eviction messages)`` counts.

    A replacement's messages belong to the access whose fill caused it,
    as in the generic loop, where they land inside that access's
    counter diff.
    """
    charged = bytearray(len(stream))
    for pos, msgs in zip(evicted[::2], evicted[1::2]):
        charged[pos] = msgs
    pairs.update(zip([entry & 0xFFFFFFFF for entry in stream], indices,
                     charged))


def _add_outcomes(table, pairs: Counter, outcomes: Counter) -> None:
    """Fold ``(symbol, delta index, extra messages)`` counts into
    ``(proc, is_write, missed, upgraded, messages)`` outcome counts."""
    deltas = table.deltas
    for (sym, idx, extra), n in pairs.items():
        if n:
            d = deltas[idx]
            outcomes[(sym >> 1, bool(sym & 1), bool(d[1] or d[3]),
                      bool(d[4]), d[5] + d[6] + extra)] += n


def try_replay(machine, packed, outcomes: Counter | None = None):
    """Replay ``packed`` on the kernel, or return ``None`` untouched.

    The envelope (each gate falls back to the generic loop, which is
    always correct): kernels enabled; exact production component types
    (subclassed machines/placements/representations may observe steps
    the kernel elides), with a full-map or a limited-pointer
    (:class:`LimitedPointerDirectory`, broadcast or not) directory; no
    per-block message tracking; processor ids packable (<= 1024); and
    a fresh machine.  Finite geometries replay
    eviction-aware: sets that can never evict take the independent
    per-block walks, conflict sets take the grouped recency walks.  The
    genuinely unsupported leftovers, with conflict sets only, fall back
    honestly by reason: random replacement (its RNG draws are
    unobservable from here) and silent clean evictions
    (``eviction_notification=False`` leaves the directory's copy set
    stale, outside the packed-state encoding).

    An engaged replay writes every counter into the machine (message
    and cache statistics, invalidation sizes, protocol transitions,
    eviction totals) and any first-touch homes into the placement.  The
    final cache lines and directory entries stay pending until first
    read (see :mod:`repro.kernels.pending`).

    Given an ``outcomes`` counter, an engaged replay also adds every
    access's outcome to it, keyed ``(proc, is_write, missed, upgraded,
    messages)``: what the timing layer prices
    (:meth:`repro.timing.sim.TimingSimulator.profile`).  ``messages``
    is the access's short + data messages, replacement traffic included.
    """
    if not registry.kernels_enabled():
        return _fallback("disabled")
    config = machine.config
    num_procs = config.num_procs
    if num_procs > _MAX_PROCS:
        return _fallback("num-procs")
    if machine.block_messages is not None:
        return _fallback("block-messages")
    placement = machine.placement
    first_touch = type(placement) is FirstTouchPlacement
    if not first_touch and type(placement) not in _PLACEMENT_TYPES:
        return _fallback("placement")
    representation = machine.representation
    limit = None
    if type(representation) is LimitedPointerDirectory:
        limit = (representation.pointers, representation.broadcast)
    elif type(representation) is not FullMapDirectory:
        return _fallback("representation")
    protocol = machine.protocol
    if type(protocol) is not DirectoryProtocol:
        return _fallback("protocol-type")
    if packed.num_procs > num_procs:
        return _fallback("trace-procs")
    if (machine.stats != MessageStats()
            or machine.cache_stats != CacheStats()
            or protocol._entries or protocol.transitions
            or machine.invalidation_sizes
            or any(len(cache) for cache in machine.caches)):
        return _fallback("not-fresh")
    first = machine.caches[0] if machine.caches else None
    finite = type(first) is SetAssociativeCache
    if not finite and type(first) is not InfiniteCache:
        return _fallback("cache-type")
    wide = packed.num_procs > 128
    try:
        if wide:
            seqs = packed.block_sequences_wide(machine._block_shift)
        else:
            seqs = packed.block_sequences(machine._block_shift)
    except (ValueError, OverflowError):  # a processor id out of range
        return _fallback("symbol-range")
    conflicts: dict = {}
    lru = False
    ways = 0
    if finite:
        ways = config.cache.associativity
        lru = config.cache.replacement == "lru"
        conflicts = packed.set_streams(
            machine._block_shift, config.cache.num_sets, ways
        )
        if conflicts:
            if config.cache.replacement == "random":
                # The per-cache replacement RNG is unobservable here.
                return _fallback("replacement-random")
            if not config.eviction_notification:
                # Silent clean evictions leave stale copy-set members the
                # packed single-bitmask state cannot represent.
                return _fallback("eviction-silent")
    try:
        if limit is None:
            table = registry.dir_table(machine.policy, num_procs)
        else:
            table = registry.limited_dir_table(machine.policy, num_procs,
                                               *limit)
    except KernelUnsupported:
        return _fallback("table-unsupported")
    home_shift = machine._home_shift
    blocks = seqs.keys()
    seq_list = seqs.values()
    pages = [block >> home_shift for block in blocks]
    new_homes: dict[int, int] = {}
    if first_touch:
        # A fresh machine's first access to a page is always a miss, so
        # the page's home is the first symbol's processor.  Pages the
        # (possibly pre-seeded) placement already knows keep their homes.
        page_homes = dict(placement._homes)
        for page, seq in zip(pages, seq_list):
            if page not in page_homes:
                sym0 = (seq[0] | seq[1] << 8) if wide else seq[0]
                new_homes[page] = page_homes[page] = sym0 >> 1
    else:
        home_of = placement.home
        page_homes = {page: home_of(page, 0) for page in dict.fromkeys(pages)}
    page_home = page_homes.__getitem__
    homes = list(map(page_home, pages))
    if conflicts:
        conflict_blocks: set[int] = set()
        for members, _stream in conflicts.values():
            conflict_blocks.update(members)
        free = [block not in conflict_blocks for block in blocks]
        blocks = list(compress(blocks, free))
        homes = list(compress(homes, free))
        seq_list = list(compress(seq_list, free))
    # Blocks sharing a (home, sequence) key share a walk: count the keys
    # once, walk each distinct key once in first-occurrence order (so
    # DFA growth and delta interning follow the blocks' order), and sum
    # every walk's delta indices, weighted by its key's count, at once.
    keys = Counter(zip(homes, seq_list))
    seq_results = table.seq_results
    root_key = table.rows.initial_state << (2 * num_procs)
    final_of: dict = {}
    walks: list[tuple] = []
    groups: list[tuple] = []
    walked: list[tuple] = []
    ev_totals = (0, 0, 0, 0, 0)
    try:
        for key, mult in keys.items():
            seq_key = (*key, 1) if wide else key
            result = seq_results.get(seq_key)
            if result is None:
                home, seq = key
                syms = memoryview(seq).cast("H") if wide else seq
                if limit is None:
                    root = table.node((home, root_key), root_key)
                    result = _walk(table, home, root, syms)
                else:
                    result = _walk_limited(table, home, syms, seq_key)
                table.cache_seq_result(seq_key, result)
            walks.append((result[0], mult))
            final_of[key] = result[1]
        vec, inv = _totals(table, walks)
        totals = list(vec)
        inv_sizes = dict(inv)
        for members, stream in conflicts.values():
            ghomes = tuple(page_home(b >> home_shift) for b in members)
            vec, inv, gfinals, recency, gev, gidx, gevicted = _group_walk(
                table, ghomes, stream, ways, lru, outcomes is not None)
            totals = [a + b for a, b in zip(totals, vec)]
            for size, count in inv:
                inv_sizes[size] = inv_sizes.get(size, 0) + count
            ev_totals = tuple(a + b for a, b in zip(ev_totals, gev))
            groups.append((members, gfinals, recency))
            if outcomes is not None:
                walked.append((stream, gidx, gevicted))
    except (KernelUnsupported, KeyError):
        # DFA capacity, or a combination outside the probed rows: the
        # machine is untouched (mutation happens only below), so the
        # generic loop can still run the replay.
        return _fallback("walk-abort")
    if outcomes is not None:
        pairs = _free_outcomes(keys, walks, wide)
        for group in walked:
            _group_outcomes(pairs, *group)
        _add_outcomes(table, pairs, outcomes)
    _apply_counters(machine, totals, inv_sizes)
    if any(ev_totals):
        _apply_evictions(machine, ev_totals)
    if new_homes:
        placement._homes.update(new_homes)
    order = None
    if finite:
        order = partial(_order_free_sets, table, packed,
                        (machine._block_shift, config.cache.num_sets, ways,
                         lru), page_home, home_shift)
    # The (block, final_key) pairs are built only when the decode runs.
    finals = zip(blocks, map(final_of.__getitem__, zip(homes, seq_list)))
    pending.defer(machine, partial(_decode, finals, groups, 2 * num_procs,
                                   order=order), protocol)
    registry.engagements["directory"] += 1
    if machine.step_hook is not None:
        raise ProtocolError(
            "step_hook installed mid-replay on the table-driven kernel "
            "path: the hook missed every earlier step, so its "
            "observations are unreliable; install it before run() to "
            "take the generic per-access path"
        )
    return machine.stats


def _final_entry(entries, block: int, final_key: int, shift2: int) -> set[int]:
    """Record ``block``'s directory entry from its final packed key;
    returns the decoded copy set."""
    lines = final_key & ((1 << shift2) - 1)
    ds = (final_key >> shift2) & 7
    streak = (final_key >> (shift2 + 3)) & 127
    li = (final_key >> (shift2 + 10)) & 0x7FF
    copyset = {p for p, _ in _members(lines)}
    entries[block] = DirectoryEntry(
        state=DIR_STATES[ds], copyset=copyset,
        last_invalidator=li - 1 if li else None, streak=streak,
        overflowed=bool(final_key >> (shift2 + _OVERFLOW)),
    )
    return copyset


def _apply_counters(machine, totals, inv_sizes) -> None:
    """Add the walk totals to the machine's counters.

    Counter keys are only created for nonzero totals, matching the
    object engine's lazy ``by_cause``/``transitions`` population.
    """
    cache_stats = machine.cache_stats
    cache_stats.read_hits += totals[0]
    cache_stats.read_misses += totals[1]
    cache_stats.write_hits += totals[2]
    cache_stats.write_misses += totals[3]
    cache_stats.upgrades += totals[4]
    stats = machine.stats
    stats.short += totals[5]
    stats.data += totals[6]
    for cause, si, di in (("read_miss", 7, 8), ("write_miss", 9, 10),
                          ("write_hit", 11, 12)):
        if totals[si]:
            stats.by_cause_short[cause] += totals[si]
        if totals[di]:
            stats.by_cause_data[cause] += totals[di]
    if totals[16]:
        stats.by_cause_short["pointer_eviction"] += totals[16]
    transitions = machine.protocol.transitions
    for name, i in (("promote", 13), ("demote", 14), ("evidence", 15)):
        if totals[i]:
            transitions[name] += totals[i]
    if inv_sizes:
        machine.invalidation_sizes.update(inv_sizes)


def _decode(finals, groups, shift2: int, caches, entries, order=None) -> None:
    """Write the walks' final per-block state into a machine's cache
    list and directory entry dict.

    Each block of ``finals`` (the independent walks' ``(block,
    final_key)`` pairs) gets its directory entry and its cache lines,
    re-inserted in first-touch block order.  Each conflict set of
    ``groups`` re-inserts every processor's lines in the walk's final
    recency order (oldest first), so the per-set ordering, observable
    by any further accesses, matches the generic loop's exactly.  On a
    finite geometry, ``order`` (:func:`_order_free_sets`) first moves
    the never-evicting sets whose order is observable from ``finals``
    into such groups; in every other set a processor holds at most one
    line, or the cache is infinite, and the order is unobservable.
    """
    if order is not None:
        finals, ordered = order(finals)
        groups = [*groups, *ordered]
    from repro.system.machine import CState

    shared, excl = CState.SHARED, CState.EXCL
    for block, final_key in finals:
        copyset = _final_entry(entries, block, final_key, shift2)
        for p in copyset:
            f = (final_key >> (2 * p)) & 3
            caches[p].insert(block, shared if f == 1 else excl, f == 3)
    for blocks, gfinals, recency in groups:
        for block, final_key in zip(blocks, gfinals):
            _final_entry(entries, block, final_key, shift2)
        for proc, order in recency:
            cache = caches[proc]
            for dense in order:
                f = (gfinals[dense] >> (2 * proc)) & 3
                cache.insert(blocks[dense], shared if f == 1 else excl, f == 3)


def _apply_evictions(machine, ev_totals) -> None:
    """Charge the group walks' replacement traffic into the machine."""
    short, data, dirty, clean, forget = ev_totals
    stats = machine.stats
    stats.short += short
    stats.data += data
    if short:
        stats.by_cause_short["eviction"] += short
    if data:
        stats.by_cause_data["eviction"] += data
    machine.cache_stats.evictions_dirty += dirty
    machine.cache_stats.evictions_clean += clean
    if forget:
        machine.protocol.transitions["forget"] += forget
