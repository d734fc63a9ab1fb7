"""Table-driven replay for :class:`repro.system.machine.DirectoryMachine`.

With no evictions, cache contents couple blocks only through capacity,
so every block's coherence life is an independent finite state machine:
(per-node line states, directory state, evidence streak, last
invalidator).  The kernel packs that machine state into one integer,
grows a DFA over it lazily (one sub-DFA per home node, since Table 1
charges depend on whether the actor is home), and replays each block's
access sequence (:meth:`PackedTrace.block_sequences`) as a tight
walk appending one interned delta index per access.  Whole-walk results
are cached per (home, sequence), so re-replaying a workload — the
result-cache warm path, sweeps over policies sharing traffic patterns —
reduces to dictionary lookups and integer adds.

Finite geometries replay on the same tables.  Cache sets that can never
evict (distinct blocks <= ways) keep the independent per-block walks;
each *conflict* set replays as one interleaved group walk
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

``try_replay`` returns ``None`` without touching the machine whenever
the replay falls outside the kernel envelope (see the gate comments);
the caller then runs the generic loop, keeping behavior identical.
When it engages it writes every counter the generic loop would, and —
unless the caller asked for counters only (``final_state=False``, the
stats-only replay of :meth:`DirectoryMachine.replay_counters`) — backfills
the final cache lines and directory entries as well.
"""

from __future__ import annotations

from collections import Counter

from repro.cache.core import InfiniteCache, SetAssociativeCache
from repro.common.errors import ProtocolError
from repro.common.stats import CacheStats, MessageStats
from repro.directory.entry import DirectoryEntry
from repro.directory.protocol import DirectoryProtocol
from repro.directory.representation import FullMapDirectory
from repro.interconnect.costs import (
    eviction_counts,
    read_miss_counts,
    write_hit_counts,
    write_miss_counts,
)
from repro.kernels import registry
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

# Delta vector layout (17th slot is the invalidation size, not additive):
# 0 read_hits  1 read_misses  2 write_hits  3 write_misses  4 upgrades
# 5 short  6 data  7/8 read_miss short/data  9/10 write_miss short/data
# 11/12 write_hit short/data  13 promote  14 demote  15 evidence
_VEC = 16

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


def _expand(table, home: int, node: list, sym: int):
    """Grow one DFA edge by running the integer protocol semantics.

    Mirrors ``DirectoryMachine.access`` and its miss/upgrade
    handlers exactly: per-node line fields (0 absent, 1 SHARED, 2
    EXCL-clean, 3 EXCL-dirty) play the caches and the copy set, the
    compiled rows play :class:`DirectoryProtocol`, and the Table 1
    helpers are evaluated here — once per edge, never per access.
    """
    rows = table.rows
    key = node[-1]
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
    nkey = (new_lines | (nds << shift2) | (nstreak << (shift2 + 3))
            | (nli << (shift2 + 10)))
    # The third slot holds the lazily-computed eviction metadata
    # (miss/removal summary) the group walks need; plain walks never
    # touch it (see _edge_meta).
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


def _delta_counts(out: list[int]):
    """Occurrence counts of each delta index, via C-level byte scans."""
    distinct = set(out)
    try:
        buf = bytes(out)
    except ValueError:  # more than 256 interned deltas in this table
        return Counter(out).items()
    return [(idx, buf.count(idx)) for idx in distinct]


def _aggregate(table, out: list[int]):
    """Sum a walk's delta indices into ``(totals, inv_items)``."""
    totals = [0] * _VEC
    inv: dict[int, int] = {}
    deltas = table.deltas
    for idx, count in _delta_counts(out):
        delta = deltas[idx]
        totals = [t + count * v for t, v in zip(totals, delta)]
        if delta[_VEC]:
            inv[delta[_VEC]] = inv.get(delta[_VEC], 0) + count
    return tuple(totals), tuple(sorted(inv.items()))


def _walk(table, home: int, root: list, syms):
    """Replay one block's symbol sequence; return the walk summary.

    ``syms`` is any iterable of symbol ints — the byte string of
    :meth:`block_sequences` or a ``memoryview('H')`` over the wide form.
    """
    node = root
    out: list[int] = []
    append = out.append
    for sym in syms:
        edge = node[sym]
        if edge is None:
            edge = _expand(table, home, node, sym)
        append(edge[1])
        node = edge[0]
    totals, inv = _aggregate(table, out)
    return totals, inv, node[-1]


def _walk_dir_group(table, homes: tuple, stream, ways: int, lru: bool):
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

    Returns ``(totals, inv_items, final_keys, recency, evictions)``
    where ``final_keys[dense_id]`` is each block's final packed state,
    ``recency`` is ``((proc, dense_ids...), ...)`` oldest-first per
    processor, and ``evictions`` is ``(short, data, dirty, clean,
    forget)``.
    """
    rows = table.rows
    shift2 = 2 * table.num_procs
    lines_mask = (1 << shift2) - 1
    root_key = rows.initial_state << shift2
    node_of = table.node
    uncached = rows.uncached
    nodes = [node_of((home, root_key), root_key) for home in homes]
    resident: dict[int, list[int]] = {}
    out: list[int] = []
    append = out.append
    ev_short = ev_data = ev_dirty = ev_clean = forget = 0
    for entry in stream:
        dense = entry >> 32
        sym = entry & 0xFFFFFFFF
        node = nodes[dense]
        edge = node[sym]
        if edge is None:
            edge = _expand(table, homes[dense], node, sym)
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
                nvkey = vkey & ~(3 << vshift)
                if not nvkey & lines_mask:
                    # Last copy gone: the directory notes the block
                    # uncached (note_uncached), via the compiled row.
                    ds = (nvkey >> shift2) & 7
                    nds, reset, fg = uncached[ds]
                    forget += fg
                    if reset:
                        nvkey = nds << shift2
                    else:
                        nvkey = nvkey & ~(7 << shift2) | (nds << shift2)
                nodes[victim] = node_of((homes[victim], nvkey), nvkey)
            rp.append(dense)
        elif lru:
            rp.remove(dense)
            rp.append(dense)
    totals, inv = _aggregate(table, out)
    finals = tuple(node[-1] for node in nodes)
    recency = tuple(
        (proc, tuple(ids))
        for proc, ids in sorted(resident.items()) if ids
    )
    return (totals, inv, finals, recency,
            (ev_short, ev_data, ev_dirty, ev_clean, forget))


def try_replay(machine, packed, final_state: bool = True):
    """Replay ``packed`` on the kernel, or return ``None`` untouched.

    The envelope (each gate falls back to the generic loop, which is
    always correct): kernels enabled; exact production component types
    (subclassed machines/placements/representations may observe steps
    the kernel elides); no per-block message tracking; processor ids
    packable (<= 1024); and a fresh machine.  Finite geometries replay
    eviction-aware: sets that can never evict take the independent
    per-block walks, conflict sets take the grouped recency walks.  The
    genuinely unsupported leftovers fall back honestly by reason:
    random replacement (its RNG draws are unobservable from here) and
    silent clean evictions (``eviction_notification=False`` leaves the
    directory's copy set stale, outside the packed-state encoding).

    An engaged replay writes every counter into the machine (message
    and cache statistics, invalidation sizes, protocol transitions,
    eviction totals) and any first-touch homes into the placement.
    With ``final_state`` (the default) it also backfills the final
    cache lines and directory entries; without it the machine is left
    holding counters only, which is for callers that drop it unseen.
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
    if type(machine.representation) is not FullMapDirectory:
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
        conflicts = packed.set_streams(
            machine._block_shift, config.cache.num_sets, ways
        )
        if conflicts:
            replacement = config.cache.replacement
            if replacement == "random":
                # The per-cache replacement RNG is unobservable here.
                return _fallback("replacement-random")
            if not config.eviction_notification:
                # Silent clean evictions leave stale copy-set members the
                # packed single-bitmask state cannot represent.
                return _fallback("eviction-silent")
            lru = replacement == "lru"
    try:
        table = registry.dir_table(machine.policy, num_procs)
    except KernelUnsupported:
        return _fallback("table-unsupported")
    home_shift = machine._home_shift
    new_homes: dict[int, int] = {}
    if first_touch:
        # A fresh machine's first access to a page is always a miss, so
        # the page's home is the first symbol's processor.  Pages the
        # (possibly pre-seeded) placement already knows keep their homes.
        homes_map = dict(placement._homes)
        for block, seq in seqs.items():
            page = block >> home_shift
            if page not in homes_map:
                sym0 = (seq[0] | seq[1] << 8) if wide else seq[0]
                new_homes[page] = homes_map[page] = sym0 >> 1
        home_of = homes_map.__getitem__
    else:
        home_of = None
    conflict_blocks: set[int] = set()
    for blocks, _stream in conflicts.values():
        conflict_blocks.update(blocks)
    seq_results = table.seq_results
    root_key = table.rows.initial_state << (2 * num_procs)
    totals = [0] * _VEC
    inv_sizes: dict[int, int] = {}
    finals: list[tuple[int, int]] = []
    groups: list[tuple] = []
    ev_totals = (0, 0, 0, 0, 0)
    try:
        for block, seq in seqs.items():
            if block in conflict_blocks:
                continue
            page = block >> home_shift
            home = home_of(page) if first_touch else placement.home(page, 0)
            seq_key = (home, seq, 1) if wide else (home, seq)
            result = seq_results.get(seq_key)
            if result is None:
                root = table.node((home, root_key), root_key)
                syms = memoryview(seq).cast("H") if wide else seq
                result = _walk(table, home, root, syms)
                table.cache_seq_result(seq_key, result)
            vec, inv, final_key = result
            totals = [a + b for a, b in zip(totals, vec)]
            for size, count in inv:
                inv_sizes[size] = inv_sizes.get(size, 0) + count
            finals.append((block, final_key))
        for blocks, stream in conflicts.values():
            ghomes = tuple(
                home_of(b >> home_shift) if first_touch
                else placement.home(b >> home_shift, 0)
                for b in blocks
            )
            group_key = (ways, lru, ghomes, stream.tobytes())
            result = table.group_results.get(group_key)
            if result is None:
                result = _walk_dir_group(table, ghomes, stream, ways, lru)
                table.cache_group_result(group_key, result)
            vec, inv, gfinals, recency, gev = result
            totals = [a + b for a, b in zip(totals, vec)]
            for size, count in inv:
                inv_sizes[size] = inv_sizes.get(size, 0) + count
            ev_totals = tuple(a + b for a, b in zip(ev_totals, gev))
            groups.append((blocks, gfinals, recency))
    except (KernelUnsupported, KeyError):
        # DFA capacity, or a combination outside the probed rows: the
        # machine is untouched (mutation happens only below), so the
        # generic loop can still run the replay.
        return _fallback("walk-abort")
    _apply_counters(machine, totals, inv_sizes)
    if final_state:
        _apply_final(machine, finals)
        _apply_groups(machine, groups)
    if any(ev_totals):
        _apply_evictions(machine, ev_totals)
    if new_homes:
        placement._homes.update(new_homes)
    registry.engagements["directory"] += 1
    if machine.step_hook is not None:
        raise ProtocolError(
            "step_hook installed mid-replay on the table-driven kernel "
            "path: the hook missed every earlier step, so its "
            "observations are unreliable; install it before run() to "
            "take the generic per-access path"
        )
    return machine.stats


def _final_entry(machine, block: int, final_key: int, shift2: int) -> set[int]:
    """Record ``block``'s directory entry from its final packed key;
    returns the decoded copy set."""
    lines = final_key & ((1 << shift2) - 1)
    ds = (final_key >> shift2) & 7
    streak = (final_key >> (shift2 + 3)) & 127
    li = final_key >> (shift2 + 10)
    copyset = {p for p, _ in _members(lines)}
    machine.protocol._entries[block] = DirectoryEntry(
        state=DIR_STATES[ds], copyset=copyset,
        last_invalidator=li - 1 if li else None, streak=streak,
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
    transitions = machine.protocol.transitions
    for name, i in (("promote", 13), ("demote", 14), ("evidence", 15)):
        if totals[i]:
            transitions[name] += totals[i]
    if inv_sizes:
        machine.invalidation_sizes.update(inv_sizes)


def _apply_final(machine, finals) -> None:
    """Write the independent walks' final per-block state into the machine.

    Each block gets its directory entry and its cache lines.  Lines are
    re-inserted in first-touch block order; these blocks' sets never
    evicted, so the recency order is unobservable and this canonical
    order is as good as the historical one.
    """
    from repro.system.machine import CState

    shared, excl = CState.SHARED, CState.EXCL
    caches = machine.caches
    shift2 = 2 * machine.config.num_procs
    for block, final_key in finals:
        copyset = _final_entry(machine, block, final_key, shift2)
        for p in copyset:
            f = (final_key >> (2 * p)) & 3
            caches[p].insert(block, shared if f == 1 else excl, f == 3)


def _apply_groups(machine, groups) -> None:
    """Write the conflict-set walk results into the machine.

    Each processor's lines are re-inserted in the walk's final recency
    order (oldest first), so the machine's per-set ordering — observable
    by any further accesses after the replay — matches the generic
    loop's exactly.
    """
    from repro.system.machine import CState

    shared, excl = CState.SHARED, CState.EXCL
    caches = machine.caches
    shift2 = 2 * machine.config.num_procs
    for blocks, gfinals, recency in groups:
        for block, final_key in zip(blocks, gfinals):
            _final_entry(machine, block, final_key, shift2)
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
