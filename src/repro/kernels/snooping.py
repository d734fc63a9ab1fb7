"""Table-driven replay for :class:`repro.snooping.machine.BusMachine`.

The bus analogue of :mod:`repro.kernels.directory`: with no evictions,
each block's snoop life is an independent finite state machine over the
per-processor line states (and, for the competitive-update family, the
per-copy staleness counters).  The kernel packs that state into one
integer — ``field_bits`` bits per processor, state index in the low
three bits, counter above — grows a single DFA lazily (bus charges do
not depend on a home node, so one sub-DFA covers every block), and
replays each block's symbol sequence as a tight walk appending one
interned delta index per access.

Finite geometries replay on the same tables: cache sets that can never
evict keep the per-block walks, and each conflict set replays as one
interleaved group walk (:func:`_walk_bus_group`) carrying per-processor
recency order, popping LRU/FIFO victims exactly as
``SetAssociativeCache.insert`` does (a dirty victim is one writeback
transaction; clean replacement is silent on a bus) and re-entering the
victim's walk at its post-eviction state.  Symbol sequences switch to
the 16-bit wide encoding past 128 processors, with chunk-skipping
holder decodes, raising the processor cap to 1024.

Multi-holder bus requests are composed from the compiler's single-holder
probes: every holder's reaction depends only on its own line, and the
requester fill / writer upgrade is the highest-:data:`RANK` candidate
(migratory beats shared beats default — exactly the wired-OR of the
Migratory and Shared bus lines).  A rank tie between *different*
candidates has no wired-OR reading, so the walk aborts to the generic
loop rather than guess.

``try_replay`` returns ``None`` without touching the machine whenever
the replay falls outside the kernel envelope; the caller then runs the
generic loop, keeping behavior identical.  When it engages it writes
every counter the generic loop would, and — unless the caller asked for
counters only (``final_state=False``, the stats-only replay of
:meth:`BusMachine.replay_counters`) — backfills the final cache lines.
"""

from __future__ import annotations

from collections import Counter

from repro.cache.core import InfiniteCache, SetAssociativeCache
from repro.common.errors import ProtocolError
from repro.common.stats import BusStats, CacheStats
from repro.kernels import registry
from repro.kernels.tables import (
    DIRTY_SNOOP,
    RANK,
    SNOOP_STATES,
    KernelUnsupported,
)

# Delta vector layout (all additive):
# 0 read_hits  1 read_misses  2 write_hits  3 write_misses  4 upgrades
# 5 bus read_miss  6 bus write_miss  7 invalidation  8 update
_VEC = 9

#: Delta slot charged for a bus write hit, by transaction kind.
_WH_SLOT = {"invalidation": 7, "update": 8}

#: Processor cap: symbols must fit the 16-bit wide encoding.
_MAX_PROCS = 1024


def _fallback(reason: str):
    """Count one fallback and return ``None`` (the try_replay contract)."""
    return registry.record_fallback("bus", reason)


def _holders(key: int, fb: int, skip: int) -> list[tuple[int, int, int]]:
    """Decode the packed fields into ``(node, state, counter)`` triples,
    skipping the requester (whose line is not snooped).

    Scans eight processors per step so wide-processor keys with sparse
    holders skip empty regions in one shift.
    """
    mask = (1 << fb) - 1
    cb = 8 * fb
    cmask = (1 << cb) - 1
    holders = []
    p = 0
    while key:
        chunk = key & cmask
        if chunk:
            q = p
            while chunk:
                f = chunk & mask
                if f and q != skip:
                    holders.append((q, f & 7, f >> 3))
                chunk >>= fb
                q += 1
        key >>= cb
        p += 8
    return holders


def _prefer(best, cand):
    """Wired-OR composition of per-holder outcomes: highest rank wins.

    ``best``/``cand`` are ``(state, counter)`` pairs (requester fills
    carry counter 0).  Equal candidates collapse; a rank tie between
    different candidates means the single-holder probes cannot be
    composed, so the walk falls back.
    """
    if best is None or cand == best:
        return cand
    rb, rc = RANK[best[0]], RANK[cand[0]]
    if rb == rc:
        raise KernelUnsupported("ambiguous multi-holder snoop combination")
    return cand if rc > rb else best


def _expand(table, node: list, sym: int):
    """Grow one DFA edge by running the integer protocol semantics.

    Mirrors ``BusMachine.access`` exactly: the packed fields play
    the caches, the compiled rows play the protocol handlers, and the
    transaction/event charges are evaluated here — once per edge, never
    per access.
    """
    rows = table.rows
    key = node[-1]
    proc = sym >> 1
    fb = table.field_bits
    mask = (1 << fb) - 1
    shift = fb * proc
    pf = (key >> shift) & mask
    ps = pf & 7
    d = [0] * _VEC
    nkey = key
    if not sym & 1:
        if ps:
            d[0] = 1  # read hit: touch plus the protocol's read_hit hook
            s, c = rows.read_hit[(ps, pf >> 3)]
            nkey = key & ~(mask << shift) | (s | c << 3) << shift
        else:
            d[1] = d[5] = 1
            fill = None
            for p, s, c in _holders(key, fb, proc):
                ns, nc, fs, _fd = rows.read_react[(s, c)]
                pos = fb * p
                nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
                fill = _prefer(fill, (fs, 0))
            if fill is None:
                fill = (rows.read_cold[0], 0)
            nkey |= (fill[0] | fill[1] << 3) << shift
    elif ps:
        d[2] = 1
        if rows.needs_bus[ps]:
            d[4] = 1  # upgrade
            d[_WH_SLOT[rows.wh_kind]] = 1
            local = None
            for p, s, c in _holders(key, fb, proc):
                ns, nc = rows.wh_remote[(s, c)]
                pos = fb * p
                nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
                local = _prefer(local, rows.wh_local[(ps, s, c)])
            if local is None:
                local = rows.wh_local_cold[ps]
            nkey = nkey & ~(mask << shift) | (local[0] | local[1] << 3) << shift
        else:
            # Bus-silent write; the staleness counter is untouched.
            ns = rows.silent[ps]
            nkey = key & ~(mask << shift) | (ns | (pf >> 3) << 3) << shift
    else:
        d[3] = d[6] = 1
        fill = None
        for p, s, c in _holders(key, fb, proc):
            ns, nc, fs, _fd = rows.write_react[(s, c)]
            pos = fb * p
            nkey = nkey & ~(mask << pos) | (ns | nc << 3) << pos
            fill = _prefer(fill, (fs, 0))
        if fill is None:
            fill = (rows.write_cold[0], 0)
        nkey |= (fill[0] | fill[1] << 3) << shift
    # The third slot holds the lazily-computed eviction metadata
    # (miss/removal summary) the group walks need; plain walks never
    # touch it (see _edge_meta).
    edge = node[sym] = [table.node(nkey, nkey), table.intern_delta(tuple(d)), None]
    return edge


def _edge_meta(src_key: int, dst_key: int, sym: int, fb: int):
    """``(is_miss, removed)`` summary of one edge, for set bookkeeping.

    ``is_miss`` is whether the requester filled a line (its field was 0),
    ``removed`` the processors whose copy this access destroyed
    (invalidated holders: field nonzero -> 0).  Computed once per edge
    on first use by a group walk and memoised in the edge's third slot.
    """
    proc = sym >> 1
    mask = (1 << fb) - 1
    cb = 8 * fb
    cmask = (1 << cb) - 1
    is_miss = not (src_key >> (fb * proc)) & mask
    removed = []
    p = 0
    src, dst = src_key, dst_key
    while src:
        schunk = src & cmask
        if schunk != dst & cmask:
            tchunk = dst & cmask
            q = p
            while schunk:
                if (schunk & mask) and not tchunk & mask:
                    removed.append(q)
                schunk >>= fb
                tchunk >>= fb
                q += 1
        src >>= cb
        dst >>= cb
        p += 8
    return (is_miss, tuple(removed))


def _delta_counts(out: list[int]):
    """Occurrence counts of each delta index, via C-level byte scans."""
    distinct = set(out)
    try:
        buf = bytes(out)
    except ValueError:  # more than 256 interned deltas in this table
        return Counter(out).items()
    return [(idx, buf.count(idx)) for idx in distinct]


def _aggregate(table, out: list[int]) -> tuple:
    """Sum a walk's delta indices into a totals tuple."""
    totals = [0] * _VEC
    deltas = table.deltas
    for idx, count in _delta_counts(out):
        totals = [t + count * v for t, v in zip(totals, deltas[idx])]
    return tuple(totals)


def _walk(table, root: list, syms):
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
            edge = _expand(table, node, sym)
        append(edge[1])
        node = edge[0]
    return _aggregate(table, out), node[-1]


def _walk_bus_group(table, count: int, stream, ways: int, lru: bool):
    """Replay one conflict set's interleaved access stream.

    ``stream`` entries are ``(dense_block_id << 32) | symbol``
    (:meth:`PackedTrace.set_streams`) over ``count`` distinct blocks.
    The walk advances each block's DFA node exactly like the
    independent walks, and additionally mirrors the machine's per-set
    replacement state: ``resident[proc]`` is that processor's recency
    list for this set (oldest first), updated on fills, invalidations,
    and — for LRU — hits.  A fill into a full set pops the victim and
    clears its field; a dirty victim is one writeback transaction,
    clean replacement is silent.  The victim's walk re-enters at the
    post-eviction node: the segment restart.

    Returns ``(totals, final_keys, recency, (writebacks, dirty,
    clean))``.
    """
    fb = table.field_bits
    node_of = table.node
    nodes = [node_of(0, 0) for _ in range(count)]
    resident: dict[int, list[int]] = {}
    out: list[int] = []
    append = out.append
    writebacks = ev_dirty = ev_clean = 0
    dirty_states = DIRTY_SNOOP
    for entry in stream:
        dense = entry >> 32
        sym = entry & 0xFFFFFFFF
        node = nodes[dense]
        edge = node[sym]
        if edge is None:
            edge = _expand(table, node, sym)
        meta = edge[2]
        if meta is None:
            meta = edge[2] = _edge_meta(node[-1], edge[0][-1], sym, fb)
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
                vshift = fb * proc
                vf = (vkey >> vshift) & ((1 << fb) - 1)
                if vf & 7 in dirty_states:
                    writebacks += 1
                    ev_dirty += 1
                else:
                    ev_clean += 1
                nvkey = vkey & ~(((1 << fb) - 1) << vshift)
                nodes[victim] = node_of(nvkey, nvkey)
            rp.append(dense)
        elif lru:
            rp.remove(dense)
            rp.append(dense)
    finals = tuple(node[-1] for node in nodes)
    recency = tuple(
        (proc, tuple(ids))
        for proc, ids in sorted(resident.items()) if ids
    )
    return (_aggregate(table, out), finals, recency,
            (writebacks, ev_dirty, ev_clean))


def try_replay(machine, packed, final_state: bool = True):
    """Replay ``packed`` on the kernel, or return ``None`` untouched.

    The envelope (each gate falls back to the generic loop, which is
    always correct): kernels enabled; an exactly-shipped protocol type
    (checked by the compiler); processor ids packable (<= 1024); and a
    fresh machine.  Finite geometries replay eviction-aware: sets that
    can never evict take the independent per-block walks, conflict sets
    take the grouped recency walks.  Random replacement is the one
    genuinely unsupported finite geometry (its RNG draws are
    unobservable from here) and falls back by that name.

    An engaged replay writes every counter into the machine (bus and
    cache statistics, eviction totals).  With ``final_state`` (the
    default) it also backfills the final cache lines; without it the
    machine is left holding counters only, which is for callers that
    drop it unseen.
    """
    if not registry.kernels_enabled():
        return _fallback("disabled")
    config = machine.config
    num_procs = config.num_procs
    if num_procs > _MAX_PROCS:
        return _fallback("num-procs")
    if packed.num_procs > num_procs:
        return _fallback("trace-procs")
    if (machine.bus_stats != BusStats()
            or machine.cache_stats != CacheStats()
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
            lru = replacement == "lru"
    family_reason = getattr(machine.protocol, "kernel_fallback_reason", None)
    if family_reason is not None:
        # The protocol family declares itself outside the DFA
        # abstraction (see repro.protocols.registry): name the fallback
        # honestly instead of probing a table that cannot exist.
        return _fallback(family_reason)
    try:
        table = registry.bus_table(machine.protocol, num_procs)
    except (KernelUnsupported, ProtocolError):
        return _fallback("table-unsupported")
    conflict_blocks: set[int] = set()
    for blocks, _stream in conflicts.values():
        conflict_blocks.update(blocks)
    seq_results = table.seq_results
    totals = [0] * _VEC
    finals: list[tuple[int, int]] = []
    groups: list[tuple] = []
    ev_totals = (0, 0, 0)
    try:
        for block, seq in seqs.items():
            if block in conflict_blocks:
                continue
            seq_key = (seq, 1) if wide else seq
            result = seq_results.get(seq_key)
            if result is None:
                root = table.node(0, 0)
                syms = memoryview(seq).cast("H") if wide else seq
                result = _walk(table, root, syms)
                table.cache_seq_result(seq_key, result)
            vec, final_key = result
            totals = [a + b for a, b in zip(totals, vec)]
            finals.append((block, final_key))
        for blocks, stream in conflicts.values():
            group_key = (ways, lru, stream.tobytes())
            result = table.group_results.get(group_key)
            if result is None:
                result = _walk_bus_group(table, len(blocks), stream, ways, lru)
                table.cache_group_result(group_key, result)
            vec, gfinals, recency, gev = result
            totals = [a + b for a, b in zip(totals, vec)]
            ev_totals = tuple(a + b for a, b in zip(ev_totals, gev))
            groups.append((blocks, gfinals, recency))
    except (KernelUnsupported, KeyError):
        # DFA capacity, an un-probed combination, or an uncomposable
        # multi-holder snoop: the machine is untouched (mutation happens
        # only below), so the generic loop can still run the replay.
        return _fallback("walk-abort")
    _apply_counters(machine, totals)
    if final_state:
        _apply_final(machine, table, finals)
        _apply_groups(machine, table, groups)
    if any(ev_totals):
        _apply_evictions(machine, ev_totals)
    registry.engagements["bus"] += 1
    if machine.step_hook is not None:
        raise ProtocolError(
            "step_hook installed mid-replay on the table-driven kernel "
            "path: the hook missed every earlier step, so its "
            "observations are unreliable; install it before run() to "
            "take the generic per-access path"
        )
    return machine.bus_stats


def _insert_line(cache, block: int, field: int) -> None:
    """Re-insert one line from its packed field (state + counter)."""
    s = field & 7
    cache.insert(block, SNOOP_STATES[s], s in DIRTY_SNOOP)
    if field >> 3:
        cache.lookup(block).counter = field >> 3


def _apply_counters(machine, totals) -> None:
    """Add the walk totals to the machine's counters.

    ``by_kind`` keys are only created for nonzero totals, matching the
    object engine's lazy population.
    """
    cache_stats = machine.cache_stats
    cache_stats.read_hits += totals[0]
    cache_stats.read_misses += totals[1]
    cache_stats.write_hits += totals[2]
    cache_stats.write_misses += totals[3]
    cache_stats.upgrades += totals[4]
    bus = machine.bus_stats
    bus.read_miss += totals[5]
    bus.write_miss += totals[6]
    bus.invalidation += totals[7]
    bus.update += totals[8]
    for kind, i in (("read_miss", 5), ("write_miss", 6),
                    ("invalidation", 7), ("update", 8)):
        if totals[i]:
            bus.by_kind[kind] += totals[i]


def _apply_final(machine, table, finals) -> None:
    """Write the independent walks' final per-block lines into the machine.

    Lines are re-inserted in first-touch block order; these blocks'
    sets never evicted, so the recency order is unobservable and this
    canonical order is as good as the historical one.
    """
    caches = machine.caches
    fb = table.field_bits
    mask = (1 << fb) - 1
    for block, final_key in finals:
        p = 0
        while final_key:
            f = final_key & mask
            if f:
                _insert_line(caches[p], block, f)
            final_key >>= fb
            p += 1


def _apply_groups(machine, table, groups) -> None:
    """Write the conflict-set walk results into the machine.

    Each processor's lines are re-inserted in the walk's final recency
    order (oldest first), so the machine's per-set ordering — observable
    by any further accesses after the replay — matches the generic
    loop's exactly.
    """
    caches = machine.caches
    fb = table.field_bits
    mask = (1 << fb) - 1
    for blocks, gfinals, recency in groups:
        for proc, order in recency:
            cache = caches[proc]
            for dense in order:
                f = (gfinals[dense] >> (fb * proc)) & mask
                _insert_line(cache, blocks[dense], f)


def _apply_evictions(machine, ev_totals) -> None:
    """Charge the group walks' replacement traffic into the machine."""
    writebacks, dirty, clean = ev_totals
    if writebacks:
        bus = machine.bus_stats
        bus.writeback += writebacks
        bus.by_kind["writeback"] += writebacks
    machine.cache_stats.evictions_dirty += dirty
    machine.cache_stats.evictions_clean += clean
