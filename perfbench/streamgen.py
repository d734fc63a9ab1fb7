"""Columnar generator for the ``stream`` workload's synthetic trace.

The SPLASH analogues in :mod:`repro.workloads` synthesize far too slowly
for a trace of millions of accesses, so this module writes the three
:class:`~repro.trace.packed.PackedTrace` columns directly.  Every block
belongs to one sharing class, and the trace is a seeded interleaving of
short per-block episodes:

* ``private`` — one owner reads and writes its block;
* ``migratory`` — a processor other than the last one reads, then
  writes, the block (the pattern the adaptive protocols detect);
* ``read_shared`` — read by a fixed group of four processors, and now
  and then rewritten by the group's first member;
* ``producer_consumer`` — a fixed producer writes, a fixed consumer
  reads;
* ``false_sharing`` — two fixed processors write different words of
  one block in turn.

The same seed always gives the same columns.
"""

from __future__ import annotations

import random
from array import array

from repro.trace.packed import PackedTrace

#: Sharing classes with their share of the blocks, in block-id order.
CLASSES = (
    ("private", 0.35),
    ("migratory", 0.25),
    ("read_shared", 0.15),
    ("producer_consumer", 0.15),
    ("false_sharing", 0.10),
)


def generate(seed: int, accesses: int, blocks: int, num_procs: int = 16,
             block_size: int = 16) -> PackedTrace:
    """A trace of exactly ``accesses`` accesses over ``blocks`` blocks."""
    rng = random.Random(seed)
    rand = rng.random
    procs = array("q")
    ops = array("b")
    addrs = array("q")
    p_append, o_append, a_append = procs.append, ops.append, addrs.append

    bounds = []
    start = 0
    for name, share in CLASSES:
        stop = start + max(1, int(blocks * share))
        bounds.append((name, start, min(stop, blocks)))
        start = stop
    kind_of = bytearray(blocks)
    for kind, (_, lo, hi) in enumerate(bounds):
        kind_of[lo:hi] = bytes([kind]) * (hi - lo)
    # Per-block fixed processors: owner/producer, and the second writer
    # of a falsely shared block.
    first = [int(rand() * num_procs) for _ in range(blocks)]
    second = [(p + 1 + int(rand() * (num_procs - 1))) % num_procs
              for p in first]
    last = list(first)
    word = block_size // 2

    n = 0
    while n < accesses:
        block = int(rand() * blocks)
        base = block * block_size
        kind = kind_of[block]
        if kind == 0:  # private
            owner = first[block]
            p_append(owner); o_append(0); a_append(base)
            p_append(owner); o_append(1); a_append(base)
            n += 2
        elif kind == 1:  # migratory
            proc = (last[block] + 1 + int(rand() * (num_procs - 1))) \
                % num_procs
            last[block] = proc
            p_append(proc); o_append(0); a_append(base)
            p_append(proc); o_append(1); a_append(base)
            n += 2
        elif kind == 2:  # read-shared
            group = first[block]
            r = rand()
            if r < 0.05:
                p_append(group); o_append(1); a_append(base)
            else:
                p_append((group + int(r * 4)) % num_procs); o_append(0)
                a_append(base)
            p_append((group + int(rand() * 4)) % num_procs); o_append(0)
            a_append(base)
            n += 2
        elif kind == 3:  # producer-consumer
            p_append(first[block]); o_append(1); a_append(base)
            p_append(second[block]); o_append(0); a_append(base)
            n += 2
        else:  # false sharing
            p_append(first[block]); o_append(1); a_append(base)
            p_append(second[block]); o_append(1); a_append(base + word)
            n += 2
    del procs[accesses:], ops[accesses:], addrs[accesses:]
    return PackedTrace(procs, ops, addrs, name=f"stream-{seed}")
