"""Deterministic, seed-driven trace fuzzer.

Every fuzz case is a pure function of ``(profile, seed)``: the same pair
always yields the same machine geometry and byte-identical trace, which
is what makes ``repro-fuzz`` runs reproducible and lets a failing seed
be named in a bug report.  Five profiles are provided:

* ``migratory`` — compositions of the synthetic sharing patterns the
  paper studies (migratory objects, lock-style read-modify-write
  hand-offs, producer/consumer, read-shared), interleaved in random
  chunk order.  This is the traffic the adaptive protocols are built
  for, so it exercises the classification machinery hardest.
* ``uniform`` — memoryless random accesses over a small block space,
  the classic coverage profile (every interleaving is equally likely).
* ``adversarial`` — interleavings the synthetic generators never emit:
  single-block write storms by all processors, two-processor
  ping-pong, false sharing inside one block, eviction sweeps sized to
  overflow tiny caches mid-pattern, and silent-upgrade probes (write
  then remote read then write again).
* ``kernel`` — migratory/uniform traffic under geometries chosen to be
  mostly *kernel-eligible* (infinite or roomy eviction-free caches, see
  :mod:`repro.kernels`), so the oracle's kernel-diff stage replays on
  the table-driven kernels rather than falling back; a slice of tiny
  geometries keeps the fallback decision itself under test.
* ``evict`` — adversarial set-conflict traffic on deliberately tiny
  finite caches (one or two sets, one or two ways, LRU or FIFO): more
  distinct blocks than ways collide in each set, so every case churns
  replacements.  This drives the kernels' eviction-aware group walks —
  segment restarts, recency bookkeeping, replacement charges, dirty
  writebacks, last-copy directory forgetting — against the generic
  reference, with stats and final cache state compared bit-for-bit.
* ``family`` — traffic shaped for the adaptive-family machinery of
  :mod:`repro.protocols`: same-writer write runs just around the hybrid
  family's ``invalid_threshold`` (so blocks flip between update and
  invalidate mode mid-trace), shared-read bursts that drive the revert
  path, and re-read cadences tuned to the self-invalidation family's
  epoch lease (copies expire mid-run).  Everything replays through the
  whole registry, so this profile stresses the mode/lease state the
  other profiles only hit by accident.

Machine geometry (processor count, block size, finite vs infinite
caches, associativity, replacement policy) is fuzzed along with the
trace so the kernels' envelope decisions and walks for every cache
flavour are covered, not just the infinite-cache one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import WORD_SIZE, Access, read, write
from repro.trace import synth
from repro.trace.core import Trace

#: The recognised fuzz profiles, in CLI order.
PROFILES = ("migratory", "uniform", "adversarial", "kernel", "evict",
            "family")

#: Hard ceiling on trace length so one case replays in milliseconds.
MAX_OPS = 512


@dataclass(frozen=True, eq=False)
class FuzzCase:
    """One fuzzed (trace, machine geometry) pair.

    Attributes:
        seed: the generating seed.
        profile: the generating profile name.
        num_procs: processor count for both machines.
        block_size: coherence granularity in bytes.
        cache_size: per-processor capacity in bytes; None = infinite.
        associativity: ways per set (finite caches only).
        replacement: ``"lru"``, ``"fifo"`` or ``"random"``.
        trace: the access trace to replay.
    """

    seed: int
    profile: str
    num_procs: int
    block_size: int
    cache_size: int | None
    associativity: int
    replacement: str
    trace: Trace

    def machine_config(self) -> MachineConfig:
        """The :class:`MachineConfig` both engines replay under."""
        return MachineConfig(
            num_procs=self.num_procs,
            cache=CacheConfig(
                size_bytes=self.cache_size,
                block_size=self.block_size,
                associativity=self.associativity,
                replacement=self.replacement,
            ),
        )

    def with_trace(self, trace: Trace) -> "FuzzCase":
        """A copy of this case replaying a different trace (shrinking)."""
        return replace(self, trace=trace)

    def describe(self) -> str:
        """One-line summary for logs and artifacts."""
        cache = (
            "inf" if self.cache_size is None
            else f"{self.cache_size}B/{self.associativity}w/{self.replacement}"
        )
        return (
            f"{self.profile} seed={self.seed} procs={self.num_procs} "
            f"block={self.block_size} cache={cache} ops={len(self.trace)}"
        )


def _rng_for(profile: str, seed: int) -> random.Random:
    # str seeds hash deterministically inside random.Random (sha512),
    # independent of PYTHONHASHSEED, so cases reproduce across runs.
    return random.Random(f"repro-fuzz:{profile}:{seed}")


def _truncate(accesses: list[Access], rng: random.Random) -> list[Access]:
    if len(accesses) > MAX_OPS:
        # Keep a contiguous window so per-processor program order (and
        # therefore the patterns' temporal structure) survives.
        start = rng.randrange(len(accesses) - MAX_OPS + 1)
        return accesses[start:start + MAX_OPS]
    return accesses


# ----------------------------------------------------------------------
# Profile generators
# ----------------------------------------------------------------------

def _migratory_trace(rng: random.Random, num_procs: int,
                     block_size: int) -> list[Access]:
    pieces = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(
            ["migratory", "migratory", "lock", "producer_consumer",
             "read_shared"]
        )
        base = rng.choice([0, 4096, 16384])
        seed = rng.randrange(2 ** 31)
        if kind == "migratory":
            piece = synth.migratory(
                num_procs=num_procs,
                num_objects=rng.randint(1, 4),
                words_per_object=rng.randint(1, 4),
                visits=rng.randint(2, 10),
                reads_per_visit=rng.randint(1, 3),
                writes_per_visit=rng.randint(1, 3),
                base=base,
                stride=rng.choice([None, block_size, 2 * block_size]),
                seed=seed,
            )
        elif kind == "lock":
            # A lock-protected record: strict read-modify-write
            # hand-offs on a single word — the purest migratory input.
            piece = synth.migratory(
                num_procs=num_procs,
                num_objects=1,
                words_per_object=1,
                visits=rng.randint(4, 16),
                reads_per_visit=1,
                writes_per_visit=1,
                base=base,
                seed=seed,
            )
        elif kind == "producer_consumer":
            piece = synth.producer_consumer(
                num_procs=num_procs,
                num_objects=rng.randint(1, 3),
                words_per_object=rng.randint(1, 4),
                rounds=rng.randint(2, 8),
                consumers=rng.randint(1, max(1, num_procs - 1)),
                base=base,
                seed=seed,
            )
        else:
            piece = synth.read_shared(
                num_procs=num_procs,
                num_objects=rng.randint(1, 3),
                words_per_object=rng.randint(1, 4),
                rounds=rng.randint(1, 4),
                base=base,
                seed=seed,
            )
        pieces.append(piece)
    mixed = synth.interleave(
        pieces, chunk=rng.randint(1, 8), seed=rng.randrange(2 ** 31)
    )
    return list(mixed)


def _uniform_trace(rng: random.Random, num_procs: int,
                   block_size: int) -> list[Access]:
    num_blocks = rng.randint(2, 10)
    words_per_block = max(1, block_size // WORD_SIZE)
    length = rng.randint(50, 300)
    out = []
    for _ in range(length):
        proc = rng.randrange(num_procs)
        addr = (
            rng.randrange(num_blocks) * block_size
            + rng.randrange(words_per_block) * WORD_SIZE
        )
        out.append(
            write(proc, addr) if rng.random() < 0.4 else read(proc, addr)
        )
    return out


def _adversarial_trace(rng: random.Random, num_procs: int,
                       block_size: int, cache_size: int | None) -> list[Access]:
    out: list[Access] = []
    words_per_block = max(1, block_size // WORD_SIZE)
    hot = rng.randrange(4) * block_size
    while len(out) < rng.randint(100, MAX_OPS):
        phase = rng.choice(
            ["write_storm", "ping_pong", "false_share", "sweep",
             "upgrade_probe", "noise"]
        )
        if phase == "write_storm":
            # Every processor writes the same block back to back — the
            # hysteresis/invalidation machinery under maximum pressure.
            for _ in range(rng.randint(1, 3)):
                for proc in range(num_procs):
                    out.append(write(proc, hot))
        elif phase == "ping_pong":
            a, b = rng.sample(range(num_procs), 2) if num_procs > 1 else (0, 0)
            for _ in range(rng.randint(2, 6)):
                out.append(read(a, hot))
                out.append(write(a, hot))
                out.append(read(b, hot))
                out.append(write(b, hot))
        elif phase == "false_share":
            for _ in range(rng.randint(2, 6)):
                proc = rng.randrange(num_procs)
                word = rng.randrange(words_per_block)
                addr = hot + word * WORD_SIZE
                out.append(read(proc, addr))
                out.append(write(proc, addr))
        elif phase == "sweep":
            # Touch more distinct blocks than a tiny cache can hold so
            # the hot block is evicted mid-pattern (dirty writebacks,
            # replacement notifications, re-classification on return).
            span = 16 if cache_size is None else (cache_size // block_size) + 4
            proc = rng.randrange(num_procs)
            for i in range(span):
                addr = (8 + i) * block_size
                if rng.random() < 0.3:
                    out.append(write(proc, addr))
                else:
                    out.append(read(proc, addr))
        elif phase == "upgrade_probe":
            # Write, let a remote reader demote the copy, write again:
            # probes the silent-upgrade / revoked-permission paths.
            a = rng.randrange(num_procs)
            b = rng.randrange(num_procs)
            out.append(write(a, hot))
            out.append(read(b, hot))
            out.append(write(a, hot))
            out.append(read(b, hot))
        else:
            for _ in range(rng.randint(1, 8)):
                proc = rng.randrange(num_procs)
                addr = rng.randrange(12) * block_size
                out.append(
                    write(proc, addr) if rng.random() < 0.5
                    else read(proc, addr)
                )
    return out


def _evict_trace(rng: random.Random, num_procs: int, block_size: int,
                 num_sets: int, ways: int) -> list[Access]:
    # Per-set conflict groups: more distinct blocks than ways, all
    # mapping to the same set (blocks stride by num_sets), so fills
    # must evict.  Phases mix plain churn with the interactions that
    # stress eviction-aware replay hardest: migratory hand-offs racing
    # replacement, dirty lines swept out, and cross-block ping-pong.
    groups = [
        [s + i * num_sets for i in range(ways + rng.randint(1, 3))]
        for s in range(num_sets)
    ]
    out: list[Access] = []
    while len(out) < rng.randint(100, MAX_OPS):
        blocks = rng.choice(groups)
        phase = rng.choice(
            ["churn", "handoff", "dirty_sweep", "ping_pong", "noise"]
        )
        if phase == "churn":
            # Round-robin over the conflict group: every revisit misses
            # once the set wraps, so replacement never stops.
            proc = rng.randrange(num_procs)
            for _ in range(rng.randint(1, 3)):
                for b in blocks:
                    addr = b * block_size
                    out.append(
                        write(proc, addr) if rng.random() < 0.4
                        else read(proc, addr)
                    )
        elif phase == "handoff":
            # Migratory hand-offs on one conflicting block: eviction
            # races the classification streak and last-invalidator.
            addr = rng.choice(blocks) * block_size
            for _ in range(rng.randint(2, 6)):
                proc = rng.randrange(num_procs)
                out.append(read(proc, addr))
                out.append(write(proc, addr))
        elif phase == "dirty_sweep":
            # Fill the set dirty, then sweep it with reads: dirty
            # writebacks, replacement notifications, last-copy
            # directory forgetting.
            proc = rng.randrange(num_procs)
            for b in blocks[:ways]:
                out.append(write(proc, b * block_size))
            for b in blocks[ways:]:
                out.append(read(proc, b * block_size))
        elif phase == "ping_pong":
            a, b = (
                rng.sample(range(num_procs), 2) if num_procs > 1 else (0, 0)
            )
            x = rng.choice(blocks) * block_size
            y = rng.choice(blocks) * block_size
            for _ in range(rng.randint(2, 5)):
                out.append(write(a, x))
                out.append(read(b, y))
        else:
            for _ in range(rng.randint(1, 6)):
                proc = rng.randrange(num_procs)
                addr = rng.choice(blocks) * block_size
                out.append(
                    write(proc, addr) if rng.random() < 0.5
                    else read(proc, addr)
                )
    return out


def _family_trace(rng: random.Random, num_procs: int,
                  block_size: int) -> list[Access]:
    # Phases aimed at the adaptive families' hidden state: write runs
    # hovering around the hybrid invalid_threshold (2 at the defaults),
    # shared-read bursts that revert invalidate mode, and read gaps
    # paced against the self-invalidation epoch (4) so leases expire
    # both mid-run and never, depending on the draw.
    out: list[Access] = []
    hot_blocks = [b * block_size for b in range(rng.randint(2, 5))]
    while len(out) < rng.randint(100, MAX_OPS):
        hot = rng.choice(hot_blocks)
        phase = rng.choice(
            ["write_run", "flip_flop", "shared_revert", "lease_age",
             "producer", "noise"]
        )
        if phase == "write_run":
            # One writer, run length 1..4: below, at, and past the
            # hybrid threshold — the mode flip lands mid-phase.
            proc = rng.randrange(num_procs)
            for _ in range(rng.randint(1, 4)):
                out.append(write(proc, hot))
        elif phase == "flip_flop":
            # Alternate writers so the same-writer run keeps resetting:
            # hybrid must *stay* in update mode through this.
            for _ in range(rng.randint(2, 6)):
                out.append(write(rng.randrange(num_procs), hot))
        elif phase == "shared_revert":
            # A read burst by many processors: breaks write runs and
            # accumulates invalidate-mode reads toward the revert.
            readers = rng.sample(
                range(num_procs), rng.randint(1, num_procs)
            )
            for _ in range(rng.randint(1, 3)):
                for proc in readers:
                    out.append(read(proc, hot))
        elif phase == "lease_age":
            # Repeated remote read misses age self-invalidation leases:
            # interleave a holder's reads with remote refills so some
            # copies expire (counter past the epoch) and some survive.
            holder = rng.randrange(num_procs)
            out.append(write(holder, hot))
            for _ in range(rng.randint(3, 7)):
                out.append(read(rng.randrange(num_procs), hot))
        elif phase == "producer":
            # Single-writer/multi-reader rounds — update mode's best
            # case and the classifier's producer-consumer signature.
            producer = rng.randrange(num_procs)
            for _ in range(rng.randint(2, 5)):
                out.append(write(producer, hot))
                for proc in range(num_procs):
                    if proc != producer:
                        out.append(read(proc, hot))
        else:
            for _ in range(rng.randint(1, 6)):
                proc = rng.randrange(num_procs)
                addr = rng.choice(hot_blocks)
                out.append(
                    write(proc, addr) if rng.random() < 0.5
                    else read(proc, addr)
                )
    return out


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------

def generate_case(seed: int, profile: str) -> FuzzCase:
    """Build the fuzz case for ``(profile, seed)`` — pure and stable."""
    if profile not in PROFILES:
        raise ValueError(
            f"unknown fuzz profile {profile!r}; expected one of {PROFILES}"
        )
    rng = _rng_for(profile, seed)
    num_procs = rng.choice([2, 3, 4, 4, 6])
    block_size = rng.choice([16, 16, 32, 64])
    if profile == "kernel":
        # Mostly kernel-eligible geometry (infinite, or finite with far
        # more sets than distinct fuzzed blocks so the eviction-free
        # precheck passes); the tail slice is deliberately tiny so the
        # kernel-vs-fallback decision is fuzzed too.
        num_procs = rng.choice([2, 4, 6, 8])
        if rng.random() < 0.6:
            cache_size, associativity, replacement = None, 4, "lru"
        elif rng.random() < 0.7:
            associativity = rng.choice([2, 4])
            cache_size = block_size * associativity * 64
            replacement = "lru"
        else:
            associativity = rng.choice([1, 2])
            cache_size = block_size * associativity * rng.choice([1, 2])
            replacement = rng.choice(["lru", "fifo", "random"])
    elif profile == "evict":
        # Deliberately tiny, always-finite geometry with deterministic
        # replacement (random replacement is outside the eviction-aware
        # kernel envelope, so it would test the fallback, not the walk).
        num_procs = rng.choice([2, 3, 4])
        associativity = rng.choice([1, 2])
        num_sets = rng.choice([1, 2])
        cache_size = block_size * associativity * num_sets
        replacement = rng.choice(["lru", "lru", "fifo"])
    elif profile == "family":
        # Mostly infinite caches: the families' mode/lease state is the
        # target, and evictions resetting residency would mask it.  A
        # small finite slice keeps the interaction with replacement
        # under test too.
        if rng.random() < 0.7:
            cache_size, associativity, replacement = None, 4, "lru"
        else:
            associativity = rng.choice([2, 4])
            cache_size = block_size * associativity * 8
            replacement = "lru"
    elif rng.random() < 0.5:
        cache_size, associativity, replacement = None, 4, "lru"
    else:
        associativity = rng.choice([1, 2, 4])
        num_sets = rng.choice([1, 2])
        cache_size = block_size * associativity * num_sets
        replacement = rng.choice(["lru", "lru", "fifo", "random"])
    if profile == "evict":
        accesses = _evict_trace(
            rng, num_procs, block_size, num_sets, associativity
        )
    elif profile == "migratory":
        accesses = _migratory_trace(rng, num_procs, block_size)
    elif profile == "uniform":
        accesses = _uniform_trace(rng, num_procs, block_size)
    elif profile == "kernel":
        if rng.random() < 0.5:
            accesses = _migratory_trace(rng, num_procs, block_size)
        else:
            accesses = _uniform_trace(rng, num_procs, block_size)
    elif profile == "family":
        accesses = _family_trace(rng, num_procs, block_size)
    else:
        accesses = _adversarial_trace(rng, num_procs, block_size, cache_size)
    accesses = _truncate(accesses, rng)
    trace = Trace(accesses, name=f"fuzz-{profile}-{seed}")
    return FuzzCase(
        seed=seed,
        profile=profile,
        num_procs=num_procs,
        block_size=block_size,
        cache_size=cache_size,
        associativity=associativity,
        replacement=replacement,
        trace=trace,
    )
