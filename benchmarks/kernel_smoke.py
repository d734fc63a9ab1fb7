"""CI kernel smoke: the table-driven kernels must engage, win, and agree.

Replays the throughput-benchmark workload per machine on the
table-driven kernel (:mod:`repro.kernels`) and on the generic
per-access object engine (the kernel pinned off via
:func:`registry.disabled`, which is exactly what a fallback costs),
and asserts the two contracts the kernels ship under:

* **perf**: the kernel replay is no slower than the generic loop a
  fallback lands on (it is well over an order of magnitude faster in
  practice; asserting ``<=`` keeps the check immune to CI noise while
  still catching an engagement regression, because a silently
  falling-back kernel run *is* a generic run plus gate overhead).
* **determinism**: every statistic the kernel run produces — message
  and bus counters with their per-cause/per-kind breakdowns, cache
  event counters, invalidation-size histograms, classification
  transitions — is byte-identical to the object engine's on the same
  fixed seeded trace, and so is every counter of the stats-only replay
  (``replay_counters``, which engages the kernel but skips the
  final-state backfill).

Both contracts are checked twice per machine: once on the infinite
64K-cache throughput geometry and once on a finite 256-byte cache
whose conflict sets force real evictions through the eviction-aware
group walks (the run is rejected if no eviction actually happened).
A final pass replays the same packed trace through the streaming
backend at several chunk sizes and diffs the results against the
batch kernel — chunk boundaries must be unobservable.

Run from the repository root::

    python benchmarks/kernel_smoke.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.config import CacheConfig, MachineConfig  # noqa: E402
from repro.directory.policy import AGGRESSIVE  # noqa: E402
from repro.kernels import registry  # noqa: E402
from repro.kernels.streaming import replay_stream  # noqa: E402
from repro.snooping.machine import BusMachine  # noqa: E402
from repro.snooping.protocols import AdaptiveSnoopingProtocol  # noqa: E402
from repro.system.machine import DirectoryMachine  # noqa: E402
from repro.trace import synth  # noqa: E402

#: In-process repetitions per timing (min is reported).
REPS = 5

CFG = MachineConfig(num_procs=16,
                    cache=CacheConfig(size_bytes=64 * 1024, block_size=16))

#: 16 lines over 4 sets, 32 distinct blocks in the trace: every set is
#: a conflict set and the replay has to take the eviction-aware walks.
EVICT_CFG = MachineConfig(num_procs=16,
                          cache=CacheConfig(size_bytes=256, block_size=16))

#: The streaming backend only covers infinite caches (a segment-local
#: view cannot prove a finite cache never evicts), so its determinism
#: pass runs on the same workload with caches uncapped.
STREAM_CFG = MachineConfig(num_procs=16,
                           cache=CacheConfig(size_bytes=None, block_size=16))

#: Chunk sizes for the streaming determinism pass (one access per
#: segment, one splits blocks' access sequences mid-stream, one is a few
#: large segments).
STREAM_CHUNKS = (1, 257, 4096)


def _trace():
    return synth.interleave(
        [synth.migratory(num_procs=16, num_objects=16, visits=50, seed=1),
         synth.read_shared(num_procs=16, num_objects=16, rounds=20,
                           base=1 << 20, seed=2)],
        chunk=8, seed=3)


def _best(make, trace) -> float:
    best = float("inf")
    for _ in range(REPS):
        machine = make()
        started = time.perf_counter()
        machine.run(trace)
        best = min(best, time.perf_counter() - started)
    return best


def _check_machine(name, make, counters, trace, stats_of, *, label=None,
                   require_evictions=False) -> list[str]:
    """Time kernel vs generic and diff the kernel's and the stats-only
    replay's (``counters(trace)``) stats against the object engine;
    returns failure descriptions (empty = clean)."""
    problems = []
    label = label or name

    registry.engagements.clear()
    kernel_machine = make()
    kernel_machine.run(trace)
    if registry.engagements[name] != 1:
        problems.append(f"{label}: kernel did not engage on the benchmark "
                        f"workload (engagements={dict(registry.engagements)})")
    if require_evictions:
        evictions = (kernel_machine.cache_stats.evictions_dirty
                     + kernel_machine.cache_stats.evictions_clean)
        if not evictions:
            problems.append(f"{label}: finite-cache geometry produced no "
                            "evictions — the check is vacuous")
    kernel_seconds = _best(make, trace)

    with registry.disabled():
        generic_seconds = _best(make, trace)

    print(f"{label}: kernel {kernel_seconds * 1e3:.3f}ms  "
          f"generic {generic_seconds * 1e3:.3f}ms  "
          f"({generic_seconds / kernel_seconds:.1f}x)")
    if kernel_seconds > generic_seconds:
        problems.append(
            f"{label}: kernel replay ({kernel_seconds * 1e3:.3f}ms) slower "
            f"than the generic loop ({generic_seconds * 1e3:.3f}ms)")

    registry.engagements.clear()
    stats_only = counters(trace)
    if registry.engagements[name] != 1:
        problems.append(f"{label}: stats-only replay did not engage "
                        f"(engagements={dict(registry.engagements)})")

    generic_machine = make()
    generic_machine.run(list(trace))  # a plain list has no pack()
    for kind, replayed in (("kernel", kernel_machine),
                           ("stats-only", stats_only)):
        for field, value, generic_value in stats_of(replayed,
                                                    generic_machine):
            if value != generic_value:
                problems.append(f"{label}: {field}: {kind}={value!r} "
                                f"object-engine={generic_value!r}")
    if not problems:
        print(f"{label}: kernel and stats-only stats match the object "
              "engine")
    return problems


def _check_streaming(name, make, packed, stats_of) -> list[str]:
    """Replay chunked through the streaming backend at every chunk size
    and diff against the batch kernel — results must be identical."""
    problems = []
    batch = make()
    batch.run(packed)
    for chunk in STREAM_CHUNKS:
        registry.engagements.clear()
        registry.fallbacks.clear()
        machine = make()
        replay_stream(machine, packed, chunk=chunk)
        if registry.engagements[f"{name}-stream"] != 1 or registry.fallbacks:
            problems.append(
                f"{name}-stream(chunk={chunk}): did not engage "
                f"(engagements={dict(registry.engagements)}, "
                f"fallbacks={dict(registry.fallbacks)})")
        for field, stream_value, batch_value in stats_of(machine, batch):
            if stream_value != batch_value:
                problems.append(
                    f"{name}-stream(chunk={chunk}): {field}: "
                    f"stream={stream_value!r} batch={batch_value!r}")
    if not problems:
        print(f"{name}-stream: chunks {STREAM_CHUNKS} all match batch")
    return problems


def _transitions(replayed):
    """A machine's transition counters, or a stats-only replay's."""
    if isinstance(replayed, DirectoryMachine):
        return replayed.protocol.transitions
    return replayed.transitions


def _directory_stats(a, b):
    return [
        ("stats.short", a.stats.short, b.stats.short),
        ("stats.data", a.stats.data, b.stats.data),
        ("by_cause_short", a.stats.by_cause_short, b.stats.by_cause_short),
        ("by_cause_data", a.stats.by_cause_data, b.stats.by_cause_data),
        ("cache_stats", a.cache_stats, b.cache_stats),
        ("invalidation_sizes", a.invalidation_sizes, b.invalidation_sizes),
        ("transitions", _transitions(a), _transitions(b)),
    ]


def _bus_stats(a, b):
    return [
        ("bus_stats", a.bus_stats, b.bus_stats),
        ("by_kind", a.bus_stats.by_kind, b.bus_stats.by_kind),
        ("cache_stats", a.cache_stats, b.cache_stats),
    ]


def main() -> int:
    trace = _trace()
    # Resolve the packed columns once so neither timing pays for packing.
    packed = trace.pack()
    packed.block_sequences(4)

    problems = []
    for cfg, suffix, evicting in ((CFG, "", False),
                                  (EVICT_CFG, "-evicting", True)):
        problems += _check_machine(
            "directory", lambda: DirectoryMachine(cfg, AGGRESSIVE),
            lambda t: DirectoryMachine.replay_counters(t, cfg, AGGRESSIVE),
            trace, _directory_stats, label=f"directory{suffix}",
            require_evictions=evicting,
        )
        problems += _check_machine(
            "bus", lambda: BusMachine(cfg, AdaptiveSnoopingProtocol()),
            lambda t: BusMachine.replay_counters(
                t, cfg, AdaptiveSnoopingProtocol()),
            trace, _bus_stats, label=f"bus{suffix}",
            require_evictions=evicting,
        )
    problems += _check_streaming(
        "directory", lambda: DirectoryMachine(STREAM_CFG, AGGRESSIVE),
        packed, _directory_stats,
    )
    problems += _check_streaming(
        "bus", lambda: BusMachine(STREAM_CFG, AdaptiveSnoopingProtocol()),
        packed, _bus_stats,
    )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
