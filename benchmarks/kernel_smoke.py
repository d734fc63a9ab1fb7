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
  fixed seeded trace.  The counters are read while the kernel run's
  final state is still pending (which the read must not decode), then
  the decoded final state — every cache line, every directory entry —
  must equal the object engine's too.

Both contracts are checked twice per machine: once on the
conflict-free 64K-cache throughput geometry and once on a finite
256-byte cache whose conflict sets force real evictions through the
eviction-aware group walks (the run is rejected if no eviction actually
happened).  On both, the kernel and object-engine machines then replay
a short tail trace on top, and the counters and the lines, compared in
each finite cache's set and recency order, must still match: the tail's
fills evict by the order the kernel run decoded.
On both geometries the directory machine also replays under Dir4B and
Dir4NB limited-pointer directories (16 processors share the read-shared
objects, so 4 pointers overflow), timed and diffed the same way.
On both geometries the directory machine's timing profile
(:meth:`TimingSimulator.profile`, read off the kernel's per-access
outcome counts) is timed against the generic loop's and must equal it
field for field.
A final pass replays the same packed trace through the streaming
backend at several chunk sizes and diffs the results, counters and
decoded state, against the batch kernel — chunk boundaries must be
unobservable.

Run from the repository root::

    python benchmarks/kernel_smoke.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.config import CacheConfig, MachineConfig  # noqa: E402
from repro.conformance.oracle import _final_lines  # noqa: E402
from repro.directory.policy import AGGRESSIVE  # noqa: E402
from repro.directory.representation import (  # noqa: E402
    LimitedPointerDirectory,
)
from repro.kernels import registry  # noqa: E402
from repro.kernels.pending import StandIn  # noqa: E402
from repro.kernels.streaming import replay_stream  # noqa: E402
from repro.snooping.machine import BusMachine  # noqa: E402
from repro.snooping.protocols import AdaptiveSnoopingProtocol  # noqa: E402
from repro.system.machine import DirectoryMachine  # noqa: E402
from repro.timing.sim import TimingSimulator  # noqa: E402
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


def _tail():
    """A short trace replayed on top of the finite-geometry runs: new
    blocks sharing the workload's sets, so its fills evict by the order
    the first run left."""
    return synth.interleave(
        [synth.migratory(num_procs=16, num_objects=8, visits=6,
                         base=1 << 12, seed=4),
         synth.read_shared(num_procs=16, num_objects=8, rounds=2,
                           base=1 << 21, seed=5)],
        chunk=8, seed=6)


def _trace():
    return synth.interleave(
        [synth.migratory(num_procs=16, num_objects=16, visits=50, seed=1),
         synth.read_shared(num_procs=16, num_objects=16, rounds=20,
                           base=1 << 20, seed=2)],
        chunk=8, seed=3)


def _best(start, trace) -> float:
    """Best of :data:`REPS` timings of ``start()(trace)``; ``start``
    builds a fresh replay (a machine's ``run``, a profile) each time."""
    best = float("inf")
    for _ in range(REPS):
        replay = start()
        started = time.perf_counter()
        replay(trace)
        best = min(best, time.perf_counter() - started)
    return best


def _diff(label, kind, pairs, reference="object-engine") -> list[str]:
    return [f"{label}: {field}: {kind}={value!r} {reference}={expected!r}"
            for field, value, expected in pairs if value != expected]


def _check_machine(name, make, trace, stats_of, state_of, *, label=None,
                   require_evictions=False, tail=None) -> list[str]:
    """Time kernel vs generic and diff the kernel run against the object
    engine, its counters while its final state is pending, then the
    decoded state, then (given a ``tail`` trace) both machines after
    replaying ``tail`` on top; returns failure descriptions (empty =
    clean)."""
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
    kernel_seconds = _best(lambda: make().run, trace)

    with registry.disabled():
        generic_seconds = _best(lambda: make().run, trace)

    print(f"{label}: kernel {kernel_seconds * 1e3:.3f}ms  "
          f"generic {generic_seconds * 1e3:.3f}ms  "
          f"({generic_seconds / kernel_seconds:.1f}x)")
    if kernel_seconds > generic_seconds:
        problems.append(
            f"{label}: kernel replay ({kernel_seconds * 1e3:.3f}ms) slower "
            f"than the generic loop ({generic_seconds * 1e3:.3f}ms)")

    generic_machine = make()
    generic_machine.run(list(trace))  # a plain list has no pack()
    problems += _diff(label, "kernel",
                      stats_of(kernel_machine, generic_machine))
    if not isinstance(kernel_machine.caches, StandIn):
        problems.append(f"{label}: the kernel run's final state was "
                        "decoded before anything read it")
    problems += _diff(label, "decoded",
                      state_of(kernel_machine, generic_machine))
    if tail is not None:
        # The decoded per-set order is what the tail's fills evict by.
        kernel_machine.run(tail)
        generic_machine.run(list(tail))
        problems += _diff(label, "continued",
                          stats_of(kernel_machine, generic_machine)
                          + state_of(kernel_machine, generic_machine))
    if not problems:
        print(f"{label}: kernel stats and decoded state match the object "
              "engine" + (", and after a tail replay" if tail else ""))
    return problems


def _check_profile(label, make, trace) -> list[str]:
    """Time the kernel-built timing profile against the generic loop's
    and diff the two field by field."""
    problems = []
    registry.engagements.clear()
    kernel = TimingSimulator(make()).profile(trace)
    if registry.engagements["directory"] != 1:
        problems.append(f"{label}-profile: kernel did not engage "
                        f"(engagements={dict(registry.engagements)})")
    def start():
        return TimingSimulator(make()).profile

    kernel_seconds = _best(start, trace)
    with registry.disabled():
        generic = TimingSimulator(make()).profile(trace)
        generic_seconds = _best(start, trace)
    print(f"{label}-profile: kernel {kernel_seconds * 1e3:.3f}ms  "
          f"generic {generic_seconds * 1e3:.3f}ms  "
          f"({generic_seconds / kernel_seconds:.1f}x)")
    if kernel_seconds > generic_seconds:
        problems.append(
            f"{label}-profile: kernel profile ({kernel_seconds * 1e3:.3f}ms)"
            f" slower than the generic loop ({generic_seconds * 1e3:.3f}ms)")
    problems += _diff(f"{label}-profile", "kernel", [
        (f.name, getattr(kernel, f.name), getattr(generic, f.name))
        for f in fields(kernel)])
    if not problems:
        print(f"{label}-profile: kernel profile matches the object engine")
    return problems


def _check_streaming(name, make, packed, stats_of, state_of) -> list[str]:
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
        problems += _diff(f"{name}-stream(chunk={chunk})", "stream",
                          stats_of(machine, batch) + state_of(machine, batch),
                          reference="batch")
    if not problems:
        print(f"{name}-stream: chunks {STREAM_CHUNKS} all match batch")
    return problems


def _directory_stats(a, b):
    return [
        ("stats.short", a.stats.short, b.stats.short),
        ("stats.data", a.stats.data, b.stats.data),
        ("by_cause_short", a.stats.by_cause_short, b.stats.by_cause_short),
        ("by_cause_data", a.stats.by_cause_data, b.stats.by_cause_data),
        ("cache_stats", a.cache_stats, b.cache_stats),
        ("invalidation_sizes", a.invalidation_sizes, b.invalidation_sizes),
        ("transitions", a.protocol.transitions, b.protocol.transitions),
    ]


def _bus_stats(a, b):
    return [
        ("bus_stats", a.bus_stats, b.bus_stats),
        ("by_kind", a.bus_stats.by_kind, b.bus_stats.by_kind),
        ("cache_stats", a.cache_stats, b.cache_stats),
    ]


def _bus_state(a, b):
    return [("lines", _final_lines(a), _final_lines(b))]


def _directory_state(a, b):
    def entries(machine):
        return {block: (ent.state, sorted(ent.copyset),
                        ent.last_invalidator, ent.streak, ent.overflowed)
                for block, ent in machine.protocol.entries.items()}

    return _bus_state(a, b) + [("entries", entries(a), entries(b))]


def main() -> int:
    trace = _trace()
    tail = _tail()
    # Resolve the packed columns once so neither timing pays for packing.
    packed = trace.pack()
    packed.block_sequences(4)

    problems = []
    for cfg, suffix, evicting in ((CFG, "", False),
                                  (EVICT_CFG, "-evicting", True)):
        problems += _check_machine(
            "directory", lambda: DirectoryMachine(cfg, AGGRESSIVE),
            trace, _directory_stats, _directory_state,
            label=f"directory{suffix}", require_evictions=evicting,
            tail=tail,
        )
        problems += _check_profile(
            f"directory{suffix}", lambda: DirectoryMachine(cfg, AGGRESSIVE),
            trace,
        )
        for broadcast in (True, False):
            name = LimitedPointerDirectory(4, broadcast).name
            problems += _check_machine(
                "directory", lambda: DirectoryMachine(
                    cfg, AGGRESSIVE,
                    representation=LimitedPointerDirectory(4, broadcast)),
                trace, _directory_stats, _directory_state,
                label=f"directory-{name}{suffix}",
                require_evictions=evicting, tail=tail,
            )
        problems += _check_machine(
            "bus", lambda: BusMachine(cfg, AdaptiveSnoopingProtocol()),
            trace, _bus_stats, _bus_state, label=f"bus{suffix}",
            require_evictions=evicting, tail=tail,
        )
    problems += _check_streaming(
        "directory", lambda: DirectoryMachine(STREAM_CFG, AGGRESSIVE),
        packed, _directory_stats, _directory_state,
    )
    problems += _check_streaming(
        "bus", lambda: BusMachine(STREAM_CFG, AdaptiveSnoopingProtocol()),
        packed, _bus_stats, _bus_state,
    )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
