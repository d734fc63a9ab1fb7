"""Execution-time model for Section 4.2 (the dixie/DASH role).

The paper's execution-driven simulations measure how much of the message
reduction turns into parallel-section execution-time reduction.  We model
a CC-NUMA node loosely following DASH latencies: a cache hit costs one
cycle, a miss costs a memory access plus a per-message network charge for
every inter-node message the operation generates (requests, forwards,
invalidations and their acknowledgements are all on or near the critical
path of the blocking processor).  Each reference also carries a fixed
compute allowance representing the private/instruction work between
shared references.

Parallel-section execution time is the largest per-processor cycle count;
the interesting output is the *relative* time between protocols, which is
what the paper reports (19.3 % / 10.4 % / 3.5 % reductions for Cholesky,
MP3D, Water under the basic protocol).

This model charges no queueing (the paper notes contention added "almost
negligible" latency).  The paper's 20 % drop in primary-cache read-miss
latency from reduced secondary-cache contention is reproduced by the
contended simulator of :mod:`repro.timing.eventsim` (EXPERIMENTS.md S4.2c).

A run is a profile (:meth:`TimingSimulator.profile`: each access's
miss-or-upgrade outcome and message count, which no latency parameter
affects) priced by :func:`cost`.  Wherever the directory kernel
engages, the profile comes from the kernel's per-access outcome
counts, so a timed replay costs about what a counters-only ``run()``
costs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.common.types import Access, Op
from repro.system.machine import DirectoryMachine


@dataclass(frozen=True, slots=True)
class TimingParams:
    """Latency parameters in processor cycles (DASH-flavoured ratios).

    Attributes:
        hit_cycles: a cache hit (or silent write).
        memory_cycles: base latency of any miss or upgrade (directory +
            memory access at some node).
        message_cycles: added latency per inter-node message the operation
            generates.
        compute_cycles_per_ref: private work charged per shared reference.
    """

    hit_cycles: int = 1
    memory_cycles: int = 30
    message_cycles: int = 45
    compute_cycles_per_ref: int = 60


@dataclass(slots=True)
class TimingProfile:
    """The params-independent skeleton of one timed replay.

    The machine replay behind :meth:`TimingSimulator.run` does not
    depend on :class:`TimingParams` at all: latencies are a pure
    function of each access's ``(missed-or-upgraded, message count)``
    outcome.  A profile records exactly those outcomes, so one replay
    prices under *any* parameter set (the topology sweep costs the same
    replay once per topology; the replay result cache shares profiles
    across experiments, and :func:`repro.timing.prefetch.prefetch_cost`
    prices perfect prefetching from one).

    Attributes:
        num_procs: processor count of the profiled machine.
        total_references: accesses replayed.
        refs_per_proc: references issued per processor.
        hits_per_proc: accesses that neither missed nor upgraded.
        miss_msgs_per_proc: per processor, ``{message count: events}``
            over the accesses that missed or upgraded.
        read_miss_msgs: ``{message count: events}`` over read misses.
    """

    num_procs: int
    total_references: int
    refs_per_proc: list
    hits_per_proc: list
    miss_msgs_per_proc: list
    read_miss_msgs: dict


def cost(profile: TimingProfile, params: TimingParams | None = None) -> "TimingResult":
    """Price a profile under one parameter set.

    Pure integer arithmetic over the profile's event counts; for any
    ``params``, ``cost(sim.profile(trace), params)`` equals what
    ``TimingSimulator(machine, params).run(trace)`` would have returned,
    field for field.
    """
    params = params or TimingParams()
    cycles = []
    miss_cycles = 0
    for proc in range(profile.num_procs):
        total = profile.hits_per_proc[proc] * params.hit_cycles
        for msg_count, events in profile.miss_msgs_per_proc[proc].items():
            latency = params.memory_cycles + params.message_cycles * msg_count
            total += latency * events
            miss_cycles += latency * events
        total += profile.refs_per_proc[proc] * params.compute_cycles_per_ref
        cycles.append(total)
    read_miss_cycles = sum(
        (params.memory_cycles + params.message_cycles * msg_count) * events
        for msg_count, events in profile.read_miss_msgs.items()
    )
    return TimingResult(
        per_proc_cycles=cycles,
        total_references=profile.total_references,
        miss_cycles=miss_cycles,
        read_miss_count=sum(profile.read_miss_msgs.values()),
        read_miss_cycles=read_miss_cycles,
    )


@dataclass(slots=True)
class TimingResult:
    """Outcome of one timed run."""

    per_proc_cycles: list[int]
    total_references: int
    miss_cycles: int = 0
    read_miss_count: int = 0
    read_miss_cycles: int = 0

    @property
    def execution_time(self) -> int:
        """Parallel-section execution time (slowest processor)."""
        return max(self.per_proc_cycles, default=0)

    @property
    def mean_read_miss_latency(self) -> float:
        """Average cycles per read miss (0.0 when none occurred)."""
        if self.read_miss_count == 0:
            return 0.0
        return self.read_miss_cycles / self.read_miss_count


class TimingSimulator:
    """Replays a trace through a machine, accumulating per-node cycles."""

    def __init__(self, machine: DirectoryMachine, params: TimingParams | None = None):
        self.machine = machine
        self.params = params or TimingParams()

    def run(self, trace: Iterable[Access]) -> TimingResult:
        """Time every access in ``trace``."""
        return cost(self.profile(trace), self.params)

    def profile(self, trace: Iterable[Access]) -> TimingProfile:
        """Replay the trace once, recording the priceable outcomes.

        The returned profile is independent of this simulator's
        ``params``; hand it to :func:`cost` with any parameter set.

        A replay that engages the table-driven kernel reads every
        access's outcome from the kernel's per-access outcome counts,
        which cost a pass over each distinct block sequence, not a
        machine step per access.  Every other replay (a plain iterable,
        a checker or step hook, or a named and counted kernel fallback,
        exactly as :meth:`DirectoryMachine.run` decides) steps the
        machine and reads each access's outcome off its counters.  The
        two count the same outcomes.
        """
        machine = self.machine
        outcomes: Counter = Counter()
        if machine._try_kernel(trace, outcomes) is None:
            stats = machine.stats
            cache_stats = machine.cache_stats
            packer = getattr(trace, "iter_packed", None)
            if packer is not None:  # columnar traces skip Access boxing
                iterator = packer()
            else:
                iterator = (
                    (acc.proc, acc.op is Op.WRITE, acc.addr) for acc in trace
                )
            for proc, is_write, addr in iterator:
                before_msgs = stats.short + stats.data
                before_misses = cache_stats.misses
                before_upgrades = cache_stats.upgrades
                machine.access(proc, bool(is_write), addr)
                outcomes[(proc, bool(is_write),
                          cache_stats.misses != before_misses,
                          cache_stats.upgrades != before_upgrades,
                          stats.short + stats.data - before_msgs)] += 1
        return _profile_of(machine.config.num_procs, outcomes)


def _profile_of(num_procs: int, outcomes: Counter) -> TimingProfile:
    """A profile from ``(proc, is_write, missed, upgraded, messages)``
    outcome counts, the kernel's or the generic loop's."""
    refs = [0] * num_procs
    hits = [0] * num_procs
    miss_msgs: list = [{} for _ in range(num_procs)]
    read_miss_msgs: dict = {}
    for (proc, is_write, missed, upgraded, msgs), n in outcomes.items():
        refs[proc] += n
        if missed or upgraded:
            hist = miss_msgs[proc]
            hist[msgs] = hist.get(msgs, 0) + n
            if missed and not is_write:
                read_miss_msgs[msgs] = read_miss_msgs.get(msgs, 0) + n
        else:
            hits[proc] += n
    return TimingProfile(
        num_procs=num_procs,
        total_references=sum(refs),
        refs_per_proc=refs,
        hits_per_proc=hits,
        miss_msgs_per_proc=miss_msgs,
        read_miss_msgs=read_miss_msgs,
    )


def percent_time_reduction(base: TimingResult, other: TimingResult) -> float:
    """Execution-time reduction of ``other`` relative to ``base`` (%)."""
    if base.execution_time == 0:
        return 0.0
    return 100.0 * (base.execution_time - other.execution_time) / base.execution_time
