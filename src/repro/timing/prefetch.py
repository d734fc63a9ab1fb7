"""Software-controlled prefetching study (related work, Section 5).

Mowry & Gupta inserted non-binding prefetch and prefetch-exclusive
requests by hand into MP3D, LU and Pthor; the paper reports that their
simulations "show the same reduction in time spent waiting for
invalidations as the adaptive protocols and they also show a substantial
reduction in time spent waiting for read misses".

We model an oracle prefetcher: a fraction ``coverage`` of misses have
been prefetched far enough ahead that the processor only pays a small
issue cost instead of the full memory latency; the coherence *messages*
still happen (prefetching tolerates latency, it does not remove
traffic).  Combining prefetch-exclusive with the read-exclusive hints of
:mod:`repro.analysis.oracle` removes the invalidation waits as well,
reproducing the comparison the paper draws.

Perfect coverage makes every miss cost the same issue overhead, so a
run without hints is a pure function of the plain replay's outcomes:
:func:`prefetch_cost` prices it from a :class:`TimingProfile`, beside
:func:`repro.timing.sim.cost`.  Hinted runs (the hints change the
protocol's actions) and coverage below 1 (its draws follow program
order) replay through :class:`PrefetchingTimingSimulator`.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.common.types import Access, Op
from repro.system.machine import DirectoryMachine
from repro.timing.sim import TimingParams, TimingProfile, TimingResult


def prefetch_cost(
    profile: TimingProfile,
    params: TimingParams | None = None,
    issue_cycles: int = 2,
) -> TimingResult:
    """Price a profile with every miss and upgrade prefetched.

    Equals ``PrefetchingTimingSimulator(machine, params, coverage=1.0,
    issue_cycles=issue_cycles).run(trace)`` field for field, where
    ``profile`` is ``TimingSimulator(machine).profile(trace)`` on a
    machine of the same configuration, policy and placement.
    """
    params = params or TimingParams()
    covered = params.hit_cycles + issue_cycles
    cycles = []
    misses = 0
    for refs, hits in zip(profile.refs_per_proc, profile.hits_per_proc):
        cycles.append(hits * params.hit_cycles + (refs - hits) * covered
                      + refs * params.compute_cycles_per_ref)
        misses += refs - hits
    read_misses = sum(profile.read_miss_msgs.values())
    return TimingResult(
        per_proc_cycles=cycles,
        total_references=profile.total_references,
        miss_cycles=misses * covered,
        read_miss_count=read_misses,
        read_miss_cycles=read_misses * covered,
    )


class PrefetchingTimingSimulator:
    """Timing replay where covered misses cost only the issue overhead.

    Args:
        machine: the directory machine to drive.
        params: latency parameters.
        coverage: fraction of misses whose latency the prefetcher hides
            (1.0 = the hand-tuned perfect case).
        issue_cycles: cost of executing the prefetch instruction itself.
        seed: determinism seed for sub-1.0 coverage sampling.
    """

    def __init__(
        self,
        machine: DirectoryMachine,
        params: TimingParams | None = None,
        coverage: float = 1.0,
        issue_cycles: int = 2,
        seed: int = 0,
    ):
        if not 0.0 <= coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        self.machine = machine
        self.params = params or TimingParams()
        self.coverage = coverage
        self.issue_cycles = issue_cycles
        self._rng = random.Random(seed)

    def run(
        self,
        trace: Iterable[Access],
        exclusive_hints: Sequence[bool] | None = None,
    ) -> TimingResult:
        """Time the trace; optionally with read-exclusive hints."""
        machine = self.machine
        params = self.params
        stats = machine.stats
        cache_stats = machine.cache_stats
        cycles = [0] * machine.config.num_procs
        result = TimingResult(per_proc_cycles=cycles, total_references=0)
        for i, acc in enumerate(trace):
            hint = bool(exclusive_hints[i]) if exclusive_hints else False
            before_msgs = stats.short + stats.data
            before_misses = cache_stats.misses
            before_upgrades = cache_stats.upgrades
            machine.access(acc.proc, acc.op is Op.WRITE, acc.addr,
                           exclusive_hint=hint)
            msg_delta = stats.short + stats.data - before_msgs
            missed = cache_stats.misses != before_misses
            upgraded = cache_stats.upgrades != before_upgrades
            if missed or upgraded:
                covered = (
                    self.coverage >= 1.0
                    or self._rng.random() < self.coverage
                )
                if covered:
                    latency = params.hit_cycles + self.issue_cycles
                else:
                    latency = (
                        params.memory_cycles
                        + params.message_cycles * msg_delta
                    )
                result.miss_cycles += latency
                if missed and acc.op is Op.READ:
                    result.read_miss_count += 1
                    result.read_miss_cycles += latency
            else:
                latency = params.hit_cycles
            cycles[acc.proc] += latency + params.compute_cycles_per_ref
            result.total_references += 1
        return result
