"""Event-driven timing with contention: one closed system, two engines.

The closed-form model of :mod:`repro.timing.sim` charges fixed latencies
and cannot express *contention*.  Section 4.2 makes two contention
claims this simulator reproduces:

* "there was almost negligible added latency observed due to contention
  for either the interconnection network or for the local bus";
* "surprisingly, eliminating the extra invalidation operations decreases
  the average latency of primary cache read misses by 20 %.  It
  accomplishes this by nearly eliminating contention at the secondary
  cache" — fewer protocol messages mean less queueing at the
  controllers, which speeds up *other* misses.

Model: each processor replays its trace slice in order with one
outstanding reference (DASH-style blocking loads).  An access that
leaves the cache travels a network leg to a FIFO server, is served, and
travels a leg back; then the processor computes for a fixed allowance.
Queueing delay emerges when transactions collide at one server.  The
engines differ only in the server and the service charge:

* :class:`EventDrivenSimulator` — the block's home memory controller,
  one message at a time: ``occupancy x max(1, msgs)``, a network leg
  each way.
* :class:`BusEventSimulator` — the one shared bus: ``bus_cycles`` per
  transaction, no legs.  Utilization then tracks Section 4.3's bus
  operation counts, and the per-kind busy cycles show Thakkar's
  observation (quoted in Section 5) that read cycles dominate bus
  traffic under the always-migrate policy.

Coherence-state changes are delegated to the atomic machine, executed
in simulated-time order — a valid interleaving of the per-processor
streams — so the simulator inherits the protocol correctness of the
verified machine and only adds timing.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro.common.types import Access, Op


@dataclass(frozen=True, slots=True)
class EventTimingParams:
    """Latency parameters for the directory contention model (cycles)."""

    hit_cycles: int = 1
    network_cycles: int = 30  # each direction of a transaction
    occupancy_cycles: int = 18  # controller service time per message
    compute_cycles_per_ref: int = 60


@dataclass(slots=True)
class EventTimingResult:
    """Outcome of one contended directory run."""

    per_proc_cycles: list[int]
    total_references: int = 0
    miss_count: int = 0
    read_miss_count: int = 0
    read_miss_cycles: int = 0
    queue_wait_cycles: int = 0
    service_cycles: int = 0

    @property
    def execution_time(self) -> int:
        """Parallel-section execution time (slowest processor)."""
        return max(self.per_proc_cycles, default=0)

    @property
    def mean_read_miss_latency(self) -> float:
        if self.read_miss_count == 0:
            return 0.0
        return self.read_miss_cycles / self.read_miss_count

    @property
    def mean_queue_wait(self) -> float:
        """Average cycles a transaction waited for a busy controller."""
        if self.miss_count == 0:
            return 0.0
        return self.queue_wait_cycles / self.miss_count

    @property
    def contention_share(self) -> float:
        """Fraction of miss service time that was queueing delay."""
        busy = self.queue_wait_cycles + self.service_cycles
        return self.queue_wait_cycles / busy if busy else 0.0


@dataclass(frozen=True, slots=True)
class BusTimingParams:
    """Latency parameters for the shared-bus model (cycles)."""

    hit_cycles: int = 1
    bus_cycles: int = 24  # arbitration + address + data phases
    compute_cycles_per_ref: int = 60


@dataclass(slots=True)
class BusTimingResult:
    """Outcome of one contended bus run."""

    per_proc_cycles: list[int]
    total_references: int = 0
    bus_busy_cycles: int = 0
    queue_wait_cycles: int = 0
    transactions: int = 0
    busy_by_kind: dict = field(default_factory=dict)

    @property
    def execution_time(self) -> int:
        return max(self.per_proc_cycles, default=0)

    @property
    def utilization(self) -> float:
        """Fraction of the run the bus was busy."""
        if self.execution_time == 0:
            return 0.0
        return self.bus_busy_cycles / self.execution_time

    def kind_share(self, kind: str) -> float:
        """Share of bus busy cycles consumed by one transaction kind."""
        if self.bus_busy_cycles == 0:
            return 0.0
        return self.busy_by_kind.get(kind, 0) / self.bus_busy_cycles


class _ClosedSystem:
    """The heap-driven loop: blocking processors, FIFO servers.

    Subclasses name their ``PARAMS`` and ``RESULT`` types and supply
    :meth:`_demand` (run one access on the machine; ``None`` when it
    stays in the cache, else the server it needs, the service charge,
    the network leg each way, and a note for :meth:`_charge`) and
    :meth:`_charge` (book a served access into the result).
    """

    def __init__(self, machine, params=None):
        self.machine = machine
        self.params = params or self.PARAMS()

    def run(self, trace: Sequence[Access]):
        """Simulate the trace; per-processor order is preserved."""
        params = self.params
        num_procs = self.machine.config.num_procs
        streams: list[list[Access]] = [[] for _ in range(num_procs)]
        for acc in trace:
            streams[acc.proc].append(acc)
        cursors = [0] * num_procs
        cycles = [0] * num_procs
        result = self.RESULT(per_proc_cycles=cycles)
        free_at: dict = {}  # server -> when it finishes its queue
        # (ready_time, proc) heap: when each processor may issue next.
        ready = [(0, proc) for proc in range(num_procs) if streams[proc]]
        heapq.heapify(ready)

        while ready:
            now, proc = heapq.heappop(ready)
            acc = streams[proc][cursors[proc]]
            cursors[proc] += 1
            demand = self._demand(proc, acc)
            if demand is None:
                latency = params.hit_cycles
            else:
                server, service, leg, note = demand
                arrive = now + leg
                start = max(arrive, free_at.get(server, 0))
                free_at[server] = start + service
                latency = start + service + leg - now
                result.queue_wait_cycles += start - arrive
                self._charge(result, acc, service, latency, note)
            finish = now + latency + params.compute_cycles_per_ref
            cycles[proc] = finish
            result.total_references += 1
            if cursors[proc] < len(streams[proc]):
                heapq.heappush(ready, (finish, proc))
        return result


class EventDrivenSimulator(_ClosedSystem):
    """Contended replay of a trace through a
    :class:`~repro.system.machine.DirectoryMachine`."""

    PARAMS = EventTimingParams
    RESULT = EventTimingResult

    def _demand(self, proc, acc):
        machine = self.machine
        stats = machine.stats
        cache_stats = machine.cache_stats
        before_msgs = stats.short + stats.data
        before_misses = cache_stats.misses
        before_upgrades = cache_stats.upgrades
        machine.access(proc, acc.op is Op.WRITE, acc.addr)
        missed = cache_stats.misses != before_misses
        if not missed and cache_stats.upgrades == before_upgrades:
            return None
        msg_count = stats.short + stats.data - before_msgs
        home = machine.placement.home(
            acc.addr // machine.config.page_size, proc
        )
        params = self.params
        return (home, params.occupancy_cycles * max(1, msg_count),
                params.network_cycles, missed)

    def _charge(self, result, acc, service, latency, missed) -> None:
        result.miss_count += 1
        result.service_cycles += service
        if missed and acc.op is Op.READ:
            result.read_miss_count += 1
            result.read_miss_cycles += latency


class BusEventSimulator(_ClosedSystem):
    """Contended replay of a trace through a snooping
    :class:`~repro.snooping.machine.BusMachine`."""

    PARAMS = BusTimingParams
    RESULT = BusTimingResult

    def _demand(self, proc, acc):
        stats = self.machine.bus_stats
        before_total = stats.total
        before_by_kind = dict(stats.by_kind)
        self.machine.access(proc, acc.op is Op.WRITE, acc.addr)
        transactions = stats.total - before_total
        if not transactions:
            return None
        return (0, self.params.bus_cycles * transactions, 0,
                (transactions, before_by_kind))

    def _charge(self, result, acc, service, latency, note) -> None:
        transactions, before = note
        bus_cycles = self.params.bus_cycles
        result.bus_busy_cycles += service
        result.transactions += transactions
        for kind, count in self.machine.bus_stats.by_kind.items():
            delta = count - before.get(kind, 0)
            if delta:
                result.busy_by_kind[kind] = (
                    result.busy_by_kind.get(kind, 0) + delta * bus_cycles
                )
