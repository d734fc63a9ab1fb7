"""Tests for the event-driven contention simulator."""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import read, write
from repro.directory.policy import BASIC, CONVENTIONAL
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import MesiProtocol
from repro.system.machine import DirectoryMachine
from repro.system.placement import BestStaticPlacement
from repro.timing.eventsim import (
    BusEventSimulator,
    BusTimingParams,
    EventDrivenSimulator,
    EventTimingParams,
)
from repro.trace import synth
from repro.trace.core import Trace

PARAMS = EventTimingParams(hit_cycles=1, network_cycles=10,
                           occupancy_cycles=5, compute_cycles_per_ref=0)


def machine(policy=CONVENTIONAL, procs=4):
    cfg = MachineConfig(
        num_procs=procs, cache=CacheConfig(size_bytes=None, block_size=16)
    )
    return DirectoryMachine(cfg, policy)


class TestBasics:
    def test_hit_costs_hit_cycles(self):
        sim = EventDrivenSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(0, 0), read(0, 0)]))
        # local clean miss (0 messages): 10 + 5 + 10 = 25, then hit: 1
        assert result.per_proc_cycles[0] == 26
        assert result.total_references == 2

    def test_uncontended_miss_latency(self):
        sim = EventDrivenSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(1, 0)]))  # remote clean: 2 messages
        # network 10 + service 5*2 + network 10 = 30
        assert result.mean_read_miss_latency == pytest.approx(30.0)
        assert result.queue_wait_cycles == 0

    def test_contention_emerges_at_shared_home(self):
        """Two processors missing on the same home must queue."""
        sim = EventDrivenSimulator(machine(), PARAMS)
        # both miss blocks homed at node 0, at time 0
        result = sim.run(Trace([read(1, 0), read(2, 16)]))
        assert result.queue_wait_cycles > 0

    def test_distinct_homes_do_not_queue(self):
        sim = EventDrivenSimulator(machine(), PARAMS)
        # page 0 -> home 0, page 1 -> home 1 (round robin)
        result = sim.run(Trace([read(1, 0), read(2, 4096)]))
        assert result.queue_wait_cycles == 0

    def test_per_proc_order_preserved(self):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=10,
                                seed=2)
        m = machine()
        EventDrivenSimulator(m, PARAMS).run(trace)
        assert m.cache_stats.accesses == len(trace)

    def test_compute_cycles_accumulate(self):
        params = EventTimingParams(hit_cycles=1, network_cycles=10,
                                   occupancy_cycles=5,
                                   compute_cycles_per_ref=7)
        sim = EventDrivenSimulator(machine(), params)
        result = sim.run(Trace([read(0, 0), read(0, 0)]))
        assert result.per_proc_cycles[0] == 26 + 2 * 7

    def test_contention_share_bounds(self):
        sim = EventDrivenSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(1, 0)]))
        assert 0.0 <= result.contention_share <= 1.0


class TestPaperMechanism:
    """The Section 4.2 contention observations, reproduced."""

    @pytest.fixture(scope="class")
    def results(self):
        trace = synth.migratory(num_procs=4, num_objects=6, visits=60,
                                reads_per_visit=2, writes_per_visit=2,
                                seed=7)
        out = {}
        for policy in (CONVENTIONAL, BASIC):
            m = machine(policy)
            out[policy.name] = EventDrivenSimulator(m, PARAMS).run(trace)
        return out

    def test_adaptive_faster_under_contention(self, results):
        assert (
            results["basic"].execution_time
            < results["conventional"].execution_time
        )

    def test_adaptive_reduces_queueing(self, results):
        """Fewer protocol messages -> less controller queueing."""
        assert (
            results["basic"].queue_wait_cycles
            < results["conventional"].queue_wait_cycles
        )

    def test_read_miss_latency_improves_via_contention(self, results):
        """The paper's surprising effect: read misses get faster even
        though their own message count is unchanged."""
        assert (
            results["basic"].mean_read_miss_latency
            < results["conventional"].mean_read_miss_latency
        )


class TestContentionExperiment:
    def test_shapes(self):
        from repro.experiments import common, contention

        common.clear_caches()
        rows = contention.run(apps=("water",), scale=0.25, num_procs=8)
        row = rows[0]
        assert row.time_reduction_pct > 0
        assert row.read_miss_latency_reduction_pct > 0
        assert row.adaptive_contention_share <= row.base_contention_share
        assert "contention" in contention.render(rows)


class TestMachineRepairman:
    """The merged simulator against a closed queueing system.

    N processors each alternate a fixed think time Z with one
    transaction of fixed service S at a single FIFO server.  With
    deterministic times every processor settles into a cycle of
    max(Z + S, N * S): think-bound while the server keeps up,
    server-bound once N * S exceeds Z + S.  After K transactions each
    processor's clock must therefore lie within one round (N * S) of
    K * max(Z + S, N * S), and the server's utilization at
    min(1, N * S / (Z + S)).
    """

    K = 50

    def _check_cycles(self, per_proc_cycles, n, think, service):
        expected = self.K * max(think + service, n * service)
        for cycles in per_proc_cycles:
            assert abs(cycles - expected) <= n * service, (
                n, cycles, expected
            )

    @pytest.mark.parametrize("n", range(1, 17))
    def test_bus(self, n):
        # Every access is a cold read miss on its own block: one bus
        # transaction each, so S = bus_cycles and Z = the compute
        # allowance.
        params = BusTimingParams(hit_cycles=1, bus_cycles=24,
                                 compute_cycles_per_ref=60)
        trace = Trace([read(proc, 16 * (proc * self.K + i))
                       for i in range(self.K) for proc in range(n)])
        cfg = MachineConfig(num_procs=n,
                            cache=CacheConfig(size_bytes=None,
                                              block_size=16))
        result = BusEventSimulator(
            BusMachine(cfg, MesiProtocol()), params
        ).run(trace)
        think, service = params.compute_cycles_per_ref, params.bus_cycles
        assert result.transactions == n * self.K
        self._check_cycles(result.per_proc_cycles, n, think, service)
        expected = min(1.0, n * service / (think + service))
        # One round of slack in the makespan is at most 1/(K-1) of it.
        assert result.utilization == pytest.approx(
            expected, abs=1 / (self.K - 1)
        )

    @pytest.mark.parametrize("n", range(1, 17))
    def test_directory(self, n):
        # N issuing processors plus one idle node that homes every
        # page: each cold read miss is a request and a reply, so
        # S = 2 * occupancy and both network legs join the think time.
        params = EventTimingParams(hit_cycles=1, network_cycles=30,
                                   occupancy_cycles=18,
                                   compute_cycles_per_ref=60)
        trace = Trace([read(proc, 16 * (proc * self.K + i))
                       for i in range(self.K) for proc in range(n)])
        cfg = MachineConfig(num_procs=n + 1,
                            cache=CacheConfig(size_bytes=None,
                                              block_size=16))
        pages = {acc.addr // cfg.page_size for acc in trace}
        placement = BestStaticPlacement(dict.fromkeys(pages, n), n + 1)
        machine = DirectoryMachine(cfg, CONVENTIONAL, placement)
        result = EventDrivenSimulator(machine, params).run(trace)
        think = params.compute_cycles_per_ref + 2 * params.network_cycles
        service = 2 * params.occupancy_cycles
        assert result.miss_count == n * self.K
        assert result.service_cycles == n * self.K * service
        self._check_cycles(result.per_proc_cycles[:n], n, think, service)
        assert result.per_proc_cycles[n] == 0
