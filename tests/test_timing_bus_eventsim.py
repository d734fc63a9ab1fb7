"""Tests for the shared-bus contention simulator."""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import read, write
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import (
    AdaptiveSnoopingProtocol,
    AlwaysMigrateProtocol,
    MesiProtocol,
)
from repro.timing.eventsim import BusEventSimulator, BusTimingParams
from repro.trace import synth
from repro.trace.core import Trace

PARAMS = BusTimingParams(hit_cycles=1, bus_cycles=10,
                         compute_cycles_per_ref=0)


def machine(protocol=None, procs=4):
    cfg = MachineConfig(num_procs=procs, cache=CacheConfig(size_bytes=None))
    return BusMachine(cfg, protocol or MesiProtocol())


class TestBasics:
    def test_miss_occupies_bus(self):
        sim = BusEventSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(0, 0), read(0, 0)]))
        assert result.per_proc_cycles[0] == 10 + 1
        assert result.bus_busy_cycles == 10
        assert result.transactions == 1

    def test_concurrent_misses_serialize(self):
        sim = BusEventSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(0, 0), read(1, 64), read(2, 128)]))
        # three transactions, back to back on one bus
        assert result.bus_busy_cycles == 30
        assert result.queue_wait_cycles == 10 + 20

    def test_busy_by_kind_partitions_busy_cycles(self):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=20,
                                seed=3)
        sim = BusEventSimulator(machine(), PARAMS)
        result = sim.run(trace)
        assert sum(result.busy_by_kind.values()) == result.bus_busy_cycles

    def test_utilization_bounds(self):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=20,
                                seed=3)
        result = BusEventSimulator(machine(), PARAMS).run(trace)
        assert 0.0 < result.utilization <= 1.0

    def test_hits_do_not_touch_bus(self):
        sim = BusEventSimulator(machine(), PARAMS)
        result = sim.run(Trace([write(0, 0), write(0, 0), read(0, 4)]))
        assert result.transactions == 1  # only the initial write miss


class TestProtocolContrast:
    @pytest.fixture(scope="class")
    def migratory_trace(self):
        return synth.migratory(num_procs=4, num_objects=4, visits=50,
                               reads_per_visit=2, writes_per_visit=2, seed=9)

    def test_adaptive_lowers_utilization(self, migratory_trace):
        mesi = BusEventSimulator(machine(MesiProtocol()), PARAMS).run(
            migratory_trace
        )
        adaptive = BusEventSimulator(
            machine(AdaptiveSnoopingProtocol()), PARAMS
        ).run(migratory_trace)
        assert adaptive.bus_busy_cycles < mesi.bus_busy_cycles
        assert adaptive.execution_time < mesi.execution_time
        assert adaptive.queue_wait_cycles <= mesi.queue_wait_cycles

    def test_thakkar_read_cycles_dominate_always_migrate(self):
        """Section 5 quotes Thakkar: read cycles dominate Sequent bus
        traffic, inflated by the migrate-on-read-miss policy's extra
        read misses on non-migratory data."""
        trace = synth.interleave(
            [
                synth.read_shared(num_procs=4, num_objects=4, rounds=25,
                                  seed=4),
                synth.migratory(num_procs=4, num_objects=2, visits=25,
                                base=1 << 16, seed=5),
            ],
            chunk=4,
            seed=6,
        )
        always = BusEventSimulator(
            machine(AlwaysMigrateProtocol()), PARAMS
        ).run(trace)
        adaptive = BusEventSimulator(
            machine(AdaptiveSnoopingProtocol()), PARAMS
        ).run(trace)
        assert always.kind_share("read_miss") > 0.5
        assert (
            always.busy_by_kind["read_miss"]
            > adaptive.busy_by_kind["read_miss"]
        )


class TestBusContentionExperiment:
    def test_shapes(self):
        from repro.experiments import common, contention

        common.clear_caches()
        rows = contention.run_bus(apps=("water",), scale=0.25, num_procs=8)
        row = rows[0]
        assert 0 < row.adaptive_utilization <= row.mesi_utilization
        assert row.adaptive_exec <= row.mesi_exec
        assert "utilization" in contention.render_bus(rows)
