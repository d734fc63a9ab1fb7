"""Unit tests for the execution-time model."""

import json

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import read, write
from repro.directory.policy import BASIC, CONVENTIONAL
from repro.experiments.resultcache import encode_timing_profile
from repro.interconnect.costs import eviction_counts, write_miss_counts
from repro.kernels import registry
from repro.system.machine import DirectoryMachine
from repro.system.placement import FirstTouchPlacement
from repro.timing.sim import (
    TimingParams,
    TimingResult,
    TimingSimulator,
    percent_time_reduction,
)
from repro.trace import synth
from repro.trace.core import Trace


def machine(policy=CONVENTIONAL, procs=4):
    cfg = MachineConfig(
        num_procs=procs, cache=CacheConfig(size_bytes=None, block_size=16)
    )
    return DirectoryMachine(cfg, policy)


PARAMS = TimingParams(hit_cycles=1, memory_cycles=10, message_cycles=5,
                      compute_cycles_per_ref=0)


class TestTimingSimulator:
    def test_hit_costs_hit_cycles(self):
        sim = TimingSimulator(machine(), PARAMS)
        # local read miss (free), then a hit
        result = sim.run(Trace([read(0, 0), read(0, 0)]))
        # miss: 10 + 5*0 = 10; hit: 1
        assert result.per_proc_cycles[0] == 11

    def test_miss_cost_scales_with_messages(self):
        sim = TimingSimulator(machine(), PARAMS)
        # P1 remote write miss: (1,1) -> 2 messages -> 10 + 5*2 = 20
        result = sim.run(Trace([write(1, 0)]))
        assert result.per_proc_cycles[1] == 20

    def test_compute_cycles_added_per_ref(self):
        params = TimingParams(hit_cycles=1, memory_cycles=10,
                              message_cycles=5, compute_cycles_per_ref=7)
        sim = TimingSimulator(machine(), params)
        result = sim.run(Trace([read(0, 0), read(0, 0)]))
        assert result.per_proc_cycles[0] == 11 + 2 * 7

    def test_execution_time_is_max_over_procs(self):
        sim = TimingSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(0, 0), read(1, 4096), read(1, 4096)]))
        assert result.execution_time == max(result.per_proc_cycles)

    def test_read_miss_latency_tracked(self):
        sim = TimingSimulator(machine(), PARAMS)
        result = sim.run(Trace([read(1, 0)]))  # remote clean: (1,1) -> 20
        assert result.read_miss_count == 1
        assert result.mean_read_miss_latency == pytest.approx(20.0)

    def test_no_read_misses_mean_zero(self):
        assert TimingResult([0], 0).mean_read_miss_latency == 0.0

    def test_upgrade_charged_as_miss(self):
        sim = TimingSimulator(machine(), PARAMS)
        # P1 reads (miss), then writes (upgrade: remote clean DC=0 -> 2 short)
        result = sim.run(Trace([read(1, 0), write(1, 0)]))
        # read miss: 10+5*2=20 ; upgrade: 10+5*2=20
        assert result.per_proc_cycles[1] == 40


class TestAdaptiveTimingAdvantage:
    def test_adaptive_faster_on_migratory_workload(self):
        trace = synth.migratory(num_procs=4, num_objects=4, visits=60, seed=11)
        base = TimingSimulator(machine(CONVENTIONAL), PARAMS).run(trace)
        adapt = TimingSimulator(machine(BASIC), PARAMS).run(trace)
        reduction = percent_time_reduction(base, adapt)
        assert reduction > 5.0

    def test_compute_dilutes_reduction(self):
        trace = synth.migratory(num_procs=4, num_objects=4, visits=60, seed=11)
        diluted = TimingParams(hit_cycles=1, memory_cycles=10,
                               message_cycles=5, compute_cycles_per_ref=100)
        base_lean = TimingSimulator(machine(CONVENTIONAL), PARAMS).run(trace)
        adapt_lean = TimingSimulator(machine(BASIC), PARAMS).run(trace)
        base_fat = TimingSimulator(machine(CONVENTIONAL), diluted).run(trace)
        adapt_fat = TimingSimulator(machine(BASIC), diluted).run(trace)
        assert percent_time_reduction(base_fat, adapt_fat) < (
            percent_time_reduction(base_lean, adapt_lean)
        )

    def test_zero_base_time(self):
        empty = TimingResult([0], 0)
        assert percent_time_reduction(empty, empty) == 0.0


def _generic_profile(make, trace):
    """The profile of the generic loop (a plain list has no pack())."""
    return TimingSimulator(make()).profile(list(trace))


def _kernel_profile(make, trace):
    registry.engagements.clear()
    profile = TimingSimulator(make()).profile(trace)
    assert registry.engagements["directory"] == 1
    return profile


class TestKernelProfile:
    """Profiles read off the kernel's per-access outcome counts equal
    the generic loop's, field for field."""

    def test_eviction_charge_lands_on_the_filling_access(self):
        # Direct-mapped, two sets: blocks 0 and 2 share set 0, so P1's
        # second write evicts its dirty copy of block 0 (home node 0).
        cfg = MachineConfig(num_procs=4, cache=CacheConfig(
            size_bytes=32, block_size=16, associativity=1))
        trace = Trace([write(1, 0), write(1, 32)])
        assert trace.pack().set_streams(4, 2, 1)  # a conflict set

        def make():
            return DirectoryMachine(cfg, CONVENTIONAL)

        kernel = _kernel_profile(make, trace)
        assert kernel == _generic_profile(make, trace)
        fill = sum(write_miss_counts(False, 0, 0))
        writeback = sum(eviction_counts(True, False, True))
        assert writeback
        assert kernel.miss_msgs_per_proc[1] == {fill: 1, fill + writeback: 1}

    def test_pthor_conflict_sets(self):
        from repro.experiments import common

        trace = common.get_trace("pthor", 16, 0, 0.1)
        config = common.directory_config(16 * 1024, 16, 16)
        streams = trace.pack().set_streams(
            4, config.cache.num_sets, config.cache.associativity)
        assert len(streams) > 50

        def make():
            placement = common.get_placement("round_robin", trace, config)
            return DirectoryMachine(config, BASIC, placement)

        assert _kernel_profile(make, trace) == _generic_profile(make, trace)

    def test_first_touch_placement(self):
        cfg = MachineConfig(num_procs=8, cache=CacheConfig(
            size_bytes=1024, block_size=16, associativity=2))
        trace = synth.interleave(
            [synth.migratory(num_procs=8, num_objects=40, visits=30, seed=3),
             synth.read_shared(num_procs=8, num_objects=40, rounds=4,
                               base=1 << 16, seed=4)], seed=5)

        def make():
            return DirectoryMachine(cfg, BASIC, FirstTouchPlacement())

        assert _kernel_profile(make, trace) == _generic_profile(make, trace)

    def test_wide_symbols(self):
        procs = 160
        cfg = MachineConfig(num_procs=procs, cache=CacheConfig(
            size_bytes=None, block_size=16))
        trace = synth.interleave(
            [synth.migratory(num_procs=procs, num_objects=6, visits=40,
                             seed=2),
             synth.read_shared(num_procs=procs, num_objects=4, rounds=2,
                               base=1 << 16, seed=3)], seed=4)
        assert trace.pack().num_procs > 128

        def make():
            return DirectoryMachine(cfg, BASIC)

        assert _kernel_profile(make, trace) == _generic_profile(make, trace)

    def test_encoded_bytes_do_not_depend_on_the_engine(self):
        trace = synth.interleave(
            [synth.migratory(num_procs=4, num_objects=6, visits=30, seed=1),
             synth.read_shared(num_procs=4, num_objects=6, rounds=5,
                               base=1 << 16, seed=2)], seed=3)

        def make():
            return machine(BASIC)

        kernel = _kernel_profile(make, trace)
        generic = _generic_profile(make, trace)
        # The engines fill the histograms in different orders ...
        assert any(list(a) != list(b) for a, b in zip(
            [*kernel.miss_msgs_per_proc, kernel.read_miss_msgs],
            [*generic.miss_msgs_per_proc, generic.read_miss_msgs]))
        # ... and the cached bytes still agree.
        assert (json.dumps(encode_timing_profile(kernel))
                == json.dumps(encode_timing_profile(generic)))
