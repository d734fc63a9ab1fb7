"""Tests for the prefetching timing model and its experiment."""

import pytest

from repro.analysis.oracle import read_exclusive_hints
from repro.common.config import CacheConfig, MachineConfig
from repro.common.types import read, write
from repro.directory.policy import BASIC, CONVENTIONAL
from repro.system.machine import DirectoryMachine
from repro.timing.prefetch import PrefetchingTimingSimulator, prefetch_cost
from repro.timing.sim import TimingParams, TimingSimulator
from repro.trace import synth
from repro.trace.core import Trace

PARAMS = TimingParams(hit_cycles=1, memory_cycles=20, message_cycles=10,
                      compute_cycles_per_ref=0)


def machine(policy=CONVENTIONAL):
    cfg = MachineConfig(
        num_procs=4, cache=CacheConfig(size_bytes=None, block_size=16)
    )
    return DirectoryMachine(cfg, policy)


class TestPrefetchingSimulator:
    def test_covered_miss_costs_issue_overhead(self):
        sim = PrefetchingTimingSimulator(machine(), PARAMS, coverage=1.0,
                                         issue_cycles=3)
        result = sim.run(Trace([read(1, 0)]))  # remote miss, prefetched
        assert result.per_proc_cycles[1] == 1 + 3

    def test_zero_coverage_matches_plain_simulator(self):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=20, seed=4)
        plain = TimingSimulator(machine(), PARAMS).run(trace)
        uncovered = PrefetchingTimingSimulator(
            machine(), PARAMS, coverage=0.0
        ).run(trace)
        assert uncovered.execution_time == plain.execution_time

    def test_messages_unchanged_by_prefetching(self):
        """Prefetching tolerates latency; it does not remove traffic."""
        trace = synth.migratory(num_procs=4, num_objects=2, visits=20, seed=4)
        m1 = machine()
        TimingSimulator(m1, PARAMS).run(trace)
        m2 = machine()
        PrefetchingTimingSimulator(m2, PARAMS, coverage=1.0).run(trace)
        assert m2.stats.snapshot() == m1.stats.snapshot()

    def test_partial_coverage_between_extremes(self):
        trace = synth.migratory(num_procs=4, num_objects=2, visits=30, seed=4)
        times = {}
        for coverage in (0.0, 0.5, 1.0):
            sim = PrefetchingTimingSimulator(machine(), PARAMS,
                                             coverage=coverage, seed=1)
            times[coverage] = sim.run(trace).execution_time
        assert times[1.0] < times[0.5] < times[0.0]

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ValueError):
            PrefetchingTimingSimulator(machine(), PARAMS, coverage=1.5)

    def test_exclusive_hints_remove_upgrade_stalls(self):
        """prefetch-exclusive also removes the write-hit invalidation
        wait by fetching ownership up front."""
        trace = Trace([read(1, 0), write(1, 0), read(2, 0), write(2, 0)])
        hints = read_exclusive_hints(list(trace), block_size=16)
        plain = PrefetchingTimingSimulator(machine(), PARAMS, coverage=1.0)
        t_plain = plain.run(trace)
        excl = PrefetchingTimingSimulator(machine(), PARAMS, coverage=1.0)
        t_excl = excl.run(trace, exclusive_hints=hints)
        assert t_excl.execution_time < t_plain.execution_time


class TestPrefetchCost:
    """Perfect prefetching without hints, priced from a plain profile."""

    @pytest.mark.parametrize("params, issue_cycles", [
        (TimingParams(), 2),
        (PARAMS, 2),
        (TimingParams(hit_cycles=2, memory_cycles=50, message_cycles=30,
                      compute_cycles_per_ref=7), 5),
    ], ids=["defaults", "no-compute", "issue-5"])
    def test_equals_the_covered_simulator(self, params, issue_cycles):
        trace = synth.interleave(
            [synth.migratory(num_procs=4, num_objects=4, visits=30, seed=4),
             synth.read_shared(num_procs=4, num_objects=4, rounds=5,
                               base=1 << 16, seed=5)], seed=6)
        profile = TimingSimulator(machine()).profile(trace)
        simulated = PrefetchingTimingSimulator(
            machine(), params, coverage=1.0, issue_cycles=issue_cycles
        ).run(trace)
        priced = prefetch_cost(profile, params, issue_cycles=issue_cycles)
        assert priced == simulated
        assert priced.read_miss_count and priced.miss_cycles

    def test_default_params_and_issue_cycles(self):
        trace = Trace([read(1, 0), write(1, 0), read(2, 0)])
        profile = TimingSimulator(machine()).profile(trace)
        assert prefetch_cost(profile) == PrefetchingTimingSimulator(
            machine()).run(trace)


class TestPrefetchExperiment:
    @pytest.mark.parametrize("coverage, simulated", [(1.0, 1), (0.5, 2)])
    def test_simulator_runs_only_where_needed(self, monkeypatch, coverage,
                                              simulated):
        """Coverage 1 prices the no-hint run from the conventional
        profile; the hinted run, and both runs at coverage below 1,
        replay on the simulator."""
        from repro.experiments import common, prefetch

        runs = []
        run = PrefetchingTimingSimulator.run

        def counted(self, trace, exclusive_hints=None):
            result = run(self, trace, exclusive_hints)
            runs.append((self, trace, exclusive_hints, result))
            return result

        monkeypatch.setattr(PrefetchingTimingSimulator, "run", counted)
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        common.clear_caches()
        (row,) = prefetch.run(apps=("mp3d",), scale=0.1, num_procs=8,
                              coverage=coverage)
        common.clear_caches()
        assert len(runs) == simulated
        assert runs[-1][2] is not None  # the hinted run
        trace = runs[-1][1]
        config = common.directory_config(64 * 1024, 16, 8)
        live = PrefetchingTimingSimulator(
            DirectoryMachine(config, CONVENTIONAL,
                             common.get_placement("round_robin", trace,
                                                  config)),
            coverage=coverage,
        )
        assert row.prefetch == run(live, trace).execution_time

    def test_shapes(self):
        from repro.experiments import common, prefetch

        common.clear_caches()
        rows = prefetch.run(apps=("mp3d",), scale=0.25, num_procs=8)
        row = rows[0]
        base = row.conventional
        # everything beats the baseline
        assert row.adaptive < base
        assert row.prefetch < base
        # prefetching hides read-miss latency the adaptive protocol
        # cannot, and prefetch-exclusive is at least as good as prefetch
        assert row.prefetch < row.adaptive
        assert row.prefetch_exclusive <= row.prefetch
        text = prefetch.render(rows)
        assert "prefetch" in text
