"""Behavioral contracts of the adaptive protocol families.

Four contracts are pinned here:

* **Differential behavior** — the hybrid update/invalidate and
  self-invalidation families are genuinely distinct protocols, with
  the orderings the literature predicts: on single-write
  producer-consumer sharing the hybrid's update mode beats MESI's
  invalidate-reload cycle; on write-run-heavy sharing its invalidate
  mode beats pure write-update; the self-invalidation protocol issues
  *zero* invalidation transactions anywhere.
* **Kernel equivalence** — the self-invalidation family runs inside
  the table-driven kernel envelope (batch and streaming), with stats
  and final cache state identical to the generic per-access loop.
* **Named fallbacks** — families outside the envelope fall back with
  the registry-declared ``family-unkerneled`` reason, never silently:
  a sweep across every registered family leaves no unexplained
  fallback and no missing one.
* **Classifier observationality** — the pattern-classifier machine's
  message accounting is identical to the stock machine under the same
  policy, while its taxonomy labels producer-consumer and
  false-sharing traces correctly.
"""

import pytest

from repro.common.config import CacheConfig, MachineConfig
from repro.kernels import registry as kernel_registry
from repro.kernels.streaming import BusStreamReplay
from repro.protocols import registry as families
from repro.protocols.classifier import PATTERNS
from repro.snooping.machine import BusMachine
from repro.system.machine import DirectoryMachine
from repro.trace import synth

NUM_PROCS = 4


def _config(num_procs=NUM_PROCS):
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=None, block_size=16),
    )


def _single_write_trace():
    """One producer writes a word, three consumers read it, repeatedly."""
    return synth.producer_consumer(
        num_procs=NUM_PROCS, num_objects=2, words_per_object=1,
        rounds=10, consumers=3, seed=3,
    )


def _write_run_trace():
    """Migrating objects written in long same-writer runs."""
    return synth.migratory(
        num_procs=NUM_PROCS, num_objects=2, visits=8,
        reads_per_visit=1, writes_per_visit=6, seed=4,
    )


def _run_bus(name, trace):
    machine = BusMachine(_config(), families.bus_protocol(name))
    machine.run(trace)
    return machine


def _lines(machine):
    out = []
    for proc, cache in enumerate(machine.caches):
        for block in sorted(cache.resident_blocks()):
            line = cache.lookup(block)
            out.append((proc, block, line.state, line.dirty, line.counter))
    return out


def _bus_state(machine):
    return {
        "bus_stats": machine.bus_stats,
        "by_kind": machine.bus_stats.by_kind,
        "cache_stats": machine.cache_stats,
        "lines": _lines(machine),
    }


class TestBusDifferential:
    def test_hybrid_update_mode_beats_mesi_on_single_writes(self):
        trace = _single_write_trace()
        mesi = _run_bus("mesi", trace)
        hybrid = _run_bus("hybrid-update-invalidate", trace)
        update = _run_bus("write-update", trace)
        # Every write is consumed: updates beat invalidate-reload.
        assert update.bus_stats.total < hybrid.bus_stats.total
        assert hybrid.bus_stats.total < mesi.bus_stats.total
        # ... and the hybrid actually used both of its modes.
        assert hybrid.bus_stats.by_kind.get("update", 0) > 0
        assert hybrid.bus_stats.by_kind.get("invalidation", 0) > 0

    def test_hybrid_invalidate_mode_beats_write_update_on_runs(self):
        trace = _write_run_trace()
        mesi = _run_bus("mesi", trace)
        hybrid = _run_bus("hybrid-update-invalidate", trace)
        update = _run_bus("write-update", trace)
        # Long same-writer runs: updating remote copies on every write
        # is the pathology, and the hybrid's write-run counter escapes
        # it while pure write-update cannot.
        assert hybrid.bus_stats.total < update.bus_stats.total
        assert mesi.bus_stats.total <= hybrid.bus_stats.total

    @pytest.mark.parametrize(
        "trace_fn", [_single_write_trace, _write_run_trace],
        ids=["single-write", "write-run"],
    )
    def test_self_invalidation_issues_no_invalidations(self, trace_fn):
        trace = trace_fn()
        mesi = _run_bus("mesi", trace)
        selfinval = _run_bus("self-invalidation", trace)
        assert mesi.bus_stats.by_kind.get("invalidation", 0) > 0
        assert selfinval.bus_stats.by_kind.get("invalidation", 0) == 0
        # Sharers expire on their own; writes go through as updates
        # priced on the bus, so the protocol is not trivially free.
        assert selfinval.bus_stats.total > 0


class TestSelfInvalidationKernel:
    def test_batch_kernel_matches_packed_loop(self):
        trace = synth.interleave(
            [_single_write_trace(), _write_run_trace()], chunk=4, seed=5
        ).pack()
        reference = BusMachine(
            _config(), families.bus_protocol("self-invalidation")
        )
        with kernel_registry.disabled():
            reference.run(trace)
        kernel_registry.clear()
        machine = BusMachine(
            _config(), families.bus_protocol("self-invalidation")
        )
        machine.run(trace)
        assert kernel_registry.engagements["bus"] == 1
        assert _bus_state(machine) == _bus_state(reference)

    @pytest.mark.parametrize("chunk", (16, 257))
    def test_streaming_kernel_matches_packed_loop(self, chunk):
        trace = synth.interleave(
            [_single_write_trace(), _write_run_trace()], chunk=4, seed=5
        ).pack()
        reference = BusMachine(
            _config(), families.bus_protocol("self-invalidation")
        )
        with kernel_registry.disabled():
            reference.run(trace)
        kernel_registry.clear()
        machine = BusMachine(
            _config(), families.bus_protocol("self-invalidation")
        )
        replay = BusStreamReplay(machine)
        for segment in trace.segments(chunk):
            replay.feed(segment)
        replay.finish()
        assert kernel_registry.engagements["bus-stream"] == 1
        assert _bus_state(machine) == _bus_state(reference)


class TestNamedFallbacks:
    def test_hybrid_bus_falls_back_with_named_reason(self):
        kernel_registry.clear()
        trace = _single_write_trace().pack()
        machine = BusMachine(
            _config(), families.bus_protocol("hybrid-update-invalidate")
        )
        machine.run(trace)
        assert kernel_registry.fallbacks[("bus", "family-unkerneled")] == 1
        assert kernel_registry.engagements["bus"] == 0

    def test_family_directory_machines_fall_back_named(self):
        kernel_registry.clear()
        trace = _single_write_trace().pack()
        for fam in families.directory_families():
            if fam.machine is None:
                continue
            machine = fam.machine_class()(_config(), fam.policy)
            machine.run(trace)
        unkerneled = sum(
            1 for fam in families.directory_families()
            if fam.machine is not None and not fam.kernelable
        )
        assert kernel_registry.fallbacks[
            ("directory", "family-unkerneled")
        ] == unkerneled

    def test_sweep_envelope_has_zero_silent_fallbacks(self):
        # Run every registered family on both engines over one packed
        # trace.  Every kernelable family must engage; every unkerneled
        # one must record exactly its registry-declared reason — no
        # unexplained fallback, no unexplained engagement.
        kernel_registry.clear()
        trace = _single_write_trace().pack()
        expected_fallbacks = set()
        expected_engagements = 0
        for fam in families.bus_families():
            machine = BusMachine(_config(), fam.make_protocol())
            machine.run(trace)
            if fam.kernelable:
                expected_engagements += 1
            else:
                expected_fallbacks.add(("bus", fam.fallback_reason))
        for fam in families.directory_families():
            machine = fam.machine_class()(_config(), fam.policy)
            machine.run(trace)
            if fam.kernelable:
                expected_engagements += 1
            else:
                expected_fallbacks.add(("directory", fam.fallback_reason))
        assert set(kernel_registry.fallbacks) == expected_fallbacks
        assert all(reason for _, reason in kernel_registry.fallbacks)
        assert (kernel_registry.engagements["bus"]
                + kernel_registry.engagements["directory"]
                == expected_engagements)


class TestDirectoryFamilies:
    @pytest.mark.parametrize(
        "trace_fn", [_single_write_trace, _write_run_trace],
        ids=["single-write", "write-run"],
    )
    def test_self_invalidation_directory_never_invalidates(self, trace_fn):
        machine = families.make_directory_machine(
            "self-invalidation", _config()
        )
        machine.run(trace_fn())
        assert sum(machine.invalidation_sizes.values()) == 0
        assert machine.stats.total > 0

    def test_hybrid_directory_prices_updates(self):
        trace = _single_write_trace()
        conventional = families.make_directory_machine(
            "conventional", _config()
        )
        conventional.run(trace)
        hybrid = families.make_directory_machine(
            "hybrid-update-invalidate", _config()
        )
        hybrid.run(trace)
        # Same classification baseline, different wire protocol: the
        # hybrid pays data messages to push updates to sharers.
        assert hybrid.stats.total != conventional.stats.total

    def test_classifier_is_purely_observational(self):
        trace = synth.interleave(
            [_single_write_trace(), _write_run_trace()], chunk=4, seed=5
        )
        stock = DirectoryMachine(
            _config(), families.directory_policy("pattern-classifier")
        )
        stock.run(trace)
        classifier = families.make_directory_machine(
            "pattern-classifier", _config()
        )
        classifier.run(trace)
        assert classifier.stats.short == stock.stats.short
        assert classifier.stats.data == stock.stats.data
        assert classifier.stats.by_cause_short == stock.stats.by_cause_short
        assert classifier.cache_stats == stock.cache_stats

    def test_classifier_taxonomy_labels(self):
        machine = families.make_directory_machine(
            "pattern-classifier", _config()
        )
        machine.run(synth.producer_consumer(
            num_procs=NUM_PROCS, num_objects=1, words_per_object=1,
            rounds=8, consumers=3, seed=7,
        ))
        counts = machine.protocol.pattern_counts()
        assert set(counts) <= set(PATTERNS)
        assert counts["producer-consumer"] >= 1

        # Pin each processor to its own word of one block so the write
        # footprints are pairwise disjoint by construction.
        from repro.common.types import WORD_SIZE
        from repro.trace.core import Trace
        from repro.trace.synth import write

        accesses = []
        for _ in range(4):
            for proc in range(NUM_PROCS):
                accesses.append(write(proc, proc * WORD_SIZE))
        fs = families.make_directory_machine("pattern-classifier", _config())
        fs.run(Trace(accesses, "false-sharing"))
        assert fs.protocol.pattern_counts()["false-sharing"] >= 1
