"""Differential conformance subsystem.

The correctness machinery that used to live only inside ``tests/`` —
coherence invariants, cross-engine differential checking, failure
injection, and trace minimisation — promoted into reusable
infrastructure that any later change can be run against:

* :mod:`repro.conformance.invariants` — the single source of truth for
  the copyset/classification safety invariants of Figure 3, shared by
  the machines' built-in checkers, the model checker in
  :mod:`repro.verification.space`, and the fuzzing oracle.
* :mod:`repro.conformance.fuzzer` — a deterministic, seed-driven trace
  fuzzer biased toward the paper's sharing patterns plus adversarial
  interleavings the synthetic generators never emit.
* :mod:`repro.conformance.oracle` — the differential oracle: replays
  each trace through the directory machine, the snooping machine, the
  table-driven kernels, and a sequential-consistency reference model,
  asserting bit-identical statistics and invariant-clean state.
* :mod:`repro.conformance.bugs` — deliberately broken protocol
  variants (fault injection) used to prove the oracle actually fires.
* :mod:`repro.conformance.shrink` — a greedy delta-debugging shrinker
  reducing any failing trace to a minimal reproducer.
* :mod:`repro.conformance.artifacts` — on-disk reproducer directories
  written by the ``repro-fuzz`` CLI and replayed by the regression
  suite in ``tests/reproducers/``.
* :mod:`repro.conformance.cli` — the ``repro-fuzz`` console entry
  point (``--seeds N --jobs N --profile ...``).

This package init deliberately imports only the invariants layer: the
machines import :mod:`repro.conformance.invariants` at module load, so
anything heavier here would create an import cycle.
"""

from repro.conformance.invariants import (
    check_directory_block,
    check_snooping_block,
    directory_copy_violations,
    directory_machine_violations,
    snooping_copy_violations,
    snooping_machine_violations,
)

__all__ = [
    "check_directory_block",
    "check_snooping_block",
    "directory_copy_violations",
    "directory_machine_violations",
    "snooping_copy_violations",
    "snooping_machine_violations",
]
