"""Table-driven replay kernels.

The protocols of the paper are small finite state machines (Figures 1-3),
so replay does not need per-access object dispatch: this package lowers
each snooping protocol and each directory policy into dense integer
transition tables, then replays :class:`repro.trace.packed.PackedTrace`
columns against lazily-grown per-block DFAs whose edges carry precomputed
statistics deltas (cache events, Table 1 message charges, bus
transactions, classification transitions).

Layers:

* :mod:`repro.kernels.tables` — the compiler.  It *probes* the real
  protocol implementations (the technique
  :mod:`repro.experiments.fig2` introduced for regenerating Figure 2)
  over every reachable (state, event, evidence) combination and records
  the outcomes as integer rows.  The rows are deterministic and
  digestable, which is how the result cache keeps its keys honest.
* :mod:`repro.kernels.registry` — process-wide cache of compiled tables
  and their DFAs, plus the engagement counters and the kill switches
  (the ``REPRO_NO_KERNEL`` environment variable and
  :func:`repro.kernels.registry.disabled`).
* :mod:`repro.kernels.directory` / :mod:`repro.kernels.snooping` — the
  interpreters.  ``try_replay(machine, packed)`` either replays the
  whole trace on the kernel and returns the stats object, or returns
  ``None`` (machine untouched) when the replay is outside the kernel's
  envelope, in which case the machine falls through to its generic
  per-access loop.

The kernels engage automatically from ``DirectoryMachine.run`` /
``BusMachine.run`` for a packable trace with no checker and no
``step_hook``, under the eligibility conditions
documented in ``docs/PERFORMANCE.md``; statistics and final machine
state are bit-identical to the object engines (enforced by the
conformance oracle's kernel-vs-object stage).
"""

from repro.kernels.registry import disabled, engagements, kernels_enabled

__all__ = ["disabled", "engagements", "kernels_enabled"]
