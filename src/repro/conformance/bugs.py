"""Fault injection: deliberately broken protocol variants.

A checker that never fires is worthless evidence, so the conformance
pipeline ships the classic coherence bugs as first-class engine
variants: forgotten invalidations, stale fills, fast-path statistics
drift.  Each is a drop-in replacement for the corresponding production
class, selected through :func:`engine_overrides` (the ``repro-fuzz
--inject`` flag) or passed directly to
:func:`repro.conformance.oracle.run_case`.  The failure-injection tests
and the shrinker's acceptance criterion both drive these.

Every bug here is a real historical failure mode — none of them crash;
they silently corrupt state or statistics, which is exactly what the
differential oracle exists to catch.
"""

from __future__ import annotations

from repro.interconnect.costs import write_hit_counts
from repro.snooping.protocols import MesiProtocol
from repro.snooping.states import SnoopState as St
from repro.system.machine import CState, DirectoryMachine


class ForgetsToInvalidate(MesiProtocol):
    """Bus bug: write hits upgrade locally but never invalidate sharers."""

    name = "buggy-no-invalidate"

    def write_hit_invalidate(self, caches, proc, block, line):
        line.state = St.D
        line.dirty = True  # other copies left alive and stale!


class FillsStaleExclusive(MesiProtocol):
    """Bus bug: write misses fill the writer but leave old copies valid."""

    name = "buggy-stale-copies"

    def write_miss_fill(self, caches, proc, block):
        return St.D, True  # skipped the snoop-invalidate loop


class DropsInvalidationsDirectory(DirectoryMachine):
    """Directory bug: upgrades drop the invalidation fan-out.

    A write hit on a shared copy charges the messages and updates the
    directory as if the sharers were destroyed, but their cache lines
    are left valid — the canonical "dropped invalidation" failure.  The
    copyset/holders mismatch is caught by the structural invariants at
    the very step it happens, and the surviving stale copies trip the
    version checker on their next read.
    """

    def _write_hit_shared(self, proc, block, line):
        home = self._home_of(block, proc)
        ent = self.protocol.entry(block)
        others = ent.copyset - {proc}
        self.protocol.write_hit(block, proc, sole_copy=not others)
        dc = self.representation.invalidation_targets(
            ent, proc, home, self.config.num_procs
        )
        short, data = write_hit_counts(home == proc, dc)
        self._charge("write_hit", block, short, data)
        if others:
            self.invalidation_sizes[len(others)] += 1
        # BUG: the remote sharers' lines are never removed.
        ent.copyset.intersection_update({proc})
        ent.copyset.add(proc)
        self.representation.on_exclusive(ent)
        line.state = CState.EXCL
        line.dirty = True
        self.caches[proc].touch(block)
        self.cache_stats.upgrades += 1
        self._bump_version(block, line)


class SkewsKernelStatsDirectory(DirectoryMachine):
    """Directory bug: the table-driven kernel loses half its read hits.

    Models a fast-path divergence (the class of bug the kernel-vs-generic
    differential stage exists for): the kernel replay produces correct
    protocol behaviour but drifts on a statistic.  The subclass calls
    the kernel itself, since :meth:`DirectoryMachine.run` keeps
    subclasses off it; replays the kernel declines take the stock path.
    """

    def run(self, trace):
        pack = getattr(trace, "pack", None)
        if pack is not None and not self._check and self.step_hook is None:
            from repro.kernels.directory import try_replay

            result = try_replay(self, pack())
            if result is not None:
                self.cache_stats.read_hits //= 2
                return result
        return super().run(trace)


#: ``--inject`` name -> keyword overrides for ``oracle.run_case``.
INJECTIONS = {
    "none": {},
    "drop-invalidation": {"directory_machine": DropsInvalidationsDirectory},
    "kernel-skew": {"directory_machine": SkewsKernelStatsDirectory},
    "snoop-drop-invalidation": {"snoop_factories": (ForgetsToInvalidate,)},
    "snoop-stale-fill": {"snoop_factories": (FillsStaleExclusive,)},
}


def engine_overrides(inject: str) -> dict:
    """The ``run_case`` keyword overrides for one ``--inject`` name."""
    try:
        return dict(INJECTIONS[inject])
    except KeyError:
        raise ValueError(
            f"unknown injection {inject!r}; expected one of "
            f"{sorted(INJECTIONS)}"
        ) from None
