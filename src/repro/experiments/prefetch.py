"""Experiment R3 — adaptive protocols vs software prefetching (Section 5).

Times each application under four schemes:

* conventional protocol, no prefetch (baseline);
* basic adaptive protocol (this paper);
* conventional + oracle prefetch (latency tolerated, traffic unchanged);
* conventional + oracle prefetch-exclusive (prefetch plus
  read-with-ownership hints: invalidation waits removed too).

Expected shape (the paper's reading of Mowry & Gupta): prefetch-exclusive
matches the adaptive protocol's removal of invalidation waiting *and*
hides read-miss latency, so it is the fastest — "a carefully designed
prefetching mechanism may be the best approach", at the cost of needing
compiler/programmer support the adaptive protocols avoid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.oracle import read_exclusive_hints
from repro.analysis.report import format_table
from repro.directory.policy import BASIC, CONVENTIONAL
from repro.experiments import common, resultcache
from repro.system.machine import DirectoryMachine
from repro.timing.prefetch import PrefetchingTimingSimulator, prefetch_cost
from repro.timing.sim import TimingParams, cost

PREFETCH_APPS = ("mp3d", "pthor", "cholesky")


@dataclass(frozen=True, slots=True)
class PrefetchRow:
    """Execution time under each scheme, for one application."""

    app: str
    conventional: int
    adaptive: int
    prefetch: int
    prefetch_exclusive: int

    def reduction(self, cycles: int) -> float:
        if not self.conventional:
            return 0.0
        return 100.0 * (self.conventional - cycles) / self.conventional


def run(
    apps: tuple[str, ...] = PREFETCH_APPS,
    cache_size: int = 64 * 1024,
    coverage: float = 1.0,
    params: TimingParams | None = None,
    scale: float = 1.0,
    seed: int = 0,
    num_procs: int = common.NUM_PROCS,
) -> list[PrefetchRow]:
    """Time every app under the four schemes.

    Rows are served through the replay result cache, keyed by the trace
    bytes, configuration, prefetch coverage, and timing parameters.
    """
    params = params or TimingParams()
    rows = []
    for app in apps:
        trace = common.get_trace(app, num_procs, seed, scale)
        config = common.directory_config(cache_size, 16, num_procs)

        def compute(app=app, trace=trace,
                    config=config) -> list[PrefetchRow]:
            placement = common.get_placement("round_robin", trace, config)

            def machine(policy):
                return DirectoryMachine(config, policy, placement)

            # The two plain timing runs share cached profiles with the
            # exec-time and topology experiments.  Perfect prefetching
            # without hints is priced from the conventional profile (same
            # configuration, placement and policy); partial coverage and
            # the hinted run replay live.
            base_profile = common.timing_profile(
                trace, CONVENTIONAL, cache_size, num_procs=num_procs
            )
            base = cost(base_profile, params)
            adaptive = cost(common.timing_profile(
                trace, BASIC, cache_size, num_procs=num_procs
            ), params)
            if coverage >= 1.0:
                prefetch = prefetch_cost(base_profile, params)
            else:
                prefetch = PrefetchingTimingSimulator(
                    machine(CONVENTIONAL), params, coverage=coverage
                ).run(trace)
            hints = read_exclusive_hints(trace, config.block_size)
            prefetch_excl = PrefetchingTimingSimulator(
                machine(CONVENTIONAL), params, coverage=coverage
            ).run(trace, exclusive_hints=hints)
            return [PrefetchRow(
                app=app,
                conventional=base.execution_time,
                adaptive=adaptive.execution_time,
                prefetch=prefetch.execution_time,
                prefetch_exclusive=prefetch_excl.execution_time,
            )]

        rows.extend(resultcache.memoize_rows(
            "prefetch",
            (trace.pack().digest(), resultcache.config_digest(config),
             coverage, repr(params)),
            PrefetchRow, compute,
        ))
    return rows


def render(rows: list[PrefetchRow]) -> str:
    """Render the prefetch comparison."""
    headers = [
        "app",
        "conv cycles",
        "adaptive %",
        "prefetch %",
        "prefetch-excl %",
    ]
    out = [
        [
            r.app,
            r.conventional,
            r.reduction(r.adaptive),
            r.reduction(r.prefetch),
            r.reduction(r.prefetch_exclusive),
        ]
        for r in rows
    ]
    return format_table(
        headers,
        out,
        title="Adaptive coherence vs software prefetching "
        "(execution-time reduction vs conventional)",
    )
