"""``sweep``: a cold in-process regeneration of four paper artifacts.

``table2``, ``bus``, ``limited-dir`` and ``prefetch`` are rendered
exactly as ``repro-experiments <name> --scale 0.1 --seed N --jobs 1``
renders them, into an empty result cache.  Set-up generates the five
application traces; the timed section is everything after that:
placement, machine and cache construction, the batch kernels with their
final-state backfill, the packed loop (limited-pointer directories),
the timing layer (prefetch), and the result cache's write side.

Checks, one operation per artifact: for a seed with a checked-in golden
(``goldens/seed-N.json``, written by ``make_goldens.py``) the rendered
text must match the CLI's stdout byte for byte, and every field of every
row must match the golden rows.  For any other seed a
seeded sample of rows is replayed again on the generic per-access
engine with ``check=True`` and must agree with what the sweep reported.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
from pathlib import Path

from harness import Workload, kernel_counts

GOLDENS = Path(__file__).resolve().parent / "goldens"

#: Rows of each artifact re-replayed on the generic engine per run.
SAMPLE_ROWS = 1


#: The one application the ``--smoke`` sweep runs.
SMOKE_APP = "locusroute"


def artifacts():
    """``(name, run, render)`` of the four artifacts, in CLI order.

    ``run(scale, seed, apps)`` takes ``apps=None`` for every application.
    """
    from repro.experiments import bus, limited_dir, prefetch, table2

    def runner(module, **fixed):
        def run(scale, seed, apps):
            chosen = {} if apps is None else {"apps": apps}
            return module.run(scale=scale, seed=seed, **fixed, **chosen)
        return run

    return (
        ("table2", runner(table2, jobs=1), table2.render),
        ("bus", runner(bus, jobs=1), bus.render),
        ("limited-dir", runner(limited_dir), limited_dir.render),
        ("prefetch", runner(prefetch), prefetch.render),
    )


def cli_section(name: str, rendered: str) -> str:
    """One artifact as ``repro-experiments`` prints it on stdout."""
    return f"==== {name} ====\n{rendered}\n\n"


def row_payload(rows: list) -> list:
    """Every field of every row, as JSON would round-trip it."""
    return json.loads(json.dumps([dataclasses.asdict(row) for row in rows]))


def golden_artifacts(seed: int, scale: float) -> dict | None:
    """Per artifact, the golden ``stdout`` and ``rows`` for ``seed``."""
    path = GOLDENS / f"seed-{seed}.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    return golden["artifacts"] if golden["scale"] == scale else None


class Sweep(Workload):
    #: Over ten runs whose mean probe time ranged from 8.1 to 12.4 ms,
    #: the raw timed section grew as that time to the power 0.7 (the
    #: other workloads: 1.0 to 1.1).
    ELASTICITY = 0.7

    def __init__(self, options, workdir: Path, traced: bool):
        super().__init__(options, workdir, traced)
        self.apps = (SMOKE_APP,) if options.smoke else None
        self.rows: dict[str, list] = {}
        self.rendered: dict[str, str] = {}

    def setup(self) -> None:
        from repro.experiments import common
        from repro.workloads.profiles import APP_ORDER

        os.environ["REPRO_TRACE_CACHE"] = "off"
        common.clear_caches()
        for app in self.apps or APP_ORDER:
            common.get_trace(app, seed=self.options.seed,
                             scale=self.options.scale).pack().digest()

    def run(self) -> None:
        for name, run, render in artifacts():
            rows = run(self.options.scale, self.options.seed, self.apps)
            self.rows[name] = rows
            self.rendered[name] = render(rows)

    def work(self) -> int:
        return len(self.rendered)

    def check(self) -> tuple[int, int]:
        golden = self._golden()
        failed = 0
        for name, _, _ in artifacts():
            rows = self.rows.get(name)
            if rows is None:
                failed += 1
                continue
            if golden is not None:
                ok = (golden[name]["stdout"]
                      == cli_section(name, self.rendered[name])
                      and golden[name]["rows"] == row_payload(rows))
            else:
                ok = sample_matches(name, rows, self.options)
            failed += not ok
        return len(artifacts()), failed

    def counts(self) -> dict:
        from repro.experiments import resultcache

        return {"artifacts": len(self.rendered),
                "golden": self._golden() is not None,
                "result_cache": resultcache.counts(), **kernel_counts()}

    def _golden(self) -> dict | None:
        if self.apps is not None:
            return None
        return golden_artifacts(self.options.seed, self.options.scale)


# ----------------------------------------------------------------------
# Generic-engine re-replay of sampled rows
# ----------------------------------------------------------------------

def _generic_directory(trace, policy, config, placement, **kwargs):
    from repro.protocols import registry as families
    from repro.system.machine import DirectoryMachine

    family = families.family_of_policy(policy)
    machine_cls = family.machine_class() if family else DirectoryMachine
    machine = machine_cls(config, policy, placement, check=True, **kwargs)
    machine.run(list(trace))
    return machine


def _generic_bus(trace, protocol, cache_size):
    from repro.common.config import CacheConfig, MachineConfig
    from repro.experiments import common
    from repro.snooping.machine import BusMachine

    config = MachineConfig(
        num_procs=common.NUM_PROCS,
        cache=CacheConfig(size_bytes=cache_size, block_size=16),
    )
    machine = BusMachine(config, protocol, check=True)
    return machine.run(list(trace))


def _check_table2(row, options) -> bool:
    from repro.directory.policy import PAPER_POLICIES
    from repro.experiments import common

    trace = common.get_trace(row.app, seed=options.seed, scale=options.scale)
    config = common.directory_config(row.cache_size)
    placement = common.get_placement("best_static", trace, config)
    for policy in PAPER_POLICIES:
        stats = _generic_directory(trace, policy, config, placement).stats
        cell = row.cells[policy.name]
        if (cell.short, cell.data) != (stats.short, stats.data):
            return False
    return True


def _check_bus(row, options) -> bool:
    from repro.experiments import common
    from repro.snooping.costmodels import model1_cost, model2_cost
    from repro.snooping.protocols import (
        AdaptiveSnoopingProtocol,
        AlwaysMigrateProtocol,
        MesiProtocol,
    )

    trace = common.get_trace(row.app, seed=options.seed, scale=options.scale)
    mesi, adaptive = MesiProtocol(), AdaptiveSnoopingProtocol()
    mesi_stats = _generic_bus(trace, mesi, row.cache_size)
    adapt_stats = _generic_bus(trace, adaptive, row.cache_size)
    always_stats = _generic_bus(trace, AlwaysMigrateProtocol(),
                                row.cache_size)
    return (
        row.mesi_model1 == model1_cost(mesi_stats)
        and row.adaptive_model1 == model1_cost(adapt_stats)
        and row.mesi_model2 == model2_cost(mesi_stats, mesi)
        and row.adaptive_model2 == model2_cost(adapt_stats, adaptive)
        and row.always_migrate_model1 == model1_cost(always_stats)
    )


def _check_limited_dir(row, options) -> bool:
    from repro.directory.policy import AGGRESSIVE, CONVENTIONAL
    from repro.experiments import common, limited_dir

    trace = common.get_trace(row.app, seed=options.seed, scale=options.scale)
    config = common.directory_config(256 * 1024)
    placement = common.get_placement("best_static", trace, config)
    (representation,) = [r for r in limited_dir.default_representations()
                         if r.name == row.representation]
    totals = []
    for policy in (CONVENTIONAL, AGGRESSIVE):
        machine = _generic_directory(
            trace, policy, config, placement,
            representation=type(representation)(
                *limited_dir._repr_args(representation)
            ),
        )
        totals.append(machine.stats.total)
    return (row.conventional_total, row.aggressive_total) == tuple(totals)


def _check_prefetch(row, options) -> bool:
    from repro.directory.policy import BASIC, CONVENTIONAL
    from repro.experiments import common
    from repro.system.machine import DirectoryMachine
    from repro.timing.sim import TimingParams, TimingSimulator, cost

    trace = common.get_trace(row.app, seed=options.seed, scale=options.scale)
    config = common.directory_config(64 * 1024)
    placement = common.get_placement("round_robin", trace, config)
    times = []
    for policy in (CONVENTIONAL, BASIC):
        machine = DirectoryMachine(config, policy, placement, check=True)
        profile = TimingSimulator(machine).profile(list(trace))
        times.append(cost(profile, TimingParams()).execution_time)
    return (row.conventional, row.adaptive) == tuple(times)


_ROW_CHECKS = {
    "table2": _check_table2,
    "bus": _check_bus,
    "limited-dir": _check_limited_dir,
    "prefetch": _check_prefetch,
}


def sampled_rows(name: str, rows: list, seed: int) -> list:
    """The rows of one artifact that the generic check re-replays."""
    rng = random.Random(f"{name}/{seed}")
    return rng.sample(rows, min(SAMPLE_ROWS, len(rows)))


def sample_matches(name: str, rows: list, options) -> bool:
    """Whether every sampled row agrees with the generic engine."""
    return all(_ROW_CHECKS[name](row, options)
               for row in sampled_rows(name, rows, options.seed))
