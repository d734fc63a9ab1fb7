"""Experiment S4.2c — contention and the read-miss latency effect.

Section 4.2's most surprising observation: "eliminating the extra
invalidation operations decreases the average latency of primary cache
read misses by 20 % ... by nearly eliminating contention at the
secondary cache."  The event-driven simulator of
:mod:`repro.timing.eventsim` models controller queueing explicitly, so
the mechanism is directly visible: the adaptive protocol removes
messages, controllers queue less, and *unrelated* misses get faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.directory.policy import BASIC, CONVENTIONAL, AdaptivePolicy
from repro.experiments import common, resultcache
from repro.system.machine import DirectoryMachine
from repro.timing.eventsim import (
    BusEventSimulator,
    EventDrivenSimulator,
    EventTimingParams,
)

CONTENTION_APPS = ("cholesky", "mp3d", "water")


@dataclass(frozen=True, slots=True)
class ContentionRow:
    """Contended timing comparison for one application."""

    app: str
    base_cycles: int
    adaptive_cycles: int
    time_reduction_pct: float
    base_read_miss_latency: float
    adaptive_read_miss_latency: float
    read_miss_latency_reduction_pct: float
    base_contention_share: float
    adaptive_contention_share: float


def run(
    apps: tuple[str, ...] = CONTENTION_APPS,
    cache_size: int = 64 * 1024,
    adaptive: AdaptivePolicy = BASIC,
    params: EventTimingParams | None = None,
    scale: float = 1.0,
    seed: int = 0,
    num_procs: int = common.NUM_PROCS,
) -> list[ContentionRow]:
    """Run the contended comparison for each application.

    Rows are served through the replay result cache, keyed by the trace
    bytes, the configuration, the policy, and the timing parameters.
    """
    params = params or EventTimingParams()
    rows = []
    for app in apps:
        trace = common.get_trace(app, num_procs, seed, scale)
        config = common.directory_config(cache_size, 16, num_procs)

        def compute(app=app, trace=trace,
                    config=config) -> list[ContentionRow]:
            placement = common.get_placement("round_robin", trace, config)
            results = {}
            for policy in (CONVENTIONAL, adaptive):
                machine = DirectoryMachine(config, policy, placement)
                results[policy.name] = EventDrivenSimulator(
                    machine, params
                ).run(trace)
            base = results["conventional"]
            adapt = results[adaptive.name]
            lat_reduction = 0.0
            if base.mean_read_miss_latency:
                lat_reduction = 100.0 * (
                    base.mean_read_miss_latency - adapt.mean_read_miss_latency
                ) / base.mean_read_miss_latency
            return [ContentionRow(
                app=app,
                base_cycles=base.execution_time,
                adaptive_cycles=adapt.execution_time,
                time_reduction_pct=(
                    100.0
                    * (base.execution_time - adapt.execution_time)
                    / base.execution_time
                    if base.execution_time else 0.0
                ),
                base_read_miss_latency=base.mean_read_miss_latency,
                adaptive_read_miss_latency=adapt.mean_read_miss_latency,
                read_miss_latency_reduction_pct=lat_reduction,
                base_contention_share=base.contention_share,
                adaptive_contention_share=adapt.contention_share,
            )]

        rows.extend(resultcache.memoize_rows(
            "contention",
            (trace.pack().digest(), resultcache.config_digest(config),
             resultcache.policy_digest(adaptive), repr(params)),
            ContentionRow, compute,
        ))
    return rows


def render(rows: list[ContentionRow]) -> str:
    """Render the contention comparison."""
    headers = [
        "app",
        "time red. %",
        "rd-miss lat conv",
        "rd-miss lat basic",
        "lat red. %",
        "queue share conv %",
        "queue share basic %",
    ]
    out = [
        [
            r.app,
            r.time_reduction_pct,
            r.base_read_miss_latency,
            r.adaptive_read_miss_latency,
            r.read_miss_latency_reduction_pct,
            100 * r.base_contention_share,
            100 * r.adaptive_contention_share,
        ]
        for r in rows
    ]
    return format_table(
        headers,
        out,
        title="Section 4.2 contention effect: fewer protocol messages -> "
        "less controller queueing -> faster read misses",
    )


@dataclass(frozen=True, slots=True)
class BusContentionRow:
    """Shared-bus utilization comparison for one application."""

    app: str
    mesi_utilization: float
    adaptive_utilization: float
    mesi_exec: int
    adaptive_exec: int
    time_reduction_pct: float
    adaptive_read_share: float


def run_bus(
    apps: tuple[str, ...] = CONTENTION_APPS,
    cache_size: int = 64 * 1024,
    scale: float = 1.0,
    seed: int = 0,
    num_procs: int = common.NUM_PROCS,
) -> list[BusContentionRow]:
    """Shared-bus contention comparison (MESI vs adaptive snooping)."""
    from repro.common.config import CacheConfig, MachineConfig
    from repro.snooping.machine import BusMachine
    from repro.snooping.protocols import (
        AdaptiveSnoopingProtocol,
        MesiProtocol,
    )

    rows = []
    for app in apps:
        trace = common.get_trace(app, num_procs, seed, scale)
        config = MachineConfig(
            num_procs=num_procs,
            cache=CacheConfig(size_bytes=cache_size, block_size=16),
        )

        def compute(app=app, trace=trace,
                    config=config) -> list[BusContentionRow]:
            results = {}
            for key, protocol in (
                ("mesi", MesiProtocol()),
                ("adaptive", AdaptiveSnoopingProtocol()),
            ):
                machine = BusMachine(config, protocol)
                results[key] = BusEventSimulator(machine).run(trace)
            mesi, adaptive = results["mesi"], results["adaptive"]
            return [BusContentionRow(
                app=app,
                mesi_utilization=mesi.utilization,
                adaptive_utilization=adaptive.utilization,
                mesi_exec=mesi.execution_time,
                adaptive_exec=adaptive.execution_time,
                time_reduction_pct=(
                    100.0
                    * (mesi.execution_time - adaptive.execution_time)
                    / mesi.execution_time
                    if mesi.execution_time else 0.0
                ),
                adaptive_read_share=adaptive.kind_share("read_miss"),
            )]

        rows.extend(resultcache.memoize_rows(
            "contention_bus",
            (trace.pack().digest(), resultcache.config_digest(config)),
            BusContentionRow, compute,
        ))
    return rows


def render_bus(rows: list[BusContentionRow]) -> str:
    """Render the shared-bus contention comparison."""
    headers = [
        "app",
        "mesi util %",
        "adaptive util %",
        "time red. %",
        "adaptive read share %",
    ]
    out = [
        [
            r.app,
            100 * r.mesi_utilization,
            100 * r.adaptive_utilization,
            r.time_reduction_pct,
            100 * r.adaptive_read_share,
        ]
        for r in rows
    ]
    return format_table(
        headers,
        out,
        title="Shared-bus utilization (snooping machine, contended)",
    )
