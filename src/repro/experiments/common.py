"""Shared plumbing for the experiment harness.

Experiments share trace construction (one trace per application per
configuration, cached) and the machine-running helpers.  Every experiment
function takes a ``scale`` knob so the pytest benchmarks can run quick
versions while ``repro-experiments`` runs the full calibrated sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from weakref import WeakKeyDictionary

from repro.common.config import CacheConfig, MachineConfig
from repro.common.stats import BusStats, MessageStats
from repro.directory.policy import AdaptivePolicy
from repro.experiments import resultcache
from repro.protocols import registry as families
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import SnoopingProtocol
from repro.system.machine import DirectoryMachine
from repro.system.placement import PagePlacement, make_placement
from repro.telemetry import runtime as telemetry
from repro.trace import diskcache, shm
from repro.trace.core import Trace
from repro.workloads.profiles import build_app

#: Default processor count for all experiments (the paper simulates 16).
NUM_PROCS = 16

_trace_cache: dict[tuple, Trace] = {}
#: Placements keyed by the trace *object* (not ``id(trace)``: ids are
#: recycled once a trace is garbage collected, which could silently hand
#: a new trace the stale placement of a dead one).  The weak keying also
#: lets dropped traces release their placements.
_placement_cache: WeakKeyDictionary = WeakKeyDictionary()


def get_trace(
    app: str,
    num_procs: int = NUM_PROCS,
    seed: int = 0,
    scale: float = 1.0,
    handle: shm.TraceHandle | None = None,
) -> Trace:
    """Build (or fetch from cache) one application trace.

    Traces are memoized in-process and persisted to the on-disk packed
    trace cache (:mod:`repro.trace.diskcache`), so repeated runs — and
    the worker processes of a ``--jobs N`` sweep — skip the synthesis
    pass entirely.  When the parent published the trace to the
    shared-memory arena (:func:`publish_traces`), workers pass the
    ``handle`` and attach zero-copy instead of touching the disk cache
    at all; a dead or unusable segment silently falls back.
    """
    key = (app, num_procs, seed, scale)
    trace = _trace_cache.get(key)
    if trace is None:
        if handle is not None:
            try:
                trace = shm.attach(handle)
            except (OSError, ValueError):
                trace = None
        if trace is None:
            trace = diskcache.load_or_build(
                app, num_procs, seed, scale, build_app
            )
        _trace_cache[key] = trace
    return trace


def publish_traces(
    apps: tuple[str, ...],
    num_procs: int = NUM_PROCS,
    seed: int = 0,
    scale: float = 1.0,
) -> dict[str, shm.TraceHandle | None]:
    """Publish each app's trace to the shared-memory arena.

    Called by the sweep experiments before fanning cells out, so every
    worker attaches one shared copy of each trace instead of loading its
    own.  Returns one handle per app; ``None`` entries mean publication
    failed there and workers should use their normal trace path.
    """
    arena = shm.default_arena()
    handles: dict[str, shm.TraceHandle | None] = {}
    for app in apps:
        trace = get_trace(app, num_procs, seed, scale)
        handles[app] = arena.publish(
            (app, num_procs, seed, scale), trace.pack()
        )
    return handles


def get_placement(
    kind: str, trace: Trace, config: MachineConfig
) -> PagePlacement:
    """Build (or fetch) the placement policy for one trace/config pair.

    Static placements depend only on the trace, the page size, and the
    node count, so they are shared across cache-size and protocol sweeps.
    """
    per_trace = _placement_cache.get(trace)
    if per_trace is None:
        per_trace = {}
        _placement_cache[trace] = per_trace
    key = (kind, config.page_size, config.num_procs)
    placement = per_trace.get(key)
    if placement is None:
        placement = make_placement(kind, config, trace)
        per_trace[key] = placement
    return placement


def clear_caches() -> None:
    """Drop all cached traces and placements (tests use this)."""
    _trace_cache.clear()
    _placement_cache.clear()


def _directory_realization(policy: AdaptivePolicy):
    """``(machine_cls, family_label)`` for a policy.

    Registered families resolve through :mod:`repro.protocols.registry`
    (a family that ships its own machine gets it here, with no edits in
    any experiment); ad-hoc ablation policies run on the stock machine.
    """
    fam = families.family_of_policy(policy)
    if fam is None:
        return DirectoryMachine, "-"
    return fam.machine_class(), fam.name


def _bus_family_label(protocol: SnoopingProtocol) -> str:
    fam = families.family_of_protocol(protocol)
    return fam.name if fam is not None else "-"


def directory_config(
    cache_size: int | None,
    block_size: int = 16,
    num_procs: int = NUM_PROCS,
    eviction_notification: bool = True,
) -> MachineConfig:
    """The paper's simplified architectural model at one design point."""
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=cache_size, block_size=block_size),
        eviction_notification=eviction_notification,
    )


def replay_directory(
    trace: Trace,
    policy: AdaptivePolicy,
    config: MachineConfig,
    placement_kind: str = "best_static",
) -> MessageStats:
    """One raw directory replay's message stats: no cache, no telemetry.

    The policy's registered family picks the machine class, and the
    replay runs stats-only (:meth:`DirectoryMachine.replay_counters`),
    since only the counters leave this function.
    """
    machine_cls, _ = _directory_realization(policy)
    placement = get_placement(placement_kind, trace, config)
    return machine_cls.replay_counters(trace, config, policy, placement).stats


def bus_config(
    cache_size: int | None,
    block_size: int = 16,
    num_procs: int = NUM_PROCS,
) -> MachineConfig:
    """The bus machine's configuration at one design point."""
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=cache_size, block_size=block_size),
    )


def run_directory(
    trace: Trace,
    policy: AdaptivePolicy,
    cache_size: int | None,
    block_size: int = 16,
    placement_kind: str = "best_static",
    num_procs: int = NUM_PROCS,
    eviction_notification: bool = True,
) -> MessageStats:
    """Run one directory-machine simulation and return its message stats.

    Results are served through the replay result cache
    (:mod:`repro.experiments.resultcache`) keyed by the trace bytes, the
    machine configuration, and the policy's behavioural fields — except
    when the active telemetry session instruments machines, whose whole
    point is observing the replay this cache would skip.  Such a replay
    runs in full on a machine carrying a recorder; every other one is
    the stats-only :func:`replay_directory`.
    """
    config = directory_config(
        cache_size, block_size, num_procs, eviction_notification
    )

    machine_cls, family_label = _directory_realization(policy)

    def span():
        # Zero-cost when no telemetry session is active (the usual case).
        return telemetry.span("replay.directory", app=trace.name,
                              policy=policy.name,
                              repro_protocol_family=family_label)

    if telemetry.machine_instrumentation_active():
        placement = get_placement(placement_kind, trace, config)
        machine = machine_cls(config, policy, placement)
        telemetry.attach(machine)
        with span():
            return machine.run(trace)

    def replay() -> MessageStats:
        with span():
            return replay_directory(trace, policy, config, placement_kind)

    return resultcache.memoize(
        "directory",
        (trace.pack().digest(), resultcache.config_digest(config),
         resultcache.policy_digest(policy), placement_kind),
        resultcache.encode_message_stats,
        resultcache.decode_message_stats,
        replay,
    )


def run_bus(
    trace: Trace,
    protocol: SnoopingProtocol,
    cache_size: int | None,
    block_size: int = 16,
    num_procs: int = NUM_PROCS,
) -> BusStats:
    """Run one bus-machine simulation and return its transaction stats.

    Cached like :func:`run_directory`, with the protocol digest standing
    in for the policy digest; uninstrumented replays are stats-only
    (:meth:`BusMachine.replay_counters`).
    """
    config = bus_config(cache_size, block_size, num_procs)

    def span():
        return telemetry.span("replay.bus", app=trace.name,
                              protocol=protocol.name,
                              repro_protocol_family=_bus_family_label(protocol))

    if telemetry.machine_instrumentation_active():
        machine = BusMachine(config, protocol)
        telemetry.attach(machine)
        with span():
            return machine.run(trace)

    def replay() -> BusStats:
        with span():
            return BusMachine.replay_counters(
                trace, config, protocol).bus_stats

    return resultcache.memoize(
        "bus",
        (trace.pack().digest(), resultcache.config_digest(config),
         resultcache.protocol_digest(protocol)),
        resultcache.encode_bus_stats,
        resultcache.decode_bus_stats,
        replay,
    )


def timing_profile(
    trace: Trace,
    policy: AdaptivePolicy,
    cache_size: int | None,
    block_size: int = 16,
    placement_kind: str = "round_robin",
    num_procs: int = NUM_PROCS,
):
    """One cached timing replay, priceable under any :class:`TimingParams`.

    The execution-time experiments (exec-time, topology, prefetch
    baselines) replay the same ``(trace, config, policy)`` design points
    under varying latency parameters.  The replay itself is parameter-
    independent, so it is run once, profiled, and cached; callers price
    the returned profile with :func:`repro.timing.sim.cost`.
    """
    from repro.timing.sim import TimingSimulator

    config = directory_config(cache_size, block_size, num_procs)

    def replay():
        placement = get_placement(placement_kind, trace, config)
        machine = DirectoryMachine(config, policy, placement)
        telemetry.attach(machine)
        with telemetry.span("replay.timing", app=trace.name,
                            policy=policy.name):
            return TimingSimulator(machine).profile(trace)

    return resultcache.memoize(
        "timing_profile",
        (trace.pack().digest(), resultcache.config_digest(config),
         resultcache.policy_digest(policy), placement_kind),
        resultcache.encode_timing_profile,
        resultcache.decode_timing_profile,
        replay,
    )


@dataclass(frozen=True, slots=True)
class ProtocolCell:
    """One (protocol x configuration) table cell, paper-style."""

    short: int
    data: int
    reduction_pct: float

    @property
    def total(self) -> int:
        return self.short + self.data


def make_cell(stats: MessageStats, baseline_total: int) -> ProtocolCell:
    """Build a table cell with the percentage reduction vs the baseline."""
    reduction = 0.0
    if baseline_total:
        reduction = 100.0 * (baseline_total - stats.total) / baseline_total
    return ProtocolCell(stats.short, stats.data, reduction)
