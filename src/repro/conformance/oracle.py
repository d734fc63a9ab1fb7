"""The differential cross-engine oracle.

One fuzz case is replayed through every engine the repository ships and
each replay is audited three ways:

1. **Invariant-clean state at every step.**  The generic per-access
   replay runs with the built-in checker enabled, which asserts the
   structural invariants of :mod:`repro.conformance.invariants` and the
   read-latest-write version property after every protocol-visible
   operation.
2. **Sequential-consistency reference model.**  An independent flat
   memory model tracks, per block, the globally latest write version;
   after the replay the machine's observed version history must agree
   with it.
3. **Bit-identical kernel replay.**  A second, checker-free machine
   replays the packed trace with the table-driven kernels of
   :mod:`repro.kernels` eligible (they engage or fall back to the
   generic loop on their own gating rules); every statistic —
   message/bus counters including the per-cause breakdowns, cache
   event counters, invalidation-size histograms — *and* the final
   microarchitectural state — every cache line's state, dirty bit and
   competitive counter, every directory entry's classification, copy
   set, invalidator and evidence streak, the transition counters —
   must be exactly equal to the checked generic replay's.  The counters
   are compared first, while an engaged kernel's final state is still
   pending (:mod:`repro.kernels.pending`), so they are exactly what a
   caller reading only counters sees; the final state is compared
   after its decode.  For infinite-cache cases the same stage replays
   the case once more through the streaming backend
   (:func:`repro.kernels.streaming.replay_stream`) in segments short
   enough to split every block's accesses, audited the same way.  This
   stage also covers the update-family snooping protocols, which the
   invariant/SC stages exclude.  For the directory machines it also
   compares :meth:`repro.timing.sim.TimingSimulator.profile` on a
   fresh checker-free machine (the kernel's per-access outcome counts
   when it engages) field for field with the checked generic replay's
   profile.  Each directory policy replays under the full map and again
   under a Dir_iB and a Dir_iNB limited-pointer directory with few
   enough pointers (:func:`limited_representations`) that fuzz cases
   overflow them.

The first discrepancy is reported as a :class:`CaseFailure` naming the
stage, the engine, and the detail; ``None`` means the case is clean.
Engine factories are parameters so the fault-injection variants of
:mod:`repro.conformance.bugs` can be swapped in — that is how the
pipeline proves the oracle actually fires.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Sequence

from repro.cache.core import InfiniteCache
from repro.common.errors import ReproError
from repro.common.types import Op
from repro.conformance.fuzzer import FuzzCase
from repro.directory.policy import AdaptivePolicy
from repro.directory.representation import LimitedPointerDirectory
from repro.kernels import registry
from repro.protocols import registry as families
from repro.snooping.machine import BusMachine
from repro.snooping.protocols import SnoopingProtocol
from repro.system.machine import DirectoryMachine
from repro.telemetry.runtime import span

#: Directory policies replayed by default: every family in
#: :mod:`repro.protocols.registry` that runs on the stock machine
#: (registering a new policy-only family adds it here automatically).
DEFAULT_POLICIES: tuple[AdaptivePolicy, ...] = tuple(
    fam.policy for fam in families.directory_families()
    if fam.machine is None
)

#: Directory families that ship their own machine realization.  They
#: replay through all three stages against *their* machine whenever the
#: stock machine is in play (fault injection swaps the stock machine
#: for a broken subclass, which would silently displace these).
FAMILY_DIRECTORY_MACHINES = tuple(
    fam for fam in families.directory_families() if fam.machine is not None
)

#: Snooping protocol factories replayed by default — the families whose
#: verification config asks for the full three-stage audit.
DEFAULT_SNOOP_FACTORIES: tuple[Callable[[], SnoopingProtocol], ...] = tuple(
    fam.factory for fam in families.bus_families() if fam.oracle == "full"
)

#: Segment length of the kernel-diff stage's streamed replay: short
#: enough that most blocks' accesses span several segments.
STREAM_CHUNK = 3

#: Snooping protocol factories audited by the kernel-diff stage only.
#: The pure-update family is excluded from the invariant/SC stages
#: (remote copies stay current, so the read-latest-write property is
#: trivially a different contract), but generic-vs-kernel equality still
#: applies.
KERNEL_ONLY_SNOOP_FACTORIES: tuple[Callable[[], SnoopingProtocol], ...] = \
    tuple(
        fam.factory for fam in families.bus_families()
        if fam.oracle == "kernel-only"
    )


@dataclass(frozen=True)
class CaseFailure:
    """One conformance discrepancy.

    Attributes:
        stage: which audit failed — ``"invariants"``,
            ``"sc-reference"`` or ``"kernel-diff"``.
        engine: the engine label, e.g. ``"directory[basic]"``.
        detail: human-readable description of the discrepancy.
    """

    stage: str
    engine: str
    detail: str

    def __str__(self) -> str:
        return f"{self.stage} {self.engine}: {self.detail}"


class SCReference:
    """Flat sequentially-consistent memory: one global write order.

    Mirrors what real memory would contain if every access completed
    atomically in trace order — the ground truth the machines' version
    checkers are compared against.
    """

    __slots__ = ("latest", "writes", "_block_shift")

    def __init__(self, block_shift: int):
        self._block_shift = block_shift
        #: block -> version id of the globally latest write.
        self.latest: dict[int, int] = {}
        #: total writes observed (version ids are 1..writes).
        self.writes = 0

    def access(self, proc: int, is_write: bool, addr: int) -> None:
        if is_write:
            self.writes += 1
            self.latest[addr >> self._block_shift] = self.writes


def _replay_reference(case: FuzzCase) -> SCReference:
    ref = SCReference(case.block_size.bit_length() - 1)
    for acc in case.trace:
        ref.access(acc.proc, acc.op is Op.WRITE, acc.addr)
    return ref


def _diff_fields(
    pairs: Sequence[tuple[str, object, object]],
    labels: tuple[str, str] = ("generic", "kernel"),
) -> str | None:
    """Describe the first few mismatching (name, left, right) triples."""
    left, right = labels
    diffs = [
        f"{name}: {left}={a!r} {right}={b!r}"
        for name, a, b in pairs
        if a != b
    ]
    if not diffs:
        return None
    return "; ".join(diffs[:4])


def _cache_stats_fields(stats) -> list[tuple[str, object]]:
    return [
        ("read_hits", stats.read_hits),
        ("read_misses", stats.read_misses),
        ("write_hits", stats.write_hits),
        ("write_misses", stats.write_misses),
        ("upgrades", stats.upgrades),
        ("evictions_clean", stats.evictions_clean),
        ("evictions_dirty", stats.evictions_dirty),
    ]


def _final_lines(machine) -> list[tuple]:
    """Every resident cache line as (proc, block, state, dirty, counter).

    A finite cache's lines come in ``resident_blocks()`` order (set
    index, then recency, oldest first), since later fills observe that
    order through their victims; an infinite cache's come sorted, since
    nothing observes theirs.  Line versions are deliberately excluded:
    they belong to the checker, which only runs on the generic replay.
    """
    out = []
    for proc, cache in enumerate(machine.caches):
        blocks = cache.resident_blocks()
        if isinstance(cache, InfiniteCache):
            blocks = sorted(blocks)
        for block in blocks:
            line = cache.lookup(block)
            out.append((proc, block, line.state, line.dirty, line.counter))
    return out


def _directory_entries(machine) -> dict[int, tuple]:
    """Every directory entry's observable fields, keyed by block."""
    return {
        block: (ent.state, tuple(sorted(ent.copyset)),
                ent.last_invalidator, ent.streak, ent.overflowed)
        for block, ent in machine.protocol.entries.items()
    }


def _directory_pairs(a, b) -> list[tuple[str, object, object]]:
    """Counter comparison triples for two directory machines."""
    return [
        ("short", a.stats.short, b.stats.short),
        ("data", a.stats.data, b.stats.data),
        ("by_cause_short", a.stats.by_cause_short, b.stats.by_cause_short),
        ("by_cause_data", a.stats.by_cause_data, b.stats.by_cause_data),
        ("invalidation_sizes", a.invalidation_sizes, b.invalidation_sizes),
        ("transitions", a.protocol.transitions, b.protocol.transitions),
    ] + [
        (name, left, right)
        for (name, left), (_, right) in zip(
            _cache_stats_fields(a.cache_stats),
            _cache_stats_fields(b.cache_stats),
        )
    ]


def _profile_pairs(a, b) -> list[tuple[str, object, object]]:
    """Field comparison triples for two timing profiles."""
    return [(f.name, getattr(a, f.name), getattr(b, f.name))
            for f in fields(a)]


def _directory_state_pairs(a, b) -> list[tuple[str, object, object]]:
    """Final-state comparison triples for two directory machines."""
    return [
        ("entries", _directory_entries(a), _directory_entries(b)),
        ("lines", _final_lines(a), _final_lines(b)),
    ]


def _bus_state_pairs(a, b) -> list[tuple[str, object, object]]:
    """Final-state comparison triples for two bus machines."""
    return [("lines", _final_lines(a), _final_lines(b))]


def _kernel_diff(reference, machine, counter_pairs, state_pairs,
                 labels: tuple[str, str] = ("generic", "kernel")):
    """Diff ``machine`` against ``reference``: the counters first, while
    a kernel replay's final state is still pending, then the state,
    which that read decodes."""
    return (_diff_fields(counter_pairs(reference, machine), labels)
            or _diff_fields(state_pairs(reference, machine), labels))


def _streamed(machine, case: FuzzCase, label: str):
    """``machine`` after a streamed replay of ``case``, or None when the
    case has finite caches (outside the streaming envelope)."""
    if case.cache_size is not None:
        return None
    # Imported here, like the machines import their kernels, so loading
    # the oracle (the model checker does) does not load the kernels.
    from repro.kernels.streaming import replay_stream

    with span("conformance.replay", engine=label, stage="stream"):
        replay_stream(machine, case.trace.pack(), STREAM_CHUNK)
    return machine


def _snooping_pairs(a, b) -> list[tuple[str, object, object]]:
    """Counter comparison triples for two bus machines."""
    return [
        ("read_miss", a.bus_stats.read_miss, b.bus_stats.read_miss),
        ("write_miss", a.bus_stats.write_miss, b.bus_stats.write_miss),
        ("invalidation", a.bus_stats.invalidation, b.bus_stats.invalidation),
        ("writeback", a.bus_stats.writeback, b.bus_stats.writeback),
        ("update", a.bus_stats.update, b.bus_stats.update),
        ("by_kind", a.bus_stats.by_kind, b.bus_stats.by_kind),
    ] + [
        (name, left, right)
        for (name, left), (_, right) in zip(
            _cache_stats_fields(a.cache_stats),
            _cache_stats_fields(b.cache_stats),
        )
    ]


def _version_mismatch(label: str, ref: SCReference, machine) -> str | None:
    if machine._version_counter != ref.writes:  # noqa: SLF001 - oracle peer
        return (
            f"{label} recorded {machine._version_counter} writes, "  # noqa: SLF001
            f"reference saw {ref.writes}"
        )
    if machine._latest != ref.latest:  # noqa: SLF001 - oracle peer
        stale = {
            block: (machine._latest.get(block), version)  # noqa: SLF001
            for block, version in ref.latest.items()
            if machine._latest.get(block) != version  # noqa: SLF001
        }
        return f"{label} final write versions diverge from reference: {stale}"
    return None


# ----------------------------------------------------------------------
# Per-engine differential replays
# ----------------------------------------------------------------------

def limited_representations(case: FuzzCase) -> tuple:
    """The Dir_iB and Dir_iNB directories ``case`` also replays under,
    with ``i = max(1, num_procs // 2)`` pointers so its sharing
    overflows them."""
    pointers = max(1, case.num_procs // 2)
    return (LimitedPointerDirectory(pointers, broadcast=True),
            LimitedPointerDirectory(pointers, broadcast=False))


def _run_directory(
    case: FuzzCase,
    policy: AdaptivePolicy,
    machine_factory: Callable[..., DirectoryMachine],
    ref: SCReference,
    representation: LimitedPointerDirectory | None = None,
) -> CaseFailure | None:
    # Imported here, like the kernels below, so loading the oracle (the
    # model checker does) does not load the timing layer.
    from repro.timing.sim import TimingSimulator

    name = policy.name
    if representation is not None:
        # The representation keeps no state of its own (that lives in
        # the directory entries), so the machines can share it.
        name = f"{name},{representation.name}"
        machine_factory = partial(machine_factory,
                                  representation=representation)
    label = f"directory[{name}]"
    config = case.machine_config()
    checked = machine_factory(config, policy, check=True)
    try:
        with span("conformance.replay", engine=label, stage="checked"):
            # A checked machine profiles on the generic loop, stepping
            # exactly as run() does.
            checked_profile = TimingSimulator(checked).profile(case.trace)
    except ReproError as exc:
        return CaseFailure("invariants", label, str(exc))
    mismatch = _version_mismatch(label, ref, checked)
    if mismatch is not None:
        return CaseFailure("sc-reference", label, mismatch)
    kernel = machine_factory(config, policy, check=False)
    with span("conformance.replay", engine=label, stage="kernel"):
        kernel.run(case.trace)
    diff = _kernel_diff(checked, kernel, _directory_pairs,
                        _directory_state_pairs)
    if diff is not None:
        return CaseFailure("kernel-diff", f"directory-kernel[{name}]", diff)
    with span("conformance.replay", engine=label, stage="profile"):
        profile = TimingSimulator(
            machine_factory(config, policy, check=False)
        ).profile(case.trace)
    diff = _diff_fields(_profile_pairs(checked_profile, profile))
    if diff is not None:
        return CaseFailure("kernel-diff", f"directory-profile[{name}]", diff)
    if representation is not None:
        return None  # the streaming kernel covers the full map only
    stream = _streamed(machine_factory(config, policy, check=False), case,
                       label)
    if stream is not None:
        diff = _kernel_diff(checked, stream, _directory_pairs,
                            _directory_state_pairs, ("generic", "stream"))
        if diff is not None:
            return CaseFailure("kernel-diff",
                               f"directory-stream[{policy.name}]", diff)
    return None


def _run_snooping(
    case: FuzzCase,
    protocol_factory: Callable[[], SnoopingProtocol],
    machine_factory: Callable[..., BusMachine],
    ref: SCReference,
) -> CaseFailure | None:
    protocol = protocol_factory()
    label = f"bus[{protocol.name}]"
    config = case.machine_config()
    checked = machine_factory(config, protocol, check=True)
    try:
        with span("conformance.replay", engine=label, stage="checked"):
            checked.run(case.trace)
    except ReproError as exc:
        return CaseFailure("invariants", label, str(exc))
    mismatch = _version_mismatch(label, ref, checked)
    if mismatch is not None:
        return CaseFailure("sc-reference", label, mismatch)
    return _snooping_kernel_diff(case, protocol_factory, machine_factory,
                                 checked)


def _snooping_kernel_diff(
    case: FuzzCase,
    protocol_factory: Callable[[], SnoopingProtocol],
    machine_factory: Callable[..., BusMachine],
    baseline: BusMachine | None = None,
) -> CaseFailure | None:
    """Kernel-eligible and streamed replays vs the generic engine,
    counters first, then the final state.

    When ``baseline`` is None (the kernel-only protocols), the generic
    reference replay is produced here under :func:`registry.disabled`.
    """
    protocol = protocol_factory()
    label = f"bus-kernel[{protocol.name}]"
    config = case.machine_config()
    if baseline is None:
        baseline = machine_factory(config, protocol_factory(), check=False)
        with registry.disabled():
            with span("conformance.replay", engine=label, stage="generic"):
                baseline.run(case.trace)
    kernel = machine_factory(config, protocol, check=False)
    with span("conformance.replay", engine=label, stage="kernel"):
        kernel.run(case.trace)
    diff = _kernel_diff(baseline, kernel, _snooping_pairs, _bus_state_pairs)
    if diff is not None:
        return CaseFailure("kernel-diff", label, diff)
    stream = _streamed(machine_factory(config, protocol_factory(),
                                       check=False), case, label)
    if stream is not None:
        diff = _kernel_diff(baseline, stream, _snooping_pairs,
                            _bus_state_pairs, ("generic", "stream"))
        if diff is not None:
            return CaseFailure("kernel-diff",
                               f"bus-stream[{protocol.name}]", diff)
    return None


def run_case(
    case: FuzzCase,
    policies: Sequence[AdaptivePolicy] = DEFAULT_POLICIES,
    snoop_factories: Sequence[Callable[[], SnoopingProtocol]] =
        DEFAULT_SNOOP_FACTORIES,
    directory_machine: Callable[..., DirectoryMachine] = DirectoryMachine,
    bus_machine: Callable[..., BusMachine] = BusMachine,
    family_machines: Sequence = FAMILY_DIRECTORY_MACHINES,
) -> CaseFailure | None:
    """Replay one fuzz case through every engine; None when clean.

    Args:
        case: the fuzzed (trace, geometry) pair.
        policies: directory policies to replay.
        snoop_factories: zero-argument snooping-protocol constructors.
        directory_machine: the directory-machine class — swap in a
            :mod:`repro.conformance.bugs` variant for fault injection.
        bus_machine: the bus-machine class, likewise swappable.
        family_machines: protocol families with their own directory
            machine, audited only while the stock machine is in play
            (an injected machine replaces the stock realization, not
            the families').

    Returns:
        The first :class:`CaseFailure` discovered, or None.
    """
    ref = _replay_reference(case)
    for policy in policies:
        for representation in (None, *limited_representations(case)):
            failure = _run_directory(case, policy, directory_machine, ref,
                                     representation)
            if failure is not None:
                return failure
    if directory_machine is DirectoryMachine:
        for fam in family_machines:
            failure = _run_directory(
                case, fam.policy, fam.machine_class(), ref
            )
            if failure is not None:
                return failure
    for factory in snoop_factories:
        failure = _run_snooping(case, factory, bus_machine, ref)
        if failure is not None:
            return failure
    for factory in KERNEL_ONLY_SNOOP_FACTORIES:
        failure = _snooping_kernel_diff(case, factory, bus_machine)
        if failure is not None:
            return failure
    return None
