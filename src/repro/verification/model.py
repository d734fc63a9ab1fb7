"""Finite-state models of both engines for bounded model checking.

:mod:`repro.verification.space` explores a single block with plain
read/write actions and no data-value tracking.  This module generalises
that abstraction into a *model* object the checker in
:mod:`repro.verification.checker` can drive:

* **multi-block configs** — 1-2 blocks, 2-3 processors.  Blocks are
  independent under infinite caches, so the product space factorises;
  exploring it anyway validates exactly that (the checker's structural
  tests assert ``|states(2 blocks)| == |states(1 block)|**2``).
* **eviction actions** — silent clean drop / dirty writeback on the bus,
  replacement notification through :meth:`DirectoryMachine._evict` on
  the directory machine, so finite-cache replacement paths are part of
  the transition relation rather than an untested footnote.
* **freshness abstraction** — the machines' ``check=True`` version
  machinery assigns every write a globally unique integer, which would
  make the state space infinite.  The model projects it to two bits per
  block/line: *written* (``latest > 0``) and *fresh* (``line.version ==
  latest``).  The projection commutes with every machine operation:
  ``_bump_version`` mints a counter larger than anything installed (so
  every other copy becomes stale exactly as the bits predict),
  ``_sync_versions`` makes all copies fresh, ``_fill`` installs the
  latest version, and ``_check_read`` raises precisely when the read
  copy is stale.  That turns the machines' own sequential-consistency
  check into a decidable model property (``sc-read-latest``).

The global state is a tuple with one entry per block; entries are
hashable and comparable for equality but deliberately never sorted
(absent lines are ``None``) — determinism everywhere comes from BFS
discovery order, not from ordering states.

Fault injection from :mod:`repro.conformance.bugs` plugs in here too, so
the checker can prove it *finds* the bugs it exists to find: the two
snooping protocol bugs and the directory invalidation-dropping machine
are model-checkable; the stats-only ``kernel-skew`` injection is not and
is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import CacheConfig, MachineConfig
from repro.common.errors import ReproError
from repro.conformance import bugs
from repro.conformance.invariants import (
    directory_copy_violations,
    snooping_copy_violations,
)
from repro.directory.entry import DirState
from repro.directory.policy import AdaptivePolicy
from repro.kernels.tables import dir_table_digest, snoop_table_digest
from repro.protocols import registry as families
from repro.snooping.machine import BusMachine
from repro.snooping.states import SnoopState
from repro.system.machine import CState

#: Coherence granularity used by every model; action addresses are
#: ``block * BLOCK_SIZE``.
BLOCK_SIZE = 16


class VerificationError(ReproError):
    """A model-checking run could not be carried out as requested."""


#: Snooping protocol factories by family name, in certificate order
#: (which is :mod:`repro.protocols.registry` registration order — a new
#: family registered there enters the verify sweep with no edit here).
SNOOP_PROTOCOLS = {
    fam.name: fam.factory for fam in families.bus_families()
}

#: Directory policies by family name, in certificate order.
DIRECTORY_POLICIES: dict[str, AdaptivePolicy] = {
    fam.name: fam.policy for fam in families.directory_families()
}

#: Injections from :mod:`repro.conformance.bugs` the models can check,
#: mapped to the engine they apply to.
MODEL_CHECKABLE_INJECTIONS = {
    "none": ("bus", "directory"),
    "drop-invalidation": ("directory",),
    "snoop-drop-invalidation": ("bus",),
    "snoop-stale-fill": ("bus",),
}

#: The snooping bug classes subclass MesiProtocol, so they are only
#: meaningful swapped in for this registry entry.
_SNOOP_INJECT_BASE = "mesi"


@dataclass(frozen=True, slots=True)
class VerifyConfig:
    """One model-checking problem: an engine/protocol pair plus bounds.

    Frozen, slotted and built from primitives only, so instances pickle
    across the worker pool unchanged.
    """

    engine: str
    protocol: str
    num_procs: int = 2
    num_blocks: int = 1
    evictions: bool = True
    inject: str = "none"

    def __post_init__(self) -> None:
        if self.engine not in ("bus", "directory"):
            raise VerificationError(f"unknown engine {self.engine!r}")
        registry = (
            SNOOP_PROTOCOLS if self.engine == "bus" else DIRECTORY_POLICIES
        )
        if self.protocol not in registry:
            raise VerificationError(
                f"unknown {self.engine} protocol {self.protocol!r}; "
                f"expected one of {sorted(registry)}"
            )
        if not 1 <= self.num_procs <= 8:
            raise VerificationError(
                f"num_procs must be in 1..8: {self.num_procs}"
            )
        if not 1 <= self.num_blocks <= 4:
            raise VerificationError(
                f"num_blocks must be in 1..4: {self.num_blocks}"
            )
        if self.inject not in MODEL_CHECKABLE_INJECTIONS:
            checkable = sorted(MODEL_CHECKABLE_INJECTIONS)
            if self.inject in bugs.INJECTIONS:
                raise VerificationError(
                    f"injection {self.inject!r} is not model-checkable "
                    f"(stats-only); expected one of {checkable}"
                )
            raise VerificationError(
                f"unknown injection {self.inject!r}; "
                f"expected one of {checkable}"
            )
        if self.engine not in MODEL_CHECKABLE_INJECTIONS[self.inject]:
            raise VerificationError(
                f"injection {self.inject!r} does not apply to the "
                f"{self.engine} engine"
            )
        if (
            self.engine == "bus"
            and self.inject != "none"
            and self.protocol != _SNOOP_INJECT_BASE
        ):
            raise VerificationError(
                f"injection {self.inject!r} replaces the MESI protocol; "
                f"run it with protocol={_SNOOP_INJECT_BASE!r}"
            )
        if self.engine == "directory" and self.inject != "none":
            fam = families.family("directory", self.protocol)
            if not fam.injectable:
                raise VerificationError(
                    f"injection {self.inject!r} replaces the stock "
                    f"directory machine; family {self.protocol!r} ships "
                    f"its own machine and is not injectable"
                )

    @property
    def label(self) -> str:
        """Short human-readable combo name, e.g. ``bus/mesi``."""
        suffix = "" if self.inject == "none" else f"+{self.inject}"
        return f"{self.engine}/{self.protocol}{suffix}"

    def table_digest(self) -> str:
        """The kernel transition-table digest of the checked protocol.

        Certificates embed this so a certificate provably describes the
        same tables the replay kernels execute — if a protocol changes,
        both the digest and the certificate change together.  Families
        outside the kernel envelope (no table exists, or the family
        ships its own machine the table would misrepresent) embed the
        registry's behavioral digest instead.
        """
        if self.inject != "none":
            return "injected"
        fam = families.family(self.engine, self.protocol)
        if not fam.kernelable:
            return f"family:{fam.behavior_digest()}"
        if self.engine == "bus":
            return snoop_table_digest(SNOOP_PROTOCOLS[self.protocol]())
        return dir_table_digest(DIRECTORY_POLICIES[self.protocol])


def verify_combos(
    engine: str = "all",
    protocol: str | None = None,
    num_procs: int = 2,
    num_blocks: int = 1,
    evictions: bool = True,
    inject: str = "none",
) -> list[VerifyConfig]:
    """The deterministic sweep order: bus combos, then directory combos.

    With an injection selected, the sweep narrows to the combos the
    injection applies to (the broken variants of the other combos do
    not exist).
    """
    if engine not in ("bus", "directory", "all"):
        raise VerificationError(f"unknown engine {engine!r}")
    combos = []
    for eng, registry in (
        ("bus", SNOOP_PROTOCOLS), ("directory", DIRECTORY_POLICIES),
    ):
        if engine not in (eng, "all"):
            continue
        if inject != "none":
            if eng not in MODEL_CHECKABLE_INJECTIONS.get(inject, ()):
                continue
            if eng == "bus":
                names = [_SNOOP_INJECT_BASE]
            else:
                names = [
                    fam.name for fam in families.directory_families()
                    if fam.injectable
                ]
        else:
            names = list(registry)
        for name in names:
            if protocol is not None and name != protocol:
                continue
            combos.append(VerifyConfig(
                engine=eng, protocol=name, num_procs=num_procs,
                num_blocks=num_blocks, evictions=evictions, inject=inject,
            ))
    if not combos:
        raise VerificationError(
            f"no combos match engine={engine!r} protocol={protocol!r} "
            f"inject={inject!r}"
        )
    return combos


def combo_digests(engine: str = "all",
                  protocol: str | None = None) -> tuple[str, ...]:
    """Per-combo table digests, for result-cache keys."""
    return tuple(
        f"{config.engine}/{config.protocol}/{config.table_digest()}"
        for config in verify_combos(engine, protocol)
    )


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------

def _machine_config(num_procs: int) -> MachineConfig:
    return MachineConfig(
        num_procs=num_procs,
        cache=CacheConfig(size_bytes=None, block_size=BLOCK_SIZE),
    )


class _Model:
    """Shared shape of the two engine models.

    One concrete machine instance (``check=True``) is reused for every
    expansion: ``install`` overwrites its complete coherence state, so a
    partially-mutated machine left behind by a raising action is fully
    repaired before the next action runs.
    """

    #: Sentinel returned by :meth:`apply` when an action is disabled in
    #: the given state (evicting a non-resident block): no transition.
    SKIP = object()

    def __init__(self, config: VerifyConfig):
        self.config = config
        self.num_procs = config.num_procs
        self.num_blocks = config.num_blocks
        ops = ("read", "write", "evict") if config.evictions \
            else ("read", "write")
        self.actions: tuple[tuple[int, str, int], ...] = tuple(
            (proc, op, block)
            for proc in range(config.num_procs)
            for block in range(config.num_blocks)
            for op in ops
        )
        self.machine = self._build_machine()

    def _build_machine(self):
        raise NotImplementedError

    # -- state transfer -------------------------------------------------

    def _reset_versions(self, written_blocks) -> None:
        """Normalise the version machinery to the freshness abstraction.

        Written block ``b`` gets the canonical latest version ``b + 1``;
        fresh copies carry it, stale copies carry ``0``.  The counter
        starts past every canonical version so the next ``_bump`` mints
        a version distinct from all installed ones — exactly the
        behaviour of an organically-reached machine state.
        """
        machine = self.machine
        machine._latest.clear()
        machine._version_counter = self.num_blocks
        for block in written_blocks:
            machine._latest[block] = block + 1

    def _clear_caches(self) -> None:
        for cache in self.machine.caches:
            for block in list(cache.resident_blocks()):
                cache.remove(block)

    def initial_state(self):
        """The cold-start global state (no copies, nothing written)."""
        self.install(self._initial())
        return self.extract()

    def _initial(self):
        raise NotImplementedError

    def install(self, state) -> None:
        raise NotImplementedError

    def extract(self, machine=None):
        """Project a machine onto the model's canonical global state.

        Defaults to the model's own machine; passing an organically
        driven machine of the same geometry projects *its* state, which
        is what the abstraction-drift cross-check tests use.
        """
        raise NotImplementedError

    # -- dynamics -------------------------------------------------------

    def apply(self, action):
        """Run one action on the installed state.

        Returns ``None`` on success (successor available via
        :meth:`extract`), :data:`SKIP` when the action is disabled, and
        lets :class:`ProtocolError` propagate for property violations.
        """
        proc, op, block = action
        if op == "evict":
            return self._evict(proc, block)
        self.machine.access(proc, op == "write", block * BLOCK_SIZE)
        return None

    def _evict(self, proc: int, block: int):
        raise NotImplementedError

    # -- properties -----------------------------------------------------

    def state_violations(self, state) -> list[tuple[str, str]]:
        """``(property, message)`` pairs violated by a global state."""
        raise NotImplementedError

    def _writer_violations(self, block, lines, dirty_index,
                           fresh_index) -> list[tuple[str, str]]:
        out = []
        writers = [
            proc for proc, line in enumerate(lines)
            if line is not None and line[dirty_index]
        ]
        if len(writers) > 1:
            out.append((
                "single-writer",
                f"block {block} has {len(writers)} dirty copies "
                f"(procs {writers})",
            ))
        for proc, line in enumerate(lines):
            if line is not None and line[dirty_index] \
                    and not line[fresh_index]:
                out.append((
                    "dirty-implies-fresh",
                    f"block {block} proc {proc} holds a dirty copy of a "
                    f"stale version",
                ))
        return out

    # -- reporting ------------------------------------------------------

    def line_states_seen(self, states) -> set[str]:
        raise NotImplementedError

    def dir_states_seen(self, states) -> set[str]:
        return set()


class SnoopModel(_Model):
    """Bus/snooping machine model.

    Global state: one ``(written, lines, pstate)`` triple per block,
    where ``lines`` holds per processor either ``None`` or
    ``(state_name, dirty, counter, fresh)`` and ``pstate`` is the
    protocol's own per-block record (:meth:`SnoopingProtocol.block_state`
    — ``None`` for the stateless protocols, the write-run mode tuple for
    the hybrid family).  Folding ``pstate`` into the explored state is
    what makes checking history-sensitive protocols sound: two states
    that differ only in protocol-side history are distinct model states.
    """

    def _build_machine(self) -> BusMachine:
        config = self.config
        if config.inject == "none":
            factory = SNOOP_PROTOCOLS[config.protocol]
        elif config.inject == "snoop-drop-invalidation":
            factory = bugs.ForgetsToInvalidate
        else:  # snoop-stale-fill, enforced by VerifyConfig
            factory = bugs.FillsStaleExclusive
        return BusMachine(
            _machine_config(config.num_procs), factory(), check=True
        )

    def _initial(self):
        return tuple(
            (False, (None,) * self.num_procs, None)
            for _ in range(self.num_blocks)
        )

    def install(self, state) -> None:
        machine = self.machine
        self._clear_caches()
        self._reset_versions(
            block for block, (written, _, _) in enumerate(state) if written
        )
        for block, (written, lines, pstate) in enumerate(state):
            latest = machine._latest.get(block, 0)
            for cache, line in zip(machine.caches, lines):
                if line is None:
                    continue
                name, dirty, counter, fresh = line
                cache.insert(block, SnoopState[name], dirty)
                installed = cache.lookup(block)
                installed.counter = counter
                installed.version = latest if fresh else 0
            machine.protocol.set_block_state(block, pstate)

    def extract(self, machine: BusMachine | None = None):
        machine = machine or self.machine
        state = []
        for block in range(self.num_blocks):
            latest = machine._latest.get(block, 0)
            lines = []
            for cache in machine.caches:
                line = cache.lookup(block)
                if line is None:
                    lines.append(None)
                else:
                    lines.append((
                        line.state.name, line.dirty, line.counter,
                        line.version == latest,
                    ))
            state.append((
                latest > 0, tuple(lines),
                machine.protocol.block_state(block),
            ))
        return tuple(state)

    def _evict(self, proc: int, block: int):
        # Bus replacement is silent: drop the line (clean or dirty —
        # memory is implicitly written back) without telling anyone.
        if self.machine.caches[proc].remove(block) is None:
            return self.SKIP
        return None

    def state_violations(self, state) -> list[tuple[str, str]]:
        out = []
        for block, (written, lines, _pstate) in enumerate(state):
            present = [
                (SnoopState[line[0]], line[1])
                for line in lines if line is not None
            ]
            out.extend(
                ("copy-invariants", problem)
                for problem in snooping_copy_violations(present, block)
            )
            out.extend(
                self._writer_violations(block, lines, 1, 3)
            )
            if not written:
                for proc, line in enumerate(lines):
                    if line is not None and not line[3]:
                        out.append((
                            "dirty-implies-fresh",
                            f"block {block} proc {proc} holds a stale "
                            f"copy of a never-written block",
                        ))
        return out

    def line_states_seen(self, states) -> set[str]:
        return {
            line[0]
            for state in states
            for _written, lines, _pstate in state
            for line in lines
            if line is not None
        }


class DirectoryModel(_Model):
    """Directory machine model.

    Global state: one ``(dir_state_name, last_invalidator, streak,
    copyset, written, lines, extra)`` tuple per block, where ``copyset``
    is a sorted node tuple, ``lines`` holds per node either ``None`` or
    ``(state_name, dirty, fresh)``, and ``extra`` is the machine's own
    per-block record (:meth:`DirectoryMachine.block_extra` — ``None``
    for the stock machine, the write-run mode tuple for the hybrid
    family's machine).
    """

    def _build_machine(self):
        config = self.config
        if config.inject == "drop-invalidation":
            machine_cls = bugs.DropsInvalidationsDirectory
        else:
            machine_cls = families.family(
                "directory", config.protocol
            ).machine_class()
        return machine_cls(
            _machine_config(config.num_procs), self.policy, check=True
        )

    @property
    def policy(self) -> AdaptivePolicy:
        return DIRECTORY_POLICIES[self.config.protocol]

    def _initial(self):
        initial_dir = (
            DirState.UNCACHED_MIG if self.policy.initial_migratory
            else DirState.UNCACHED
        )
        return tuple(
            (initial_dir.name, None, 0, (), False,
             (None,) * self.num_procs, None)
            for _ in range(self.num_blocks)
        )

    def install(self, state) -> None:
        machine = self.machine
        # A fresh protocol instance per install: entries carry no state
        # beyond what the global tuple encodes, and the transition
        # counters never leak between explored states.  The machine's
        # own protocol class is preserved (family machines install a
        # subclass whose extra bookkeeping must survive the swap).
        machine.protocol = type(machine.protocol)(self.policy)
        self._clear_caches()
        self._reset_versions(
            block for block, entry in enumerate(state) if entry[4]
        )
        for block, entry in enumerate(state):
            dir_state, last_inv, streak, copyset, _written, lines, extra \
                = entry
            ent = machine.protocol.entry(block)
            ent.state = DirState[dir_state]
            ent.last_invalidator = last_inv
            ent.streak = streak
            ent.copyset = set(copyset)
            latest = machine._latest.get(block, 0)
            for cache, line in zip(machine.caches, lines):
                if line is None:
                    continue
                name, dirty, fresh = line
                cache.insert(block, CState[name], dirty)
                cache.lookup(block).version = latest if fresh else 0
            machine.set_block_extra(block, extra)

    def extract(self, machine=None):
        machine = machine or self.machine
        state = []
        for block in range(self.num_blocks):
            ent = machine.protocol.entry(block)
            latest = machine._latest.get(block, 0)
            lines = []
            for cache in machine.caches:
                line = cache.lookup(block)
                if line is None:
                    lines.append(None)
                else:
                    lines.append((
                        line.state.name, line.dirty,
                        line.version == latest,
                    ))
            state.append((
                ent.state.name, ent.last_invalidator, ent.streak,
                tuple(sorted(ent.copyset)), latest > 0, tuple(lines),
                machine.block_extra(block),
            ))
        return tuple(state)

    def _evict(self, proc: int, block: int):
        line = self.machine.caches[proc].remove(block)
        if line is None:
            return self.SKIP
        self.machine._evict(proc, line)  # noqa: SLF001 - model hook
        return None

    def state_violations(self, state) -> list[tuple[str, str]]:
        out = []
        for block, entry in enumerate(state):
            _dir, _inv, _streak, copyset, _written, lines, _extra = entry
            per_node = {
                node: (line[0], line[1])
                for node, line in enumerate(lines) if line is not None
            }
            out.extend(
                ("copy-invariants", problem)
                for problem in directory_copy_violations(
                    set(copyset), per_node, block
                )
            )
            out.extend(self._writer_violations(block, lines, 1, 2))
        return out

    def line_states_seen(self, states) -> set[str]:
        return {
            line[0]
            for state in states
            for entry in state
            for line in entry[5]
            if line is not None
        }

    def dir_states_seen(self, states) -> set[str]:
        return {entry[0] for state in states for entry in state}


def build_model(config: VerifyConfig) -> _Model:
    """Instantiate the model for a verify config."""
    if config.engine == "bus":
        return SnoopModel(config)
    return DirectoryModel(config)
