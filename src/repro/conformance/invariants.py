"""The coherence safety invariants, in one place.

Both machine models enforce the same structural safety properties — at
most one writable copy, at most one dirty copy, a directory copy set
that matches reality, the adaptive snooping protocol's ``S2``
at-most-two-copies guarantee — but until this module existed the checks
were written out once inside each machine's ``check=True`` path and
again per engine in the model checker
(:mod:`repro.verification.model`).  Everything now funnels through the
two pure functions below, with thin adapters for live machines.

Two call shapes are provided:

* *State-level* — :func:`directory_copy_violations` and
  :func:`snooping_copy_violations` operate on plain data (copyset plus
  per-node line summaries) and return a list of human-readable problem
  strings.  The model checker and any external tool can use these
  against extracted global states.
* *Machine-level* — :func:`directory_machine_violations` /
  :func:`snooping_machine_violations` extract that data from a live
  machine, and :func:`check_directory_block` /
  :func:`check_snooping_block` raise
  :class:`repro.common.errors.ProtocolError` on the first violation.
  The machines' own checkers and the conformance oracle's step hooks
  are built from these.

The read-latest-write (version) check is *not* here: it needs the
write-version history that only an end-to-end replay accumulates, so it
stays with the machines' ``check=True`` machinery and the oracle's
sequential-consistency reference model.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.common.errors import ProtocolError
from repro.snooping.states import SnoopState

#: Line-state name identifying an exclusive (writable) directory copy.
EXCLUSIVE_STATE = "EXCL"


# ----------------------------------------------------------------------
# State-level checks (pure functions over extracted line summaries)
# ----------------------------------------------------------------------

def directory_copy_violations(
    copyset: Iterable[int],
    lines: Mapping[int, tuple[str, bool]],
    block: int = 0,
    exact_copyset: bool = True,
) -> list[str]:
    """Check one block's directory-machine invariants.

    Args:
        copyset: the nodes the directory believes hold a copy.
        lines: per-node line summary ``{node: (state_name, dirty)}`` for
            every node actually holding the block; ``state_name`` is the
            :class:`repro.system.machine.CState` member name.
        block: block number, used only in the problem messages.
        exact_copyset: require ``copyset`` to equal the true holder set.
            This only holds when replacement notifications are enabled;
            with silent clean drops the directory's set is a superset.

    Returns:
        A list of problem descriptions; empty when every invariant holds.
    """
    problems = []
    holders = set(lines)
    if exact_copyset and set(copyset) != holders:
        problems.append(
            f"copyset {sorted(copyset)} != holders {sorted(holders)} "
            f"for block {block}"
        )
    dirty_holders = sorted(node for node, (_, dirty) in lines.items() if dirty)
    if len(dirty_holders) > 1:
        problems.append(
            f"multiple dirty holders for block {block}: {dirty_holders}"
        )
    excl_holders = sorted(
        node for node, (state, _) in lines.items() if state == EXCLUSIVE_STATE
    )
    if len(excl_holders) > 1:
        problems.append(
            f"multiple exclusive holders for block {block}: {excl_holders}"
        )
    if excl_holders and len(holders) > 1:
        problems.append(
            f"exclusive copy coexists with other copies for block {block}"
        )
    return problems


def snooping_copy_violations(
    lines: Sequence[tuple[SnoopState, bool]],
    block: int = 0,
) -> list[str]:
    """Check one block's snooping-machine invariants.

    Args:
        lines: ``(state, dirty)`` for every cache holding the block.
        block: block number, used only in the problem messages.

    Returns:
        A list of problem descriptions; empty when every invariant holds.
    """
    problems = []
    exclusive = [state for state, _ in lines if state.is_exclusive]
    if exclusive and len(lines) > 1:
        problems.append(
            f"exclusive copy coexists with {len(lines) - 1} others "
            f"for block {block}"
        )
    dirty = sum(1 for _, is_dirty in lines if is_dirty)
    if dirty > 1:
        problems.append(f"multiple dirty copies of block {block}")
    s2 = sum(1 for state, _ in lines if state is SnoopState.S2)
    if s2 > 1:
        problems.append(f"multiple S2 copies of block {block}")
    if s2 and len(lines) > 2:
        problems.append(
            f"S2 copy of block {block} coexists with {len(lines)} copies"
        )
    return problems


# ----------------------------------------------------------------------
# Machine-level adapters
# ----------------------------------------------------------------------

def directory_machine_violations(machine, block: int) -> list[str]:
    """Invariant violations for ``block`` on a live DirectoryMachine.

    Works on any machine regardless of its ``check`` flag — this is the
    step-level hook the conformance oracle attaches to production
    configurations.
    """
    ent = machine.protocol.peek(block)
    copyset = ent.copyset if ent is not None else set()
    lines = {}
    for node, cache in enumerate(machine.caches):
        line = cache.lookup(block)
        if line is not None:
            lines[node] = (line.state.name, line.dirty)
    return directory_copy_violations(
        copyset, lines, block,
        exact_copyset=machine.config.eviction_notification,
    )


def snooping_machine_violations(machine, block: int) -> list[str]:
    """Invariant violations for ``block`` on a live BusMachine."""
    lines = []
    for cache in machine.caches:
        line = cache.lookup(block)
        if line is not None:
            lines.append((line.state, line.dirty))
    return snooping_copy_violations(lines, block)


def check_directory_block(machine, block: int) -> None:
    """Raise :class:`ProtocolError` if ``block`` violates any invariant."""
    problems = directory_machine_violations(machine, block)
    if problems:
        raise ProtocolError("; ".join(problems))


def check_snooping_block(machine, block: int) -> None:
    """Raise :class:`ProtocolError` if ``block`` violates any invariant."""
    problems = snooping_machine_violations(machine, block)
    if problems:
        raise ProtocolError("; ".join(problems))
