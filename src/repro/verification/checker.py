"""Bounded model checking with counterexample paths and certificates.

The checker drives a :mod:`repro.verification.model` model breadth-first
to closure and checks four properties:

* ``copy-invariants`` — the shared structural invariants from
  :mod:`repro.conformance.invariants` (exclusive copies are alone, the
  directory copy set matches the true holder set, ...), both as a check
  over every reachable state and via the machines' own ``check=True``
  per-step assertions.
* ``single-writer`` — at most one dirty copy of a block anywhere.
* ``sc-read-latest`` — every read returns the latest write: the
  machines' versioned stale-read detector, made decidable by the
  freshness abstraction.
* ``dirty-implies-fresh`` — a dirty copy always holds the latest
  version (a stale dirty copy would write back lost data).

**Counterexample paths.**  Every discovered state records its BFS
predecessor and the action that produced it, so a violated property
yields a *minimal* action trace from the cold-start state (BFS finds
shortest paths, so counterexamples arrive pre-shrunk).  Paths without
eviction actions convert into ordinary access traces and are written as
:mod:`repro.conformance.artifacts` reproducers — the differential
oracle, the shrinker, and the regression corpus consume them with no
new machinery.

**Memoised steps.**  An action ``(proc, op, block)`` reads and writes
entry ``block`` of the global state only, so the checker runs each
distinct ``(action, state[block])`` step once on the ``check=True``
machine (``install``, ``apply``, ``extract``) and remembers the new
entry, the disabled action or the ``ProtocolError`` text on the model.
Every later state with the same entry in that block builds its
successor by swapping the remembered entry in.  Each real step checks
the premise: a successor that changed any other block's entry raises
:class:`VerificationError`.  Per-state properties are per block too and
are memoised by ``(block, entry)``.  BFS order, parents, transition
counts, counterexample paths and certificates are those of running
every step for real; the memo only removes repeated work, which is
what made multi-block configs cost the square of a single block.

**Parallel exploration.**  Each BFS level's frontier is sharded into
contiguous chunks and expanded on the persistent session pool via
:func:`repro.parallel.parallel_map`, which returns results in
submission order; the merged expansion order is therefore identical to
a serial run's for *any* job count, so certificates are byte-identical
whatever ``--jobs`` says.  Each worker keeps one model per config
across BFS levels, so its step memo stays warm.

**Certificates.**  A sweep produces a JSON-serialisable certificate
recording the config, each combo's kernel table digest (from
:mod:`repro.kernels.tables` — the certificate provably describes the
same transition tables the replay kernels execute), reachable-state and
transition counts, and per-property verdicts with recorded
counterexamples.  Certificates contain no timestamps or timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.common.errors import ProtocolError
from repro.common.types import read, write
from repro.common.version import package_version
from repro.conformance.artifacts import save_reproducer
from repro.conformance.fuzzer import FuzzCase
from repro.conformance.oracle import CaseFailure
from repro.parallel import effective_workers, parallel_map
from repro.trace.core import Trace
from repro.verification.model import (
    BLOCK_SIZE,
    VerificationError,
    VerifyConfig,
    build_model,
    verify_combos,
)

#: The checked properties, in certificate order.
PROPERTIES = (
    "copy-invariants", "single-writer", "sc-read-latest",
    "dirty-implies-fresh",
)

#: Safety ceiling on the reachable set; exceeded means the abstraction
#: leaked an unbounded component, which is itself a finding.
MAX_STATES = 500_000

#: Counterexamples recorded per combo (all violations are *counted*).
MAX_RECORDED_VIOLATIONS = 20

#: Certificate schema version.
CERTIFICATE_SCHEMA = 1

#: ``kind`` marker identifying certificate payloads.
CERTIFICATE_KIND = "repro-verify-certificate"


@dataclass(frozen=True, slots=True)
class Violation:
    """One property violation with its minimal action path."""

    property: str
    message: str
    #: Actions ``(proc, op, block)`` from the cold-start state to the
    #: violation; the last action is the violating one for action-level
    #: properties.
    path: tuple[tuple[int, str, int], ...]

    @property
    def trace_expressible(self) -> bool:
        """Whether the path maps onto an ordinary access trace."""
        return all(op != "evict" for _proc, op, _block in self.path)

    def to_payload(self) -> dict:
        return {
            "property": self.property,
            "message": self.message,
            "path": [list(action) for action in self.path],
            "trace_expressible": self.trace_expressible,
        }


@dataclass(frozen=True, slots=True)
class ComboResult:
    """The verdict for one engine/protocol combo."""

    config: VerifyConfig
    table_digest: str
    num_states: int
    num_transitions: int
    line_states: tuple[str, ...]
    dir_states: tuple[str, ...]
    property_counts: dict[str, int]
    violations: tuple[Violation, ...]
    #: The reachable global-state set itself — for structural theorems
    #: and abstraction cross-checks; not part of the certificate.
    reachable: frozenset = frozenset()

    @property
    def ok(self) -> bool:
        return not any(self.property_counts.values())

    def to_payload(self) -> dict:
        return {
            "engine": self.config.engine,
            "protocol": self.config.protocol,
            "label": self.config.label,
            "inject": self.config.inject,
            "table_digest": self.table_digest,
            "states": self.num_states,
            "transitions": self.num_transitions,
            "line_states": list(self.line_states),
            "dir_states": list(self.dir_states),
            "properties": {
                name: {
                    "verdict": "ok" if count == 0 else "violated",
                    "violations": count,
                }
                for name, count in self.property_counts.items()
            },
            "violations": [v.to_payload() for v in self.violations],
            "ok": self.ok,
        }

    def counterexample(self) -> tuple[FuzzCase, CaseFailure] | None:
        """The first recorded violation as an oracle-replayable case.

        Returns ``None`` when the combo is clean or no recorded path is
        trace-expressible (contains an eviction action, which ordinary
        traces cannot trigger on infinite caches).
        """
        for violation in self.violations:
            if not violation.trace_expressible or not violation.path:
                continue
            case = counterexample_case(self.config, violation)
            failure = CaseFailure(
                stage=violation.property,
                engine=self.config.label,
                detail=violation.message,
            )
            return case, failure
        return None


def counterexample_case(config: VerifyConfig,
                        violation: Violation) -> FuzzCase:
    """Convert a trace-expressible violation path into a fuzz case.

    The case replays the exact action sequence on the concrete machine
    geometry the model abstracts (infinite caches, 16-byte blocks), so
    the differential oracle reproduces the violation for real.
    """
    if not violation.trace_expressible:
        raise VerificationError(
            "counterexample path contains eviction actions and has no "
            "trace form"
        )
    accesses = [
        write(proc, block * BLOCK_SIZE) if op == "write"
        else read(proc, block * BLOCK_SIZE)
        for proc, op, block in violation.path
    ]
    profile = f"verify-{config.engine}-{config.protocol}"
    if config.inject != "none":
        profile += f"-{config.inject}"
    return FuzzCase(
        seed=0,
        profile=profile,
        num_procs=config.num_procs,
        block_size=BLOCK_SIZE,
        cache_size=None,
        associativity=4,
        replacement="lru",
        trace=Trace(accesses, name=profile),
    )


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------

def _step(model, state, action):
    """Run one action for real and keep only what it did to its block.

    Installs the full ``state`` on the model's ``check=True`` machine,
    applies ``action`` and extracts the successor.  Returns
    ``model.SKIP`` for a disabled action,
    ``(None, message)`` when the machine's own check raised, and
    ``(entry, None)`` with the acting block's new entry otherwise.
    Raises :class:`VerificationError` if the successor differs from
    ``state`` in any other block: the memo in :func:`_expand_states`
    rests on actions touching their own block only.
    """
    model.install(state)
    try:
        if model.apply(action) is model.SKIP:
            return model.SKIP
    except ProtocolError as exc:
        # The machine's own check tripped mid-action; the machine is
        # left partially mutated, but the next install overwrites its
        # complete state.
        return None, str(exc)
    successor = model.extract()
    block = action[2]
    if (successor[:block] != state[:block]
            or successor[block + 1:] != state[block + 1:]):
        raise VerificationError(
            f"{model.config.label}: action {action} changed another "
            f"block's entry; blocks are not independent, so per-block "
            f"steps cannot be memoised"
        )
    return successor[block], None


def _expand_states(model, states):
    """Expand each state under every action; order is deterministic.

    Returns one list per state of ``(action, successor, error)`` where
    exactly one of ``successor``/``error`` is set; disabled actions
    (evicting a non-resident block) contribute nothing.  Steps are
    memoised on the model by ``(action, state[block])``: a miss runs
    :func:`_step`, a hit swaps the remembered entry into ``state``.
    """
    memo = model.step_memo
    skip = model.SKIP
    out = []
    for state in states:
        per_state = []
        for action in model.actions:
            block = action[2]
            key = (action, state[block])
            step = memo.get(key)
            if step is None:
                step = memo[key] = _step(model, state, action)
            if step is skip:
                continue
            entry, error = step
            if error is None:
                per_state.append((
                    action, state[:block] + (entry,) + state[block + 1:],
                    None,
                ))
            else:
                per_state.append((action, None, error))
        out.append(per_state)
    return out


@lru_cache(maxsize=1)
def _worker_model(config):
    """The worker's model for ``config``, kept across BFS levels so its
    step memo stays warm; a sweep checks one config at a time.  Every
    memo entry is a function of the config alone, so one that outlives
    a check is still sound."""
    return build_model(config)


def _expand_chunk(task):
    """Worker body: expand one frontier shard (picklable in and out)."""
    config, states = task
    return _expand_states(_worker_model(config), states)


def _expand_frontier(model, frontier, jobs):
    """Expand a whole BFS level, sharded across the session pool.

    Shards are contiguous and results merge in shard order, so the
    concatenation equals the serial expansion order for any worker
    count — the determinism the byte-identical-certificate contract
    rests on.
    """
    workers = effective_workers(jobs, len(frontier))
    if workers <= 1:
        return _expand_states(model, frontier)
    size = -(-len(frontier) // workers)
    shards = [
        frontier[i:i + size] for i in range(0, len(frontier), size)
    ]
    results = parallel_map(
        _expand_chunk, [(model.config, shard) for shard in shards],
        jobs=jobs,
    )
    return [per_state for shard in results for per_state in shard]


def _path_to(parents, state):
    """Reconstruct the action path from the initial state via BFS links."""
    path = []
    while True:
        link = parents[state]
        if link is None:
            return tuple(reversed(path))
        state, action = link
        path.append(action)


def check_config(config: VerifyConfig, jobs: int | None = None,
                 max_states: int = MAX_STATES) -> ComboResult:
    """Model-check one combo to closure.  The pytest-facing entry point.

    Args:
        config: the engine/protocol pair and bounds to explore.
        jobs: worker processes per BFS level (``None``: serial or
            ``REPRO_JOBS``; ``0``: all CPUs).  The result is identical
            for any value.
        max_states: safety ceiling on the reachable set.
    """
    return _check(build_model(config), jobs, max_states)


def check_model(model, max_states: int = MAX_STATES) -> ComboResult:
    """Model-check a hand-built model (e.g. of an unregistered policy
    variant) to closure.  Serial: worker shards rebuild their model from
    the config through the registry, which the result's ``config`` and
    ``table_digest`` also name."""
    return _check(model, 1, max_states)


def _check(model, jobs: int | None, max_states: int) -> ComboResult:
    config = model.config
    initial = model.initial_state()
    parents = {initial: None}
    property_counts = {name: 0 for name in PROPERTIES}
    recorded: list[Violation] = []
    transitions = 0

    def record(prop: str, message: str, state, action=None) -> None:
        property_counts[prop] += 1
        if len(recorded) < MAX_RECORDED_VIOLATIONS:
            path = _path_to(parents, state)
            if action is not None:
                path += (action,)
            recorded.append(Violation(prop, message, path))

    for prop, message in model.state_violations(initial):
        record(prop, message, initial)
    frontier = [initial]
    while frontier:
        expansions = _expand_frontier(model, frontier, jobs)
        next_frontier = []
        for state, per_state in zip(frontier, expansions):
            for action, successor, error in per_state:
                if error is not None:
                    prop = (
                        "sc-read-latest" if "stale read" in error
                        else "copy-invariants"
                    )
                    record(prop, error, state, action)
                    continue
                transitions += 1
                if successor in parents:
                    continue
                parents[successor] = (state, action)
                if len(parents) > max_states:
                    raise VerificationError(
                        f"{config.label}: reachable set exceeds "
                        f"{max_states} states; the abstraction leaked "
                        f"an unbounded component"
                    )
                for prop, message in model.state_violations(successor):
                    record(prop, message, successor)
                next_frontier.append(successor)
        frontier = next_frontier

    states = parents.keys()
    return ComboResult(
        config=config,
        table_digest=config.table_digest(),
        num_states=len(parents),
        num_transitions=transitions,
        line_states=tuple(sorted(model.line_states_seen(states))),
        dir_states=tuple(sorted(model.dir_states_seen(states))),
        property_counts=property_counts,
        violations=tuple(recorded),
        reachable=frozenset(states),
    )


# ----------------------------------------------------------------------
# Sweeps and certificates
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SweepResult:
    """All combo results for one sweep, plus certificate rendering."""

    num_procs: int
    num_blocks: int
    evictions: bool
    inject: str
    results: tuple[ComboResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def certificate(self) -> dict:
        """The machine-checked certificate as a JSON-serialisable dict.

        Deliberately free of timestamps, timings, host names and job
        counts: two runs of the same sweep on the same checkout render
        byte-identical certificates.
        """
        total_violations = sum(
            count
            for result in self.results
            for count in result.property_counts.values()
        )
        return {
            "schema_version": CERTIFICATE_SCHEMA,
            "kind": CERTIFICATE_KIND,
            "package_version": package_version(),
            "config": {
                "num_procs": self.num_procs,
                "num_blocks": self.num_blocks,
                "evictions": self.evictions,
                "inject": self.inject,
                "block_size": BLOCK_SIZE,
            },
            "combos": [result.to_payload() for result in self.results],
            "totals": {
                "combos": len(self.results),
                "states": sum(r.num_states for r in self.results),
                "transitions": sum(
                    r.num_transitions for r in self.results
                ),
                "violations": total_violations,
            },
            "ok": self.ok,
        }

    def write_reproducers(self, root) -> list:
        """Write one conformance reproducer per violated combo.

        Each violated combo contributes its first trace-expressible
        counterexample as a ``repro.conformance.artifacts`` reproducer
        under ``root``; returns the written paths.
        """
        paths = []
        for result in self.results:
            example = result.counterexample()
            if example is None:
                continue
            case, failure = example
            paths.append(save_reproducer(
                root, case, failure,
                notes=(
                    f"model-checking counterexample for "
                    f"{result.config.label}: shortest path, "
                    f"{len(case.trace)} actions"
                ),
            ))
        return paths


def sweep(
    engine: str = "all",
    protocol: str | None = None,
    num_procs: int = 2,
    num_blocks: int = 1,
    evictions: bool = True,
    inject: str = "none",
    jobs: int | None = None,
    max_states: int = MAX_STATES,
) -> SweepResult:
    """Model-check a family of combos and collect their verdicts.

    The default sweep covers every shipped snooping protocol and
    directory policy; ``engine``/``protocol`` narrow it, ``inject``
    swaps in a deliberately broken variant (self-test).
    """
    combos = verify_combos(
        engine, protocol, num_procs, num_blocks, evictions, inject
    )
    results = tuple(
        check_config(config, jobs=jobs, max_states=max_states)
        for config in combos
    )
    return SweepResult(
        num_procs=num_procs,
        num_blocks=num_blocks,
        evictions=evictions,
        inject=inject,
        results=results,
    )
