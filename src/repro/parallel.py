"""Process-level fan-out for the experiment harness.

The experiment sweeps (:mod:`repro.experiments`) are embarrassingly
parallel: every table cell is a pure function of ``(app, seed, scale,
machine parameters)``.  :func:`parallel_map` fans such cells across a
**persistent, session-scoped** :class:`concurrent.futures.
ProcessPoolExecutor` while preserving the input order, so a parallel run
merges into *exactly* the same result list as a serial one.

Determinism contract
--------------------

``parallel_map(fn, items, jobs=N)`` returns ``[fn(x) for x in items]``
for every ``N``: worker processes only change *where* each cell runs,
never its inputs (traces arrive through the shared-memory arena of
:mod:`repro.trace.shm`, or are re-loaded from the on-disk trace cache,
from the same ``(app, num_procs, seed, scale)`` key).  Experiments
therefore produce byte-identical reports whatever ``--jobs`` says.

The job count resolves in priority order: explicit ``jobs`` argument,
the ``REPRO_JOBS`` environment variable, then 1 (serial).  A count of
**0 means "all CPUs"** (``os.process_cpu_count()``, falling back to the
scheduler affinity mask and ``os.cpu_count()``).  Because output never
depends on the job count, the effective worker count is additionally
clamped to the CPUs actually available — oversubscribing a 2-core CI
runner with ``--jobs 16`` only adds overhead; set
``REPRO_PARALLEL_CLAMP=off`` to force the literal count (the pool
contract tests do).

The executor is created lazily on first parallel use and reused by
every subsequent :func:`parallel_map` in the session — one spawn cost
per run of ``repro-experiments all``, not one per sweep.  The start
method is pinned (``spawn`` by default, override with
``REPRO_MP_START``) so results and worker semantics are reproducible
across platforms.  Cells must be module-level callables with picklable
arguments and results.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable pinning the multiprocessing start method.
START_METHOD_ENV = "REPRO_MP_START"

#: Environment variable disabling the CPU clamp (``off``/``0``/...).
CLAMP_ENV = "REPRO_PARALLEL_CLAMP"

#: The pinned default start method: uniform worker semantics on every
#: platform (fork would hand Linux workers a snapshot of parent state
#: that macOS/Windows workers never see).
DEFAULT_START_METHOD = "spawn"

_OFF_VALUES = {"off", "0", "no", "false", "disable", "disabled"}

#: Target number of chunks handed to each worker; >1 keeps the tail of
#: a sweep balanced, while chunking itself amortises per-item IPC.
_CHUNKS_PER_WORKER = 4


def effective_cpu_count() -> int:
    """CPUs actually available to this process (at least 1)."""
    counter = getattr(os, "process_cpu_count", None)
    if counter is not None:  # pragma: no cover - Python >= 3.13
        count = counter()
        return count if count else 1
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        try:
            return max(1, len(affinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count: argument, then ``REPRO_JOBS``, then 1.

    Args:
        jobs: explicit worker count; ``None`` defers to the environment.
            ``0`` (argument or environment) means **all CPUs**.

    Returns:
        A worker count of at least 1.

    Raises:
        ValueError: if ``REPRO_JOBS`` is set but not an integer.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    jobs = int(jobs)
    if jobs == 0:
        return effective_cpu_count()
    return max(1, jobs)


def _clamp_enabled() -> bool:
    value = os.environ.get(CLAMP_ENV, "").strip().lower()
    return value not in _OFF_VALUES


def effective_workers(jobs: int | None, num_items: int) -> int:
    """Worker processes a ``parallel_map`` over ``num_items`` would use.

    Resolves ``jobs`` (argument / environment / serial default), caps at
    the number of items, and — unless ``REPRO_PARALLEL_CLAMP=off`` —
    at the CPUs actually available.  Experiments consult this before
    paying parallel-only setup costs such as publishing traces to the
    shared-memory arena.
    """
    workers = min(resolve_jobs(jobs), num_items)
    if _clamp_enabled():
        workers = min(workers, effective_cpu_count())
    return max(1, workers)


# ----------------------------------------------------------------------
# The persistent executor
# ----------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0

#: Serialises every swap of the module-level pool reference.  The
#: service layer calls :func:`shutdown_pool` from request handlers
#: while the atexit hook can fire concurrently from the main thread;
#: without the lock both could shut down (or leak) the same executor.
_POOL_LOCK = threading.Lock()


def _start_method() -> str:
    return os.environ.get(START_METHOD_ENV, "").strip() or DEFAULT_START_METHOD


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The session executor, grown to at least ``workers`` processes.

    Created lazily on first use with the pinned start method and reused
    by every later :func:`parallel_map`; asking for more workers than
    the current pool has replaces it (asking for fewer reuses the larger
    pool — output never depends on the worker count).  A new pool has
    all its processes started before it is returned: an executor spawns
    a worker on a submit only while none is idle, so a pool fed one job
    at a time would keep one process and pay the others' interpreter
    start inside its first concurrent burst.
    """
    global _POOL, _POOL_WORKERS
    started = []
    with _POOL_LOCK:
        previous = None
        if _POOL is None or workers > _POOL_WORKERS:
            previous = _POOL
            _POOL = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(_start_method()),
            )
            _POOL_WORKERS = workers
            # One no-op per worker, all submitted before any can answer.
            started = [_POOL.submit(os.getpid) for _ in range(workers)]
        pool = _POOL
    if previous is not None:
        previous.shutdown(wait=False, cancel_futures=True)
    try:
        for future in started:
            future.result()
    except BrokenProcessPool:
        shutdown_pool()  # so the next call starts a clean executor
        raise
    return pool


def shutdown_pool(wait: bool = False) -> None:
    """Shut the session executor down (next use recreates it).

    Idempotent and thread-safe: the pool reference is detached under
    :data:`_POOL_LOCK`, so concurrent callers — e.g. a request handler
    disposing of a broken pool racing the atexit hook at interpreter
    shutdown — agree on a single winner; everyone else sees ``None``
    and returns.  The actual ``Executor.shutdown`` runs outside the
    lock (it can block on worker teardown).

    Args:
        wait: with False (the default, and what the atexit hook gets),
            pending futures are cancelled and the call returns without
            blocking — the right disposal for a broken pool.  With
            True, in-flight jobs run to completion and worker
            processes are reaped before the call returns — the
            graceful path a draining server takes so a replay still
            executing in a worker is finished, not killed, and no
            orphan processes outlive the server.
    """
    global _POOL, _POOL_WORKERS
    with _POOL_LOCK:
        pool = _POOL
        _POOL = None
        _POOL_WORKERS = 0
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=not wait)


atexit.register(shutdown_pool)


def _chunksize(num_items: int, workers: int) -> int:
    return max(1, -(-num_items // (workers * _CHUNKS_PER_WORKER)))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
) -> list[R]:
    """Apply ``fn`` to every item, optionally across worker processes.

    Args:
        fn: a module-level (picklable) callable.
        items: the work list; consumed eagerly.
        jobs: worker processes (see :func:`resolve_jobs`; 0 = all CPUs);
            an effective count of 1 runs the map in-process with no
            executor at all.

    Returns:
        Results in input order — identical to ``[fn(x) for x in items]``.
    """
    work: Sequence[T] = list(items)
    workers = effective_workers(jobs, len(work))
    if workers <= 1 or len(work) <= 1:
        return [fn(item) for item in work]
    pool = get_pool(workers)
    try:
        # ``Executor.map`` yields results in submission order, which is
        # what makes the parallel merge deterministic; chunking batches
        # the per-item pickling round-trips for short cells.
        return list(pool.map(fn, work, chunksize=_chunksize(len(work), workers)))
    except BrokenProcessPool:
        # A worker died hard (signal, OOM).  Dispose of the broken pool
        # so the next parallel_map starts from a clean executor.
        shutdown_pool()
        raise
