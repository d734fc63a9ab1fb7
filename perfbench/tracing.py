"""Spans around the public entry points of the ``repro`` layers.

The traced run installs wrappers from this file; nothing under ``src/``
knows about them.  A span records its name, start, end, the span that
was open when it started (its parent) and a request id, and is kept in
memory until the benchmark writes the list out at the end of the run.

The current span lives in a :class:`contextvars.ContextVar`, so nesting
is right for plain calls, for threads (each starts with its own
context) and for asyncio tasks (each runs in a copy of its creator's
context).  :class:`ContextLoopPolicy` makes ``loop.run_in_executor``
carry the caller's context into the worker thread, so a replay the
server executes on a thread is a child of the request that asked for it.

A layer's self time is its spans' time minus the part of each span that
its child spans cover.  :func:`layer_metrics` turns the spans of one
timed section into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: ``(span index, request id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(-1, 0)
)


class Tracer:
    """An in-memory span log.

    ``spans[i]`` is ``[name, start, end, parent, request_id, items]``;
    a span still open has ``end`` None, and ``items`` is the number of
    accesses the call was handed (0 where that does not apply).  Times
    are :func:`time.perf_counter` seconds, which on Linux read the
    system-wide monotonic clock, so spans from the server process line
    up with the client's timestamps.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._next_request = 0

    def _open(self, name: str, new_request: bool,
              items: int = 0) -> tuple[int, object]:
        parent, request = _CURRENT.get()
        if new_request:
            self._next_request += 1
            request = self._next_request
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, request,
                           items])
        return index, _CURRENT.set((index, request))

    def _close(self, index: int, token) -> None:
        self.spans[index][2] = perf_counter()
        _CURRENT.reset(token)

    def wrap(self, name: str, fn, new_request: bool = False,
             counted: bool = False):
        """``fn`` with every call recorded as a span named ``name``.

        Coroutine functions get an async wrapper and generator functions
        one span per produced item (the work happens in ``next``).  With
        ``counted``, the span's ``items`` is the length of the call's
        second argument (the trace handed to a machine or a replay).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = self._open(name, new_request)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(index, token)
            return traced_async

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    index, token = self._open(name, new_request)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(index, token)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = 0
            if counted:
                try:
                    items = len(args[1])
                except TypeError:
                    pass
            index, token = self._open(name, new_request, items)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, token)
        return traced

    def dump(self, path) -> None:
        """Write the span log as JSON lines."""
        write_spans(self.spans, path)


def write_spans(spans, path) -> None:
    """Write a span log as JSON lines, one span a line."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


class _ContextLoop(asyncio.SelectorEventLoop):
    def run_in_executor(self, executor, func, *args):
        return super().run_in_executor(
            executor, contextvars.copy_context().run, func, *args
        )


class ContextLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """Event loops whose executor calls run in the caller's context."""

    _loop_factory = _ContextLoop


# ----------------------------------------------------------------------
# The wrapped entry points
# ----------------------------------------------------------------------

#: ``(span name, module, attribute path)``.  Module-level functions are
#: also replaced wherever another ``repro`` module imported them by name
#: (``make_cache`` in the machines, ``cost`` in the experiments).
ENTRY_POINTS = (
    ("cache.make", "repro.cache.core", "make_cache"),
    ("system.construct", "repro.system.machine", "DirectoryMachine.__init__"),
    ("system.run", "repro.system.machine", "DirectoryMachine.run"),
    ("snooping.construct", "repro.snooping.machine", "BusMachine.__init__"),
    ("snooping.run", "repro.snooping.machine", "BusMachine.run"),
    ("kernels.replay", "repro.kernels.directory", "try_replay"),
    ("kernels.replay", "repro.kernels.snooping", "try_replay"),
    ("kernels.compile", "repro.kernels.registry", "dir_table"),
    ("kernels.compile", "repro.kernels.registry", "bus_table"),
    ("kernels.compile.rows", "repro.kernels.tables", "DirRows.__init__"),
    ("kernels.compile.rows", "repro.kernels.tables", "SnoopRows.__init__"),
    ("kernels.stream_feed", "repro.kernels.streaming",
     "DirectoryStreamReplay.feed"),
    ("kernels.stream_feed", "repro.kernels.streaming", "BusStreamReplay.feed"),
    ("kernels.stream_finish", "repro.kernels.streaming",
     "DirectoryStreamReplay.finish"),
    ("kernels.stream_finish", "repro.kernels.streaming",
     "BusStreamReplay.finish"),
    ("trace.sequence", "repro.trace.packed", "PackedTrace.block_sequences"),
    ("trace.sequence", "repro.trace.packed",
     "PackedTrace.block_sequences_wide"),
    ("trace.sequence", "repro.trace.packed", "PackedTrace.set_streams"),
    ("trace.sequence", "repro.trace.packed", "PackedTrace.segments"),
    ("trace.load", "repro.trace.diskcache", "load_or_build"),
    ("timing.profile", "repro.timing.sim", "TimingSimulator.profile"),
    ("timing.cost", "repro.timing.sim", "cost"),
    ("experiments.memoize", "repro.experiments.resultcache", "memoize"),
    ("experiments.fetch", "repro.experiments.resultcache", "fetch"),
    ("experiments.store", "repro.experiments.resultcache", "store"),
    ("service.parse", "repro.service.protocol", "ReplaySpec.from_payload"),
    ("service.parse", "repro.service.protocol", "CompareRequest.from_payload"),
    ("service.parse", "repro.service.protocol",
     "ExperimentRequest.from_payload"),
    ("service.parse", "repro.service.protocol", "VerifyRequest.from_payload"),
    ("service.parse", "repro.service.protocol", "parse_replay_request"),
    ("service.trace", "repro.experiments.common", "get_trace"),
    ("service.execute", "repro.service.worker", "run_replay"),
    ("service.respond", "repro.service.protocol", "replay_response"),
    ("service.respond", "repro.service.protocol", "compare_response"),
    ("service.respond", "repro.service.protocol", "experiment_response"),
    ("service.respond", "repro.service.protocol", "verify_response"),
    ("service.request", "repro.service.server",
     "CoherenceService._serve_query"),
    ("verification.check", "repro.verification.checker", "check_config"),
)

#: Spans whose ``items`` count the accesses replayed.
COUNTED = ("system.run", "snooping.run", "kernels.stream_feed")

#: Modules imported before patching, so that every module holding a
#: by-name import of a wrapped function is loaded when it is replaced.
_PRELOAD = (
    "repro.experiments.runner", "repro.service.server",
    "repro.kernels.streaming", "repro.verification.checker",
    "repro.timing.prefetch",
)


class Installation:
    """The wrappers of one :func:`install` call; :meth:`remove` undoes."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in :data:`ENTRY_POINTS` with spans."""
    for name in _PRELOAD:
        importlib.import_module(name)
    done = Installation()
    for span, module_name, path in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span, raw.__func__))
            else:
                wrapped = tracer.wrap(
                    span, raw, new_request=(span == "service.request"),
                    counted=span in COUNTED,
                )
            done._set(cls, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = tracer.wrap(span, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    done._set(loaded, key, wrapped)
    return done


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children cover."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0 and end is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, *_) in enumerate(spans):
        if end is None:
            out.append(0.0)
            continue
        covered = _union_length(
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        )
        out.append((end - start) - covered)
    return out


#: Per-layer time metrics: metric name -> the span names it sums.
TIME_METRICS = {
    "cache.make_s": ("cache.make",),
    "system.construct_s": ("system.construct",),
    "snooping.construct_s": ("snooping.construct",),
    "kernels.replay_s": ("kernels.replay",),
    "kernels.compile_s": ("kernels.compile", "kernels.compile.rows"),
    "kernels.stream_feed_s": ("kernels.stream_feed",),
    "kernels.stream_finish_s": ("kernels.stream_finish",),
    "system.run_s": ("system.run",),
    "snooping.run_s": ("snooping.run",),
    "trace.sequence_s": ("trace.sequence",),
    "trace.load_s": ("trace.load",),
    "timing.profile_s": ("timing.profile",),
    "timing.cost_s": ("timing.cost",),
    "experiments.memoize_s": ("experiments.memoize",),
    "experiments.fetch_s": ("experiments.fetch",),
    "experiments.store_s": ("experiments.store",),
    "service.parse_s": ("service.parse",),
    "service.trace_s": ("service.trace",),
    "service.execute_s": ("service.execute",),
    "service.respond_s": ("service.respond",),
    "service.self_s": ("service.request",),
    "verification.check_s": ("verification.check",),
}

#: Per-layer call counts: metric name -> the span name it counts.
COUNT_METRICS = {
    "system.constructs": "system.construct",
    "snooping.constructs": "snooping.construct",
    "system.runs": "system.run",
    "snooping.runs": "snooping.run",
    "kernels.replays": "kernels.replay",
    "kernels.compiles": "kernels.compile.rows",
    "trace.loads": "trace.load",
    "timing.profiles": "timing.profile",
}


def layer_metrics(spans, window: tuple[float, float]) -> dict[str, float]:
    """Self times and counts of the spans that start inside ``window``.

    Also returns ``unattributed_s``: the part of the window no span
    covers (the workload's own code, and code between entry points).
    """
    lo, hi = window
    selves = self_times(spans)
    by_name: Counter = Counter()
    calls: Counter = Counter()
    covered = []
    accesses = 0
    for (name, start, end, parent, _, items), own in zip(spans, selves):
        if end is None or not lo <= start <= hi:
            continue
        by_name[name] += own
        calls[name] += 1
        covered.append((start, min(end, hi)))
        # A fallback replays through a nested machine.run: count the
        # accesses once, at the outermost counted span.
        if items and not _inside_counted(spans, parent):
            accesses += items
    out = {metric: sum(by_name[name] for name in names)
           for metric, names in TIME_METRICS.items()}
    out.update({metric: calls[name]
                for metric, name in COUNT_METRICS.items()})
    out["work.accesses"] = accesses
    out["unattributed_s"] = max(0.0, (hi - lo) - _union_length(covered))
    return out


def _inside_counted(spans, index: int) -> bool:
    while index >= 0:
        if spans[index][0] in COUNTED:
            return True
        index = spans[index][3]
    return False
