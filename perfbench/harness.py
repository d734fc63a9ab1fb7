"""What the four workloads share: sizes, process state, measurement.

A workload is a :class:`Workload` (see ``sweep.py``, ``stream.py``,
``serve.py`` and ``verify.py``) driven by :func:`measure`::

    w = Workload(options, workdir, traced)
    w.setup()            # repeatable; each call starts set-up afresh
    w.reset_peak_rss()   # start the peak RSS of the working process anew
    w.run()              # the timed section
    w.peak_rss_mb()      # peak RSS of that process during the section
    w.close()            # stops what the workload started; idempotent
    w.check()            # -> (attempted, failed) output checks, untimed
    w.work()             # the unit of work_per_s, done in the timed section
    w.counts()           # exact work counts (dict)
    w.extra()            # workload-only figures for the report lines
    w.spans(tracer)      # the traced spans (the server's, for serve)

An operation is the unit ``check`` counts: one artifact (sweep), one
engine replay (stream), one request (serve), one family combo (verify).
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed

#: Set-up runs this many times per measurement; its median is reported.
SETUP_REPEATS = 5

#: Trace scale of the sweep and serve workloads, and under ``--smoke``.
SCALE = 0.1
SMOKE_SCALE = 0.02


@dataclass
class Options:
    """Workload parameters taken from the command line."""

    seed: int
    seconds: int
    smoke: bool = False

    @property
    def scale(self) -> float:
        """Trace scale of the sweep and serve workloads."""
        return SMOKE_SCALE if self.smoke else SCALE


@dataclass
class Measurement:
    """One set-up + timed section + check of one workload."""

    setup_s: float
    wall_s: float
    raw_setup_s: float
    raw_wall_s: float
    probe_ms: float
    work: int
    peak_rss_mb: float
    attempted: int
    failed: int
    counts: dict
    extra: dict
    window: tuple[float, float]
    spans: list


class Workload:
    """Defaults for a workload that runs in the benchmark's process."""

    #: How strongly the timed section's host time follows the host-speed
    #: probe's: ``wall_s`` is adjusted by the probe ratio to this power.
    ELASTICITY = 1.0

    def __init__(self, options: Options, workdir: Path, traced: bool):
        self.options = options

    def reset_peak_rss(self) -> None:
        reset_peak_rss()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    def extra(self) -> dict:
        return {}

    def spans(self, tracer) -> list:
        return tracer.spans if tracer is not None else []


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process, in MB (10^6 bytes)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset a process's ``VmHWM`` to its current RSS, so the next
    :func:`peak_rss_mb` covers only what runs after this call."""
    with open(f"/proc/{pid}/clear_refs", "w") as clear_refs:
        clear_refs.write("5")


def reset_process_state(result_dir: Path) -> None:
    """Make the next measurement in this process start cold.

    Drops the harness's trace and placement memos, every compiled
    kernel table (its rows, DFA and walk caches), the result cache's
    memory tier and counters, and points the result cache at an empty
    directory.
    """
    from repro.experiments import common, resultcache
    from repro.kernels import registry, tables

    common.clear_caches()
    registry.clear()
    # The compiled rows are memoised apart from the registry's tables.
    tables._DIR_ROWS_CACHE.clear()
    tables._SNOOP_ROWS_CACHE.clear()
    resultcache.clear_memory()
    resultcache.reset_counts()
    result_dir.mkdir(parents=True)
    os.environ["REPRO_RESULT_CACHE"] = str(result_dir)


def measure(workload_cls, options: Options, workdir: Path, tracer=None,
            setups: int = SETUP_REPEATS, check: bool = True,
            probe: bool = True) -> Measurement:
    """Set up ``setups`` times, run the timed section once, then check
    the outputs (unless ``check`` is false: ``attempted`` is then 0).

    With ``probe``, the host-speed probe (``hostspeed.py``) runs through
    the set-ups and the timed section, and ``setup_s`` and ``wall_s``
    are adjusted to the reference host speed; otherwise they are the
    raw host times.
    """
    workload = workload_cls(options, workdir, traced=tracer is not None)
    speed = hostspeed.Probe(enabled=probe)
    try:
        with speed:
            times = []
            for _ in range(setups):
                speed.sample()
                started = perf_counter()
                workload.setup()
                times.append(perf_counter() - started)
            setup_probes = speed.take()
            workload.reset_peak_rss()
            speed.sample()
            started = perf_counter()
            workload.run()
            ended = perf_counter()
            run_probes = speed.take()
        rss = workload.peak_rss_mb()
        workload.close()
        attempted, failed = workload.check() if check else (0, 0)
        raw_setup_s = statistics.median(times)
        raw_wall_s = ended - started
        return Measurement(
            setup_s=hostspeed.adjusted(raw_setup_s, setup_probes),
            wall_s=hostspeed.adjusted(raw_wall_s, run_probes,
                                      workload.ELASTICITY),
            raw_setup_s=raw_setup_s,
            raw_wall_s=raw_wall_s,
            probe_ms=statistics.fmean(run_probes or [0.0]) * 1000,
            work=workload.work(),
            peak_rss_mb=rss,
            attempted=attempted,
            failed=failed,
            counts=workload.counts(),
            extra=workload.extra(),
            window=(started, ended),
            spans=workload.spans(tracer),
        )
    finally:
        workload.close()


def kernel_counts() -> dict:
    """Kernel engagements and fallbacks, by engine and reason."""
    from repro.kernels import registry

    return {
        "engagements": dict(sorted(registry.engagements.items())),
        "fallbacks": {f"{engine}/{reason}": count for (engine, reason), count
                      in sorted(registry.fallbacks.items())},
    }
