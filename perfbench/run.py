"""The repository benchmark: one workload, measured and checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {sweep,stream,serve,verify,all}
        --seed N --seconds S --trace {0,1} [--smoke]

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics of ``BENCHMARK.json``.  Their times are adjusted to a reference
host speed by the probe in ``hostspeed.py``; the raw host times print
beside them.  ``--trace 1`` measures it untraced, then again with spans
around the ``repro`` entry points (``tracing.py``), one set-up each and
no probe.  It prints the per-layer metrics of the traced run, the part
of its timed section no span covers (``unattributed_s``) and the
tracing overhead.  The measured run's outputs are checked either way,
and every failed check counts against ``failed``.

``--workload all`` runs the four in turn and prefixes each metric name
in the final line with ``<workload>/``.  ``--seconds`` sizes the
``stream`` and ``serve`` workloads; ``sweep`` and ``verify`` are fixed
passes.  ``--smoke`` shrinks every workload for the benchmark's own
tests.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give
every metric as ``<workload>/<metric> value unit``, the exact work
counts, and the host (CPU count and Python version).  Spans of a traced
run and a copy of each result go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("sweep", "stream", "serve", "verify")

#: Metrics that are ratios or fractions (unit ``1``).
RATIOS = ("kernels.engaged_ratio", "experiments.hit_ratio",
          "trace_overhead_frac", "failed_frac")


def _workload_class(name: str):
    import serve
    import stream
    import sweep
    import verify

    return {"sweep": sweep.Sweep, "stream": stream.Stream,
            "serve": serve.Serve, "verify": verify.Verify}[name]


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric in RATIOS:
        return "1"
    return "count"


def end_to_end(m) -> dict:
    return {
        "setup_s": m.setup_s,
        "wall_s": m.wall_s,
        "work_per_s": m.work / m.wall_s,
        "peak_rss_mb": m.peak_rss_mb,
    }


def _sum(mapping) -> int:
    return sum(mapping.values()) if mapping else 0


def per_layer(traced, untraced) -> dict:
    import tracing

    out = tracing.layer_metrics(traced.spans, traced.window)
    counts = traced.counts
    engaged = _sum(counts.get("engagements"))
    fallbacks = _sum(counts.get("fallbacks"))
    out["kernels.engagements"] = engaged
    out["kernels.fallbacks"] = fallbacks
    out["kernels.engaged_ratio"] = (
        engaged / (engaged + fallbacks) if engaged + fallbacks else 0.0
    )
    cache = counts.get("result_cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    out["experiments.hit_ratio"] = (
        cache.get("hits", 0) / lookups if lookups else 0.0
    )
    server = counts.get("server", {})
    requests = counts.get("requests", {})
    out["service.executions"] = server.get("executions", 0)
    out["service.coalesced"] = server.get("coalesced", 0)
    out["service.shed"] = server.get("shed", 0)
    out["service.hits"] = requests.get("hit", 0)
    out["service.misses"] = requests.get("miss", 0)
    out["verification.combos"] = counts.get("combos", 0)
    out["verification.states"] = counts.get("states", 0)
    check_s = out["verification.check_s"]
    out["verification.states_per_s"] = (
        out["verification.states"] / check_s if check_s else 0.0
    )
    out["work.operations"] = traced.attempted
    out["traced_wall_s"] = traced.wall_s
    out["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    out["trace_overhead_frac"] = out["trace_overhead_s"] / untraced.wall_s
    return out


def run_workload(name: str, args, options) -> dict:
    """Measure (and, with ``--trace 1``, trace) one workload; print its
    report lines and return its result object."""
    import harness
    import tracing

    workload = _workload_class(name)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        harness.reset_process_state(workdir / "results-0")
        if not args.trace:
            run = harness.measure(workload, options, workdir)
            metrics = end_to_end(run)
        else:
            # The untraced pass only gives the overhead baseline: one
            # set-up, no checks.  The traced pass is checked.
            baseline = harness.measure(workload, options, workdir,
                                       setups=1, check=False, probe=False)
            tracer = tracing.Tracer()
            harness.reset_process_state(workdir / "results-1")
            installed = tracing.install(tracer)
            try:
                run = harness.measure(workload, options, workdir, tracer,
                                      setups=1, probe=False)
            finally:
                installed.remove()
            metrics = per_layer(run, baseline)
            tracing.write_spans(run.spans,
                                OUT / f"spans-{name}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = run.attempted, run.failed
    host = {"nproc": os.cpu_count(), "python": platform.python_version()}
    detail = {**run.extra, "failed_frac": failed / attempted}
    if not args.trace:
        detail = {"raw_setup_s": run.raw_setup_s,
                  "raw_wall_s": run.raw_wall_s,
                  "probe_ms": run.probe_ms, **detail}
    print(f"perfbench {name} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(host)}")
    for metric, value in {**metrics, **detail}.items():
        print(f"{name}/{metric} {value:.6g} {unit_of(metric)}")
    print(f"{name}/counts {json.dumps(run.counts)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit_of(metric)}
                    for metric, value in metrics.items()},
    }
    report = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "counts": run.counts,
              "detail": detail, **result}
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload (the benchmark's tests)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_JOBS"] = "1"

    import harness

    options = harness.Options(seed=args.seed, seconds=args.seconds,
                              smoke=args.smoke)
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, options)))
        return 0
    # Every workload in turn; metric names gain a ``<workload>/`` prefix.
    results = {name: run_workload(name, args, options) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
