"""Record the parallel-harness wall-clock numbers.

Times the full sweep — ``repro-experiments all --scale 0.25 --jobs 4``
— three ways and writes the results to ``BENCH_parallel.json``:

* ``before`` — the same command on a pre-optimization source tree
  (``--baseline-src``, e.g. a checkout of the commit before this work),
  against its own empty result cache; skipped (carried forward from the
  existing JSON) when the flag is absent;
* ``after_cold`` — the current tree against an empty result cache: the
  persistent executor, the shared-trace arena, and the *intra-run*
  replay dedup the content-addressed cache provides (table2 after
  table3 shares every infinite-cache conventional replay, the ablations
  share their baselines, and so on);
* ``after_warm`` — the identical command again, same cache: everything
  the cache can serve is served.

Every run shares one pre-warmed trace cache so trace synthesis (paid
identically by every tree) does not flatter the comparison; the result
cache is private to this measurement and never touches the user's.
The host's CPU count is recorded beside the numbers (``--jobs 4`` is
clamped to the available CPUs).

Run from the repository root::

    git clone . /tmp/base && git -C /tmp/base checkout <pre-optimization-commit>
    python benchmarks/record_parallel.py --baseline-src /tmp/base/src
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OUT_PATH = REPO / "BENCH_parallel.json"

COMMAND = ("all", "--scale", "0.25", "--jobs", "4")


def run_sweep(src: Path, env_overrides: dict) -> float:
    """Wall-clock seconds for one ``repro-experiments all`` subprocess."""
    env = os.environ.copy()
    env.update(env_overrides)
    env["PYTHONPATH"] = str(src)
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.experiments.runner", *COMMAND],
        env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=1,
                        help="timed launches per configuration (min wins)")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="src/ of the pre-optimization tree to "
                        "re-measure as the 'before' section")
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    previous = {}
    if args.out.exists():
        previous = json.loads(args.out.read_text())

    with tempfile.TemporaryDirectory(prefix="repro-bench-parallel-") as tmp:
        trace_cache = os.path.join(tmp, "traces")
        result_cache = os.path.join(tmp, "results")
        shared = {"REPRO_TRACE_CACHE": trace_cache}

        # Pre-warm the shared trace cache (untimed) so every timed run
        # loads the same packed traces instead of synthesizing them.
        run_sweep(REPO / "src", {**shared, "REPRO_RESULT_CACHE": "off"})

        before = previous.get("before", {})
        if args.baseline_src is not None:
            # A baseline tree with a result cache of its own must run
            # cold too, never against the user's default cache.
            seconds = float("inf")
            for _ in range(args.rounds):
                subprocess.run(["rm", "-rf", result_cache], check=True)
                env = {**shared, "REPRO_RESULT_CACHE": result_cache}
                seconds = min(seconds, run_sweep(args.baseline_src, env))
            before = {"seconds": round(seconds, 2)}

        cold = float("inf")
        warm = float("inf")
        for _ in range(args.rounds):
            subprocess.run(["rm", "-rf", result_cache], check=True)
            env = {**shared, "REPRO_RESULT_CACHE": result_cache}
            cold = min(cold, run_sweep(REPO / "src", env))
            warm = min(warm, run_sweep(REPO / "src", env))

    record = {
        "benchmark": "repro-experiments " + " ".join(COMMAND),
        "host": {"nproc": os.cpu_count()},
        "method": f"min over {args.rounds} subprocess launch(es) per "
                  "configuration; shared pre-warmed trace cache; "
                  "fresh result cache per cold round",
        "before": before,
        "after_cold": {"seconds": round(cold, 2)},
        "after_warm": {"seconds": round(warm, 2)},
        "warm_fraction_of_cold": round(warm / cold, 3),
    }
    if before:
        record["speedup_cold_vs_before"] = round(
            before["seconds"] / cold, 2)
        record["speedup_warm_vs_before"] = round(
            before["seconds"] / warm, 2)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
