"""Write the goldens of the ``sweep`` and ``stream`` workloads.

Usage (from the root of a checkout)::

    python3 perfbench/make_goldens.py SEED [SEED ...]

For each seed and each of ``table2``, ``bus``, ``limited-dir`` and
``prefetch`` at scale 0.1, with every cache off, records the stdout of
``repro-experiments <name> --scale 0.1 --seed SEED --jobs 1`` and the
artifact's rows (every field, so that a change too small to show in the
rendered table still shows), in ``perfbench/goldens/seed-SEED.json``.
It also records the generic engine's statistics for the ``stream``
trace of each seed at ``BENCHMARK.json``'s ``run_seconds``, in
``perfbench/goldens/stream-seed-SEED.json``.  Regenerate the goldens
only when a change is meant to alter a simulated number.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def golden(seed: int) -> dict:
    import sweep

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    artifacts = {}
    for name, run, _ in sweep.artifacts():
        stdout = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", name,
             "--scale", "0.1", "--seed", str(seed), "--jobs", "1"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        artifacts[name] = {"stdout": stdout,
                           "rows": sweep.row_payload(run(0.1, seed, None))}
    return {"scale": 0.1, "seed": seed, "artifacts": artifacts}


def stream_golden(seed: int) -> dict:
    import stream

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    accesses = stream.ACCESSES_PER_SECOND * seconds
    return {"seed": seed, "accesses": accesses,
            "engines": stream.references(seed, stream._trace(seed, accesses))}


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(REPRO_TRACE_CACHE="off", REPRO_RESULT_CACHE="off")
    (HERE / "goldens").mkdir(exist_ok=True)
    for seed in map(int, argv):
        for name, make in (("seed", golden), ("stream-seed", stream_golden)):
            (HERE / "goldens" / f"{name}-{seed}.json").write_text(
                json.dumps(make(seed), indent=1, sort_keys=True) + "\n"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
