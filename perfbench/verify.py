"""``verify``: ``repro-verify`` over every registered protocol family.

The timed section runs :func:`repro.verification.checker.sweep` at two
processors by two blocks with evictions, serially (``jobs=1``), exactly
what ``repro-verify --procs 2 --blocks 2 --jobs 1`` runs, ``PASSES``
times over: one sweep (about 10 s here) is too short to average out the
host's speed swings.  Set-up is
what a ``repro-verify`` user waits for before checking starts: a fresh
interpreter imports the verification layer, enumerates the combos and
compiles each one's kernel table digest.  The model is exhaustive, so
the seed has no effect.

Checks, one operation per combo and pass: each sweep covers every
registered snooping protocol and directory policy once, and each combo
is certified with every property ok.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from harness import Workload, kernel_counts

ROOT = Path(__file__).resolve().parent.parent

_COLD_START = ("from repro.verification import model; "
               "model.combo_digests()")

PROCS = 2
BLOCKS = 2
PASSES = 2


class Verify(Workload):
    def __init__(self, options, workdir: Path, traced: bool):
        super().__init__(options, workdir, traced)
        # The smoke test shrinks the model to one block.
        self.blocks = 1 if options.smoke else BLOCKS
        self.results: list = []

    def setup(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-c", _COLD_START], env=env,
                       cwd=ROOT, check=True)

    def run(self) -> None:
        from repro.verification import checker

        self.results = [
            checker.sweep(engine="all", num_procs=PROCS,
                          num_blocks=self.blocks, evictions=True, jobs=1)
            for _ in range(PASSES)
        ]

    def work(self) -> int:
        """Reachable states explored."""
        return self.counts()["states"]

    def check(self) -> tuple[int, int]:
        from repro.verification.model import (
            DIRECTORY_POLICIES,
            SNOOP_PROTOCOLS,
        )

        expected = ({f"bus/{name}" for name in SNOOP_PROTOCOLS}
                    | {f"directory/{name}" for name in DIRECTORY_POLICIES})
        attempted = failed = 0
        for result in self.results:
            certified = {combo.config.label for combo in result.results
                         if combo.ok}
            labels = [combo.config.label for combo in result.results]
            # A combo outside the registry or checked twice fails too.
            extra = len(labels) - len(set(labels) & expected)
            attempted += len(expected) + extra
            failed += len(expected - certified) + extra
        return attempted, failed

    def counts(self) -> dict:
        """Work of the whole timed section (every pass)."""
        totals = [result.certificate()["totals"] for result in self.results]
        return {"passes": len(totals),
                **{key: sum(t[key] for t in totals)
                   for key in ("combos", "states", "transitions",
                               "violations")},
                **kernel_counts()}

