"""``stream``: streamed replay of one large generated trace per engine.

Set-up generates a trace from the seed with the columnar generator in
``streamgen.py``.  The timed section replays it once on each engine
through :func:`repro.kernels.streaming.replay_stream` in 65,536-access
chunks: on a fresh ``DirectoryMachine`` under the ``basic`` policy and
on a fresh ``BusMachine`` under the ``adaptive`` protocol, both with
infinite caches.  Each engine's walk caches are its own, so neither
replay runs warm.  That is almost all DFA walk and per-block
continuation state, with almost no machine construction.

Checks, one operation per engine replay: every access is counted by the
machine's cache statistics, and the statistics equal those of the
generic per-access engine replaying the same trace.  For the seeds that
ship one (``goldens/stream-seed-N.json``, written by ``make_goldens.py``)
the generic engine's statistics are read from the golden; for any other
seed or size the two reference replays run after the timed section, one
in the benchmark's process and one in a child process that regenerates
the trace from the seed; the check waits for the child to end.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import streamgen
from harness import Workload, kernel_counts

#: Accesses per second of ``--seconds``; 15 s gives 1.05M.
ACCESSES_PER_SECOND = 70_000

#: Distinct blocks per access of the trace.
BLOCKS_PER_ACCESS = 0.1

CHUNK = 65_536

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"


def _machines():
    """``(label, factory)`` of the two engines, each a fresh machine."""
    from repro.common.config import CacheConfig, MachineConfig
    from repro.directory.policy import BASIC
    from repro.protocols import registry as families
    from repro.snooping.machine import BusMachine
    from repro.system.machine import DirectoryMachine

    config = MachineConfig(
        num_procs=16, cache=CacheConfig(size_bytes=None, block_size=16)
    )
    return (
        ("directory/basic", lambda: DirectoryMachine(config, BASIC)),
        ("bus/adaptive",
         lambda: BusMachine(config, families.bus_protocol("adaptive"))),
    )


def _stats(machine):
    stats = getattr(machine, "bus_stats", None) or machine.stats
    return stats, machine.cache_stats


def _trace(seed: int, accesses: int):
    return streamgen.generate(seed, accesses,
                              int(accesses * BLOCKS_PER_ACCESS))


def payload(stats, cache_stats) -> dict:
    """One replay's statistics, as JSON would round-trip them."""
    from repro.common.stats import BusStats
    from repro.experiments import resultcache

    encode = (resultcache.encode_bus_stats if isinstance(stats, BusStats)
              else resultcache.encode_message_stats)
    return json.loads(json.dumps({
        "stats": encode(stats),
        "cache_stats": dataclasses.asdict(cache_stats),
    }))


def reference(trace, index: int) -> dict:
    """Engine ``index``'s statistics from the generic per-access loop."""
    machine = _machines()[index][1]()
    # An iterator has no ``pack``: the generic per-access loop.
    machine.run(iter(trace))
    return payload(*_stats(machine))


def golden_references(seed: int, accesses: int) -> list | None:
    """The shipped generic-engine statistics, per engine, if any."""
    path = GOLDENS / f"stream-seed-{seed}.json"
    if not path.exists():
        return None
    golden = json.loads(path.read_text())
    return golden["engines"] if golden["accesses"] == accesses else None


def references(seed: int, trace) -> list:
    """Both engines' generic statistics on ``trace`` (generated from
    ``seed``): the bus engine's replays in a child process while this
    one replays the directory engine's."""
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    child = subprocess.Popen(
        [sys.executable, __file__, str(seed), str(len(trace)), "1"],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        directory = reference(trace, 0)
        out, _ = child.communicate()
    finally:
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode:
        raise RuntimeError(f"reference replay exited {child.returncode}")
    return [directory, json.loads(out)]


class Stream(Workload):
    def __init__(self, options, workdir: Path, traced: bool):
        super().__init__(options, workdir, traced)
        self.accesses = ACCESSES_PER_SECOND * options.seconds
        self.trace = None
        self.results: list = []

    def setup(self) -> None:
        self.trace = None  # never hold two traces at once
        self.trace = _trace(self.options.seed, self.accesses)

    def run(self) -> None:
        from repro.kernels.streaming import replay_stream

        for _, make in _machines():
            machine = make()
            replay_stream(machine, self.trace, CHUNK)
            self.results.append(_stats(machine))

    def work(self) -> int:
        return len(self.trace) * len(self.results)

    def check(self) -> tuple[int, int]:
        engines = len(_machines())
        expected = (golden_references(self.options.seed, self.accesses)
                    or references(self.options.seed, self.trace))
        failed = engines - len(self.results)
        for (stats, cache_stats), want in zip(self.results, expected):
            failed += not (cache_stats.accesses == len(self.trace)
                           and payload(stats, cache_stats) == want)
        return engines, failed

    def counts(self) -> dict:
        return {"replays": len(self.results),
                "accesses": self.work(), **kernel_counts()}


if __name__ == "__main__":
    # ``stream.py SEED ACCESSES INDEX``: one engine's reference statistics.
    seed, accesses, index = map(int, sys.argv[1:])
    print(json.dumps(reference(_trace(seed, accesses), index)))
