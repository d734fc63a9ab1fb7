"""Host-speed probe: how fast the host runs a fixed piece of Python.

The host this benchmark runs on shares its CPUs.  Its speed swings by
±15% over seconds and drifts by 25% over tens of minutes, alike for the
workload and for any other Python code on the same CPU.  A
:class:`Probe` runs :func:`probe_work` (a fixed loop of dict lookups
and integer arithmetic, about 10 ms) on the benchmark's main thread
every ``INTERVAL_S`` seconds of wall time while a phase runs, and once
more when the phase starts.  :func:`adjusted` then scales a phase's
host time by (``REFERENCE_S`` / the phase's mean probe time) raised to
the phase's elasticity: the time the phase would have taken at the
reference speed.  The elasticity is how strongly the phase's time
follows the probe's; it is 1 unless a workload measured otherwise.

A probe is timed in CPU time of the main thread, so that waiting for
the GIL while ``serve``'s client threads run does not count; on this
host CPU time tracks wall time within 2%.  The probe allocates no
container objects, so it does not advance the garbage collector's
counters; it interrupts the workload at a fixed share of wall time, so
the time it adds is the same share of every phase and cancels out of
any comparison.
"""

from __future__ import annotations

import signal
import statistics
from time import thread_time

#: Wall seconds between two probes.
INTERVAL_S = 0.2

#: Mean probe time at the reference speed: about the median probe time
#: on a 2-CPU Xeon (Sapphire Rapids, KVM) with Python 3.11.7.
REFERENCE_S = 0.0110

_TABLE = {(i * 7919) % 1_000_003: i for i in range(20_000)}
_KEYS = list(_TABLE)


def probe_work() -> int:
    """The fixed work the probe times."""
    table = _TABLE
    total = 0
    for _ in range(4):
        for key in _KEYS:
            total = (total + table[key] * 3) ^ key
    return total


class Probe:
    """Times :func:`probe_work` every ``INTERVAL_S`` inside ``with``.

    The probes run from a ``SIGALRM`` handler, on the main thread
    between two bytecodes of whatever the workload is doing.  A probe
    made with ``enabled=False`` never samples.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self._previous = None

    def sample(self) -> None:
        if not self.enabled:
            return
        started = thread_time()
        probe_work()
        self.samples.append(thread_time() - started)

    def __enter__(self) -> "Probe":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM,
                                           lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> list[float]:
        """The samples since the last ``take``."""
        taken, self.samples = self.samples, []
        return taken


def adjusted(seconds: float, samples: list[float],
             elasticity: float = 1.0) -> float:
    """``seconds`` of host time at the reference speed, given the probe
    samples of the same phase (unchanged if there are none) and how
    strongly the phase's time follows the probe's (``elasticity``)."""
    if not samples:
        return seconds
    return seconds * (REFERENCE_S / statistics.fmean(samples)) ** elasticity
