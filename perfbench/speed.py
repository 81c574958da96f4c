"""Speed probe: how fast the core a sample runs on is going, while it runs.

On a shared host the speed a process gets changes by tens of percent
within seconds and drifts over minutes (other tenants on the same
physical cores), far more than the run-to-run noise of a median over a
run's samples.  Timing a reference work between samples does not follow
changes that fast, and another core's speed does not follow this one's.
So a sample starts a :class:`Probe`: every :data:`PERIOD_S` of wall time a
signal handler times a fixed piece of work, on the same core and in the
same stretch of time as the program under test.  A sample's wall time,
minus the time spent in the probe, times ``REFERENCE_S / mean probe
time`` is its wall time at the reference speed.

The probe work is a C-level sum over a repeated small integer: no
allocation and a tiny code footprint.  It runs twice and only the second,
cache-warm run is timed, so what the program left in the caches does not
change the probe time.  Python runs the handler between bytecodes, so
during a long call into C the pending probes collapse into one.
"""

from __future__ import annotations

import itertools
import signal
import time

__all__ = ["PERIOD_S", "REFERENCE_S", "Probe", "at_reference_speed"]

PERIOD_S = 0.005
_N = 3000
# Time of one timed probe run at the reference speed: a round figure near
# the fast end of what a 2-core Intel Xeon VM gives (Python 3.11).
REFERENCE_S = 20e-6


class Probe:
    """Times the probe work on ``SIGALRM`` every :data:`PERIOD_S`."""

    def __init__(self):
        self.times = []  # timed (second) runs
        self.spent_s = 0.0  # all time inside the probe work

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        sum(itertools.repeat(1, _N))  # warms the caches
        t1 = time.perf_counter()
        sum(itertools.repeat(1, _N))
        t2 = time.perf_counter()
        self.times.append(t2 - t1)
        self.spent_s += t2 - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def split(self) -> dict:
        """Probe figures since the last split: count, mean timed run and
        time spent in the probe work."""
        times, spent = self.times, self.spent_s
        self.times, self.spent_s = [], 0.0
        return {"n": len(times), "mean_s": sum(times) / len(times) if times else None, "spent_s": spent}


def at_reference_speed(wall_s: float, probe: dict) -> float:
    """``wall_s`` minus the probe's own time, at the reference speed."""
    return (wall_s - probe["spent_s"]) * REFERENCE_S / probe["mean_s"]
