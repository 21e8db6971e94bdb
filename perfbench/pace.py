"""Machine pace: a fixed probe, timed on a timer while passes run.

The benchmark's host is a shared virtual machine whose speed changes by up
to about 1.6x from one second to the next and drifts over minutes, and
whose processor is sometimes taken away (steal time).  A pass's wall time
therefore measures the host as much as the program.  Two corrections take
the host out:

- operations are timed in process CPU time, which stolen and preempted
  time does not advance;
- a fixed probe of interpreted and small-array numpy work, the same mix
  the program runs, is timed in CPU time every ``PERIOD_S`` from a
  ``SIGALRM`` handler, so that its samples are spread evenly over the
  pass.  The probe's mean CPU time around an operation is its pace.  (A
  ``SIGPROF`` timer would space them in CPU time, but while one is armed
  Linux reads the process CPU clock only to the scheduler tick.)

An operation's CPU time, less the probes', times ``REFERENCE_PROBE_S`` /
pace is its time at the reference pace: the seconds it would take on this
host running at a steady speed with nothing else competing.  The program
is single-threaded (the BLAS thread count is pinned to 1), so that equals
its wall time there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# seconds between samples; each runs the probe twice, so about 2% of a
# pass goes to the probe
PERIOD_S = 0.1
# an operation's pace is the mean probe time from this long before it
# starts to this long after it ends: at least five samples, over a
# stretch shorter than the host's fast and slow spells
WINDOW_S = 0.25
# the probe's CPU time at the reference pace: its median on a quiet
# 2-vCPU "Intel(R) Xeon(R) Processor" host.  A fixed scale, the same on
# every commit, so that reported times read as seconds
REFERENCE_PROBE_S = 1.0e-3

_GRID = np.linspace(0.0, 1.0, 1024)


def probe() -> float:
    """A fixed mix of interpreted loop and small-array numpy work, about 1 ms."""
    total = 0.0
    for i in range(900):
        total += (i * 0.5) % 3.0
    x = _GRID
    for _ in range(120):
        x = np.sqrt(x * x + total) * 0.5
    return float(x[0])


def _warm() -> None:
    for _ in range(20):  # first calls allocate and fill caches
        probe()


def scale_now(count: int = 20) -> float:
    """REFERENCE_PROBE_S over the mean CPU time of ``count`` probes run now."""
    _warm()
    pace = Pace()
    for _ in range(count):
        pace._sample()
    return REFERENCE_PROBE_S / statistics.fmean(pace.samples)


class Pace:
    """Probe samples taken on a timer between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at each probe's start
        self.samples: list[float] = []  # each probe's CPU time
        self.probe_cpu = 0.0  # CPU time spent in probes so far

    def _sample(self, signum=None, frame=None) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        probe()  # not timed: it refills the caches that the program's work evicted
        c1 = time.process_time()
        probe()
        c2 = time.process_time()
        self.times.append(t0)
        self.samples.append(c2 - c1)
        self.probe_cpu += c2 - c0

    def start(self) -> None:
        _warm()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S over the pace from WINDOW_S before ``t0`` to WINDOW_S after ``t1``.

        ``t0`` and ``t1`` are ``time.perf_counter()`` readings.
        """
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:  # no probe ran nearby: the process was not running
            self._sample()
            lo, hi = -1, None
        return REFERENCE_PROBE_S / statistics.fmean(self.samples[lo:hi])
