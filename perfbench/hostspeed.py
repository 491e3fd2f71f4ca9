"""Host speed, sampled with a fixed reference kernel while the ops run.

The benchmark runs on vCPUs of a shared host.  Their speed flips between a
fast and a slow state (about 1.6 times slower) within fractions of a
second, and the share of time spent slow drifts over tens of seconds to
minutes, which moves a run's median op latency by up to a third.  The
process's CPU time follows its wall time, so this is contention inside the
CPU, not descheduling, and no statistic over the ops alone removes it.

A small kernel of the same kind of work as ternstab's (pure-Python loops,
small numpy products, one mid-sized BLAS product), which never calls
ternstab, slows down with the host.  :class:`Sampler` times it from a
``SIGALRM`` handler every ``INTERVAL_S`` of wall time, also in the middle of
an op, and a few times between ops; the time spent in the handler is taken
out of the op's latency.  A tick that falls while other threads run takes
no sample, since the kernel would compete with them for the GIL and the
second vCPU.  An op's speed factor is ``NOMINAL_S`` over the kernel's
trimmed mean time in a window of ``WINDOW_S`` around the op, and its
latency multiplied by it reads as seconds on the reference host at its
nominal speed.  A set-up is scaled the same way, by the samples taken
right after it.

``NOMINAL_S`` is the kernel's mean time on the reference host (2 vCPUs of a
shared Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4 with OpenBLAS on one
thread).  On another machine the scaled figures follow that machine's
speed; comparisons of two commits on one machine stay valid.
"""

from __future__ import annotations

import gc
import signal
import statistics
import threading
from time import perf_counter

import numpy as np

#: mean kernel time on the reference host, in seconds
NOMINAL_S = 0.0135
#: wall time between two ticks of the sampler
INTERVAL_S = 0.25
#: kernel runs per probe between ops
PROBE_RUNS = 3
#: share of samples dropped at each end before the mean
TRIM = 0.05
#: samples this close to an op, before or after it, count for its factor
WINDOW_S = 1.0


class OpTimeout(Exception):
    """An op ran past its workload's time limit."""


_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((6, 6))
_X0 = _RNG.standard_normal(6)
_B0 = _RNG.standard_normal((60, 60))
# work buffers allocated once, so that a run in the middle of an op leaves
# the op's heap as it found it
_X, _Y = np.empty(6), np.empty(6)
_B, _T = np.empty((60, 60)), np.empty((60, 60))
_COUNTS = [0.0] * 97


def kernel() -> float:
    np.copyto(_X, _X0)
    total = 0.0
    for _ in range(1500):
        np.matmul(_A, _X, out=_Y)
        np.divide(_Y, np.linalg.norm(_Y), out=_X)
        total += float(_X[0])
    counts = _COUNTS
    counts[:] = (0.0,) * 97
    for i in range(30000):
        counts[i % 97] += i * 0.5
    np.copyto(_B, _B0)
    for _ in range(20):
        np.matmul(_B, _B.T, out=_T)
        np.multiply(_T, 1 / 60.0, out=_T)
        np.tanh(_T, out=_B)
    return total + counts[0] + float(_B[0, 0])


def timed_kernel() -> float:
    """One kernel run with the garbage collector held off, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the kernel on a wall-clock tick and enforces op deadlines.

    Use as a context manager around the timed loop.  ``in_ops=False``
    keeps the tick for deadlines only and samples between ops alone, for
    the traced run, whose spans must not hold kernel time.
    """

    def __init__(self, in_ops: bool = True):
        self.in_ops = in_ops
        self.samples: list = []  # (time taken, kernel seconds)
        self.paused = 0.0  # wall time spent sampling inside ops
        self._deadline = None
        self._limit = None
        self._busy = False
        self._previous = None

    def __enter__(self):
        timed_kernel()  # warms numpy's lazily loaded parts
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def start_op(self, limit_s: float) -> None:
        self._limit = limit_s
        self._deadline = perf_counter() + limit_s

    def end_op(self) -> None:
        self._deadline = None

    def probe(self) -> None:
        """Sample the kernel ``PROBE_RUNS`` times, between ops."""
        self._busy = True
        try:
            self.samples.extend((perf_counter(), timed_kernel()) for _ in range(PROBE_RUNS))
        finally:
            self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        if self._deadline is not None and perf_counter() > self._deadline:
            self._deadline = None
            raise OpTimeout(f"op exceeded its {self._limit:g} s time limit")
        if not (self.in_ops and self._deadline is not None) or threading.active_count() > 1:
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self.samples.append((perf_counter(), timed_kernel()))
        finally:
            self.paused += perf_counter() - t0
            self._busy = False

    def kernel_s(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Trimmed mean kernel time of the samples within ``WINDOW_S`` of [start, end]."""
        ordered = sorted(k for t, k in self.samples if start - WINDOW_S <= t <= end + WINDOW_S)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Nominal seconds per wall second, around [start, end] or over the run."""
        return NOMINAL_S / self.kernel_s(start, end)
