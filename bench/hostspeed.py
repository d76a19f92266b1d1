"""Host speed, sampled next to the program, so that timings can be rescaled.

The benchmark host shares its cores with other tenants.  Their load slows a
single-threaded process by up to half again for seconds to minutes at a
time, with neither steal time nor a gap between CPU time and wall time to
show it.  A fixed reference kernel slows down with the program, so each
timing ``t`` measured while the kernel took ``k`` seconds is reported as

    t * REF_KERNEL_S / k,

its length at a fixed host speed.  A slower program still reads slower; a
busier host does not.  ``run.py`` prints the raw times and the host factor
``k / REF_KERNEL_S`` beside the rescaled ones.

During timed passes a SIGALRM timer runs the kernel every SAMPLE_EVERY_S
inside the workload process, between bytecodes of the program, and the
handler's time is subtracted from the invocation it interrupted.  Each
invocation is rescaled by the kernel samples within WINDOW_S of it.

The handler runs the kernel twice and times only the second run.  A first
run straight after the program's own work is 1.2 to 1.5 times slower, by an
amount that depends on what the program was doing; a change in the kind of
work the program does would then also move its samples and be partly
divided out.  The warm second run moved by under 4 % across the kinds of
work tried, and matches ``burst``, which times the set-up.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.04
WINDOW_S = 0.5
#: kernel time that defines the reference host speed; rescaled times read as
#: if the kernel had taken this long (about its time on a quiet 2-core Xeon)
REF_KERNEL_S = 0.7e-3

_RNG = np.random.default_rng(0)
_SMALL = tuple(_RNG.normal(size=(d, d)) + 1j * _RNG.normal(size=(d, d)) for d in (2, 3, 4))
_LARGE = tuple(_RNG.normal(size=(d, d)) + 1j * _RNG.normal(size=(d, d)) for d in (8, 16))


def kernel() -> float:
    """Work of the program's kind: Taylor loops on small complex matrices, and
    on two larger ones with some Python-object traffic.

    Of the kernels tried, this one tracked the slowdown of both the model
    sweeps and the Jordan analysis best; one with LAPACK calls did worse on
    the model sweeps.
    """
    acc = 0.0
    for a in _SMALL * 2:
        term = res = np.eye(a.shape[0], dtype=complex)
        for k in range(1, 13):
            term = term @ a / k
            res = res + term
        acc += np.linalg.norm(res, 1)
    rows = {}
    for a in _LARGE:
        term = res = np.eye(a.shape[0], dtype=complex)
        for k in range(1, 9):
            term = term @ a / k
            res = res + term
            rows[k] = [complex(z) for z in res[0]]
        acc += np.linalg.norm(res, 1)
    return acc + len(rows)


def burst(n: int = 20) -> float:
    """Mean kernel time over ``n`` back-to-back runs."""
    t0 = time.perf_counter()
    for _ in range(n):
        kernel()
    return (time.perf_counter() - t0) / n


class Sampler:
    """Runs the kernel from a timer signal while active.

    Keeps each sample's start, the handler's duration, and the warm kernel time.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.kernels: list[float] = []

    def _sample(self, signum, frame):
        s = time.perf_counter()
        kernel()
        w = time.perf_counter()
        kernel()
        e = time.perf_counter()
        self.starts.append(s)
        self.durations.append(e - s)
        self.kernels.append(e - w)

    def __enter__(self):
        # one sample at each end, so that a phase shorter than the interval has some
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def busy(self, t0: float, t1: float) -> float:
        """Kernel time spent inside [t0, t1)."""
        return sum(self.durations[bisect.bisect_left(self.starts, t0) : bisect.bisect_left(self.starts, t1)])

    def kernel_time(self, t0: float, t1: float) -> float:
        """Mean warm kernel time sampled within WINDOW_S of [t0, t1].

        The mean, not the median: the slow tail of the samples comes from
        spells when the host slowed the program too.  Over 67 passes of 300
        ``analyze`` invocations in one process, the spread of the rescaled
        pass times was 0.051 with the mean and 0.067 with the median
        ((q3 - q1) / median; raw 0.088).
        """
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            raise RuntimeError("no host-speed sample near an invocation")
        return statistics.fmean(self.kernels[lo:hi])
