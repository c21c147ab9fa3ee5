"""CPU time, and CPU time scaled to a reference machine speed.

On a shared virtual machine the CPU time of the same work drifts with what
the other guests do: one composition trial, repeated in one process, took
120 ms of CPU time in one minute and 220 ms a few minutes later, and the
speed also moves from one second to the next.  No change to lamstair moves
that drift, and it is larger than any bound a benchmark could hold.

`SpeedProbe` measures the drift while the ops run.  A timer signal every
`interval` seconds of wall time runs `calibrate`, a fixed piece of work that
does not touch lamstair, and records its CPU time.  `SpeedProbe.scale` turns
the CPU time of an interval into the CPU time it would have taken at the
reference speed, the speed at which `calibrate` takes `REF_S`.
"""

from __future__ import annotations

import bisect
import gc
import resource
import signal
import statistics
import time

import numpy as np

# CPU time of calibrate() at the reference speed: about its median on a
# shared 2-vCPU virtual machine (Python 3.11, numpy 2.4), so scaled times
# read close to the CPU times of that machine
REF_S = 0.0024
INTERVAL_S = 0.05       # wall time between two probe samples

# calibrate()'s operand: a 2x2 matrix, like the ones lamstair works on
_A = np.array([[1.0, 2.0], [0.5, -1.0]])


def cpu_seconds() -> float:
    """User + system CPU time of this process and its waited-for children.

    lamstair is single-threaded and does no waiting I/O, so its CPU time is
    the wall time it takes on an idle machine, without the time the
    hypervisor gives this CPU to other guests (steal)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def calibrate() -> float:
    """CPU seconds of a fixed mix of the work lamstair's time goes to:
    float arithmetic, dict and tuple traffic, and numpy calls on 2x2
    matrices.  About 2.4 ms.  The garbage collector is held off meanwhile,
    so the time does not depend on how many objects the caller holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0 = time.process_time()
        s, d = 0.0, {}
        for i in range(300):
            b = _A * (i & 7)
            s += float(np.sqrt(np.sum(b * b)))
            d[i & 255] = (s, i)
        return time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed from a timer signal while ops run.

    Use it as a context manager around the timed code.  Each sample costs
    about 5 % of the CPU time between two samples; `used_s` adds that cost
    up, so a caller subtracts it from the CPU time it measures around an op.
    Child processes do not inherit the timer."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []   # (perf_counter, seconds)
        self.used_s = 0.0
        self._busy = False
        self._old = None

    def __enter__(self):
        calibrate()     # the first call pays numpy's lazy set-up
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            c0 = cpu_seconds()
            self.samples.append((time.perf_counter(), calibrate()))
            self.used_s += cpu_seconds() - c0
        finally:
            self._busy = False

    def settle(self) -> None:
        """Wait for a sample taken after now, so the last interval timed
        has a sample on its far side."""
        now = time.perf_counter()
        while not (self.samples and self.samples[-1][0] > now):
            time.sleep(self.interval)

    def scale(self, seconds: float, w0: float, w1: float) -> float:
        """`seconds` of CPU time spent between perf_counter() readings w0 and
        w1, scaled to the reference speed by the median of the samples taken
        in [w0, w1] and the nearest sample on either side."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, w0) - 1, 0)
        hi = bisect.bisect_right(times, w1) + 1
        window = [c for _, c in self.samples[lo:hi]]
        return seconds * REF_S / statistics.median(window)
