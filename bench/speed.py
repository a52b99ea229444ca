"""Host speed sampling, so that the benchmark's times read alike on a noisy host.

The benchmark's host is a shared 2-vCPU virtual machine whose speed switches
between states up to about 2x apart, for a few milliseconds to minutes at a
time, whatever the benchmark does.  Raw times then spread by 20-30% between
runs of the same code.  So each worker process samples the host's speed while
it runs: a timer signal interrupts the program every ``INTERVAL_S`` and times
a fixed pure-Python loop (``reference``), taking the best of ``REPS`` tries.
A sample's slowness is its time over ``NOMINAL_S``, the loop's time on that
host in its fast state.  The slowness of the interpreter's integer and
dispatch work tracks the program's own: regressed on the log times of the
program's operations, the loop's time has slope 0.9-1.0, where loops of
fractions, dictionaries or memory walks have 0.5-0.7.

``SpeedMeter.adjusted(a, b, stolen)`` turns a raw interval into reference
seconds: its raw length, less the time the sampler took inside it, times
the mean of 1 / slowness over it.  On that host in its fast state, reference
seconds equal seconds.  A change that makes the program slower makes its
reference seconds grow in the same proportion.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
REPS = 3
NOMINAL_S = 37e-6  # reference() on the 2-vCPU Xeon host, Python 3.11.7, fast state
SMOOTH = 3  # samples in the running median of the slowness


def reference(n=400):
    """The fixed loop that measures the host's speed."""
    s = 0
    for i in range(n):
        s = (s * 31 + i) & 0xFFFFFFFF
    return s


class SpeedMeter:
    """Samples the host's slowness from a SIGALRM handler in this process."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.stolen = 0.0  # seconds spent in the handler so far
        self._slowness = None

    def _sample(self, signum, frame):
        enter = time.perf_counter()
        best = None
        for _ in range(REPS):
            t0 = time.perf_counter()
            reference()
            dt = time.perf_counter() - t0
            if best is None or dt < best:
                best = dt
        self.times.append(enter)
        self.samples.append(best)
        self.stolen += time.perf_counter() - enter

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        half = SMOOTH // 2
        s = self.samples
        self._slowness = [statistics.median(s[max(0, k - half):k + half + 1]) / NOMINAL_S for k in range(len(s))]

    def mean_slowness(self):
        return statistics.fmean(self._slowness) if self._slowness else 1.0

    def speed(self, a, b):
        """Mean of 1 / slowness over [a, b] (perf_counter times).

        Sample k stands for the time from the midpoint with sample k-1 to
        the midpoint with sample k+1; the first and last samples extend to
        either end.  Without samples the speed is 1.
        """
        t, slow = self.times, self._slowness
        if not slow:
            return 1.0
        k = max(0, bisect.bisect_right(t, a) - 1)
        if k + 1 < len(t) and (t[k] + t[k + 1]) / 2 <= a:
            k += 1
        if b <= a:
            return 1.0 / slow[k]
        total = 0.0
        cur = a
        while cur < b:
            end = (t[k] + t[k + 1]) / 2 if k + 1 < len(t) else b
            end = min(end, b)
            total += (end - cur) / slow[k]
            cur = end
            k += 1
        return total / (b - a)

    def adjusted(self, a, b, stolen=0.0):
        """Reference seconds of the raw interval [a, b] that contains
        ``stolen`` seconds of sampling."""
        return max(0.0, b - a - stolen) * self.speed(a, b)
