"""Timing against the machine's current speed.

On a shared 2-core machine the speed of a single Python thread drifts by up
to 1.6x over seconds, as neighbours load the other hyperthread.  Raw wall
time then spreads 17-30 % from one run to the next, which hides every
change a benchmark should see.  So during a timed pass a SIGALRM interval
timer interrupts the program every ``PERIOD`` seconds and runs a short,
fixed calibration loop; its duration tracks the current speed.  A job's
time is then reported in *reference seconds*: the measured time, less the
time spent in the calibration handler, scaled by ``REF_CALIB_S`` over the
calibration time measured during (or, for a short job, nearest to) the job.
The handler runs the loop twice and times the second run, so the sample
does not depend on what the interrupted code left in the caches.
On an idle machine a reference second is close to a wall-clock second.
The raw wall times are kept in the run record.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

PERIOD = 0.05
# duration of calibrate() inside the handler on a quiet core of the 2-core
# machine the benchmark was defined on; it only fixes the unit, so that a
# reference second is about a wall-clock second there
REF_CALIB_S = 0.00075
NEAREST = 9  # a job with fewer samples inside it uses this many nearest samples


def calibrate() -> int:
    """Fixed work in the program's own mix: small ints, tuples, a dict."""
    d = {}
    s = 0
    for i in range(3000):
        t = (i, i * 3, i ^ 7)
        d[t] = s
        s += t[1] - t[2]
    return s


class Speedometer:
    """Samples calibration times while installed; a context manager."""

    def __init__(self):
        self.at: list = []  # handler start times
        self.calib: list = []  # calibration seconds
        self.cost_prefix: list = [0.0]  # running total of handler seconds

    def _handler(self, signum, frame):
        t0 = perf_counter()
        calibrate()  # refills the caches the interrupted code left behind
        t1 = perf_counter()
        calibrate()
        t2 = perf_counter()
        self.at.append(t0)
        self.calib.append(t2 - t1)
        self.cost_prefix.append(self.cost_prefix[-1] + perf_counter() - t0)

    def __enter__(self):
        self._handler(None, None)  # bracket: even a short stretch has samples
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._handler(None, None)
        return False

    def reference_seconds(self, start: float, end: float) -> float:
        """Work done in [start, end], in reference seconds."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        busy = end - start - (self.cost_prefix[hi] - self.cost_prefix[lo])
        if hi - lo < NEAREST:
            # widen to the nearest samples on either side
            while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
                before = start - self.at[lo - 1] if lo > 0 else float("inf")
                after = self.at[hi] - end if hi < len(self.at) else float("inf")
                if before <= after:
                    lo -= 1
                else:
                    hi += 1
        samples = self.calib[lo:hi]
        inv = sum(1.0 / c for c in samples) / len(samples)
        return busy * REF_CALIB_S * inv


def factor_now(n: int = 5) -> float:
    """Reference seconds per wall-clock second right now, from n warm
    calibrations; brackets the set-up probes, which run in a child process."""
    inv = 0.0
    for _ in range(n):
        calibrate()
        t0 = perf_counter()
        calibrate()
        inv += 1.0 / (perf_counter() - t0)
    return REF_CALIB_S * inv / n
