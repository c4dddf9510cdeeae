"""Reference kernel that calibrates timings to the machine's speed of the moment.

On a shared host the speed of a core drifts by up to 3x over periods of
seconds (other tenants' load), so raw times of the same code differ from run
to run by far more than a regression worth catching.  The benchmark reports
times in *reference seconds*: a region's time multiplied by REFERENCE_S / r,
where r is the time of a fixed reference kernel measured while the region
ran.  `Clock` runs the kernel once right before and once right after the
region and, from a timer signal, once every PERIOD_S inside it; the
kernel's own time inside the region is taken out again.  Every sample is a
single run taken right after mcfflow's own work, so a region's scale does
not depend on how many samples fall inside it.  A change to mcfflow does
not touch the kernel, so two commits are compared at the same reference
speed.  Raw times are kept in the run record as well.
"""

import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 9e-4          # one kernel run's typical time on a 2-core x86 host
PERIOD_S = 0.05             # sampling period inside a timed region
_LOOPS = 80
_VALUES = np.linspace(0.5, 1.5, 64)


def _kernel():
    """Interpreter work and small-array numpy calls, like mcfflow's own mix."""
    acc = 0.0
    table = {}
    for i in range(_LOOPS):
        acc += float(np.roll(_VALUES, i & 7)[3]) + math.sqrt(i + 1.0)
        table[i & 31] = acc
    return sum(table.values())


def reference_time():
    """Time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(raw, samples):
    """`raw` seconds in reference seconds, at the speed of the kernel `samples`."""
    return raw * statistics.fmean(REFERENCE_S / r for r in samples)


class Clock:
    """Times regions in reference seconds; one region at a time."""

    def _tick(self, _signum, _frame):
        took = reference_time()
        self._samples.append(took)
        self._cost += took

    def start(self):
        self._samples = [reference_time()]
        self._cost = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()

    def stop(self):
        """(reference seconds, raw seconds) of the region since start()."""
        raw = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples.append(reference_time())
        return scaled(raw - self._cost, self._samples), raw
