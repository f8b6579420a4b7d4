"""
The reference meter: a fixed kernel, independent of ssmkit, timed every
few milliseconds while the pipeline runs, to measure how fast the
machine runs at each moment.

On a virtual machine whose host is shared, identical work switches
between a fast and a slow state (about 1.5x apart) several times a
second, and can spend minutes mostly in one of them. No clock of the
process sees it: CPU time slows with wall time. But interpreted Python,
small numpy calls and dense LAPACK slow down together (correlation 0.9
over 0.1 s windows, timed back to back). So the meter interrupts the
pipeline every INTERVAL_S (SIGALRM: the handler runs between two
bytecodes of the main thread, so on the pipeline's own core) and times
the kernel; a tick due during a long call into C runs when it returns.
A stage sample's wall time less the ticks inside it, divided by the
mean kernel time around it and multiplied by REF_S, reads in seconds at
the speed at which the kernel takes REF_S.

The kernel mixes interpreted Python, small numpy calls and a small
dense SVD. Each tick runs it twice and times only the second pass: the
first brings it back into the caches the pipeline has taken. It imports
nothing from ssmkit, so that a change to the program never changes the
reference. On 2 vCPUs of a shared Intel Xeon host, over ten seeds per
workload, stage times spread 0.04-0.41 raw and 0.01-0.07 scaled
(interquartile range over median; README.md). Stages that are mostly
dense LAPACK slow down less than the kernel and are over-corrected.
"""

import bisect
import signal
import time

import numpy as np

# about the median timed pass during a run on the machine above, one
# OpenBLAS thread (numpy 2.4.6, scipy-openblas 0.3.31), so that scaled
# times read close to wall times there
REF_S = 0.0006
INTERVAL_S = 0.02  # a tick (two passes) every 20 ms: 6 % of the time
PAD_S = 0.05       # a sample's speed: kernels within 50 ms of it ...
MIN_TICKS = 4      # ... but at least this many, the nearest ones

_A = np.random.default_rng(0).standard_normal((40, 40))


def _kernel():
    acc = {}
    for j in range(700):
        key = j % 89
        acc[key] = acc.get(key, 0.0) + j * 0.5
    v = np.zeros(8)
    for _ in range(60):
        v = v * 0.5 + np.sin(v) + 1.0
    s = np.linalg.svd(_A, compute_uv=False)
    return acc[0] + v[0] + s[0]


class Meter:
    """Times the kernel every INTERVAL_S between start() and stop()."""

    def __init__(self):
        self.starts = []  # perf_counter() as each tick starts
        self.busy = []    # each tick's wall time
        self.times = []   # the time of each tick's second, timed pass
        self._previous = None

    def _tick(self, signum, frame):
        # the first pass brings the kernel back into the caches that
        # the pipeline has taken; only the second is timed
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.busy.append(t2 - t0)
        self.times.append(t2 - t1)

    def start(self):
        self._tick(None, None)  # so that every run has a tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def net(self, t0, t1):
        """Wall time of the span [t0, t1] less the ticks inside it."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.busy[i:j])

    def scaled(self, t0, t1):
        """
        The span [t0, t1] in seconds at the reference speed: its net
        time times REF_S over the mean time of the kernels within PAD_S
        of it (at least the MIN_TICKS nearest ones).
        """
        starts = self.starts
        lo = bisect.bisect_left(starts, t0 - PAD_S)
        hi = bisect.bisect_left(starts, t1 + PAD_S)
        while hi - lo < MIN_TICKS and (lo > 0 or hi < len(starts)):
            # widen towards the nearer of the two neighbours
            before = t0 - starts[lo - 1] if lo > 0 else float("inf")
            after = starts[hi] - t1 if hi < len(starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        ticks = self.times[lo:hi]
        return REF_S * self.net(t0, t1) * len(ticks) / sum(ticks)
