"""Machine-speed reference for the end-to-end timings.

The benchmark runs on machines shared with other work, where the speed
of a single core drifts by tens of percent over seconds and minutes.
To keep timings comparable across runs, a timer signal interrupts the
workload every ``INTERVAL_S`` and times a short, fixed, library-free
loop (``refloop.reference_loop``).  A stretch of the workload that took
``t`` seconds while the loop took ``r`` seconds is counted as
``t * REFERENCE_S / r`` seconds: the time it would have taken at the
speed where the loop takes ``REFERENCE_S``.  The time the handler itself
runs is left out.  Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_right
from time import perf_counter

from refloop import REFERENCE_S, reference_loop

INTERVAL_S = 0.002


class SpeedReference:
    """Samples the reference loop on a timer while in its ``with`` block.

    Sample ``i`` ran the loop from ``starts[i]`` to ``ends[i]``.  On exit
    it gets ``factors[i] = REFERENCE_S / (ends[i] - starts[i])``, which
    scales the work after it, up to the next sample.  The factor is not
    smoothed over neighbouring samples: the speed changes within a few
    milliseconds, and following it sample by sample gave the steadiest
    figures.
    """

    def __init__(self):
        self.starts, self.ends, self.factors = [], [], []
        self._previous = None

    def _sample(self, *_):
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.factors = [REFERENCE_S / (b - a) for a, b in zip(self.starts, self.ends)]
        return False

    def scaled(self, a: float, b: float) -> float:
        """Scaled duration of the interval ``[a, b]``, without the time
        spent in samples; work before the first sample uses its factor."""
        starts, ends, factors = self.starts, self.ends, self.factors
        i = bisect_right(starts, a)
        t = a
        factor = factors[max(i - 1, 0)]
        if i > 0:
            t = max(t, min(ends[i - 1], b))
        total = 0.0
        while i < len(starts) and starts[i] < b:
            total += (starts[i] - t) * factor
            factor = factors[i]
            t = min(ends[i], b)
            i += 1
        return total + max(b - t, 0.0) * factor

    def median_factor(self) -> float:
        return statistics.median(self.factors)
