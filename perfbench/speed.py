"""Reference seconds: wall time corrected for the machine's drifting speed.

On a shared host the speed of this process's CPU drifts by a third and more
within seconds, and CPU time drifts with wall time, so medians of raw wall
times move from run to run by more than any useful bound.  ``SpeedProbe``
samples the speed while a step runs: every ``SAMPLE_INTERVAL_S`` a SIGALRM
handler times ``SAMPLE_STEPS`` steps of a fixed interpreted loop that no
program change touches, and one sample is taken just before and just after
the step.  The step is then reported as

    (wall time - time spent in samples) x SAMPLE_REF_S / median sample time

``SAMPLE_REF_S`` is a typical sample time on a 2-vCPU Xeon VM, so reference
seconds are close to wall seconds there.  Python runs the handler between
bytecodes, so a long call into C defers the next sample; samples then come
from the stretches of Python code in the step.  Interval timers are not
inherited across ``fork``, so worker processes are not sampled.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

SAMPLE_INTERVAL_S = 0.01
SAMPLE_STEPS = 2000
SAMPLE_REF_S = 100e-6


class SpeedProbe:
    """Context manager that times its body in wall seconds (without the
    samples) and in reference seconds."""

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.reference_s = 0.0

    def _sample(self, *_):
        start = perf_counter()
        total = 0
        for i in range(SAMPLE_STEPS):
            total += i
        self.samples.append(perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = elapsed - sum(self.samples[1:])
        self._sample()
        self.reference_s = (self.wall_s * SAMPLE_REF_S
                            / statistics.median(self.samples))
        return False
