"""Machine-speed reference: timings in seconds at a fixed reference speed.

The machines this benchmark runs on are shared, and their speed for pure
Python drifts by a third over minutes while the program's work stays the
same.  So the benchmark times a fixed reference kernel (pure-Python
fraction-free elimination, the same kind of work as pdpairs' integer
kernels, sharing no code with it) around and during every timed interval,
and scales each wall time by ``REFERENCE_S / kernel seconds``: a task that
took 0.40 s while the kernel ran 25 % slower than its reference counts as
0.32 s.  The kernel's own time is taken out of the task's wall time.

``REFERENCE_S`` is close to the kernel's median time on a 2-core x86-64
sandbox under CPython 3.11, so that reference seconds read close to wall
seconds there.  It fixes the unit: it must not change once numbers have
been recorded against it.
"""

from __future__ import annotations

import signal
import statistics
import threading
import time

REFERENCE_S = 0.0047   # one sample of the kernel at reference speed
SAMPLE_EVERY = 0.25    # CPU seconds between samples inside a task
FRESH = 0.05           # seconds for which a sample stays current


N = 24
_TEMPLATE = [[(i * 7 + j * 13) % 11 - 5 + 3 * (i == j) for j in range(N)]
             for i in range(N)]
_WORK = [row[:] for row in _TEMPLATE]


def kernel():
    """Bareiss elimination of a fixed 24x24 integer matrix, six times.

    It works in place and creates no container object: the interpreter
    schedules garbage collection by counting container allocations, so a
    sample taken inside a task leaves the task's collections where they
    would have been, and with them its peak memory.
    """
    a = _WORK
    for _ in range(6):
        for i in range(N):
            a[i][:] = _TEMPLATE[i]
        prev = 1
        for k in range(N - 1):
            ak = a[k]
            piv = ak[k]
            for i in range(k + 1, N):
                ai = a[i]
                f = ai[k]
                for j in range(k, N):
                    ai[j] = (ai[j] * piv - ak[j] * f) // prev
            prev = piv
    return prev


class Speedometer:
    """Kernel samples over a run, and the timing of blocks against them.

    ``clock = speedometer.task()`` takes a sample unless the last one is
    fresh; ``with clock:`` times a block, sampling the kernel every
    ``SAMPLE_EVERY`` CPU seconds inside it from a ``SIGVTALRM`` handler
    (skipped while other threads run, because then the kernel would time
    the interpreter lock, not the machine).  ``speedometer.reference(clock)``
    samples once more, unless the last sample is fresh, and scales the
    block's time by the mean speed (reciprocal kernel time) over the
    samples from just before it to just after it.  The sample after one
    task is the sample before the next, and tasks shorter than ``FRESH``
    share samples.
    """

    def __init__(self):
        # two lists of floats, not a list of tuples, so that sampling
        # allocates no container either
        self.taken = []            # perf_counter time at each sample's end
        self.kernel_s = []         # the kernel's seconds in each sample

    def sample(self):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.taken.append(end)
        self.kernel_s.append(end - start)
        return end - start

    def _sample_unless_fresh(self):
        if not self.taken or time.perf_counter() - self.taken[-1] > FRESH:
            self.sample()

    def task(self):
        self._sample_unless_fresh()
        return Clock(self, len(self.kernel_s) - 1)

    def reference(self, clock):
        """The clock's wall seconds, less kernel time, at reference speed."""
        self._sample_unless_fresh()
        return clock.raw * REFERENCE_S * mean_speed(
            self.kernel_s[clock.first:])


def mean_speed(kernel_s):
    """Mean of 1 / kernel time: work done at speed 1/k is time / k."""
    return statistics.mean(1 / k for k in kernel_s)


class Clock:
    """Wall time of one block, less the kernel samples taken inside it."""

    def __init__(self, speedometer, first):
        self.speedometer = speedometer
        self.first = first         # index of the sample taken before
        self.inside = 0.0

    def _tick(self, signum, frame):
        if threading.active_count() == 1:
            self.inside += self.speedometer.sample()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.previous)
        self.raw = self.end - self.start - self.inside
        return False
