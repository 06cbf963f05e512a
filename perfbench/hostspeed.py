"""How fast the host runs at the moment: a fixed calibration sample timed
while the jobs of a run execute.

The reference machine is a few cores of a shared host.  Neighbouring load
slows the core itself, CPU time included, in busy stretches that last from
under a second to minutes, so the same pass reads up to twice as long from
one run to the next.  The calibration sample does a fixed amount of work of
the same kinds as the jobs (interpreted Python, small NumPy operations,
40x40 LAPACK calls).  While a job runs, an interval timer interrupts it
after every ``PERIOD_S`` of its own wall time and takes one sample, so the
samples meet the same stretches of load as the job; their time is taken out
of the job's.  Dividing the run's job times by its mean sample time, and
multiplying by ``REFERENCE_S``, gives the jobs' time in reference-host
seconds: a change in the program moves it in full, a change in the host's
load mostly cancels.

The sample's NumPy functions are bound when this module is imported, which
run.py does before it imports geomint, so nothing the program does to
NumPy's names reaches the sample.
"""

import signal
import time
from contextlib import contextmanager

import numpy as np

# A sample's time on the reference host (2 vCPUs, Python 3.11.7, numpy
# 2.4.6, OpenBLAS 0.3.31 on one thread) under its usual load; its fastest
# samples take about 0.004 s.  Only the unit of the normalized times
# depends on it.
REFERENCE_S = 0.007

# Job wall time between two samples.
PERIOD_S = 0.02

_svd, _qr, _matmul, _dot, _sqrt = np.linalg.svd, np.linalg.qr, np.matmul, np.dot, np.sqrt
_MATRIX = np.random.default_rng(0).standard_normal((40, 40)) \
    + 1j * np.random.default_rng(1).standard_normal((40, 40))


def _sample():
    """A fixed amount of work: about 4 ms on a quiet reference host."""
    total, table = 0.0, {}
    for i in range(10000):
        total += (i * 0.5) ** 0.5
        table[i & 255] = total
    a, b = np.arange(6.0), np.ones(6)
    for _ in range(600):
        a = _sqrt(a * a + 0.001 * _dot(a, b))
    for _ in range(2):
        _svd(_MATRIX)
        _qr(_MATRIX)
        _matmul(_MATRIX, _MATRIX)
    return total + float(a[0])


def median_sample_s(count):
    """Median wall time of ``count`` samples taken now."""
    walls = []
    for _ in range(count):
        w0 = time.perf_counter()
        _sample()
        walls.append(time.perf_counter() - w0)
    return sorted(walls)[count // 2]


class HostSpeed:
    """Calibration samples of one run, taken inside its timed jobs."""

    def __init__(self):
        self.walls = []  # wall time of each sample
        self.cpus = []  # CPU time of each sample

    @contextmanager
    def sampling(self):
        """Take a sample after every ``PERIOD_S`` of wall time spent in the
        block.  Yields a list that receives each sample's (wall, CPU)
        seconds, so that the caller can take them out of its own time."""
        taken = []

        def on_alarm(signum, frame):
            w0, c0 = time.perf_counter(), time.process_time()
            _sample()
            taken.append((time.perf_counter() - w0, time.process_time() - c0))
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.walls += [wall for wall, _ in taken]
            self.cpus += [cpu for _, cpu in taken]

    def wall_factor(self):
        """Reference-host wall seconds per wall second measured in this run."""
        return REFERENCE_S * len(self.walls) / sum(self.walls)

    def cpu_factor(self):
        """Reference-host CPU seconds per CPU second measured in this run."""
        return REFERENCE_S * len(self.cpus) / sum(self.cpus)
