"""Host-speed sampling, so that times can be given in reference-host seconds.

On a shared host the same work can take twice as long from one minute to the
next, and CPU time moves with wall time: the host runs each instruction more
slowly, it does not take the CPU away. A run of the benchmark therefore
samples the host's speed while it works. `HostClock` runs a fixed probe
every `INTERVAL` seconds on a timer signal; the handler runs between
bytecodes of the main thread, in the middle of the timed work. The probe is
a little pure-Python and small-numpy arithmetic that shares no code with
matlen, so a change to matlen cannot change it. Each time, the probe runs
twice and only the second run is timed: the first brings its code and data
back into the caches the timed work evicted, so what the program keeps in
cache moves the reading less (the mean probe time differed by 5% between
the fuzz campaign and the wide-field analysis, against 12% for a single
cold run). It is timed in
thread CPU time, so a probe that waits for a core (say, behind worker
processes) does not read as a slow host.

A time measured over an interval converts to reference-host seconds by the
factor `REFERENCE_PROBE_S / mean probe time` over that interval: on a host
running at half speed the probe takes twice as long and the factor halves
the measured time. Probe time is taken out of the measured time first.

    with HostClock() as clock:
        start = clock.mark()
        ...                       # work
        wall = clock.work_since(start)
        ref = wall * clock.factor_since(start)
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

import numpy as np

INTERVAL = 0.05
# About the probe's CPU time on the host the baseline was recorded on (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4). It only sets the scale of reference
# seconds; any fixed value gives the same ratios between runs.
REFERENCE_PROBE_S = 0.00025

_A = np.arange(64, dtype=np.int64).reshape(8, 8) % 101


def probe() -> int:
    """Fixed work: a Python loop with dict stores, then small matrix products mod 101."""
    s = 0
    d = {}
    for i in range(1000):
        s += i * i % 7
        d[i & 63] = s
    m = _A
    for _ in range(30):
        m = (m @ _A) % 101
        m[0, 0] = int(m[1, 1]) + 1
    return s + int(m[0, 0])


class HostClock:
    """Wall-clock timing with the host's speed sampled alongside (see module doc)."""

    def __init__(self):
        self.probe_wall_s = 0.0  # wall time spent in probes, taken out of measured time
        self.probe_cpu_s = 0.0  # CPU time of the probes, the speed sample
        self.probes = 0
        self._previous = None

    def _run_probe(self, *_):
        wall = perf_counter()
        probe()  # warm-up, untimed
        cpu = thread_time()
        probe()
        self.probe_cpu_s += thread_time() - cpu
        self.probe_wall_s += perf_counter() - wall
        self.probes += 1

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._run_probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, float, int]:
        return perf_counter(), self.probe_wall_s, self.probe_cpu_s, self.probes

    def work_since(self, mark) -> float:
        """Wall seconds since `mark`, without the time the probes took."""
        return perf_counter() - mark[0] - (self.probe_wall_s - mark[1])

    def factor_since(self, mark) -> float:
        """Reference seconds per measured second over the interval since `mark`."""
        if self.probes == mark[3]:  # shorter than one timer interval
            self._run_probe()
        return REFERENCE_PROBE_S * (self.probes - mark[3]) / (self.probe_cpu_s - mark[2])
