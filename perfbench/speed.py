"""The host's interpreter speed, sampled while a measurement runs.

On a shared host the speed of one core drifts by up to half within seconds
(other tenants, frequency changes), so a raw wall time says as much about
the host as about ``nilcay``.  ``Sampler`` interrupts the measured code
every ``INTERVAL_S`` with ``SIGALRM`` and times a fixed probe of pure-Python
work in the handler, on the same thread.  The probe's mean time over the
measurement is the host's slowness during exactly that interval, so

    corrected = (raw - time spent in the handler) * REFERENCE_PROBE_S / mean probe

is the time the measured code would have taken on a host that runs the
probe in ``REFERENCE_PROBE_S``.  Timer signals are not inherited by child
processes.  A measurement too short to sample from inside (set-up takes
under a tenth of a second) is corrected with ``sample``s taken right before
and right after it instead.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL_S = 0.025
# how long set-up is bracketed with probes on either side
BRACKET_S = 0.05
# about the probe's fastest time on a 2-vCPU Intel Xeon VM with Python 3.11
REFERENCE_PROBE_S = 0.00075

perf_counter = time.perf_counter


def probe():
    """Fixed pure-Python work of the kinds ``nilcay`` does most: tuple
    arithmetic with dict lookups (collection, ball building) and memoised
    recursion (geodesic counting), in about equal shares."""
    table = {}
    v = (0, 0, 0)
    for i in range(1000):
        v = (v[0] + 1, v[1] - i, (v[2] + v[0] * i) % 9973)
        table[v] = table.get((v[0] - 1, v[1], v[2]), i)
    return len(table) + _paths(30, 30, {})


def _paths(n, m, memo):
    """Lattice paths from (n, m) to an axis, by memoised recursion."""
    if n == 0 or m == 0:
        return 1
    if (n, m) not in memo:
        memo[n, m] = _paths(n - 1, m, memo) + _paths(n, m - 1, memo)
    return memo[n, m]


def sample(seconds):
    """Probe times, back to back for ``seconds``, after one warm-up probe."""
    probe()
    times = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        times.append(timed_probe())
    return times


def timed_probe():
    """One probe's time.  The garbage collector is off while it runs: the
    probe's allocations must not set off a collection of the measured
    program's heap, which would charge that work to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        probe()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def factor(samples):
    """REFERENCE_PROBE_S over the mean probe time: below 1 on a slow host."""
    return REFERENCE_PROBE_S / statistics.fmean(samples)


class Sampler:
    """Context manager: samples the probe's time every ``INTERVAL_S`` while
    its block runs; ``correct`` rescales a time measured inside the block."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(timed_probe())
        self.handler_s += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self):
        return factor(self.samples)

    def correct(self, raw_s):
        """A time measured around the block, less the handler's share,
        rescaled to the reference speed."""
        return (raw_s - self.handler_s) * self.factor()
