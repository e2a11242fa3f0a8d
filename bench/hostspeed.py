"""Host speed probe: timings in reference seconds, not in this host's.

A shared virtual machine can run the same code at half speed for seconds
to minutes at a time, so the wall time of an operation says as much about
the neighbours as about the program.  ``HostProbe`` runs a fixed kernel
(small matrix-vector products from a Python loop, like the program's own
inner loops) every ``period`` seconds from a ``SIGALRM`` handler and keeps
each run's start and end.  Each stretch of time between two probes is
scaled by ``REFERENCE_S`` over the local probe duration (the median of the
four probes around it), so an interval's reference time is the time it
would take on a host where one probe takes ``REFERENCE_S``, even when the
host changes speed within the interval.  The probes' own time is left out
of every interval and of every open tracer span.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 1e-3  # one probe on the reference host
PROBE_ITERATIONS = 300

_A = np.random.default_rng(0).random((16, 64))
_B = np.random.default_rng(1).random(64)


def kernel() -> float:
    total = 0.0
    for _ in range(PROBE_ITERATIONS):
        total += float((_A @ _B).sum())
    return total


class HostProbe:
    def __init__(self, tracer, period: float = 0.2):
        self.tracer = tracer
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None  # SIGALRM handler to put back
        self._running = False
        self._gaps: list[float] = []  # factor of the stretch before probe i

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.tracer.exclude(end - start)

    def start(self) -> None:
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._running = False
        self.probe()

    def _between(self, a: float, b: float) -> range:
        return range(bisect.bisect_left(self.starts, a),
                     bisect.bisect_right(self.ends, b))

    def inside(self, a: float, b: float) -> float:
        """Seconds of [a, b] taken by probes.  A probe runs in a signal
        handler, so it lies wholly inside or wholly outside an interval
        the benchmark timed."""
        return sum(self.ends[i] - self.starts[i] for i in self._between(a, b))

    def _gap_factors(self) -> list[float]:
        """Reference seconds per host second in the stretch before probe i,
        for i = 0..n (n: the stretch after the last probe)."""
        n = len(self.starts)
        if len(self._gaps) != n + 1:
            durations = [e - s for s, e in zip(self.starts, self.ends)]
            self._gaps = [
                REFERENCE_S / statistics.median(durations[max(0, i - 2):i + 2]
                                                or durations[-2:])
                for i in range(n + 1)
            ]
        return self._gaps

    def factor(self, a: float, b: float) -> float:
        """Reference seconds per host second over [a, b], weighted by time."""
        gaps = self._gap_factors()
        lo = bisect.bisect_right(self.ends, a)  # first probe ending after a
        hi = bisect.bisect_left(self.starts, b)  # probes starting before b
        t = a
        ref = host = 0.0
        for i in range(lo, hi + 1):
            stretch = max(0.0, (self.starts[i] if i < hi else b) - t)
            ref += stretch * gaps[i]
            host += stretch
            if i < hi:
                t = max(t, self.ends[i])
        return ref / host if host > 0 else gaps[lo]

    def ref_seconds(self, a: float, b: float, excluded: float = 0.0) -> float:
        """Reference time of the interval [a, b], of which ``excluded``
        seconds (probes included) are not the program's."""
        return (b - a - excluded) * self.factor(a, b)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(
            e - s for s, e in zip(self.starts, self.ends))
