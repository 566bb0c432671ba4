"""Machine-speed calibration for timings on a shared host.

On the 2-vCPU host this benchmark was written on, the same Python work runs
at one of two speeds about 1.65x apart, switching every second or so, while
the ratio between two kinds of interpreter-bound work measured side by side
stays within a few per cent.
Timings are therefore reported in calibrated units: each measured interval
is multiplied by NOMINAL_S / k, where k is the time a fixed calibration
kernel takes while, or right around when, the interval is measured.  On a
machine running the kernel in exactly NOMINAL_S, calibrated time equals
wall time.  The kernel mixes what the program spends its time on: numpy
calls on small vectors inside a Python loop, and a few matrix-vector
products at q = 200.

:class:`Meter` samples the kernel right before and after each timed call,
and from a SIGALRM handler every SAMPLE_INTERVAL_S during long calls, in
the measured thread itself; the handler's own time is subtracted from the
call it interrupts.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Seconds between kernel samples during a long call.
SAMPLE_INTERVAL_S = 0.25

# Typical kernel time on the reference host, in seconds; calibrated times
# are wall times scaled to a machine that runs the kernel this fast.
NOMINAL_S = 0.003

_SMALL = np.exp(-np.add.outer(np.arange(16.0), np.arange(16.0)) / 16.0)
_LARGE = np.exp(-np.add.outer(np.arange(200.0), np.arange(200.0)) / 200.0)
_START = np.full(16, 0.25)


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    start = time.perf_counter()
    v = _START
    for _ in range(200):
        w = _SMALL @ v
        v = w / float(np.linalg.norm(w))
        float(np.max(np.abs(w - v)))
    u = _LARGE[0]
    for _ in range(20):
        u = _LARGE @ u
        u = u / float(u.max())
    return time.perf_counter() - start


class Meter:
    """Samples the kernel around and during timed calls; calibrates their times."""

    def __init__(self):
        self.samples = []  # (start, end, kernel seconds), in time order
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm arrived while a sample was running
            return
        self._busy = True
        start = time.perf_counter()
        k = kernel_seconds()
        self.samples.append((start, time.perf_counter(), k))
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds without sampling, calibrated seconds) of [start, end].

        The caller samples right before and right after each interval; the
        kernel time for the interval is the mean over those two samples and
        the ones the alarm took inside it.  The host switches between a
        fast and a slow state every second or so, so a mean over the
        interval is what matches the program's average speed in it.
        """
        ends = [e for _, e, _ in self.samples]
        lo = bisect.bisect_right(ends, start) - 1
        hi = bisect.bisect_left(ends, end)
        around = self.samples[max(lo, 0):hi + 1]
        k = statistics.fmean(k for _, _, k in around)
        stolen = sum(e - s for s, e, _ in around if s >= start and e <= end)
        wall = end - start - stolen
        return wall, wall * NOMINAL_S / k
