"""Timing scaled by the machine's current speed.

On a shared host the same code runs up to twice as slow for a second or
for minutes at a time, whenever a neighbour is busy, and more work in a
run does not average that away.  So a ``Clock`` interrupts the process
every ``CAL_EVERY_S`` seconds (SIGALRM) to run a fixed calibration
kernel, and scales each stretch of time between two kernel runs by
``nominal / (mean kernel time at its two ends)``.  A scaled time is the
time the work would have taken had the machine run the kernel at its
nominal speed throughout; the kernel runs themselves are left out of it.

Each workload names the kernel whose mix of work tracks its own best:
``scalar``, an interpreter loop of column updates on one small complex
matrix (the scalar eigen path); ``stack``, row updates across a stack of
96 small complex matrices (batched eigen calls on small stacks, as in
refinement at n <= 3); or ``batch``, the same on stacks of 96 and 3000
matrices (large sampling stacks as well, and the subalgebra builds).  The kernels call no program code, so a faster
program reads faster while the kernels' times stay put.
"""
from __future__ import annotations

import bisect
import itertools
import signal
import statistics
import time

import numpy as np

CAL_EVERY_S = 0.1
# Set-up (imports, fixtures, subalgebra builds) tracks this kernel best,
# whatever the workload.
SETUP_KERNEL = "batch"

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_STACK = _rng.standard_normal((96, 4, 4)) + 1j * _rng.standard_normal((96, 4, 4))
_BIG_STACK = _rng.standard_normal((3000, 4, 4)) + 1j * _rng.standard_normal((3000, 4, 4))


def _scalar():
    h = _SMALL.copy()
    for k in range(180):
        p, q = k % 5, k % 5 + 1
        c = 1.0 / (1.0 + abs(h[p, q]))
        s = 0.5 * c
        colp = h[:, p].copy()
        h[:, p] = c * colp - s * h[:, q]
        h[:, q] = s * colp + c * h[:, q]
    return h


def _rows(stack, rounds):
    g = stack.copy()
    for r in range(rounds):
        p = r % 3
        b = np.abs(g[:, p, p + 1])
        t = 1.0 / (1.0 + b * b)
        rowp = g[:, p, :].copy()
        g[:, p, :] = t[:, None] * rowp - g[:, p + 1, :]
        g[:, p + 1, :] = rowp + t[:, None] * g[:, p + 1, :]
    return float(np.sum(np.abs(g) ** 2))


def _stack():
    return _rows(_STACK, 60)


def _batch():
    return _rows(_STACK, 12) + _rows(_BIG_STACK, 2)


# name: (kernel, its nominal time in seconds).  The nominal times are
# fixed; they are about the kernels' median times on the host this was
# tuned on (2 vCPUs of an Intel Xeon), so scaled times read close to raw
# times there.
KERNELS = {
    "scalar": (_scalar, 0.0025),
    "stack": (_stack, 0.002),
    "batch": (_batch, 0.002),
}


class Clock:
    """Calibrates every CAL_EVERY_S seconds between ``start`` and
    ``stop``, and times the calls made through ``measure``.

    Afterwards ``scaled_calls_ms`` gives each call's scaled time,
    ``scaled_s`` the scaled time of everything between start and stop,
    and ``raw_s`` the same unscaled, both without the kernel runs.
    """

    def __init__(self, kernel):
        self.kernel, self.nominal_s = KERNELS[kernel]
        self.cal = []  # (start, end) of each kernel run, in order
        self.calls = []  # (start, end) of each call
        self._running = False
        self._old = None

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.kernel()
        self.cal.append((t0, time.perf_counter()))
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S)

    def start(self):
        self.kernel()  # warm the kernel's code and arrays before the first sample
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._tick()

    def stop(self):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def measure(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.calls.append((t0, time.perf_counter()))
        return out

    def _gaps(self):
        """(start, end, scale) of each stretch between two kernel runs."""
        d = [e - s for s, e in self.cal]
        return [
            (self.cal[k][1], self.cal[k + 1][0], 2.0 * self.nominal_s / (d[k] + d[k + 1]))
            for k in range(len(self.cal) - 1)
        ]

    def scaled_calls_ms(self):
        gaps = self._gaps()
        starts = [g[0] for g in gaps]
        out = []
        for a, b in self.calls:
            total = 0.0
            k = max(0, bisect.bisect_right(starts, a) - 1)
            while k < len(gaps) and gaps[k][0] < b:
                lo, hi, scale = gaps[k]
                total += max(0.0, min(b, hi) - max(a, lo)) * scale
                k += 1
            out.append(total * 1e3)
        return out

    def scaled_s(self):
        return sum((hi - lo) * scale for lo, hi, scale in self._gaps())

    def raw_s(self):
        return sum(hi - lo for lo, hi, _ in self._gaps())

    def busy(self):
        """A function of (a, b): the seconds of [a, b] outside the kernel
        runs."""
        starts = [s for s, _ in self.cal]
        done = [0.0, *itertools.accumulate(e - s for s, e in self.cal)]

        def kernel_before(t):
            k = bisect.bisect_right(starts, t) - 1
            if k < 0:
                return 0.0
            s, e = self.cal[k]
            return done[k] + min(t, e) - s

        return lambda a, b: (b - a) - (kernel_before(b) - kernel_before(a))

    def kernel_s(self):
        return statistics.median(e - s for s, e in self.cal)
