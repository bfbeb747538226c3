"""Reference-speed timing for a machine whose core speed drifts.

On a shared host one core can run the same Python code up to twice as fast
or slow from one 5-25 s stretch to the next, so raw wall times of a 20 s run
mostly measure the neighbours.  ``SpeedProbe`` runs a fixed calibration
kernel every ``period`` seconds from a SIGALRM handler in the measuring
thread, and converts an interval of wall time into reference seconds: the
time the same work would take on a core that runs the kernel in its
reference duration.  The kernel's own time is left out of the interval.

How much a stretch slows the code depends on the code's mix of work, so
there are two kernels, none of whose code is the program's: ``scalar``
(Jacobi rotations on an 8x8 matrix: interpreter and tiny-array overhead,
like the certificate searches and 100-replication simulations) and
``vector`` (Philox draws and LMS steps on 1000-row arrays, like
1000-replication simulations).  Each workload names the one that matches it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

_NEIGHBOURS = 2          # samples either side used for the local speed

_MATRIX = np.random.default_rng(20240117).standard_normal((8, 8))
_MATRIX = _MATRIX + _MATRIX.T
_ROWS = np.random.default_rng(20240118).standard_normal((256, 3))
_PAIRS = [(p, q) for p in range(7) for q in range(p + 1, 8)] * 2
_GENERATOR = np.random.Generator(np.random.Philox(20240119))
_FACTOR = np.array([[1.0, 0.0], [0.5, 0.8660254]])
_THETA = np.random.default_rng(20240120).standard_normal((1000, 2))


def scalar_kernel() -> None:
    """Fixed work: two Jacobi sweeps on an 8x8 matrix and a small vector loop."""
    a = _MATRIX.copy()
    for p, q in _PAIRS:
        theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
        t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta))
        c = 1.0 / np.hypot(1.0, t)
        s = t * c
        rp, rq = a[p, :].copy(), a[q, :].copy()
        a[p, :] = c * rp - s * rq
        a[q, :] = s * rp + c * rq
        cp, cq = a[:, p].copy(), a[:, q].copy()
        a[:, p] = c * cp - s * cq
        a[:, q] = s * cp + c * cq
    x = _ROWS.copy()
    for _ in range(80):
        r = np.einsum("ri,ri->r", x, x)
        x = x - (1e-3 * r)[:, None] * x


def vector_kernel() -> None:
    """Fixed work: 36 000 Philox normals and 12 LMS steps on 1000 rows."""
    draws = _GENERATOR.standard_normal((1000, 12, 3))
    theta = _THETA.copy()
    for i in range(12):
        h = draws[:, i, :2] @ _FACTOR.T
        resid = np.einsum("ri,ri->r", h, theta) - 0.1 * draws[:, i, 2]
        theta = theta - (1e-3 * resid)[:, None] * h
        sq = np.einsum("ri,ri->r", theta, theta)
        keep = np.isfinite(sq) & (sq <= 1e12)
        theta = np.where(keep[:, None], theta, 0.0)


# Kernel and the duration that defines one reference second: its duration on
# one core of a 2-core Xeon virtual machine at the slower, steadier of the
# core's two speeds.
KERNELS = {"scalar": (scalar_kernel, 2.3e-3), "vector": (vector_kernel, 1.45e-3)}


def timed_kernel(kernel: str = "scalar") -> tuple[float, float]:
    start = time.perf_counter()
    KERNELS[kernel][0]()
    return start, time.perf_counter()


class SpeedProbe:
    """Samples the kernel periodically; converts wall intervals to reference seconds."""

    def __init__(self, kernel: str, period: float = 0.1):
        self.kernel = kernel
        self.reference_s = KERNELS[kernel][1]
        self.period = period
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start, end = timed_kernel(self.kernel)
        self.starts.append(start)
        self.ends.append(end)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def _slowdown(self, index: int) -> float:
        lo = max(0, index - _NEIGHBOURS)
        hi = min(len(self.starts), index + _NEIGHBOURS + 1)
        return statistics.median(
            self.ends[k] - self.starts[k] for k in range(lo, hi)) / self.reference_s

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of work done in the wall interval [t0, t1].

        The interval is cut at the kernel samples; each piece of work between
        two samples is scaled by the slowdown measured around them.
        """
        count = len(self.starts)
        k = bisect.bisect_right(self.starts, t0) - 1
        total = 0.0
        while True:
            gap_lo = self.ends[k] if k >= 0 else t0
            gap_hi = self.starts[k + 1] if k + 1 < count else t1
            lo, hi = max(t0, gap_lo), min(t1, gap_hi)
            if hi > lo:
                total += (hi - lo) / self._slowdown(max(k, 0))
            if gap_hi >= t1:
                return total
            k += 1


def interval_slowdown(before: list[tuple[float, float]],
                      after: list[tuple[float, float]]) -> float:
    """Slowdown from scalar-kernel samples taken just before and after an interval."""
    return (statistics.median(end - start for start, end in before + after)
            / KERNELS["scalar"][1])
