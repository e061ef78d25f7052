"""Reference kernel that tracks how fast the machine runs at each moment.

The benchmark box is a shared 2-CPU VM whose speed switches between regimes
that last from about a second to tens of seconds: the same forward pass
takes 30 ms in one and 42 ms in the next, and process CPU time moves with
it, so the loss is not steal time. Medians over a 15-second run cannot
remove a regime that lasts the whole run.

So the untraced reps interleave a fixed numpy kernel (small GEMMs, the
elementwise ops of fake-quant and GELU, and a few tiny inverse-CDF calls,
which is the mix zoqlab runs) with the workload, and every end-to-end time is
scaled by REF_MS / (median kernel time around it): times are reported in
seconds of a machine that runs the kernel in REF_MS. The kernel is this
file's own code, so a change to zoqlab cannot move it. Raw times stay in the
result file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy.special import erf, ndtri

# about the kernel's median time on the 2-CPU Intel Xeon 2.1 GHz VM the
# benchmark was written on, with OpenBLAS pinned to one thread
REF_MS = 0.85
# maybe() probes at most this often
PERIOD_S = 0.05

_rng = np.random.default_rng(20250900031)
_A = _rng.standard_normal((256, 64))
_B = _rng.standard_normal((64, 64))
_U = _rng.random(64)


def kernel() -> float:
    x = _A
    for _ in range(2):
        y = x @ _B
        z = np.clip(np.rint(y * 3.0), -8.0, 7.0)
        x = np.exp(-np.abs(z - y)) * erf(y * 0.1) + x * 0.5
    s = 0.0
    for _ in range(6):
        s += float(ndtri(_U).sum())
    return float(x.sum()) + s


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        self.spent_s = 0.0
        self._last = float("-inf")
        kernel()
        kernel()

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.times.append(t0)
            self.ms.append(dt * 1e3)
            self.spent_s += dt
        self._last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_MS over the median of the probes inside [start, end] and the one on each side."""
        lo = max(0, bisect.bisect_left(self.times, start) - 1)
        hi = min(len(self.ms), bisect.bisect_right(self.times, end) + 1)
        return REF_MS / statistics.median(self.ms[lo:hi])


class NoProbe:
    """Stands in for SpeedProbe in traced reps, whose times are not scaled."""

    spent_s = 0.0

    def sample(self, n: int = 1) -> None:
        pass

    def maybe(self) -> None:
        pass
