"""A fixed reference computation that follows the machine's speed.

The benchmark runs on a shared host whose speed changes by up to 2x over
seconds to minutes, for every process alike. `kernel` is a fixed mix of the
three kinds of work rslab does (interpreted Python, many small numpy calls,
small dense linear algebra) and touches no rslab code, so a change to the
program cannot change its time. A run times it every `EVERY_S` seconds
between operations; each operation's time is then scaled by `NOMINAL_MS`
over the median of the `NEAREST` kernel times closest to it, which gives
its time at a fixed reference speed: that of a machine on which the kernel
takes `NOMINAL_MS`.
"""

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.05          # a kernel call after any operation ending this late
NEAREST = 5             # kernel times around an operation that scale it
NOMINAL_MS = 2.0        # the kernel's time at the reference speed

_RNG = np.random.default_rng(0)
_SYM = _RNG.standard_normal((12, 12))
_SYM = _SYM + _SYM.T
_VEC = np.linspace(0.0, 1.0, 32)


def kernel():
    """About 2 ms on a 2 GHz Xeon vCPU: one third each of Python loops, small
    numpy calls and 12 x 12 eigen-solves."""
    acc = {}
    for j in range(2500):
        acc[j % 61] = acc.get(j % 61, 0) + j * j
    s = float(sum(acc.values()))
    for i in range(120):
        s += float(np.exp(-_VEC * (i / 120.0)) @ _VEC)
    for i in range(22):
        s += float(np.linalg.eigvalsh(_SYM + i * np.eye(12))[-1])
    return s


class Calibration:
    """Kernel times over a run, and the speed scale they give."""

    def __init__(self):
        self.mid, self.ms = [], []
        self.last = -float("inf")

    def sample(self):
        t = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t
        self.mid.append(t + dt / 2)
        self.ms.append(dt * 1e3)
        self.last = t + dt

    def maybe_sample(self):
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def scale(self, t_mid):
        """NOMINAL_MS over the median of the NEAREST kernel times closest
        in time to t_mid."""
        k = bisect.bisect(self.mid, t_mid)
        lo, hi = k, k
        while hi - lo < min(NEAREST, len(self.mid)):
            if lo > 0 and (hi == len(self.mid)
                           or t_mid - self.mid[lo - 1] <= self.mid[hi] - t_mid):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_MS / statistics.median(self.ms[lo:hi])

    def median_ms(self):
        return statistics.median(self.ms)
