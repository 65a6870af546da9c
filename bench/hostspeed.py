"""The host's speed over a run, from a fixed calibration kernel.

The benchmark runs on shared hosts whose speed changes by up to a
factor of two, switching within a second or holding for a minute, so
the wall time of the same call moves with when it runs.  The kernel below is fixed
pure-Python work of the kind radsurj does: products of sparse
polynomials with ``Fraction`` and integer coefficients, and complex
floating-point evaluation.  It imports nothing from radsurj, so a
change to the package cannot move it.  Timed right before every call,
it tracks the spells; dividing a call's wall time by the mean kernel
time just before and just after it, and multiplying by
REFERENCE_KERNEL_S, gives the call's time at the reference speed.

    python3 bench/hostspeed.py

prints the kernel's median time on this host, the value to compare
with REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import cmath
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# The reference speed is the one at which the kernel takes this long;
# it is near the kernel's median time on the host that recorded the
# baseline (2 vCPU shared Linux VM, CPython 3.11.7).  It only sets the
# unit: runs on one host compare alike whatever its value.
REFERENCE_KERNEL_S = 0.0055


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def kernel() -> int:
    p = {(i, j): Fraction(3 * i - 2 * j + 1, j + 2) for i in range(4) for j in range(4)}
    q = {(i, j): 7 * i * j - 5 for i in range(4) for j in range(4)}
    r = _poly_mul(_poly_mul(p, q), q)
    z = 0j
    for k in range(600):
        w = complex(k % 17 - 8, k % 5)
        z += cmath.sqrt(w * w + 1.5) / (abs(w) + 1.0)
    return len(r) + int(z.real)


def kernel_time() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Kernel times sampled over a run, one before every timed call and
    one after the last."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def tick(self) -> None:
        self.at.append(time.perf_counter())
        self.kernel_s.append(kernel_time())

    def scale(self, start: float, seconds: float) -> float:
        """Factor from the wall time of a call to its time at the
        reference speed: REFERENCE_KERNEL_S over the mean of the kernel
        times just before and just after the call.  The host can switch
        speed within a second, so farther samples would blur it."""
        before = bisect_right(self.at, start) - 1
        after = bisect_left(self.at, start + seconds)
        near = [self.kernel_s[k] for k in (before, after) if 0 <= k < len(self.at)]
        return REFERENCE_KERNEL_S / statistics.mean(near)

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.scale(start, seconds)


if __name__ == "__main__":
    times = [kernel_time() for _ in range(400)]
    print(f"kernel median {statistics.median(times):.6f} s, reference {REFERENCE_KERNEL_S} s")
