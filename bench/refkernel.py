"""Reference-speed clock.

Raw wall time on a shared machine drifts by far more between processes than
any change worth measuring.  So every timed operation is bracketed by a
fixed reference kernel -- exact int row operations and ``Fraction``
arithmetic from the standard library, the same kinds of work graphk0 does
(a kernel of Fraction sums alone tracked graphk0's speed between processes
about half as well) -- and its raw seconds are scaled by
``NOMINAL_S / measured kernel time``.  The result reads as "seconds on a
machine running at reference speed".

``NOMINAL_S`` is frozen; only its constancy matters.  ``python3
bench/refkernel.py`` prints the median of 400 kernel runs in one process; on
the 2-core shared x86-64 Linux container the benchmark was built on (Python
3.11.7) it read 2.4 ms, and 3.0 ms was frozen.  ``CHECKSUM`` pins what the
kernel computes; bench/tests/test_bench.py fails if the kernel or either
constant changes.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.003
CHECKSUM = 117493839


def kernel() -> int:
    """Fixed mixed workload shaped like graphk0's: integer row operations on
    lists of ~100-bit ints (as in Smith normal form), then a running
    Fraction sum whose denominators force gcd work (as in the simplex), with
    dict stores.  Returns a checksum."""
    rows = [[(i * 7919 + j * 104729) % 1000003 << 40 for j in range(96)] for i in range(16)]
    for k in range(1, 16):
        pivot = rows[k - 1]
        for i in range(k, 16):
            q = (rows[i][0] >> 40) % 7 + 1
            rows[i] = [(x - q * y) % (1 << 100) for x, y in zip(rows[i], pivot)]
    acc = Fraction(0)
    seen = {}
    for i in range(1, 121):
        acc += Fraction(rows[i % 16][i % 96] % 1009 - 504, i % 61 + 1)
        seen[(i, i % 7)] = acc
    return (sum(r[5] for r in rows) ^ acc.numerator ^ len(seen)) & 0xFFFFFFFF


class RefClock:
    """Times callables in reference-speed seconds.

    The kernel runs once before the first operation and once after each
    operation.  An operation is scaled by the median of the WINDOW kernel
    runs on either side of it: one kernel run lasts a few milliseconds and
    is itself noisy, and scaling short operations by their two neighbours
    alone let that noise into the tail percentile.
    """

    WINDOW = 8

    def __init__(self) -> None:
        self.kernels = [self._kernel_seconds()]

    @staticmethod
    def _kernel_seconds() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, raw seconds, operation index)."""
        index = len(self.kernels) - 1
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.kernels.append(self._kernel_seconds())
        return result, raw, index

    def reference(self, index: int, raw: float) -> float:
        """Reference seconds of the operation timed as ``index``; call it
        once the kernel runs after that operation have been made."""
        lo = max(0, index - self.WINDOW + 1)
        return raw * NOMINAL_S / statistics.median(self.kernels[lo : index + self.WINDOW + 1])


def measure_nominal(runs: int = 400) -> float:
    """Median kernel time in this process, for re-freezing ``NOMINAL_S``."""
    kernel()
    return statistics.median(RefClock._kernel_seconds() for _ in range(runs))


if __name__ == "__main__":
    print(f"checksum {kernel()}  median kernel seconds {measure_nominal():.6f}")
