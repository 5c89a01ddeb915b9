"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed drifts by up to a factor of
two for minutes at a time, and CPU time drifts with wall time, so the drift
is the CPU's speed, not scheduling.  The kernel runs the same kinds of
operations as the program (sorted products, partial sums, Fraction and float
arithmetic, indented JSON) but none of its code, so a change to the program
cannot change it.  Times taken next to a kernel run are scaled by
``REFERENCE_S / kernel time``: they read as if the host ran at the speed at
which the kernel takes ``REFERENCE_S``.

Nothing here imports supercat.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from fractions import Fraction
from itertools import accumulate

#: Kernel time at the reference speed, a fixed constant: the kernel took
#: 0.9 to 1.8 ms on the 2.1 GHz Xeon VM the benchmark was tuned on
#: (Python 3.11), as the host's speed drifted.
REFERENCE_S = 1.0e-3

_A = (0.41, 0.38, 0.12, 0.09)
_B = (0.5, 0.25, 0.25, 0.0)


def kernel() -> float:
    acc = 0.0
    v = ()
    for k in range(64):
        v = sorted((x * y for x in _A for y in _B), reverse=True)
        acc += sum(accumulate(v))
        acc -= math.fsum(p * math.log2(p) for p in v if p > 0)
        acc += float(Fraction(k + 1, 997) * Fraction(3, 7) + Fraction(1, k + 2))
    return acc + len(json.dumps({"v": v, "acc": [acc] * 20}, indent=2))


def kernel_seconds() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rolling_median(values: list, half_width: int = 7) -> list:
    """The median of each value's window of up to 2 * half_width + 1
    neighbours, so one interrupted kernel run does not skew its items."""
    return [statistics.median(values[max(0, i - half_width):i + half_width + 1])
            for i in range(len(values))]
