"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a core drifts by up to 1.8x over seconds to
minutes as other tenants load the machine; the same pass of requests took
1.1 s in one minute and 2.2 s in the next.  The benchmark therefore runs this
kernel after every request, for about SHARE of that request's time, and
divides each wall time by the host's slowdown measured around it:

    slowdown = (time the kernel took) / (units run * UNIT_S)

so that a reported time is the wall time at reference speed, the speed at
which one unit takes UNIT_S.  The kernel mimics the program's hot path
(small int64 plane products mod p in numpy, then Python-level reduction),
so it slows down with the host as the program does.  It is the benchmark's
own code and does not change with the program; changing it or UNIT_S
changes the unit of every reported time.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

UNIT_S = 0.5e-3     # one unit at reference speed
SHARE = 0.05        # kernel time per request, as a share of the request
WINDOW_S = 2.0      # a request's slowdown is taken over this much wall time

_RNG = np.random.default_rng(20260101)
_A = _RNG.integers(0, 7, (3, 6, 6))
_B = _RNG.integers(0, 7, (3, 6, 6))


def _unit():
    acc = 0
    for _ in range(12):
        out = np.zeros((5, 6, 6), dtype=np.int64)
        for i in range(3):
            if not _A[i].any():
                continue
            for j in range(3):
                out[i + j] += _A[i] @ _B[j]
                out[i + j] %= 7
        for row in range(6):
            acc = (acc * 31 + sum(int(c) * k
                                  for k, c in enumerate(out[2, row]))) \
                % 1_000_003
    return acc


def units_for(seconds):
    """Units to run after work that took `seconds`."""
    return max(1, math.ceil(SHARE * seconds / UNIT_S))


def run(units):
    """Run the kernel `units` times; return the wall time it took."""
    t0 = perf_counter()
    for _ in range(units):
        _unit()
    return perf_counter() - t0


def slowdown(seconds):
    """Run the kernel after work that took `seconds`; return the host's
    slowdown against reference speed."""
    units = units_for(seconds)
    return run(units) / (units * UNIT_S)


def windowed(start, wall, ref_s, ref_units, window=WINDOW_S):
    """Slowdown of each of a sequence of requests: the kernel time over the
    kernel units of every request whose midpoint lies within window/2 of
    this request's midpoint (always itself).  Inputs are parallel lists in
    the order the requests ran."""
    mid = [s + w / 2 for s, w in zip(start, wall)]
    cum_s, cum_u = [0.0], [0]
    for s, u in zip(ref_s, ref_units):
        cum_s.append(cum_s[-1] + s)
        cum_u.append(cum_u[-1] + u)
    out = []
    lo = hi = 0
    for i, m in enumerate(mid):
        while mid[lo] < m - window / 2:
            lo += 1
        hi = max(hi, i + 1)
        while hi < len(mid) and mid[hi] <= m + window / 2:
            hi += 1
        out.append((cum_s[hi] - cum_s[lo])
                   / ((cum_u[hi] - cum_u[lo]) * UNIT_S))
    return out
