"""The reference kernel that scales the benchmark's times to one CPU speed.

On a shared host the speed one process gets moves by ±25% and more, over
periods from a fraction of a second to minutes, for wall time and CPU time
alike, so the raw throughput of ten runs spreads by as much as the speed
does.  The runner therefore runs this fixed pure-Python kernel after every
op, for a tenth of the op's time: the op's time divided by the mean kernel
time of the windows just before and after it, times ``REFERENCE_S``, is the
op's time at the speed where the kernel takes ``REFERENCE_S``.  The kernel
does the two kinds of work the package does (set and dict updates over
adjacency lists, as in peeling, and float square roots and arcsines, as in
the geometry kernel) and runs none of the package's code, so a change to
the package moves the scaled times and a change of machine speed does not.
"""

from __future__ import annotations

import math
import time

# the kernel's typical time on the 2-core machine the benchmark was tuned on
REFERENCE_S = 0.0033
# kernel time per second of measured work
SHARE = 0.1

_N = 300
_ADJACENCY = {x: [(x * 7 + k) % _N for k in range(12)] for x in range(_N)}


def kernel() -> float:
    """Peel a fixed 12-regular graph by hand, then sum square roots and
    arcsines over a fixed range."""
    alive = set(range(_N))
    degree = {x: sum(1.0 for y in _ADJACENCY[x] if y in alive) for x in alive}
    for x in range(0, _N, 3):
        alive.discard(x)
        for y in _ADJACENCY[x]:
            if y in alive:
                degree[y] = sum(1.0 for z in _ADJACENCY[y] if z in alive)
    total = sum(degree.values())
    for i in range(1, 2000):
        t = i / 2000.0
        total += math.sqrt(1.0 - t * t) + math.asin(t) * t
    return total


def window(seconds: float) -> tuple[int, float]:
    """Run the kernel at least once and until it has taken ``SHARE`` of
    ``seconds``; (runs, their total time)."""
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        spent = time.perf_counter() - start
        if spent >= SHARE * seconds:
            return runs, spent


def scale(seconds: float, windows) -> float:
    """``seconds`` at the reference speed, given kernel windows taken around
    them."""
    runs = sum(r for r, _ in windows)
    spent = sum(s for _, s in windows)
    return seconds * REFERENCE_S * runs / spent
