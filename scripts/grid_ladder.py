#!/usr/bin/env python3
"""Time ``solve_squares`` on large half-degree grids.

Each rung is a w×h rectangle of unit cells at disk radius r, solved with
half-degree demands.  For each rung the script prints the best-of-three
``solve_squares`` time (the graph build included), the size of side A and
the first 16 hex digits of a SHA-256 over both sides' cells, so that two
checkouts can be shown to split the grids the same way, and then the
process's peak resident set size so far.  ``grid_rung`` runs one rung and
returns what the script prints for it, the peak aside:

    python scripts/grid_ladder.py

A run takes about 2 s on a 2-core x86 host.
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degsplit import DemandScheme, GridInstance, solve_squares  # noqa: E402

# (width, height, radius)
RUNGS = ((100, 100, 3.1), (200, 200, 3.1), (300, 300, 3.1))
REPEATS = 3


def grid_rung(width, height, radius, repeats=REPEATS):
    """Solve one rung ``repeats`` times.  Returns the best time, the size of
    side A and the first 16 hex digits of the digest over both sides."""
    instance = GridInstance.rectangle(width, height, radius)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = solve_squares(instance, DemandScheme.HALF_DEGREE)
        best = min(best, time.perf_counter() - start)
    record = (result.side_a, result.side_b)
    return best, len(result.side_a), hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def main() -> None:
    for width, height, radius in RUNGS:
        best, size_a, digest = grid_rung(width, height, radius)
        # ru_maxrss is in kilobytes on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{width}x{height} r={radius} best of {REPEATS}: {best:.4f}s"
            f"  |A|: {size_a}  digest: {digest}  peak RSS: {peak:.0f} MB",
            flush=True,
        )


if __name__ == "__main__":
    main()
