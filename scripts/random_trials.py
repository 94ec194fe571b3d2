#!/usr/bin/env python3
"""Stress the solver on random feasible instances, cross-check against the
brute-force oracle on small ones, and print hill-climb move statistics.

Example:
    python scripts/random_trials.py --trials 2000 --max-n 14 --seed 7
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degsplit import (  # noqa: E402
    brute_force_solve,
    random_feasible_instance,
    solve,
    verify_partition,
)
from degsplit.solver import PHASE_HILLCLIMB  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--oracle-max-n", type=int, default=12,
                        help="cross-check existence by enumeration up to this size")
    args = parser.parse_args()

    sizes = range(args.min_n, args.max_n + 1)
    probabilities = (0.5, 0.8, 1.0)
    move_histogram = Counter()
    climbs = 0
    oracle_checked = 0
    start = time.perf_counter()

    for i in range(args.trials):
        n = sizes[i % len(sizes)]
        p = probabilities[i % 3] if n > 3 else 0.5
        graph, demands = random_feasible_instance(
            n, p, (0.5, 1.0), seed=args.seed * 1_000_003 + i
        )
        partition, cert = solve(graph, demands)
        violations = verify_partition(graph, demands, partition)
        if violations:
            print(f"FAIL trial {i}: {len(violations)} violations")
            return 1
        if PHASE_HILLCLIMB in cert.phase_log:
            climbs += 1
            move_histogram[len(cert.moves)] += 1
        if n <= args.oracle_max_n:
            if not brute_force_solve(graph, demands).exists:
                print(f"FAIL trial {i}: oracle says no stable partition exists")
                return 1
            oracle_checked += 1

    elapsed = time.perf_counter() - start
    print(f"{args.trials} trials in {elapsed:.1f} s, all partitions verified")
    print(f"oracle confirmed existence on {oracle_checked} instances (n <= {args.oracle_max_n})")
    print(f"hill-climb entered in {climbs} runs; move counts: "
          f"{dict(sorted(move_histogram.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
