#!/usr/bin/env python3
"""Time ``solve`` on hill-climbing instances of growing size.

Each rung is a unit-weight G(n, p) at exactly zero slack, a = b = (d - 2W) / 2
(every sum is an exact half-integer), drawn for two seeds.  For each rung the
script prints the best-of-three solve time of each seed's instance, its
number of hill-climb moves, and a SHA-256 over both seeds' partitions and
moves, so that two checkouts can be shown to climb the same way:

    python scripts/climb_ladder.py

Graph building is not timed.  A run takes about half a minute on a 2-core
x86 host.
"""

import hashlib
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degsplit import Demands, build_graph, solve  # noqa: E402

RUNGS = ((100, 0.3), (400, 0.3), (800, 0.3), (1600, 0.02))
SEEDS = (1, 2)
REPEATS = 3


def zero_slack_instance(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    graph = build_graph(edges, vertices=range(n))
    demand = tuple(max(0.0, (d - 2.0 * w) / 2.0) for d, w in zip(graph.d, graph.W))
    return graph, Demands(demand, demand)


def main() -> None:
    for n, p in RUNGS:
        digest = hashlib.sha256()
        times, moves = [], []
        for seed in SEEDS:
            graph, demands = zero_slack_instance(n, p, seed)
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                partition, cert = solve(graph, demands)
                best = min(best, time.perf_counter() - start)
            times.append(best)
            moves.append(len(cert.moves))
            record = (sorted(partition.a), sorted(partition.b), cert.moves)
            digest.update(repr(record).encode() + b"\n")
        print(
            f"G({n}, {p}) best of {REPEATS}: "
            + " ".join(f"{t:.4f}s" for t in times)
            + "  moves: "
            + " ".join(map(str, moves))
            + f"  digest: {digest.hexdigest()[:16]}",
            flush=True,
        )


if __name__ == "__main__":
    main()
