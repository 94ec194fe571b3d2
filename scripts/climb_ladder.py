#!/usr/bin/env python3
"""Time ``solve`` on hill-climbing instances of growing size.

Each rung is a G(n, p) at exactly zero slack, a = b = (d - 2W) / 2, drawn
for two seeds.  Most rungs have unit weights, so every row is an integer
row and its kept degrees are exact sums.  The G(100, 0.3) and G(400, 0.3)
rungs also have a half-weight twin: the same graph with every weight 0.5
and its demands taken from its own d and W.  Its rows are not integer rows,
so they take the exact-tie band path, but every sum is still exact, so the
twin makes the unit rung's moves with every h exactly halved.  For each
rung the script prints the best-of-three solve time of each seed's instance,
its number of hill-climb moves, and a SHA-256 over both seeds' partitions
and moves, so that two checkouts can be shown to climb the same way.  A
twin's h values are scaled back by 1 / weight before hashing, so a twin
prints its unit rung's digest exactly when it makes the same moves.
``climb_rung`` runs one rung and returns what the script prints for it:

    python scripts/climb_ladder.py

Graph building is not timed.  A run takes about 15 s on a 2-core x86
host, half of it on the G(3200, 0.01) rung, which shows how the climb grows
on sparse graphs.
"""

import hashlib
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degsplit import Demands, Move, build_graph, solve  # noqa: E402

# (n, p, weight of every edge)
RUNGS = (
    (100, 0.3, 1.0),
    (100, 0.3, 0.5),
    (400, 0.3, 1.0),
    (400, 0.3, 0.5),
    (800, 0.3, 1.0),
    (1600, 0.02, 1.0),
    (3200, 0.01, 1.0),
)
SEEDS = (1, 2)
REPEATS = 3


def zero_slack_instance(n, p, seed, weight=1.0):
    rng = random.Random(seed)
    edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    graph = build_graph(edges, vertices=range(n))
    demand = tuple(max(0.0, (d - 2.0 * w) / 2.0) for d, w in zip(graph.d, graph.W))
    return graph, Demands(demand, demand)


def climb_rung(n, p, weight=1.0, repeats=REPEATS):
    """Solve each seed's instance of one rung ``repeats`` times.  Returns the
    best solve time and the number of moves per seed, and the first 16 hex
    digits of the digest over both seeds' partitions and moves."""
    digest = hashlib.sha256()
    times, moves = [], []
    for seed in SEEDS:
        graph, demands = zero_slack_instance(n, p, seed, weight)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            partition, cert = solve(graph, demands)
            best = min(best, time.perf_counter() - start)
        times.append(best)
        moves.append(len(cert.moves))
        scale = 1.0 / weight
        scaled = [
            Move(m.vertex, m.from_side, m.to_side, m.h_before * scale, m.h_after * scale)
            for m in cert.moves
        ]
        record = (sorted(partition.a), sorted(partition.b), scaled)
        digest.update(repr(record).encode() + b"\n")
    return times, moves, digest.hexdigest()[:16]


def main() -> None:
    for n, p, weight in RUNGS:
        times, moves, digest = climb_rung(n, p, weight)
        label = f"G({n}, {p})" + ("" if weight == 1.0 else f" w={weight}")
        print(
            f"{label} best of {REPEATS}: "
            + " ".join(f"{t:.4f}s" for t in times)
            + "  moves: "
            + " ".join(map(str, moves))
            + f"  digest: {digest}",
            flush=True,
        )


if __name__ == "__main__":
    main()
