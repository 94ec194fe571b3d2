"""Ground truth by exhaustive enumeration, plus a random-instance generator
whose outputs satisfy the degree precondition by construction."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import GenerationFailedError, TooLargeError
from .graph import Demands, LoopMode, WeightedGraph, build_graph
from .solver import Partition, check_feasibility

MAX_BRUTE_VERTICES = 24
_CHUNK = 1 << 16
# draws random_feasible_instance makes before it gives up
_MAX_RETRIES = 500


@dataclass(frozen=True)
class OracleResult:
    exists: bool
    witness: Partition | None
    count: int


def _weight_matrix(graph: WeightedGraph):
    # numpy is imported here and in brute_force_solve only, so that the
    # solver and the other CLI subcommands never pay for loading it
    import numpy as np

    m = np.zeros((graph.n, graph.n))
    for x in range(graph.n):
        for y, w in graph.adjacency[x]:
            m[x, y] = w
        m[x, x] = graph.loop_mode.factor * graph.loops[x]
    return m


def brute_force_solve(graph: WeightedGraph, demands: Demands) -> OracleResult:
    """Decide stable-partition existence by checking every split.

    Enumerates all 2^n - 2 assignments of vertices to side A in ascending
    bitmask order (bit i set = vertex i on side A).  The witness is the
    smallest qualifying mask; count is over ordered pairs, so (A, B) and
    (B, A) count separately.
    """
    n = graph.n
    if n > MAX_BRUTE_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the enumeration cap {MAX_BRUTE_VERTICES}")
    if len(demands) != n:
        raise ValueError("demands do not match the graph")
    if n < 2:
        return OracleResult(False, None, 0)

    import numpy as np

    weights = _weight_matrix(graph)
    totals = weights.sum(axis=0)
    a = np.asarray(demands.a)
    b = np.asarray(demands.b)
    shifts = np.arange(n, dtype=np.uint64)

    count = 0
    witness_mask = None
    top = (1 << n) - 1
    for lo in range(1, top, _CHUNK):
        hi = min(lo + _CHUNK, top)
        masks = np.arange(lo, hi, dtype=np.uint64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        deg_a = bits @ weights
        deg_b = totals[None, :] - deg_a
        bad = ((bits == 1.0) & (deg_a < a[None, :])) | ((bits == 0.0) & (deg_b < b[None, :]))
        ok = ~bad.any(axis=1)
        count += int(ok.sum())
        if witness_mask is None and ok.any():
            witness_mask = int(masks[int(np.argmax(ok))])

    if witness_mask is None:
        return OracleResult(False, None, 0)
    side_a = frozenset(x for x in range(n) if (witness_mask >> x) & 1)
    witness = Partition(side_a, frozenset(range(n)) - side_a)
    return OracleResult(True, witness, count)


def random_feasible_instance(
    n: int,
    edge_probability: float,
    weight_range: tuple[float, float],
    seed: int,
) -> tuple[WeightedGraph, Demands]:
    """Sample a loopless graph with non-negative slack s(x) = d(x) - 2W(x)
    everywhere, then split that slack into demands a(x) = u*s(x) and
    b(x) = v*(s(x) - a(x)) with u, v uniform in [0, 1].

    The result satisfies d >= a + b + 2W at every vertex by construction.
    Deterministic for a fixed seed; draws with negative slack are resampled,
    and GenerationFailedError is raised after ``_MAX_RETRIES`` misses (the
    requested density cannot avoid low-degree vertices).
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    lo, hi = weight_range
    if not (0.0 < lo <= hi):
        raise ValueError("weight_range must be positive and ordered")
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError("edge_probability must lie in [0, 1]")

    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < edge_probability:
                    edges.append((i, j, rng.uniform(lo, hi)))
        graph = build_graph(edges, LoopMode.DOUBLE, vertices=range(n))
        slack = check_feasibility(graph, Demands.constant(n, 0.0, 0.0)).slack
        if min(slack) < 0.0:
            continue
        a = []
        b = []
        for x in range(n):
            ax = rng.random() * slack[x]
            a.append(ax)
            b.append(rng.random() * (slack[x] - ax))
        return graph, Demands(tuple(a), tuple(b))
    raise GenerationFailedError(
        f"no draw with non-negative slack in {_MAX_RETRIES} attempts "
        f"(n={n}, p={edge_probability})"
    )
