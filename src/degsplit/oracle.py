"""Ground truth by exhaustive enumeration, plus a random-instance generator
whose outputs satisfy the degree precondition by construction."""

from __future__ import annotations

import math
import random

from .errors import GenerationFailedError, TooLargeError
from .graph import Demands, LoopMode, WeightedGraph, build_graph
from .solver import Partition, _require_matching, check_feasibility
from .value import Value

MAX_BRUTE_VERTICES = 24
# vertices below this index vary within a chunk of masks
_LOW_BITS = 16
# draws random_feasible_instance makes before it gives up
_MAX_RETRIES = 500


class OracleResult(Value):
    __slots__ = ("exists", "witness", "count")


def brute_force_solve(graph: WeightedGraph, demands: Demands) -> OracleResult:
    """Decide stable-partition existence by checking every split.

    Covers all 2^n - 2 assignments of vertices to side A (bit i of a mask
    set = vertex i on side A).  The witness is the smallest qualifying mask;
    count is over ordered pairs, so (A, B) and (B, A) count separately.

    The masks go in chunks of 2^16, one chunk per pattern of the vertices
    from index 16 up.  A table built by doubling holds each vertex's degree
    into every subset of the lower vertices: entry m | 2^y is entry m plus
    w_xy for m below 2^y, so each entry is summed in ascending neighbour
    order.  Within a chunk the vertices are tested one at a time, and only
    the masks that still pass go on to the next vertex.  A vertex's degree
    on side A is its table entry at the mask, on side B the entry at the
    complement, plus its higher neighbours on the same side in ascending
    order, plus its loop term last: exactly the sums ``induced_degree``
    makes, so the oracle accepts a split exactly when ``verify_partition``
    does.
    """
    n = graph.n
    if n > MAX_BRUTE_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the enumeration cap {MAX_BRUTE_VERTICES}")
    _require_matching(graph, demands)
    if n < 2:
        return OracleResult(False, None, 0)

    # numpy is imported here only, so that the solver and the other CLI
    # subcommands never pay for loading it
    import numpy as np

    low = min(n, _LOW_BITS)
    size = 1 << low
    full = size - 1
    weights = np.zeros((n, low))
    for x in range(n):
        for y, w in graph.adjacency[x]:
            if y < low:
                weights[x, y] = w
    tables = np.zeros((n, size))
    for y in range(low):
        half = 1 << y
        np.add(tables[:, :half], weights[:, y : y + 1], out=tables[:, half : 2 * half])
    higher = [[(y, w) for y, w in graph.adjacency[x] if y >= low] for x in range(n)]

    count = 0
    witness_mask = None
    chunks = 1 << (n - low)
    for h in range(chunks):
        # the all-B and the all-A masks split nothing
        alive = np.arange(1 if h == 0 else 0, full if h == chunks - 1 else size)
        for x in range(n):
            # x's side: per mask below index 16, fixed by the chunk above
            if x < low:
                in_a = (alive >> x) & 1 == 1
            else:
                in_a = (h >> (x - low)) & 1 == 1
            deg = tables[x][np.where(in_a, alive, alive ^ full)]
            for y, w in higher[x]:
                # adding 0.0 where y is on the other side changes no sum
                y_in_a = (h >> (y - low)) & 1
                deg += np.where(in_a, w if y_in_a else 0.0, 0.0 if y_in_a else w)
            demand = np.where(in_a, demands.a[x], demands.b[x])
            if graph.loop_term[x]:
                deg += graph.loop_term[x]
            alive = alive[deg >= demand]
            if not alive.size:
                break
        count += alive.size
        if witness_mask is None and alive.size:
            witness_mask = (h << low) | int(alive[0])

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
    if not (0.0 < lo <= hi) or math.isinf(hi):
        raise ValueError("weight_range must be positive, finite and ordered")
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
