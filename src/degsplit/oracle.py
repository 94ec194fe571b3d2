"""Ground truth by exhaustive enumeration, plus a random-instance generator
whose outputs satisfy the degree precondition by construction."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import add, or_

from .errors import GenerationFailedError, TooLargeError
from .graph import Demands, LoopMode, WeightedGraph, build_graph
from .solver import Partition, _require_matching, check_feasibility
from .value import Value

MAX_BRUTE_VERTICES = 24
# the oracle's low half has at most this many vertices: a vertex keeps up
# to 2^low bitsets of 2^low bits
_MAX_LOW_BITS = 10
# draws random_feasible_instance makes before it gives up
_MAX_RETRIES = 500


class OracleResult(Value):
    __slots__ = ("exists", "witness", "count")


def brute_force_solve(graph: WeightedGraph, demands: Demands) -> OracleResult:
    """Decide stable-partition existence by checking every split.

    Covers all 2^n - 2 assignments of vertices to side A (bit i of a mask
    set = vertex i on side A).  The witness is the smallest qualifying mask;
    count is over ordered pairs, so (A, B) and (B, A) count separately.

    A mask is (h << low) | l: l places the low half of the vertices and h
    the high half.  For each h the qualifying l form one Python-int bitset,
    the AND over every vertex and side of the l at which the vertex meets
    that side's demand or is on the other side.

    A vertex's degree on its side is the sum ``verify_partition`` makes:
    its same-side neighbours in ascending order, then its loop term.  The
    low neighbours come first; their sum is the vertex's entry in a table
    over every subset of the low vertices, built by doubling (entry m | 2^y
    is entry m plus w_xy for m below 2^y), so each entry is itself an
    ascending sum.  The high neighbours on its side, fixed by h, and the
    loop term are then added in order.  IEEE addition is monotone, so the
    degree never falls as the entry grows: the l that meet the demand are
    those whose entry reaches a threshold, a suffix of the vertex's entries
    sorted once, held as a bitset.  The threshold is found once per set of
    same-side high neighbours, by bisection on the estimate demand - loop -
    (their weights) and then by steps over distinct entries that test the
    exact sum.  So the estimate needs no error bound, and every decision is
    the float comparison ``verify_partition`` makes: the two agree on every
    split, ties included.
    """
    n = graph.n
    if n > MAX_BRUTE_VERTICES:
        raise TooLargeError(f"{n} vertices exceeds the enumeration cap {MAX_BRUTE_VERTICES}")
    _require_matching(graph, demands)
    if n < 2:
        return OracleResult(False, None, 0)

    # half the vertices balance the work per vertex over 2^low subsets
    # against the loop over 2^(n - low) high halves
    low = min((n + 1) // 2, _MAX_LOW_BITS)
    size = 1 << low
    full = size - 1
    every = (1 << size) - 1
    single = [1 << l for l in range(size)]
    # single[l ^ full]: side B reads the entry of the complement of l
    flipped = single[::-1]
    # (the high bits read, the accepted l by their pattern), one per vertex
    # and side
    constraints = []
    for x in range(n):
        row = graph.adjacency[x]
        weight = dict(row)
        sums = [0.0]
        for y in range(low):
            w = weight.get(y)
            sums += sums if w is None else list(map(w.__add__, sums))
        if x < low:
            # on side A where its own bit is set; the complements of those
            # l put it on side B, with the same entries
            order = sorted(filter((1 << x).__and__, range(size)), key=sums.__getitem__)
            on_a = reduce(or_, map(single.__getitem__, order))
            elsewhere = (every ^ on_a, on_a)
            own = 0
        else:
            # h puts it on one side for every l
            order = sorted(range(size), key=sums.__getitem__)
            elsewhere = (0, 0)
            own = 1 << (x - low)
        entries = list(map(sums.__getitem__, order))

        # each set of high neighbours as (its bits, its weights in order)
        patterns = [(0, ())]
        for y, w in row:
            if y >= low:
                bit = 1 << (y - low)
                patterns += [(p | bit, ws + (w,)) for p, ws in patterns]
        # the last pattern holds every high neighbour
        neighbours = patterns[-1][0]
        reads = neighbours | own
        loop = graph.loop_term[x]
        # a pattern left at None puts x on the other side: every l passes
        cut_a = [None] * (reads + 1)
        cut_b = [None] * (reads + 1)
        for p, ws in patterns:
            cut_a[p | own] = _threshold(entries, ws, loop, demands.a[x])
            cut_b[neighbours ^ p] = _threshold(entries, ws, loop, demands.b[x])
        # a vertex constrains no l that puts it on the other side
        for cuts, singles, bits in zip((cut_a, cut_b), (single, flipped), elsewhere):
            bitsets = _suffix_bitsets(order, cuts, singles, bits)
            bitsets[None] = every
            constraints.append((reads, list(map(bitsets.__getitem__, cuts))))

    count = 0
    witness_mask = None
    last = (1 << (n - low)) - 1
    for h in range(last + 1):
        alive = every
        # the all-B and the all-A masks split nothing
        if h == 0:
            alive ^= 1
        if h == last:
            alive ^= 1 << full
        for reads, accepted in constraints:
            alive &= accepted[h & reads]
            if not alive:
                break
        else:
            count += alive.bit_count()
            if witness_mask is None:
                witness_mask = (h << low) | ((alive & -alive).bit_length() - 1)

    if witness_mask is None:
        return OracleResult(False, None, 0)
    side_a = frozenset(x for x in range(n) if (witness_mask >> x) & 1)
    witness = Partition(side_a, frozenset(range(n)) - side_a)
    return OracleResult(True, witness, count)


def _threshold(entries, highs, loop, demand):
    """Index of the first of the ascending ``entries`` t with
    (t + highs[0] + highs[1] + ...) + loop >= demand, summed left to right;
    len(entries) if there is none."""
    k = top = bisect_left(entries, demand - loop - sum(highs))
    # the estimate ignores rounding: step over runs of equal entries, each
    # tested by the exact sum, to the first one that passes
    while k and reduce(add, highs, entries[k - 1]) + loop >= demand:
        k = bisect_left(entries, entries[k - 1], 0, k - 1)
    if k == top:
        while k < len(entries) and not reduce(add, highs, entries[k]) + loop >= demand:
            k = bisect_right(entries, entries[k], k + 1)
    return k


def _suffix_bitsets(order, cuts, single, bits):
    """By each k in ``cuts`` other than None: ``bits`` with single[l] set
    for every l in order[k:]."""
    bitsets = {}
    end = len(order)
    for k in sorted(set(cuts) - {None}, reverse=True):
        bits = reduce(or_, map(single.__getitem__, order[k:end]), bits)
        bitsets[k] = bits
        end = k
    return bitsets


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
