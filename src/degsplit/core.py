"""Peeling cores and inclusion-minimal demand sets.

``peel`` is the workhorse: repeatedly delete any vertex whose induced degree
falls below its threshold until none remains.  The surviving set is the
unique maximal subset in which every vertex meets its threshold, and it does
not depend on the deletion order.

Both ``peel`` and ``minimal_satisfying_set`` run one cascade engine in the
manner of Batagelj and Zaversnik's O(m) cores algorithm, and the solver's
hill-climb sides run it too.  Its state is two flat arrays indexed by vertex:
a ``bytearray`` of membership flags and a ``list`` of kept degrees, so a
neighbour update costs two index operations and no hashing.  Each member's
entry holds its induced degree, and a deletion clears the member's flag and
subtracts its edge weight from every neighbour still flagged; entries of
vertices left out are never read.  Subtraction drifts a few ulps from the
ascending sum ``induced_degree`` returns, so the exact-tie rule applies:
when |deg(x) - threshold(x)| <= band(x) = 8 (k + 2) 2^-53 d(x), with k the
number of x's neighbours, x is decided on the exact ascending sum instead.
Every decision is therefore the one exact recomputation makes.

The exact sum is ``_exact``, which tests a flag where ``induced_degree``
tests set membership.  It adds the same weights (the flagged neighbours',
in the ascending order of the row) and then the loop term, the same
product, last; floating-point addition in the same order on the same
operands gives the same double, so the two agree bit for bit.  It does not
test x's own flag, so on a vertex left out it gives the degree x would have
on joining the set.

A deletion queues only the neighbours that can fall: a vertex whose kept
degree still exceeds its threshold by more than its band would be kept at its
pop without an exact sum, and degrees only fall during a cascade, so the next
decrement that brings it within reach queues it again.  Every kept degree
starts from ``_seed``: ``graph.d`` for a member that no vertex left out is a
neighbour of, since its whole row lies in the set and ``_exact`` would add
the same terms in the same order, and ``_exact`` for the rest.

The band is the one place that bounds how far a kept degree may drift.  It
covers a degree seeded by an exact sum (k + 1 roundings), then up to k
single-edge updates before the solver's hill-climb reseeds it, then up to k
cascade subtractions, against an exact sum of k + 1 roundings: 4k + 2
roundings of at most about 2^-53 d(x) each, with a factor of two to spare.
``_bands`` computes it for every vertex once per public call (and once for
both hill-climb sides), as a list the cascade reads.

``minimal_satisfying_set`` also stops failing trials early.  Call a member
essential once its own trial has failed, that is, left the rest's core empty.
A later trial of v that would delete an essential vertex u is abandoned and
fails too: core(S - v) lies in S - u and so in core(S - u), which lies in
core(S_u - u) = {} for the larger set S_u that u was tried in.  The trial is
abandoned at the decrement already: when a deletion lowers u's kept degree
below threshold(u) - band(u), the cascade would delete u without an exact
sum, since degrees only fall during a cascade.  Inside the band the trial
goes on, and u is decided on the exact sum when the cascade reaches it.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Sequence

from .errors import NoSatisfyingSetError
from .graph import WeightedGraph

Thresholds = Sequence[float]

# unit roundoff of a double
_ROUNDOFF = 2.0 ** -53


def _check_thresholds(graph: WeightedGraph, thresholds: Thresholds) -> None:
    if len(thresholds) != graph.n:
        raise ValueError(f"expected {graph.n} thresholds, got {len(thresholds)}")
    for f in thresholds:
        if math.isnan(f):
            raise ValueError("thresholds must not be NaN")


def _flags(graph: WeightedGraph, subset: Iterable[int]) -> bytearray:
    # one membership flag per vertex, for a subset checked to be in range
    flags = bytearray(graph.n)
    for x in subset:
        if not 0 <= x < graph.n:
            raise ValueError(f"vertex {x} is out of range")
        flags[x] = 1
    return flags


def _bands(graph: WeightedGraph) -> list[float]:
    # bound on |kept degree - ascending sum| per vertex (see the module
    # docstring): no partial sum exceeds d[x], so a rounding is at most
    # _ROUNDOFF * d[x]
    return [8 * (len(adj) + 2) * _ROUNDOFF * d for adj, d in zip(graph.adjacency, graph.d)]


def _exact(graph: WeightedGraph, flags, x: int) -> float:
    # induced_degree of x in the flagged set plus x itself: the same terms
    # in the same ascending order, loop last, so the same sum bit for bit
    total = 0.0
    for y, w in graph.adjacency[x]:
        if flags[y]:
            total += w
    if graph.loops[x]:
        total += graph.loop_mode.factor * graph.loops[x]
    return total


def _delete(adjacency, flags, deg, thresholds, band, stop, x, stack, removed, log) -> bool:
    # remove x, subtract its weights from the members left and queue those
    # that can fall; ``log`` (when kept) records each change as (vertex, old
    # degree).  False, cut short, once a vertex flagged in ``stop`` falls
    # below its threshold by more than its band: the cascade would delete it
    flags[x] = 0
    removed.append(x)
    for y, w in adjacency[x]:
        if flags[y]:
            if log is not None:
                log.append((y, deg[y]))
            deg[y] -= w
            gap = thresholds[y] - deg[y]
            # further above its threshold than its band, y would be kept at
            # its pop; a later decrement that brings it within reach queues it
            if gap >= -band[y]:
                if stop[y] and gap > band[y]:
                    return False
                stack.append(y)
    return True


def _cascade(graph, flags, deg, thresholds, band, stop, stack, removed, log=None) -> bool:
    # delete every queued vertex below its threshold, and in turn whatever
    # those deletions push below theirs; False, with the cascade cut short,
    # as soon as it would delete a vertex flagged in ``stop``
    adjacency = graph.adjacency
    while stack:
        x = stack.pop()
        if not flags[x]:
            continue
        floor = thresholds[x]
        # outside the band the kept degree and the exact sum fall on the same
        # side of the floor
        if abs(deg[x] - floor) <= band[x]:
            below = _exact(graph, flags, x) < floor
        else:
            below = deg[x] < floor
        if below:
            if stop[x] or not _delete(
                adjacency, flags, deg, thresholds, band, stop, x, stack, removed, log
            ):
                return False
    return True


def _seed(graph, flags) -> list[float]:
    # the induced degree of each flagged vertex (other entries are d[x] and
    # meaningless): d[x] when no vertex left out is a neighbour of x, since
    # the ascending sum is then d[x] bit for bit
    adjacency, n = graph.adjacency, graph.n
    deg = list(graph.d)
    reached = bytearray(n)
    for x in range(n):
        if not flags[x]:
            for y, _ in adjacency[x]:
                reached[y] = 1
    for x in compress(range(n), reached):
        if flags[x]:
            deg[x] = _exact(graph, flags, x)
    return deg


def _core(graph, flags, thresholds, band, stop) -> list[float]:
    # peel the flagged set in place from freshly seeded degrees; returns
    # the kept degrees, exact within the band for every survivor
    deg = _seed(graph, flags)
    stack = list(compress(range(graph.n), flags))
    _cascade(graph, flags, deg, thresholds, band, stop, stack, [])
    return deg


def peel(graph: WeightedGraph, subset: Iterable[int], thresholds: Thresholds) -> frozenset[int]:
    """Maximal T within ``subset`` where every member keeps induced degree
    >= thresholds[x].  Possibly empty.

    The deletion order is that of a work stack and is not part of the
    contract: adding a positive weight to an ascending sum never lowers it,
    so any order returns the same set.  Degrees are kept incrementally; a
    degree within a few ulps of its threshold is recomputed as the exact
    ascending sum, so the result is the one exact recomputation gives.
    """
    _check_thresholds(graph, thresholds)
    flags = _flags(graph, subset)
    _core(graph, flags, thresholds, _bands(graph), bytes(graph.n))
    return frozenset(compress(range(graph.n), flags))


def minimal_satisfying_set(
    graph: WeightedGraph,
    demands: Thresholds,
    within: Iterable[int] | None = None,
) -> frozenset[int]:
    """A non-empty inclusion-minimal set whose members all meet their demand
    inside it.

    Starts from the full core and makes one pass over its members in
    ascending index: each member still present is deleted, and the core of
    the rest replaces the current set whenever it is non-empty.  No restart
    is needed because peel is monotone (the core of a subset lies inside the
    core of any superset): a deletion that collapsed a superset collapses
    every subset too.  So no proper non-empty subset of the result has the
    all-members property.

    One flag array and one degree list serve the whole pass, and a counter
    tracks the set's size.  A trial cascades only from the deleted vertex's
    neighbours; when it empties the set, the deleted vertices are flagged
    again and the logged degree changes are undone.  A member
    whose trial failed is essential, and a trial that would delete an
    essential vertex fails at that point, or already when a deletion takes
    the essential vertex's degree below its demand by more than the exact-tie
    band: the core of the rest is empty because it lies in the core of the
    larger set the essential vertex was tried in, minus that vertex, which
    was empty.
    """
    _check_thresholds(graph, demands)
    flags = _flags(graph, range(graph.n) if within is None else within)
    band = _bands(graph)
    essential = bytearray(graph.n)
    deg = _core(graph, flags, demands, band, essential)
    core = list(compress(range(graph.n), flags))
    if not core:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    size = len(core)
    adjacency = graph.adjacency
    for v in core:
        if not flags[v]:
            continue
        stack, removed, log = [], [], []
        kept = _delete(
            adjacency, flags, deg, demands, band, essential, v, stack, removed, log
        ) and _cascade(graph, flags, deg, demands, band, essential, stack, removed, log)
        if kept and len(removed) < size:
            size -= len(removed)
        else:
            for x in removed:
                flags[x] = 1
            for y, old in reversed(log):
                deg[y] = old
            essential[v] = 1
    return frozenset(compress(range(graph.n), flags))
