"""Peeling cores, meagerness tests, and inclusion-minimal demand sets.

``peel`` is the workhorse: repeatedly delete any vertex whose induced degree
falls below its threshold until none remains.  The surviving set is the
unique maximal subset in which every vertex meets its threshold, and it does
not depend on the deletion order.

Both ``peel`` and ``minimal_satisfying_set`` run one cascade engine in the
manner of Batagelj and Zaversnik's O(m) cores algorithm: each member keeps
its induced degree, seeded by ``induced_degree``, and a deletion subtracts
its edge weight from every neighbour still present.  Subtraction drifts a
few ulps from the ascending sum ``induced_degree`` returns, so the exact-tie
rule applies: when |deg(x) - (threshold(x) - tol)| <= 4 (k + 2) 2^-53 d(x),
with k the number of x's neighbours, x is decided on the exact ascending sum
instead.  Every decision is therefore the one exact recomputation makes.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import NoSatisfyingSetError
from .graph import WeightedGraph, induced_degree

Thresholds = Sequence[float]

# unit roundoff of a double
_ROUNDOFF = 2.0 ** -53


def _check_thresholds(graph: WeightedGraph, thresholds: Thresholds) -> None:
    if len(thresholds) != graph.n:
        raise ValueError(f"expected {graph.n} thresholds, got {len(thresholds)}")
    for f in thresholds:
        if math.isnan(f):
            raise ValueError("thresholds must not be NaN")


def _check_subset(graph: WeightedGraph, subset: Iterable[int]) -> set[int]:
    members = set(subset)
    for x in members:
        if not 0 <= x < graph.n:
            raise ValueError(f"vertex {x} is out of range")
    return members


def _below(graph, members, deg, floor, x) -> bool:
    # deg[x] and the ascending sum each lie within len(adjacency[x]) + 1
    # roundings of the true degree, and each subtraction adds one more; no
    # partial sum exceeds d[x], so a rounding is at most _ROUNDOFF * d[x].
    # Outside this band both values fall on the same side of the floor.
    margin = deg[x] - floor
    if abs(margin) <= 4 * (len(graph.adjacency[x]) + 2) * _ROUNDOFF * graph.d[x]:
        return induced_degree(graph, members, x) < floor
    return deg[x] < floor


def _delete(adjacency, members, deg, x, stack, removed, log) -> None:
    # remove x, subtract its weights from the members left and queue them;
    # ``log`` (when kept) records each change as (vertex, old degree)
    members.remove(x)
    removed.append(x)
    for y, w in adjacency[x]:
        if y in members:
            if log is not None:
                log.append((y, deg[y]))
            deg[y] -= w
            stack.append(y)


def _cascade(graph, members, deg, thresholds, tol, stack, removed, log=None) -> None:
    # delete every queued vertex below its threshold, and in turn whatever
    # those deletions push below theirs
    while stack:
        x = stack.pop()
        if x in members and _below(graph, members, deg, thresholds[x] - tol, x):
            _delete(graph.adjacency, members, deg, x, stack, removed, log)


def _core(graph, members, thresholds, tol) -> dict[int, float]:
    # peel ``members`` in place; returns the induced degree of each survivor
    deg = {x: induced_degree(graph, members, x) for x in members}
    _cascade(graph, members, deg, thresholds, tol, list(members), [])
    return deg


def peel(
    graph: WeightedGraph,
    subset: Iterable[int],
    thresholds: Thresholds,
    tol: float = 0.0,
) -> frozenset[int]:
    """Maximal T within ``subset`` where every member keeps induced degree
    >= thresholds[x] - tol.  Possibly empty.

    The deletion order is that of a work stack and is not part of the
    contract: adding a positive weight to an ascending sum never lowers it,
    so any order returns the same set.  Degrees are kept incrementally; a
    degree within a few ulps of its threshold is recomputed exactly with
    ``induced_degree``, so the result is the one exact recomputation gives.
    """
    _check_thresholds(graph, thresholds)
    members = _check_subset(graph, subset)
    _core(graph, members, thresholds, tol)
    return frozenset(members)


def is_meager(
    graph: WeightedGraph,
    subset: Iterable[int],
    thresholds: Thresholds,
    tol: float = 0.0,
) -> bool:
    """True when every non-empty subset of ``subset`` has a vertex with
    induced degree below thresholds[x] + W(x).

    W is the max incident weight in the whole graph, not in the induced
    subgraph.  Equivalent to the (thresholds + W)-core being empty.
    """
    _check_thresholds(graph, thresholds)
    strong = [thresholds[x] + graph.W[x] for x in range(graph.n)]
    return not peel(graph, subset, strong, tol)


def minimal_satisfying_set(
    graph: WeightedGraph,
    demands: Thresholds,
    within: Iterable[int] | None = None,
    tol: float = 0.0,
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

    One degree map serves the whole pass.  A trial cascades only from the
    deleted vertex's neighbours; when it empties the set, the deleted
    vertices come back and the logged degree changes are undone.
    """
    _check_thresholds(graph, demands)
    members = _check_subset(graph, range(graph.n) if within is None else within)
    deg = _core(graph, members, demands, tol)
    if not members:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    for v in sorted(members):
        if v not in members:
            continue
        stack, removed, log = [], [], []
        _delete(graph.adjacency, members, deg, v, stack, removed, log)
        _cascade(graph, members, deg, demands, tol, stack, removed, log)
        if not members:
            members.update(removed)
            for y, old in reversed(log):
                deg[y] = old
    return frozenset(members)
