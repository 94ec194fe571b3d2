"""Peeling cores, meagerness tests, and inclusion-minimal demand sets.

``peel`` is the workhorse: repeatedly delete any vertex whose induced degree
falls below its threshold until none remains.  The surviving set is the
unique maximal subset in which every vertex meets its threshold, and it does
not depend on the deletion order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import NoSatisfyingSetError
from .graph import WeightedGraph, induced_degree

Thresholds = Sequence[float]


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


def peel(
    graph: WeightedGraph,
    subset: Iterable[int],
    thresholds: Thresholds,
    tol: float = 0.0,
) -> frozenset[int]:
    """Maximal T within ``subset`` where every member keeps induced degree
    >= thresholds[x] - tol.  Possibly empty.

    Deletion order: the most violating vertex first (smallest degree-minus-
    threshold margin, ties by index).  The order only fixes the trace; the
    returned set is the same for any order.
    """
    _check_thresholds(graph, thresholds)
    members = _check_subset(graph, subset)
    deg = {x: induced_degree(graph, members, x) for x in members}
    while True:
        worst = None
        worst_key = None
        for x in members:
            if deg[x] < thresholds[x] - tol:
                key = (deg[x] - thresholds[x], x)
                if worst is None or key < worst_key:
                    worst, worst_key = x, key
        if worst is None:
            return frozenset(members)
        members.remove(worst)
        for y, _ in graph.adjacency[worst]:
            if y in members:
                deg[y] = induced_degree(graph, members, y)


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
    """
    universe = frozenset(range(graph.n)) if within is None else frozenset(within)
    current = peel(graph, universe, demands, tol)
    if not current:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    for v in sorted(current):
        if v in current:
            candidate = peel(graph, current - {v}, demands, tol)
            if candidate:
                current = candidate
    return current
