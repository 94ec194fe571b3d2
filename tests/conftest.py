"""Shared builders and independent test oracles.

The oracle helpers here recompute induced degrees and enumerate subsets from
a plain weight dictionary on purpose: they must not share code paths with the
package functions they check.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from degsplit import Demands, LoopMode, build_graph, peel


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def complete_graph(n, w=1.0, loop_mode=LoopMode.DOUBLE):
    return build_graph(
        [(i, j, w) for i in range(n) for j in range(i + 1, n)], loop_mode
    )


@pytest.fixture
def triangle():
    return build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)])


@pytest.fixture
def path3():
    return build_graph([("x", "y", 1.0), ("y", "z", 1.0)])


@pytest.fixture
def k4():
    return complete_graph(4)


@pytest.fixture
def k9():
    return complete_graph(9)


def weight_dict(graph):
    """Symmetric weight lookup rebuilt from the adjacency (loops included as
    (x, x) keys with their raw weight)."""
    w = {}
    for x in range(graph.n):
        for y, wx in graph.adjacency[x]:
            w[(x, y)] = wx
        if graph.loops[x] > 0.0:
            w[(x, x)] = graph.loops[x]
    return w


def is_meager(graph, subset, thresholds):
    """True when every non-empty subset of ``subset`` has a vertex with
    induced degree below thresholds[x] + W(x), W taken in the whole graph:
    the (thresholds + W)-core is empty.  Built on ``peel``, so it is not an
    oracle for ``peel`` itself."""
    return not peel(graph, subset, [t + w for t, w in zip(thresholds, graph.W)])


def plain_induced_degree(weights, loop_factor, members, x):
    """Independent induced-degree computation from a weight dict."""
    total = 0.0
    for y in members:
        if y == x:
            continue
        total += weights.get((x, y), 0.0)
    total += loop_factor * weights.get((x, x), 0.0)
    return total


def branching_degree(graph, members, x):
    """x's degree in ``members`` (x itself need not be one) as the package
    summed it before the loop term was cached: the member neighbours'
    weights in ascending order, then factor * w_xx under an ``if``, only
    where x has a loop."""
    total = 0.0
    for y, w in graph.adjacency[x]:
        if y in members:
            total += w
    if graph.loops[x]:
        total += graph.loop_mode.factor * graph.loops[x]
    return total


def qualifying_subsets(graph, subset, thresholds):
    """All non-empty subsets T of ``subset`` with every member's induced
    degree >= its threshold.  Exponential; keep n small."""
    weights = weight_dict(graph)
    factor = graph.loop_mode.factor
    out = []
    items = sorted(subset)
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            members = set(combo)
            if all(
                plain_induced_degree(weights, factor, members, x) >= thresholds[x]
                for x in members
            ):
                out.append(frozenset(members))
    return out


def reduce_loops(graph, demands):
    """The loop-reduced instance: the graph rebuilt from its edges without
    the loops, and each demand lowered by its vertex's loop share
    factor * w_xx, clamped at zero.  A partition stable for it is stable for
    the looped instance, since each loop stays on its vertex's side."""
    edges = [
        (graph.labels[x], graph.labels[y], w)
        for x in range(graph.n)
        for y, w in graph.adjacency[x]
        if x < y
    ]
    loopless = build_graph(edges, graph.loop_mode, vertices=graph.labels)
    shares = [graph.loop_mode.factor * w for w in graph.loops]
    return loopless, Demands(
        [max(0.0, a - s) for a, s in zip(demands.a, shares)],
        [max(0.0, b - s) for b, s in zip(demands.b, shares)],
    )


def physical_majority_instance(graph):
    """The loopless physical-majority instance of a grid graph: the graph
    rebuilt from its edges without the loops, and demands
    max(0, T/2 - w_xx), T the area x's disk covers (its row's weights plus
    its own square once).  A partition stable for it keeps at least half of
    every cell's covered area on the cell's own side."""
    loopless, _ = reduce_loops(graph, Demands.constant(graph.n, 0.0, 0.0))
    covered = [sum(w for _, w in row) + loop for row, loop in zip(graph.adjacency, graph.loops)]
    demands = [max(0.0, t / 2.0 - loop) for t, loop in zip(covered, graph.loops)]
    return loopless, Demands(demands, demands)


def random_graph(rng: random.Random, n, p, weight_range=(0.1, 2.0), loops=False,
                 loop_mode=LoopMode.DOUBLE):
    """Plain random graph builder independent of the package generator."""
    lo, hi = weight_range
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, rng.uniform(lo, hi)))
    if loops:
        for i in range(n):
            if rng.random() < 0.5:
                edges.append((i, i, rng.uniform(lo, hi)))
    return build_graph(edges, loop_mode, vertices=range(n))


def zero_band(graph):
    """Which rows of ``graph`` have a band of 0 (the exact rows); every other
    row's band must be positive."""
    assert all(b > 0.0 for b in graph.band if b != 0.0)
    return tuple(b == 0.0 for b in graph.band)


def mixed_graph(rng: random.Random, n, p, fractional, integer_weights=(1.0,),
                loop_mode=LoopMode.DOUBLE, loops=False):
    """G(n, p) with exact rows and banded rows side by side: an edge that
    touches one of ``fractional`` chosen vertices weighs 0.1, 0.3 or 1/3,
    any other one of ``integer_weights``.  With ``loops``, about half the
    vertices get a loop of 0.5 or 1, whose term is an integer except for
    0.5 under ONCE."""
    chosen = set(rng.sample(range(n), fractional))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if i in chosen or j in chosen:
                    edges.append((i, j, rng.choice((0.1, 0.3, 1.0 / 3.0))))
                else:
                    edges.append((i, j, rng.choice(integer_weights)))
    if loops:
        edges += [(x, x, rng.choice((0.5, 1.0))) for x in range(n) if rng.random() < 0.5]
    return build_graph(edges, loop_mode, vertices=range(n))


def random_demands(rng: random.Random, n, high):
    return Demands(
        tuple(rng.uniform(0.0, high) for _ in range(n)),
        tuple(rng.uniform(0.0, high) for _ in range(n)),
    )
