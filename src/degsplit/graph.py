"""Weighted undirected graph model.

Vertices are dense indices 0..n-1 behind arbitrary hashable labels.  The
graph caches, per vertex, the loop term ``loop_term`` (what x's loop adds to
its degree under the declared convention: w_xx or 2 w_xx, 0.0 without a
loop), the degree ``d`` (the incident weights in ascending-neighbor order,
then the loop term) and ``W`` (largest non-loop incident weight), so that
rebuilding the same graph from a shuffled edge list reproduces them bit for
bit.  Every side degree in the package is ``_side_degree``, which ends in
the cached loop term, so nothing else reads the convention.  A fourth cache,
``band``, bounds how far a degree kept by adding and subtracting the row's
weights may drift from the ascending sum (see ``core``): 8 (k + 2) 2^-53 d
for a row of k neighbours, since no partial sum exceeds d and so no rounding
exceeds 2^-53 d.  An exact row gets 0: every edge weight and the loop term
are integers and ``d`` is below 2^53, so every sum of the row's terms, in
any order, is an integer a double holds exactly.

Every graph is made by ``_assemble``, the one place that computes the caches;
``build_graph`` and ``geometry.build_grid_graph`` end in it.
The grid build also flags each row that holds the previous row's weights in
the same order.  Such a row's partial sum is the same additions of the same
doubles in the same order, so it rounds to the same double; ``_assemble``
takes it, the maximum and the integer test from the row before, and still
adds the row's own loop term and forms its own band.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Hashable, Iterable

from .errors import DuplicateEdgeError, NonPositiveWeightError
from .value import Value

Label = Hashable

# integers below this are doubles, and so are all their sums and differences
# that stay below it
_EXACT_LIMIT = 2.0 ** 53
# unit roundoff of a double
_ROUNDOFF = 2.0 ** -53
_weight = itemgetter(1)


class LoopMode(Enum):
    """Loop-degree convention: a loop of weight w adds w (ONCE) or 2w (DOUBLE)
    to the degree of its vertex.  DOUBLE is the default."""

    ONCE = "once"
    DOUBLE = "double"

    @property
    def factor(self) -> int:
        return 1 if self is LoopMode.ONCE else 2


class WeightedGraph(Value):
    """Immutable weighted graph with validated, symmetric positive weights.

    ``adjacency[x]`` lists ``(neighbor, weight)`` pairs sorted by neighbor
    index and never contains x itself; loops live in ``loops[x]`` (0 means no
    loop).  Equality leaves out ``label_index`` and the repr shows ``n`` and
    ``loop_mode`` only.  Safe to share between threads once built.
    """

    __slots__ = (
        "n", "labels", "adjacency", "loops", "loop_mode", "loop_term", "d", "W", "band",
        "label_index",
    )
    _uncompared = ("label_index",)
    _unshown = ("labels", "adjacency", "loops", "loop_term", "d", "W", "band", "label_index")

    def index_of(self, label: Label) -> int:
        return self.label_index[label]


class Demands(Value):
    """Per-vertex non-negative degree targets for the two sides."""

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable[float], b: Iterable[float]):
        a = tuple([float(v) for v in a])
        b = tuple([float(v) for v in b])
        if len(a) != len(b):
            raise ValueError("demand vectors differ in length")
        for values in (a, b):
            for v in values:
                if not math.isfinite(v) or v < 0.0:
                    raise ValueError(f"demands must be finite and non-negative, got {v}")
        super().__init__(a, b)

    @classmethod
    def constant(cls, n: int, a: float, b: float) -> "Demands":
        return cls((float(a),) * n, (float(b),) * n)

    def __len__(self) -> int:
        return len(self.a)


def _assemble(
    labels: tuple[Label, ...],
    adjacency: tuple[tuple[tuple[int, float], ...], ...],
    loops: tuple[float, ...],
    loop_mode: LoopMode,
    label_index: dict[Label, int],
    repeats: Iterable[bool] = (),
) -> WeightedGraph:
    # rows must already be symmetric, positive and in ascending neighbour
    # order; a true repeats[x] says that row x holds the weights of row
    # x - 1 in the same order
    factor = loop_mode.factor
    terms = [factor * w for w in loops]
    degrees = []
    maxima = []
    bands = []
    for row, term, same in zip(adjacency, terms, repeats or repeat(False)):
        if not same:
            partial = 0.0
            best = 0.0
            for _, w in row:
                partial += w
                if w > best:
                    best = w
            integral = all(map(float.is_integer, map(_weight, row)))
        # the loop term last; adding 0.0 where there is no loop changes nothing
        total = partial + term
        if not math.isfinite(total):
            label = labels[len(degrees)]
            raise ValueError(f"vertex {label!r} has degree {total}; degrees must be finite")
        degrees.append(total)
        maxima.append(best)
        # a row with a non-integer weight (every grid row) stops at the first
        # test.  total needs no integer test: adding integers is exact while
        # the sum stays at or below 2^53, a sum above it rounds to at least
        # 2^53, and adding a non-negative term never lowers a sum, so a total
        # below 2^53 is the exact integer sum
        if integral and total < _EXACT_LIMIT and term.is_integer():
            bands.append(0.0)
        else:
            bands.append(8 * (len(row) + 2) * _ROUNDOFF * total)
    return WeightedGraph(
        n=len(labels),
        labels=labels,
        adjacency=adjacency,
        loops=loops,
        loop_mode=loop_mode,
        loop_term=tuple(terms),
        d=tuple(degrees),
        W=tuple(maxima),
        band=tuple(bands),
        label_index=label_index,
    )


def _side_degree(graph: WeightedGraph, flags, x: int) -> float:
    # x's degree in the flagged set plus x: the weights to its flagged
    # neighbours in ascending order, then its loop term, so with every
    # neighbour flagged it makes _assemble's additions and gives d[x]
    total = 0.0
    for y, w in graph.adjacency[x]:
        if flags[y]:
            total += w
    return total + graph.loop_term[x]


def build_graph(
    edges: Iterable[tuple[Label, Label, float]],
    loop_mode: LoopMode = LoopMode.DOUBLE,
    vertices: Iterable[Label] = (),
) -> WeightedGraph:
    """Validate an edge list and build a graph with populated caches.

    Labels map to dense indices in first-appearance order (entries of
    ``vertices`` first, which also allows isolated vertices).  An entry
    ``(u, u, w)`` declares a loop.  Raises NonPositiveWeightError for weights
    that are not strictly positive, DuplicateEdgeError when a pair appears
    twice in either orientation and ValueError when a degree overflows.
    """
    label_index: dict[Label, int] = {}
    # rows[x] maps each neighbour of x to the weight of their edge
    rows: list[dict[int, float]] = []

    def intern(label: Label) -> int:
        idx = label_index.get(label)
        if idx is None:
            idx = label_index[label] = len(rows)
            rows.append({})
        return idx

    for label in vertices:
        intern(label)

    loop_weights: dict[int, float] = {}
    for u, v, w in edges:
        w = float(w)
        if not (w > 0.0) or math.isinf(w):
            raise NonPositiveWeightError(f"edge ({u!r}, {v!r}) has weight {w}")
        x = label_index.get(u)
        if x is None:
            x = intern(u)
        y = label_index.get(v)
        if y is None:
            y = intern(v)
        if x == y:
            if x in loop_weights:
                raise DuplicateEdgeError(f"loop at {u!r} listed twice")
            loop_weights[x] = w
            continue
        if y in rows[x]:
            raise DuplicateEdgeError(f"edge ({u!r}, {v!r}) listed twice")
        rows[x][y] = rows[y][x] = w

    # sorting the integer keys is cheaper than sorting (neighbour, weight) pairs
    adjacency = tuple(tuple([(y, row[y]) for y in sorted(row)]) for row in rows)
    loops = tuple(loop_weights.get(x, 0.0) for x in range(len(rows)))
    return _assemble(tuple(label_index), adjacency, loops, loop_mode, label_index)

