"""Weighted undirected graph model.

Vertices are dense indices 0..n-1 behind arbitrary hashable labels.  The
graph caches, per vertex, the loop term ``loop_term`` (what x's loop adds to
its degree under the declared convention: w_xx or 2 w_xx, 0.0 without a
loop), the degree ``d`` (the incident weights in ascending-neighbor order,
then the loop term) and ``W`` (largest non-loop incident weight), so that
rebuilding the same graph from a shuffled edge list reproduces them bit for
bit.  Every other degree sum ends in the cached loop term, so nothing else
reads the convention.  A fourth cache, ``band``, bounds how far a degree
kept by adding and subtracting the row's weights may drift from the
ascending sum (see ``core``): 8 (k + 2) 2^-53 d for a row of k neighbours,
since no partial sum exceeds d and so no rounding exceeds 2^-53 d.  An exact
row gets 0: every edge weight and the loop term are integers and ``d`` is
below 2^53, so every sum of the row's terms, in any order, is an integer a
double holds exactly.

Every graph is made by ``_assemble``, the one place that computes the caches;
``build_graph``, ``without_loops`` and ``geometry.build_grid_graph`` end in it.
"""

from __future__ import annotations

import math
from enum import Enum
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

    def has_loops(self) -> bool:
        return any(w > 0.0 for w in self.loops)


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
) -> WeightedGraph:
    # rows must already be symmetric, positive and in ascending neighbour order
    factor = loop_mode.factor
    terms = [factor * w for w in loops]
    degrees = []
    maxima = []
    bands = []
    for x in range(len(adjacency)):
        total = 0.0
        best = 0.0
        for _, w in adjacency[x]:
            total += w
            if w > best:
                best = w
        # the loop term last; adding 0.0 where there is no loop changes nothing
        total += terms[x]
        if not math.isfinite(total):
            raise ValueError(f"vertex {labels[x]!r} has degree {total}; degrees must be finite")
        degrees.append(total)
        maxima.append(best)
        # a row with a non-integer weight almost always has a non-integer
        # sum, so such a row (every grid row) stops at the first test
        if (
            total.is_integer()
            and total < _EXACT_LIMIT
            and terms[x].is_integer()
            and all(map(float.is_integer, map(_weight, adjacency[x])))
        ):
            bands.append(0.0)
        else:
            bands.append(8 * (len(adjacency[x]) + 2) * _ROUNDOFF * total)
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


def without_loops(graph: WeightedGraph) -> WeightedGraph:
    """The same graph with every loop removed (degrees recomputed)."""
    if not graph.has_loops():
        return graph
    return _assemble(
        graph.labels, graph.adjacency, (0.0,) * graph.n, graph.loop_mode, graph.label_index
    )
