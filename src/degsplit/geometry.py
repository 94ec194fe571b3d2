"""Disk-square overlap areas, grid graphs, and the square two-coloring
application.

A grid instance is a set of unit cells and a radius r.  Each cell becomes a
vertex; the weight between x and y is the area of y's square lying within
distance r of x's center, and the loop weight is the overlap with x's own
square.  Demands of half the degree ask every cell's disk to cover at least
as much weight on its own side as on the other.  Under ONCE loops the degree
is the area the disk covers, own square once, so the physical-majority
scheme is the half-degree one on that graph.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from operator import sub
from typing import Iterable

from .errors import TooFewCellsError
from .graph import Demands, LoopMode, WeightedGraph, _assemble
from .solver import DEFAULT_MAX_MOVES, solve
from .value import Value

Cell = tuple[int, int]

# overlaps below this are tangency roundoff; the graph model wants w > 0 strictly
MIN_EDGE_WEIGHT = 1e-12


class GridInstance(Value):
    """Distinct unit cells (i, j), each the square [i,i+1] x [j,j+1], plus a
    disk radius r > 0.  Cells are stored in row-major sorted order."""

    __slots__ = ("cells", "r")

    def __init__(self, cells: Iterable[Cell], r: float):
        cells = tuple(sorted((int(i), int(j)) for i, j in cells))
        if len(set(cells)) != len(cells):
            raise ValueError("cells must be distinct")
        r = float(r)
        if not (r > 0.0) or math.isinf(r):
            raise ValueError("radius must be positive and finite")
        super().__init__(cells, r)

    @classmethod
    def rectangle(cls, width: int, height: int, r: float) -> "GridInstance":
        return cls(tuple((i, j) for i in range(width) for j in range(height)), r)


def _segment_integral(x: float, r: float) -> float:
    # integral of sqrt(r^2 - t^2) dt from 0 to x, for 0 <= x <= r, in angle
    # form: the naive sqrt/asin expressions lose ~1e-8 absolute accuracy to
    # cancellation when x approaches r (tangent squares)
    theta = math.acos(min(1.0, max(0.0, x / r)))
    return 0.5 * r * r * (0.5 * math.pi - theta + math.sin(theta) * math.cos(theta))


def _quadrant_box(u: float, v: float, r: float) -> float:
    # area of disk(0, r) intersected with the box [0,u] x [0,v], u,v >= 0
    u = min(u, r)
    v = min(v, r)
    if u <= 0.0 or v <= 0.0:
        return 0.0
    if u * u + v * v <= r * r:
        return u * v
    xc = math.sqrt(max((r - v) * (r + v), 0.0))
    return v * xc + _segment_integral(u, r) - _segment_integral(xc, r)


def _signed_box(x: float, y: float, r: float) -> float:
    s = 1.0
    if x < 0.0:
        x, s = -x, -s
    if y < 0.0:
        y, s = -y, -s
    return s * _quadrant_box(x, y, r)


def circle_square_area(dx: float, dy: float, r: float) -> float:
    """Area of the disk of radius r at the origin intersected with the unit
    square centered at (dx, dy).

    Closed form: split the square on the axes and combine the four
    origin-anchored boxes by inclusion-exclusion; each box is a rectangle
    part plus a circular-segment integral.  Symmetric in the signs of dx and
    dy and in swapping them; exact up to roundoff, clamped to [0, 1].
    """
    if r <= 0.0:
        return 0.0
    dx, dy = abs(dx), abs(dy)
    x0, x1 = dx - 0.5, dx + 0.5
    y0, y1 = dy - 0.5, dy + 0.5
    near_x, near_y = max(x0, 0.0), max(y0, 0.0)
    if near_x * near_x + near_y * near_y >= r * r:
        return 0.0
    if x1 * x1 + y1 * y1 <= r * r:
        return 1.0
    area = (
        _signed_box(x1, y1, r)
        - _signed_box(x0, y1, r)
        - _signed_box(x1, y0, r)
        + _signed_box(x0, y0, r)
    )
    return min(1.0, max(0.0, area))


def _stencil_rows(cells, r: float, reach: float, span_x: int, span_y: int, height: int):
    # the stencil: offsets (dx, dy) > (0, 0) in lexicographic order, |dx| <=
    # span_x < width and |dy| <= span_y < height, whose squares overlap the
    # disk around the origin, with their weights.  A float product overflows
    # to inf where ** would raise
    reach2 = reach * reach
    half = []
    for dx in range(span_x + 1):
        for dy in range(-span_y if dx else 1, span_y + 1):
            if dx * dx + dy * dy >= reach2:
                continue
            w = circle_square_area(dx, dy, r)
            if w > MIN_EDGE_WEIGHT:
                half.append((dx, dy, w))
    if not half:  # every row is empty, and a segment would find no slices to zip
        return ((),) * len(cells), ()
    # cell (i, j) has key i * stride + j.  The stencil keeps |dy| < height,
    # so a probe's j differs from any cell's j by at most 2 (height - 1) <
    # stride, and a probe's key equals a cell's key only at that very cell
    stride = 2 * height + 1
    stencil = sorted(half + [(-dx, -dy, w) for dx, dy, w in half])
    # one (y, w) pair per cell and distinct weight, which every row that
    # reaches y at weight w shares: a weight depends only on the offset
    ys = list(range(len(cells)))
    pairs = {w: tuple(zip(ys, repeat(w))) for w in {w for _, _, w in half}}
    probes = [(dx * stride + dy, pairs[w]) for dx, dy, w in stencil]
    index = {i * stride + j: x for x, (i, j) in enumerate(cells)}
    find = index.get
    # column segments (see build_grid_graph): the stencil's offsets have
    # |dx| <= sx and |dy| <= sy, and runs must average `long` cells to be cut
    sx, sy = half[-1][0], max(dy for _, dy, _ in half)
    keys, long = list(index), 4 * (sy + 1)
    steps = list(map(sub, keys[1:], keys)) if height >= long else []
    if long * (len(keys) - steps.count(1)) > len(keys):
        return tuple(
            tuple([table[y] for d, table in probes if (y := find(k + d)) is not None])
            for k in keys
        ), ()
    # each run's first key and the key just past its last
    firsts = [0] + [x for x, step in enumerate(steps, 1) if step != 1]
    bounds = [keys[x] for x in firsts] + [keys[x - 1] + 1 for x in firsts[1:] + [len(keys)]]
    near = {p + dx * stride for dx in range(-sx, sx + 1) for p in bounds}
    cut = {q + dy for dy in range(-sy, sy + 1) for q in near}
    starts = sorted(map(index.__getitem__, cut.intersection(index)))
    # repeats[x]: row x holds the weights of row x - 1 in the same order, as
    # every zipped row after its segment's first does
    rows, repeats = [], []
    for x, end in zip(starts, starts[1:] + [len(keys)]):
        k, size = keys[x], end - x
        if size == 1:
            rows.append(tuple([table[y] for d, table in probes if (y := find(k + d)) is not None]))
        else:
            rows.extend(zip(*[
                table[y:y + size] for d, table in probes if (y := find(k + d)) is not None
            ]))
        repeats.append(False)
        repeats.extend(repeat(True, size - 1))
    return tuple(rows), repeats


def _pair_rows(cells: tuple[Cell, ...], r: float, reach: float):
    # every pair x < y within reach, with one weight per distinct offset;
    # row y receives its lower neighbours before its higher ones, in order
    reach2 = reach * reach
    weights = {}
    rows = [[] for _ in cells]
    for x, (i, j) in enumerate(cells):
        for y in range(x + 1, len(cells)):
            dx, dy = abs(cells[y][0] - i), abs(cells[y][1] - j)
            if dx * dx + dy * dy >= reach2:
                continue
            w = weights.get((dx, dy))
            if w is None:
                w = weights[dx, dy] = circle_square_area(dx, dy, r)
            if w > MIN_EDGE_WEIGHT:
                rows[x].append((y, w))
                rows[y].append((x, w))
    return tuple(map(tuple, rows))


def build_grid_graph(instance: GridInstance, loop_mode: LoopMode = LoopMode.DOUBLE) -> WeightedGraph:
    """Grid graph of an instance: one vertex per cell labelled by the cell
    pair, w_xy the overlap of x's disk with square y, loops the overlap with
    the cell's own square.

    The weight depends only on the offset between two cells, and is exactly
    zero at center distances of r + sqrt(1/2) or more, where no edge is
    made.  Two builders give the same rows bit for bit.  ``_stencil_rows``
    computes the weight once per offset within reach inside the cells'
    bounding box, and each cell looks its stencil neighbours up by integer
    key: cell (i, j) has key i * stride + j with stride = 2 * height + 1, so
    an offset is one integer to add, and no tuple is built or hashed per
    probe.  Its walk covers (min(s, width - 1) + 1) * (2 min(s, height - 1)
    + 1) offsets, with s = ceil(r + 0.71), whatever n is; at most about
    pi (r + 0.71)^2 of them join the stencil.  ``_pair_rows`` checks all
    n (n - 1) / 2 pairs of cells and computes the weight once per offset
    that occurs.  The pairs are used when the walk is longer than half the
    number of cells, as for a few cells far apart under a large radius; a
    dense rectangle takes the stencil.  Cells are sorted, so either way
    every row comes out in ascending neighbour order and goes to the graph
    as it is, with no edge list, validation or sort: the weights exceed
    MIN_EDGE_WEIGHT, and cells are distinct.  The stencil's rows share
    their pairs: it builds one (y, w) tuple per cell y and distinct weight
    w, and every row that reaches y at weight w holds that tuple.  On a
    40 x 38 rectangle at r = 3.1 that is 12,160 tuples for 61,372 row
    entries, and the graph takes 1.5 MB instead of 4.2 MB (``tracemalloc``).

    The stencil probes one cell per column segment, not one per cell.  A
    bound is a key whose presence differs from the key below it: the first
    cell of a run of consecutive keys, or the key just past a run.  Cell k
    starts a segment when a bound lies in the stencil's bounding box around
    it: at k + dx * stride + dy, with |dx| and |dy| at most the largest |dx|
    and |dy| of the stencil; the first cell of every run is such a cell,
    since it is a bound itself.  Inside a segment, then, each stencil offset
    finds a cell for every cell of the segment or for none, and the cells it
    finds have consecutive keys, so consecutive indices y, y + 1, ...  The
    segment's first cell is probed; each hit (y, w) gives the slice of w's
    pair table from y, as long as the segment, and zipping the slices gives
    the segment's rows: the same pair objects, in the same ascending order,
    that a probe per cell finds.  A one-cell segment is probed as before.  A
    column of a rectangle probes its 2 h + 1 cells nearest its ends, with h
    the stencil's largest |dy|, and slices the rest.  Cutting costs a pass
    over the keys and a sum per bound and box offset, which short runs repay
    with little or nothing, so every cell is probed when the runs average
    fewer than 4 (h + 1) cells: in ragged, half-filled or sparse sets, and
    in grids lower than that.  Every zipped row after its segment's first
    holds the weights of the row before it in the same order, and is
    flagged; ``_assemble`` sums such a run's weights once, since the same
    additions in the same order give the same double, and adds each row's
    loop term to that sum.  On a 40 x 38 rectangle at r = 3.1, 1,240 of the
    1,520 rows are flagged.
    """
    cells, r = instance.cells, instance.r
    if len(cells) < 2:
        raise TooFewCellsError("a grid instance needs at least two cells")
    width = cells[-1][0] - cells[0][0] + 1
    height = max(j for _, j in cells) - min(j for _, j in cells) + 1
    # a square whose center lies at reach or farther misses the disk
    reach = r + math.sqrt(0.5)
    span = math.ceil(reach)
    span_x, span_y = min(span, width - 1), min(span, height - 1)
    if 2 * (span_x + 1) * (2 * span_y + 1) > len(cells):
        adjacency, repeats = _pair_rows(cells, r, reach), ()
    else:
        adjacency, repeats = _stencil_rows(cells, r, reach, span_x, span_y, height)
    loop_w = circle_square_area(0.0, 0.0, r)
    label_index = {cell: x for x, cell in enumerate(cells)}
    loops = (loop_w if loop_w > MIN_EDGE_WEIGHT else 0.0,) * len(cells)
    return _assemble(cells, adjacency, loops, loop_mode, label_index, repeats)


class DemandScheme(Enum):
    HALF_DEGREE = "half-degree"
    PHYSICAL_MAJORITY = "physical"


def squares_demands(graph: WeightedGraph, scheme: DemandScheme) -> Demands:
    """Demands a = b = d/2 for a grid graph, under either scheme.

    HALF_DEGREE takes d under the graph's loop convention.
    PHYSICAL_MAJORITY asks that at least half of each cell's covered area
    (own square once) lie on its own side.  Under ONCE loops d is that area
    and a side degree is the covered area on that side, so the demand is
    d/2 again; a graph with DOUBLE loops raises ValueError.
    """
    if scheme is DemandScheme.PHYSICAL_MAJORITY and graph.loop_mode is not LoopMode.ONCE:
        raise ValueError("physical-majority demands need a grid graph with ONCE loops")
    vals = tuple(d / 2.0 for d in graph.d)
    return Demands(vals, vals)


class SquaresResult(Value):
    """Two-coloring of the cells plus diagnostics.

    ``margins`` maps each cell to its physical margin: same-colored covered
    area minus other-colored covered area within its disk (own square counted
    once).  Graph-sense stability is gated exactly; physical margins are
    reported, not gated.  Each margin is read from the certificate's
    verification slack; under ONCE loops, and so for the physical scheme,
    it is twice that slack exactly, hence at least 0.  The certificate's
    feasibility is ``check_feasibility`` of the grid graph solved with its
    d/2 demands; ``precondition_ok`` reads it.
    """

    __slots__ = (
        "side_a", "side_b", "margins", "strict_majority_cells", "precondition_ok", "certificate",
    )


def solve_squares(
    instance: GridInstance,
    scheme: DemandScheme = DemandScheme.HALF_DEGREE,
    loop_mode: LoopMode = LoopMode.DOUBLE,
    max_moves: int = DEFAULT_MAX_MOVES,
) -> SquaresResult:
    """Build the grid graph, solve it with demands d/2, and report per-cell
    physical margins.  The physical scheme is the half-degree one on the
    grid graph with ONCE loops, which it builds whatever ``loop_mode`` is
    passed."""
    if scheme is DemandScheme.PHYSICAL_MAJORITY:
        loop_mode = LoopMode.ONCE
    graph = build_grid_graph(instance, loop_mode)
    partition, cert = solve(graph, squares_demands(graph, scheme), max_moves=max_moves)

    cells = instance.cells
    # the covered areas count the own square once: cov_same = side degree -
    # (loop term - w_xx) and T = d - (loop term - w_xx), so with slack = side
    # degree - d/2, 2 cov_same - T = 2 slack - (loop term - w_xx)
    per_cell = zip(cells, cert.verification, graph.loop_term, graph.loops)
    margins = {cell: 2.0 * slack - (term - loop) for cell, slack, term, loop in per_cell}
    strict = sum(margin > 0.0 for margin in margins.values())

    side_a = tuple(cells[x] for x in sorted(partition.a))
    side_b = tuple(cells[x] for x in sorted(partition.b))
    return SquaresResult(side_a, side_b, margins, strict, cert.feasibility.feasible, cert)
