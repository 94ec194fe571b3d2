import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from degsplit import (
    DemandScheme,
    GridInstance,
    LoopMode,
    NonImprovingMoveError,
    Partition,
    SolverError,
    TooFewCellsError,
    build_graph,
    build_grid_graph,
    check_feasibility,
    circle_square_area,
    solve,
    solve_squares,
    squares_demands,
    verify_partition,
)
from degsplit.geometry import MIN_EDGE_WEIGHT, _pair_rows, _stencil_rows
from degsplit.graph import _assemble

from conftest import physical_majority_instance, reduce_loops


def quadrature_area(dx, dy, r):
    """Independent oracle: integrate the covered strip length over x."""
    dx, dy = abs(dx), abs(dy)
    x_lo, x_hi = max(dx - 0.5, -r), min(dx + 0.5, r)
    if x_lo >= x_hi:
        return 0.0

    def strip(x):
        half = math.sqrt(max(r * r - x * x, 0.0))
        return max(0.0, min(dy + 0.5, half) - max(dy - 0.5, -half))

    breaks = sorted(
        {x_lo, x_hi}
        | {
            b
            for y in (dy - 0.5, dy + 0.5)
            if abs(y) < r
            for b in (-math.sqrt(r * r - y * y), math.sqrt(r * r - y * y))
            if x_lo < b < x_hi
        }
    )
    total = 0.0
    for a, b in zip(breaks, breaks[1:]):
        val, _ = quad(strip, a, b, epsabs=1e-10, limit=200)
        total += val
    return total


class TestCircleSquareArea:
    def test_fully_inside(self):
        assert circle_square_area(0.0, 0.0, 2.1) == 1.0

    def test_fully_outside(self):
        assert circle_square_area(10.0, 0.0, 2.1) == 0.0

    @pytest.mark.parametrize("r", [0.0, -0.0, -1.0, -math.inf])
    def test_no_radius_covers_nothing(self, r):
        for dx, dy in ((0.0, 0.0), (0.3, -0.2), (2.0, 1.0)):
            assert circle_square_area(dx, dy, r) == 0.0

    def test_inscribed_disk(self):
        assert abs(circle_square_area(0.0, 0.0, 0.5) - math.pi / 4.0) < 1e-7

    def test_half_covered_edge(self):
        # square centered on the rim of a big-enough disk: about half covered
        area = circle_square_area(5.0, 0.0, 5.0)
        assert abs(area - 0.5) < 1e-2

    @settings(max_examples=150, deadline=None)
    @given(
        st.floats(min_value=-4, max_value=4),
        st.floats(min_value=-4, max_value=4),
        st.floats(min_value=0.05, max_value=5),
    )
    def test_symmetries_and_bounds(self, dx, dy, r):
        area = circle_square_area(dx, dy, r)
        assert 0.0 <= area <= 1.0
        assert area <= math.pi * r * r + 1e-12
        assert circle_square_area(-dx, dy, r) == area
        assert circle_square_area(dx, -dy, r) == area
        assert abs(circle_square_area(dy, dx, r) - area) < 1e-12
        # zero exactly when the square lies outside the disk (away from the
        # boundary, where the two distance computations may disagree by ulps)
        nearest = math.hypot(max(abs(dx) - 0.5, 0.0), max(abs(dy) - 0.5, 0.0))
        if nearest >= r + 1e-9:
            assert area == 0.0
        elif nearest < r - 1e-9:
            assert area > 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=-2, max_value=2),
        st.floats(min_value=0.1, max_value=3),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_radius(self, dx, dy, r, bump):
        # nondecreasing up to roundoff across branch switches
        assert circle_square_area(dx, dy, r + bump) >= circle_square_area(dx, dy, r) - 1e-12

    def test_matches_quadrature_oracle(self):
        rng = random.Random(2024)
        for _ in range(60):
            dx = rng.uniform(-3, 3)
            dy = rng.uniform(-3, 3)
            r = rng.uniform(0.05, 3.0)
            assert abs(circle_square_area(dx, dy, r) - quadrature_area(dx, dy, r)) < 1e-6


class TestGridInstance:
    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError):
            GridInstance(((0, 0), (0, 0)), 1.0)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            GridInstance(((0, 0), (1, 0)), 0.0)

    def test_cells_sorted(self):
        inst = GridInstance(((2, 1), (0, 0), (1, 5)), 1.0)
        assert inst.cells == ((0, 0), (1, 5), (2, 1))


def edge_weight(graph, x, y):
    """Weight of edge xy (the loop weight when x == y, 0 when absent)."""
    if x == y:
        return graph.loops[x]
    return dict(graph.adjacency[x]).get(y, 0.0)


class TestBuildGridGraph:
    def test_unit_loops_above_half_diagonal_radius(self):
        inst = GridInstance.rectangle(3, 3, 2.1)
        g = build_grid_graph(inst)
        assert g.loops == (1.0,) * 9

    def test_adjacent_cells_fully_covered_at_radius_2_1(self):
        inst = GridInstance(((0, 0), (1, 0)), 2.1)
        g = build_grid_graph(inst)
        assert edge_weight(g, 0, 1) == 1.0

    def test_weights_symmetric_exactly(self):
        inst = GridInstance.rectangle(4, 3, 1.7)
        g = build_grid_graph(inst)
        for x in range(g.n):
            for y, w in g.adjacency[x]:
                assert edge_weight(g, y, x) == w

    def test_distant_cells_not_connected(self):
        inst = GridInstance(((0, 0), (10, 10)), 2.1)
        g = build_grid_graph(inst)
        assert edge_weight(g, 0, 1) == 0.0
        assert g.loops == (1.0, 1.0)

    def test_conservation_interior_cell(self):
        # disk fully over the grid: covered area sums to pi r^2
        inst = GridInstance.rectangle(9, 9, 2.1)
        g = build_grid_graph(inst, LoopMode.ONCE)
        center = g.index_of((4, 4))
        covered = sum(w for _, w in g.adjacency[center]) + g.loops[center]
        assert abs(covered - math.pi * 2.1 * 2.1) < 1e-6

    def test_too_few_cells(self):
        with pytest.raises(TooFewCellsError):
            build_grid_graph(GridInstance(((0, 0),), 1.0))


def pair_scan_edges(instance):
    """Reference: the earlier build's edge list, from checking every pair of
    cells, each pair once in row order."""
    cells = instance.cells
    r = instance.r
    reach2 = (r + math.sqrt(0.5)) ** 2
    loop_w = circle_square_area(0.0, 0.0, r)
    edges = []
    for idx, (i, j) in enumerate(cells):
        if loop_w > MIN_EDGE_WEIGHT:
            edges.append(((i, j), (i, j), loop_w))
        for k, l in cells[idx + 1:]:
            ddx, ddy = k - i, l - j
            if ddx * ddx + ddy * ddy >= reach2:
                continue
            w = circle_square_area(ddx, ddy, r)
            if w > MIN_EDGE_WEIGHT:
                edges.append(((i, j), (k, l), w))
    return edges


def _ragged_cells(seed):
    rng = random.Random(seed)
    cells = set()
    while len(cells) < 40:
        cells.add((rng.randint(-7, 6), rng.randint(-9, 3)))
    return tuple(cells)


GRID_SHAPES = {
    "rect-1x2": tuple((0, j) for j in range(2)),
    "rect-7x4": tuple((i, j) for i in range(7) for j in range(4)),
    "rect-12x12": tuple((i, j) for i in range(12) for j in range(12)),
    "ragged-a": _ragged_cells(1),
    "ragged-b": _ragged_cells(2),
    "far-apart": ((-3, 0), (0, 0), (9, -8)),
    # keys i * stride + j stay distinct at any magnitude and either sign
    "huge-coords": (
        (-10**9, -10**9), (-10**9, 1 - 10**9), (1 - 10**9, -10**9),
        (10**9 - 1, 10**9), (10**9, 10**9), (10**9, 10**9 - 2),
    ),
    "negative-rect": tuple((i, j) for i in range(-6, -2) for j in range(-5, 0)),
    "strip-1x9": tuple((0, j) for j in range(9)),
    "strip-9x1": tuple((i, 0) for i in range(9)),
    # height 5: at r = 4.4 the stencil reaches |dy| = height - 1, so a probe
    # lands up to 2 (height - 1) rows from a cell, and a key stride of
    # 2 (height - 1) would alias the probe from (0, 2) by (0, 4) with (1, -2)
    "tall-ragged": ((0, -2), (0, 1), (0, 2), (1, -2), (1, 0), (1, 2), (2, -1), (2, 2)),
    # columns long enough to be cut into segments up to r = 3.1, around a
    # hole and under a staircase top
    "holed-stair-6x30": tuple(
        (i, j) for i in range(6) for j in range(30 - 2 * i) if not (2 <= i <= 3 and 12 <= j <= 14)
    ),
}


def assert_same_graph(g, ref):
    assert g.n == ref.n
    assert g.labels == ref.labels
    assert g.adjacency == ref.adjacency
    assert g.loops == ref.loops
    assert g.loop_mode == ref.loop_mode
    assert g.d == ref.d
    assert g.W == ref.W
    assert g.label_index == ref.label_index


class TestGridGraphMatchesPairScan:
    """The stencil build gives the graph the pair scan gives, bit for bit."""

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.71, 1.0, 2.1, 3.1, 4.4])
    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    @pytest.mark.parametrize("shape", sorted(GRID_SHAPES))
    def test_same_graph(self, shape, r, loop_mode):
        instance = GridInstance(GRID_SHAPES[shape], r)
        ref = build_graph(pair_scan_edges(instance), loop_mode, vertices=instance.cells)
        assert_same_graph(build_grid_graph(instance, loop_mode), ref)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_build_graph_on_a_shuffled_edge_list(self, seed, loop_mode):
        # the two builders share only the final assembly, so build_graph's
        # interning and row sort are checked against the stencil's own order
        rng = random.Random(seed)
        instance = GridInstance(_ragged_cells(10 + seed), rng.uniform(0.6, 4.4))
        edges = [
            (v, u, w) if rng.random() < 0.5 else (u, v, w)
            for u, v, w in pair_scan_edges(instance)
        ]
        rng.shuffle(edges)
        g = build_graph(edges, loop_mode, vertices=instance.cells)
        assert_same_graph(build_grid_graph(instance, loop_mode), g)


class TestRowBuildersAgree:
    """``build_grid_graph`` takes its rows from the stencil or from the cell
    pairs, by the length of the stencil's walk; both give the same rows."""

    @staticmethod
    def ragged_sets():
        rng = random.Random(5)
        for _ in range(300):
            spread = rng.choice((3, 8, 20))
            cells, size = set(), rng.randint(2, 40)
            while len(cells) < size:
                cells.add((rng.randint(-spread, spread), rng.randint(-spread, 3)))
            yield GridInstance(cells, 1.0).cells, rng.uniform(0.2, 6.0)

    @staticmethod
    def segmented_sets():
        # long columns are cut into segments around holes, notches, the ends
        # of unequal neighbouring columns and half-filled stretches
        rng = random.Random(24)
        radii = [0.3, 0.5, 0.71, 1.0, 1.5, 2.1, 2.6, 3.1, 4.4, 6.0]
        for case in range(60):
            r = radii[case % len(radii)] if case < 40 else rng.uniform(0.3, 6.0)
            tall = 4 * math.ceil(r + 1.71) + rng.randint(0, 12)
            width = rng.randint(2, 7)
            shape = case % 5
            if shape == 0:  # punched holes and notched edges
                cells = {(i, j) for i in range(width) for j in range(tall)}
                for _ in range(rng.randint(1, 3)):
                    i, j = rng.randrange(width), rng.randrange(tall)
                    cells -= {(i + a, j + b) for a in range(2) for b in range(rng.randint(1, 4))}
                for _ in range(rng.randint(1, 3)):
                    i, depth = rng.randrange(width), rng.randint(1, 4)
                    cells -= {(i, j) for j in range(depth)} if rng.random() < 0.5 else {
                        (i, tall - 1 - j) for j in range(depth)
                    }
            elif shape == 1:  # staircase columns of unequal length
                cells = {
                    (i, j) for i in range(width)
                    for j in range(rng.randint(0, 3) * i, rng.randint(0, 3) * i + tall - rng.randint(0, 9))
                }
            elif shape == 2:  # one long strip, vertical or horizontal
                cells = {(0, j) for j in range(tall)}
                if case % 2:
                    cells = {(j, 0) for _, j in cells}
            elif shape == 3:  # half-density box
                cells = {(i, j) for i in range(width) for j in range(tall) if rng.random() < 0.5}
            else:  # a rectangle far from the origin
                cells = {(i - 10**6, j + 10**6) for i in range(width) for j in range(tall)}
            yield GridInstance(cells, r).cells, r

    @staticmethod
    def stencil_rows(cells, r):
        width = cells[-1][0] - cells[0][0] + 1
        height = max(j for _, j in cells) - min(j for _, j in cells) + 1
        reach = r + math.sqrt(0.5)
        span = math.ceil(reach)
        return _stencil_rows(
            cells, r, reach, min(span, width - 1), min(span, height - 1), height
        )

    @staticmethod
    def pair_rows(cells, r):
        return _pair_rows(cells, r, r + math.sqrt(0.5))

    def test_same_rows_bit_for_bit_on_ragged_sets(self):
        edges = 0
        for cells, r in self.ragged_sets():
            rows = self.pair_rows(cells, r)
            assert rows == self.stencil_rows(cells, r)[0]
            edges += sum(map(len, rows))
        assert edges > 10_000

    def test_same_rows_bit_for_bit_on_sets_cut_into_segments(self):
        edges = 0
        for case, (cells, r) in enumerate(self.segmented_sets()):
            rows = self.pair_rows(cells, r)
            assert rows == self.stencil_rows(cells, r)[0], (case, r)
            edges += sum(map(len, rows))
        assert edges > 50_000

    def test_repeated_rows_give_the_caches_of_rows_summed_one_by_one(self):
        # a flagged row reuses the row before it's partial sum, maximum and
        # integer test; d, W, band and loop_term must be those of the same
        # rows assembled with no flags.  Loops vary per cell, so a degree
        # reused whole, loop term included, shows
        rng = random.Random(27)
        flagged = 0
        for cells, r in [*self.ragged_sets(), *self.segmented_sets()]:
            rows, repeats = self.stencil_rows(cells, r)
            assert len(repeats) in (0, len(rows))
            for x in (x for x, same in enumerate(repeats) if same):
                assert x > 0
                assert [w for _, w in rows[x]] == [w for _, w in rows[x - 1]]
                flagged += 1
            loop_w = circle_square_area(0.0, 0.0, r)
            loops = tuple(rng.choice((0.0, 1.0, loop_w)) for _ in cells)
            label_index = {cell: x for x, cell in enumerate(cells)}
            for mode in LoopMode:
                reused = _assemble(cells, rows, loops, mode, label_index, repeats)
                summed = _assemble(cells, rows, loops, mode, label_index)
                for field in ("d", "W", "band", "loop_term"):
                    assert list(map(float.hex, getattr(reused, field))) == list(
                        map(float.hex, getattr(summed, field))
                    ), (field, r)
        assert flagged > 1_000

    @staticmethod
    def shared_pairs(width, height, r):
        # a weight depends only on the offset, so the rows need no more
        # distinct (y, w) objects than cells times distinct weights
        cells = GridInstance.rectangle(width, height, r).cells
        rows = TestRowBuildersAgree.stencil_rows(cells, r)[0]
        held = [pair for row in rows for pair in row]
        weights = {w for _, w in held}
        return len(held), len({id(pair) for pair in held}), len(cells) * len(weights)

    def test_stencil_rows_share_one_pair_per_cell_and_weight(self):
        entries, distinct, bound = self.shared_pairs(40, 38, 3.1)
        assert entries == 61_372
        assert distinct <= bound == 12_160

    def test_rows_sliced_from_segments_share_the_same_pairs(self):
        # 8 x 120 at r = 2.1: each column probes 5 cells and slices 115
        entries, distinct, bound = self.shared_pairs(8, 120, 2.1)
        assert entries == 16_404
        assert distinct <= bound == 3_840


class TestSquaresDemands:
    def test_half_degree_uses_loop_mode(self):
        inst = GridInstance.rectangle(3, 3, 2.1)
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            g = build_grid_graph(inst, mode)
            dem = squares_demands(g, DemandScheme.HALF_DEGREE)
            assert dem.a == tuple(d / 2.0 for d in g.d)
            assert dem.a == dem.b

    def test_half_degree_once_mode_equals_half_covered_area(self):
        inst = GridInstance.rectangle(9, 9, 2.1)
        g = build_grid_graph(inst, LoopMode.ONCE)
        dem = squares_demands(g, DemandScheme.HALF_DEGREE)
        center = g.index_of((4, 4))
        assert abs(dem.a[center] - math.pi * 2.1 * 2.1 / 2.0) < 1e-6

    def test_physical_demands_are_half_degree_of_the_once_graph(self):
        # at r = 0.5 a cell's own square is most of its covered area
        for inst in (GridInstance.rectangle(5, 5, 2.1), GridInstance.rectangle(3, 3, 0.5)):
            g = build_grid_graph(inst, LoopMode.ONCE)
            dem = squares_demands(g, DemandScheme.PHYSICAL_MAJORITY)
            assert dem == squares_demands(g, DemandScheme.HALF_DEGREE)
            for x in range(g.n):
                # the covered area, own square once, is the ONCE degree
                covered = sum(w for _, w in g.adjacency[x]) + g.loops[x]
                assert dem.a[x] == covered / 2.0

    def test_physical_majority_on_a_double_graph_raises(self):
        g = build_grid_graph(GridInstance.rectangle(3, 3, 2.1), LoopMode.DOUBLE)
        with pytest.raises(ValueError, match="ONCE loops"):
            squares_demands(g, DemandScheme.PHYSICAL_MAJORITY)


class TestSolveSquares:
    def test_two_cell_instance(self):
        inst = GridInstance(((0, 0), (1, 0)), 2.1)
        result = solve_squares(inst)
        assert {len(result.side_a), len(result.side_b)} == {1}
        # both circles cover both squares fully: margins are exactly zero
        assert result.margins[(0, 0)] == 0.0
        assert result.margins[(1, 0)] == 0.0
        assert result.strict_majority_cells == 0

    def test_two_cell_instance_both_splits_stable(self):
        from degsplit import brute_force_solve

        inst = GridInstance(((0, 0), (1, 0)), 2.1)
        g = build_grid_graph(inst)
        dem = squares_demands(g, DemandScheme.HALF_DEGREE)
        assert brute_force_solve(*reduce_loops(g, dem)).count == 2

    def test_small_radius_physical_any_split_works(self):
        inst = GridInstance.rectangle(2, 2, 0.5)
        result = solve_squares(inst, DemandScheme.PHYSICAL_MAJORITY)
        assert len(result.side_a) + len(result.side_b) == 4
        # every cell keeps its own square, hence strict physical majority
        assert result.strict_majority_cells == 4

    def test_grid_10x10_half_degree(self):
        inst = GridInstance.rectangle(10, 10, 2.1)
        result = solve_squares(inst)
        assert result.precondition_ok
        assert len(result.side_a) + len(result.side_b) == 100
        assert min(result.margins.values()) > -1.0  # provable slack bound

    def test_certificate_reports_the_checked_precondition(self):
        # the reduced instance recomputed on its own reads two cells at
        # -8.9e-16; the certificate carries the exact report instead
        for scheme in DemandScheme:
            result = solve_squares(GridInstance.rectangle(10, 10, 2.1), scheme)
            assert result.certificate.feasibility.feasible == result.precondition_ok

    @pytest.mark.parametrize("scheme", list(DemandScheme))
    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    @pytest.mark.parametrize(
        "cells", [GridInstance.rectangle(4, 4, 1.3).cells, GRID_SHAPES["ragged-a"]],
        ids=["rect-4x4", "ragged-a"],
    )
    def test_margin_reference(self, cells, loop_mode, scheme):
        inst = GridInstance(cells, 1.3)
        result = solve_squares(inst, scheme, loop_mode)
        mode = LoopMode.ONCE if scheme is DemandScheme.PHYSICAL_MAJORITY else loop_mode
        g = build_grid_graph(inst, mode)
        in_a = set(result.side_a)
        for x in range(g.n):
            cell = inst.cells[x]
            same = in_a if cell in in_a else set(inst.cells) - in_a
            cov_same = g.loops[x] + sum(
                w for y, w in g.adjacency[x] if inst.cells[y] in same
            )
            cov_other = sum(
                w for y, w in g.adjacency[x] if inst.cells[y] not in same
            )
            assert math.isclose(
                result.margins[cell], cov_same - cov_other, rel_tol=1e-9, abs_tol=1e-9
            )
            if mode is LoopMode.ONCE:
                assert result.margins[cell] == 2 * result.certificate.verification[x]

    def test_reduction_report_matches_half_degree_theory(self):
        # demands d/2 under DOUBLE leave slack 2*(w_xx - W) on the reduced
        # instance, which is non-negative exactly when W <= w_xx
        inst = GridInstance.rectangle(6, 6, 2.1)
        g = build_grid_graph(inst)
        report = check_feasibility(g, squares_demands(g, DemandScheme.HALF_DEGREE))
        assert report.feasible
        for x in range(g.n):
            assert math.isclose(report.slack[x], 2.0 * (g.loops[x] - g.W[x]), abs_tol=1e-9)


def reduced_half_degree(instance, loop_mode):
    """The half-degree grid instance solved the long way round: strip the
    loops with the reference reduce_loops, solve the loopless copy, and gate
    the partition again on the grid graph.  Returns the grid graph,
    partition and certificate."""
    graph = build_grid_graph(instance, loop_mode)
    demands = squares_demands(graph, DemandScheme.HALF_DEGREE)
    partition, cert = solve(*reduce_loops(graph, demands))
    assert verify_partition(graph, demands, partition) == []
    return graph, partition, cert


def squares_partition(graph, result):
    return Partition(
        {graph.index_of(c) for c in result.side_a}, {graph.index_of(c) for c in result.side_b}
    )


LOOPED_RECTANGLES = [(2, 2), (3, 7), (5, 5), (8, 3), (9, 12), (16, 11)]


class TestSolveSquaresMatchesTheReducedPath:
    """``solve_squares`` searches the half-degree grid graph with its loops.
    On these rectangles, wherever a cell has an edge, it makes the decisions
    the search makes on the loop-reduced instance; h values differ, since
    the looped h counts the loops and the unreduced demands."""

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_same_search(self, loop_mode):
        climbed = 0
        for r in (0.6, 1.2, 2.1, 3.1, 4.4):
            for width, height in LOOPED_RECTANGLES:
                instance = GridInstance.rectangle(width, height, r)
                case = (width, height, r)
                try:
                    graph, partition, cert = reduced_half_degree(instance, loop_mode)
                except SolverError as exc:
                    with pytest.raises(type(exc)):
                        solve_squares(instance, loop_mode=loop_mode)
                    continue
                result = solve_squares(instance, loop_mode=loop_mode)
                got = result.certificate
                assert squares_partition(graph, result) == partition, case
                assert got.phase_log == cert.phase_log, case
                assert [(m.vertex, m.from_side, m.to_side) for m in got.moves] == [
                    (m.vertex, m.from_side, m.to_side) for m in cert.moves
                ], case
                assert got.stable_pair == cert.stable_pair, case
                climbed += bool(got.moves)
        assert climbed

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_cells_without_edges_split_stably(self, loop_mode):
        # at r = 0.4 no disk reaches a neighbour's square, so neither graph
        # has an edge and neither is searched: every cell meets its a-demand
        # (0 on the loopless copy, half its loop's degree share on the grid
        # graph), so all go to A and the first cell moves to B, which it
        # meets too; both splits are rest | {first cell} and verify on the
        # grid graph
        for width, height in LOOPED_RECTANGLES:
            instance = GridInstance.rectangle(width, height, 0.4)
            graph, partition, _ = reduced_half_degree(instance, loop_mode)
            assert partition.b == {0}
            result = solve_squares(instance, loop_mode=loop_mode)
            assert result.side_b == instance.cells[:1]
            demands = squares_demands(graph, DemandScheme.HALF_DEGREE)
            assert verify_partition(graph, demands, squares_partition(graph, result)) == []


# shortest rectangle side at which the physical scheme has kept every margin
# strictly positive on every rectangle up to 20x20; below it some disks reach
# across most of the grid, ties (margin 0) appear and the climb can fail
PHYSICAL_STRICT_SIDE = {0.8: 4, 1.3: 4, 2.1: 4, 3.1: 6, 4.4: 8}
PHYSICAL_RECTANGLES = [
    (4, 4), (4, 13), (5, 5), (6, 9), (6, 17), (7, 7), (8, 8), (9, 20), (10, 14), (13, 11), (20, 20)
]


def physical_margins(instance):
    """Solve with physical-majority demands, re-verify the partition on the
    loopless majority instance of the reference, and return the margins."""
    result = solve_squares(instance, DemandScheme.PHYSICAL_MAJORITY)
    graph = build_grid_graph(instance)
    partition = squares_partition(graph, result)
    assert verify_partition(*physical_majority_instance(graph), partition) == []
    return list(result.margins.values())


class TestPhysicalScheme:
    """The physical scheme lies outside the guarantee; these are the shapes
    the README's claim for it covers."""

    @pytest.mark.parametrize("r", sorted(PHYSICAL_STRICT_SIDE))
    def test_rectangles_verify_with_positive_margins(self, r):
        for width, height in PHYSICAL_RECTANGLES:
            instance = GridInstance.rectangle(width, height, r)
            if min(width, height) >= PHYSICAL_STRICT_SIDE[r]:
                assert min(physical_margins(instance)) > 0.0, (width, height)
                continue
            # outside the claim the solver may refuse, but never returns an
            # unstable partition, and a verified one keeps margins >= 0
            try:
                assert min(physical_margins(instance)) >= 0.0
            except SolverError:
                pass

    @pytest.mark.parametrize("r", sorted(PHYSICAL_STRICT_SIDE))
    @pytest.mark.parametrize("shape", sorted(GRID_SHAPES))
    def test_other_shapes_never_return_an_unstable_partition(self, shape, r):
        try:
            margins = physical_margins(GridInstance(GRID_SHAPES[shape], r))
        except SolverError:
            return
        assert min(margins) >= 0.0

    def test_a_roundoff_gain_is_reported_as_a_tie(self):
        # 5x5 at r = 3.1 stops on a gain of pure roundoff, 7x4 at r = 4.4 on
        # a real loss, whose message names no tie
        with pytest.raises(NonImprovingMoveError, match=r"gains -3\.55\d*e-15, a tie within"):
            solve_squares(GridInstance.rectangle(5, 5, 3.1), DemandScheme.PHYSICAL_MAJORITY)
        with pytest.raises(NonImprovingMoveError) as raised:
            solve_squares(GridInstance.rectangle(7, 4, 4.4), DemandScheme.PHYSICAL_MAJORITY)
        assert str(raised.value) == (
            "moving vertex 12 B->A gains -2.0; the degree precondition fails"
        )

    def test_small_rectangles_at_large_radius_are_outside_the_claim(self):
        # the README names these exceptions
        assert min(physical_margins(GridInstance.rectangle(4, 4, 4.4))) == 0.0
        with pytest.raises(SolverError):
            physical_margins(GridInstance.rectangle(5, 5, 3.1))
