import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degsplit import (
    Demands,
    DuplicateEdgeError,
    GridInstance,
    LoopMode,
    NonPositiveWeightError,
    build_graph,
    build_grid_graph,
)

from conftest import branching_degree, complete_graph, mixed_graph, random_graph, zero_band


def test_triangle_profile(triangle):
    assert triangle.d == (2.0, 2.0, 2.0)
    assert triangle.W == (1.0, 1.0, 1.0)
    assert triangle.labels == ("x", "y", "z")


def test_loop_counted_twice_by_default():
    g = build_graph([("x", "y", 1.0), ("x", "x", 10.0)], LoopMode.DOUBLE)
    assert g.d == (21.0, 1.0)
    assert g.W == (1.0, 1.0)


def test_loop_counted_once():
    g = build_graph([("x", "y", 1.0), ("x", "x", 10.0)], LoopMode.ONCE)
    assert g.d == (11.0, 1.0)


def test_duplicate_edge_rejected_both_orientations():
    with pytest.raises(DuplicateEdgeError):
        build_graph([("x", "y", 1.0), ("y", "x", 2.0)])


def test_duplicate_loop_rejected():
    with pytest.raises(DuplicateEdgeError):
        build_graph([("x", "x", 1.0), ("x", "x", 2.0)])


@pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_weight_rejected(w):
    with pytest.raises(NonPositiveWeightError):
        build_graph([("x", "y", w)])


@pytest.mark.parametrize(
    "edges",
    [
        [("x", "y", 1e308), ("y", "z", 1e308), ("z", "x", 1e308)],
        [("x", "x", 1e308)],
    ],
    ids=["triangle", "double-loop"],
)
def test_overflowing_degree_rejected(edges):
    # each weight is finite, but 2e308 is not a double
    with pytest.raises(ValueError, match="vertex 'x' has degree inf"):
        build_graph(edges, LoopMode.DOUBLE)


def test_largest_finite_degree_kept():
    assert build_graph([("x", "x", 1e308)], LoopMode.ONCE).d == (1e308,)


def test_labels_first_appearance_order():
    g = build_graph([("b", "a", 1.0), ("a", "c", 1.0)])
    assert g.labels == ("b", "a", "c")
    assert g.index_of("c") == 2


def test_repeated_vertex_label_keeps_its_first_index():
    g = build_graph([("q", "p", 2.0)], vertices=["p", "q", "p"])
    assert g.labels == ("p", "q")
    assert g.adjacency == (((1, 2.0),), ((0, 2.0),))


def test_edge_labels_follow_the_vertices_in_first_appearance_order():
    g = build_graph([("c", "a", 1.0), ("d", "c", 0.5), ("b", "d", 0.25)], vertices=["a", "b"])
    assert g.labels == ("a", "b", "c", "d")
    assert [g.index_of(label) for label in g.labels] == [0, 1, 2, 3]
    assert g.adjacency == (
        ((2, 1.0),),
        ((3, 0.25),),
        ((0, 1.0), (3, 0.5)),
        ((1, 0.25), (2, 0.5)),
    )
    assert g.d == (1.0, 0.25, 1.5, 0.75)


def test_degree_profile_path(path3):
    assert path3.d == (1.0, 2.0, 1.0)
    assert path3.W == (1.0, 1.0, 1.0)


def test_degree_profile_single_vertex():
    g = build_graph([], vertices=["x"])
    assert (g.d, g.W) == ((0.0,), (0.0,))


def test_degree_profile_k9(k9):
    assert k9.d == (8.0,) * 9


def test_demands_validation():
    with pytest.raises(ValueError):
        Demands((1.0,), (1.0, 2.0))
    with pytest.raises(ValueError):
        Demands((-0.5,), (0.0,))
    with pytest.raises(ValueError):
        Demands((float("nan"),), (0.0,))


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    return n, [(u, v, w) for (u, v), w in zip(chosen, weights)]


@settings(max_examples=50, deadline=None)
@given(edge_lists(), st.randoms(use_true_random=False))
def test_shuffle_invariance(data, rng):
    n, edges = data
    g1 = build_graph(edges, vertices=range(n))
    shuffled = list(edges)
    rng.shuffle(shuffled)
    g2 = build_graph(shuffled, vertices=range(n))
    assert g1.d == g2.d
    assert g1.W == g2.W
    assert g1.adjacency == g2.adjacency


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_degree_sum_identity(data):
    n, edges = data
    g = build_graph(edges, vertices=range(n))
    total = sum(w for _, _, w in edges)
    assert math.isclose(sum(g.d), 2.0 * total, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_full_set_branching_sum_matches_cache(data):
    n, edges = data
    g = build_graph(edges, vertices=range(n))
    full = set(range(n))
    for x in range(n):
        assert branching_degree(g, full, x) == g.d[x]


@pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
def test_full_set_degree_is_the_cached_degree_bit_for_bit(loop_mode):
    # the core module seeds kept degrees from d when every row lies in the
    # members, so both must add the same terms in the same order
    rng = random.Random(5)
    graphs = [
        random_graph(rng, rng.randint(2, 24), rng.uniform(0.2, 1.0), loops=True,
                     loop_mode=loop_mode)
        for _ in range(40)
    ]
    graphs += [
        build_grid_graph(GridInstance.rectangle(w, h, r), loop_mode)
        for w, h, r in ((7, 4, 2.1), (12, 9, 2.6), (10, 10, 3.1))
    ]
    for g in graphs:
        full = range(g.n)
        assert [branching_degree(g, full, x) for x in full] == list(g.d)


def test_loop_degree_sum_identity():
    rng = random.Random(7)
    edges = [(i, j, rng.uniform(0.5, 2.0)) for i in range(6) for j in range(i + 1, 6)]
    loops = [(i, i, rng.uniform(0.5, 2.0)) for i in range(0, 6, 2)]
    for mode, factor in ((LoopMode.ONCE, 1), (LoopMode.DOUBLE, 2)):
        g = build_graph(edges + loops, mode)
        expected = 2.0 * sum(w for _, _, w in edges) + factor * sum(w for _, _, w in loops)
        assert math.isclose(sum(g.d), expected, rel_tol=1e-12)


class TestExactRows:
    """``graph.band`` is 0 on the rows whose every sum is exact: integer edge
    weights, an integer loop term and a degree below 2^53."""

    def test_integer_rows_are_exact(self, k9):
        assert k9.band == (0.0,) * 9

    def test_grid_rows_are_not(self):
        g = build_grid_graph(GridInstance.rectangle(4, 4, 2.1))
        assert all(b > 0.0 for b in g.band)

    def test_a_degree_of_two_to_the_53_is_not_exact(self):
        big = 2.0 ** 52
        g = build_graph([(0, 1, big), (0, 2, big), (1, 2, big - 1.0)])
        assert g.d == (2.0 ** 53, 2.0 ** 53 - 1.0, 2.0 ** 53 - 1.0)
        assert zero_band(g) == (False, True, True)

    def test_one_half_weight_spoils_an_integer_sum(self):
        g = build_graph([(0, 1, 0.5), (0, 2, 1.5), (1, 2, 1.0), (2, 3, 2.0)])
        assert g.d[0] == 2.0
        assert zero_band(g) == (False, False, False, True)

    def test_a_half_weight_rounded_away_still_spoils_the_row(self):
        # 2^52 + 0.5 + 0.5 rounds to the integer 2^52 on each addition
        g = build_graph([(0, 1, 2.0 ** 52), (0, 2, 0.5), (0, 3, 0.5)])
        assert g.d[0] == 2.0 ** 52
        assert zero_band(g) == (False, True, False, False)

    @pytest.mark.parametrize("mode,exact", [(LoopMode.ONCE, False), (LoopMode.DOUBLE, True)])
    def test_a_half_loop_counts_by_its_term(self, mode, exact):
        # the loop adds 0.5 once, rounding 2^52 + 1.5 to the integer
        # 2^52 + 2, or 1.0 doubled
        g = build_graph([(0, 1, 2.0 ** 52), (0, 2, 1.0), (0, 0, 0.5)], mode)
        assert g.d[0] == 2.0 ** 52 + 2.0
        assert zero_band(g) == (exact, True, True)


def reference_band(graph):
    """8 (k + 2) 2^-53 d per row of k neighbours, or 0 when the row's edge
    weights and loop term are integers and d < 2^53, from the graph's rows."""
    bands = []
    for x in range(graph.n):
        terms = [w for _, w in graph.adjacency[x]] + [graph.loop_mode.factor * graph.loops[x]]
        if all(t == math.floor(t) for t in terms) and graph.d[x] < 2.0 ** 53:
            bands.append(0.0)
        else:
            bands.append(8 * (len(graph.adjacency[x]) + 2) * 2.0 ** -53 * graph.d[x])
    return bands


@pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
class TestBandFormula:
    """Every builder gives each row the band of its formula, bit for bit."""

    @staticmethod
    def assert_formula(graph):
        assert [b.hex() for b in graph.band] == [b.hex() for b in reference_band(graph)]

    def test_build_graph(self, loop_mode):
        rng = random.Random(29)
        exact_rows = banded_rows = 0
        for _ in range(40):
            g = mixed_graph(rng, rng.randint(4, 20), 0.4, rng.randint(1, 3), (1.0, 2.0, 3.0),
                            loop_mode, True)
            self.assert_formula(g)
            exact_rows += sum(zero_band(g))
            banded_rows += g.n - sum(zero_band(g))
        assert exact_rows >= 100 and banded_rows >= 300

    def test_build_grid_graph(self, loop_mode):
        # overlap areas are fractions but for whole squares: a cell far from
        # the rest has only its own square, a loop of 1, and at r = 10 every
        # square of a 3x3 block lies inside every disk
        mixed = GridInstance([*GridInstance.rectangle(5, 4, 2.1).cells, (12, 12)], 2.1)
        for instance, exact in ((mixed, (False,) * 20 + (True,)),
                                (GridInstance.rectangle(3, 3, 10.0), (True,) * 9)):
            g = build_grid_graph(instance, loop_mode)
            assert any(g.loops)
            assert zero_band(g) == exact
            self.assert_formula(g)


@pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
class TestLoopTerm:
    """Each builder caches factor * w_xx per row, and +0.0 on a loopless
    row; every degree sum ends in that cached term."""

    @staticmethod
    def assert_terms(graph):
        factor = graph.loop_mode.factor
        # compared by float.hex, which tells -0.0 from 0.0
        assert [t.hex() for t in graph.loop_term] == [
            (factor * w if w else 0.0).hex() for w in graph.loops
        ]

    def test_build_graph(self, loop_mode):
        rng = random.Random(31)
        looped = loopless = 0
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.2, 0.9), loops=True,
                             loop_mode=loop_mode)
            self.assert_terms(g)
            looped += sum(1 for w in g.loops if w)
            loopless += sum(1 for w in g.loops if not w)
        assert looped >= 100 and loopless >= 150

    def test_build_grid_graph(self, loop_mode):
        g = build_grid_graph(GridInstance.rectangle(6, 5, 2.6), loop_mode)
        assert all(g.loops)
        self.assert_terms(g)
