import math
import random
from itertools import compress

import pytest

from degsplit import (
    DemandScheme,
    GridInstance,
    LoopMode,
    NoSatisfyingSetError,
    build_graph,
    build_grid_graph,
    minimal_satisfying_set,
    peel,
    solve,
    squares_demands,
)
from degsplit import core as core_module
from degsplit.core import _KeptSet

from conftest import (
    branching_degree,
    complete_graph,
    is_meager,
    mixed_graph,
    qualifying_subsets,
    random_graph,
    load_script,
    reduce_loops,
    zero_band,
)


def const(n, v):
    return [float(v)] * n


def floors(thresholds, tol):
    # thresholds relaxed by ``tol``: a vertex stays while its degree is at
    # least t - tol
    return [t - tol for t in thresholds]


class TestPeel:
    def test_triangle_low_threshold_keeps_all(self, triangle):
        assert peel(triangle, range(3), const(3, 1.5)) == {0, 1, 2}

    def test_triangle_cascade_to_empty(self, triangle):
        assert peel(triangle, range(3), const(3, 2.5)) == frozenset()

    def test_path_thresholds(self, path3):
        assert peel(path3, range(3), const(3, 1.5)) == frozenset()
        assert peel(path3, range(3), const(3, 1.0)) == {0, 1, 2}

    def test_restricted_subset(self, triangle):
        assert peel(triangle, {0, 1}, const(3, 1.0)) == {0, 1}
        assert peel(triangle, {0, 1}, const(3, 1.5)) == frozenset()

    def test_tolerance_relaxes_uniformly(self, triangle):
        assert peel(triangle, range(3), floors(const(3, 2.5), 0.6)) == {0, 1, 2}
        assert peel(triangle, range(3), floors(const(3, 2.5), 0.4)) == frozenset()

    def test_threshold_length_checked(self, triangle):
        with pytest.raises(ValueError):
            peel(triangle, range(3), const(2, 1.0))

    @pytest.mark.parametrize("entry", ["peel", "minimal_satisfying_set"])
    def test_nan_threshold_and_out_of_range_member_rejected(self, triangle, entry):
        def call(members, thresholds):
            if entry == "peel":
                return peel(triangle, members, thresholds)
            return minimal_satisfying_set(triangle, thresholds, within=members)

        with pytest.raises(ValueError, match=r"^thresholds must not be NaN$"):
            call(range(3), [1.0, math.nan, 1.0])
        for x in (3, -1):
            with pytest.raises(ValueError, match=rf"^vertex {x} is out of range$"):
                call([0, 1, x], const(3, 1.0))

    def test_matches_union_of_qualifying_subsets(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
            f = [rng.uniform(0.0, 3.0) for _ in range(n)]
            expected = frozenset().union(*qualifying_subsets(g, range(n), f), frozenset())
            assert peel(g, range(n), f) == expected

    def test_order_independence(self):
        # reference peel deleting violators in random order must agree
        def random_order_peel(graph, subset, thresholds, rng):
            members = set(subset)
            while True:
                violators = [
                    x for x in members
                    if branching_degree(graph, members, x) < thresholds[x]
                ]
                if not violators:
                    return frozenset(members)
                members.remove(rng.choice(violators))

        rng = random.Random(11)
        for trial in range(10):
            n = rng.randint(3, 9)
            g = random_graph(rng, n, 0.6)
            f = [rng.uniform(0.0, 2.5) for _ in range(n)]
            reference = peel(g, range(n), f)
            for order_seed in range(20):
                alt = random_order_peel(g, range(n), f, random.Random(order_seed))
                assert alt == reference


class TestExactSum:
    """``core._side_degree`` is the branching sum over the flagged set plus
    x: the same terms in the same order, so equal as floats, not just
    close."""

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_equals_the_ascending_sum_bit_for_bit(self, loop_mode):
        rng = random.Random(13)
        reordered = 0
        for _ in range(200):
            n = rng.randint(1, 20)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.9]), loops=True,
                             loop_mode=loop_mode)
            subset = {x for x in range(n) if rng.random() < 0.6}
            flags = bytearray(x in subset for x in range(n))
            for x in range(n):
                # outside the subset, the degree x would have on joining it
                exact = branching_degree(g, subset | {x}, x)
                assert core_module._side_degree(g, flags, x) == exact
                # the same terms summed in descending order often differ,
                # so equality here rests on the order
                descending = 0.0
                for y, w in reversed(g.adjacency[x]):
                    if y in subset:
                        descending += w
                descending += loop_mode.factor * g.loops[x]
                reordered += descending != exact
        assert reordered >= 50

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_equals_the_branching_sum_bit_for_bit(self, loop_mode):
        # the cached loop term, added unconditionally, gives the sum that
        # adding factor * w_xx only where x has a loop gave
        rng = random.Random(41)
        for _ in range(100):
            n = rng.randint(1, 16)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.9]), loops=True,
                             loop_mode=loop_mode)
            subset = {x for x in range(n) if rng.random() < 0.6}
            flags = bytearray(x in subset for x in range(n))
            for x in range(n):
                got = core_module._side_degree(g, flags, x)
                assert got.hex() == branching_degree(g, subset, x).hex()


class TestIsMeager:
    def test_triangle_zero_thresholds_not_meager(self, triangle):
        assert not is_meager(triangle, range(3), const(3, 0.0))

    def test_triangle_meager_at_higher_threshold(self, triangle):
        assert is_meager(triangle, range(3), const(3, 1.5))

    def test_isolated_vertex_blocks_meagerness(self):
        g = build_graph([("a", "b", 1.0)], vertices=["a", "b", "v"])
        assert not is_meager(g, range(3), const(3, 0.0))

    def test_agrees_with_definitional_check(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice([0.4, 0.8]))
            f = [rng.uniform(0.0, 2.0) for _ in range(n)]
            strong = [f[x] + g.W[x] for x in range(n)]
            definitional = not qualifying_subsets(g, range(n), strong)
            assert is_meager(g, range(n), f) == definitional

    def test_hereditary_under_subsets(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.7)
            f = [rng.uniform(0.5, 2.0) for _ in range(n)]
            if not is_meager(g, range(n), f):
                continue
            subset = [x for x in range(n) if rng.random() < 0.6]
            assert is_meager(g, subset, f)


class TestMinimalSatisfyingSet:
    def test_k4_needs_three_vertices(self, k4):
        result = minimal_satisfying_set(k4, const(4, 2.0))
        assert len(result) == 3
        # cross-check against full enumeration: minimal qualifying sets are triples
        sets = qualifying_subsets(k4, range(4), const(4, 2.0))
        minimal = [s for s in sets if not any(t < s for t in sets)]
        assert result in minimal

    def test_triangle_zero_demand_is_singleton(self, triangle):
        assert len(minimal_satisfying_set(triangle, const(3, 0.0))) == 1

    def test_k9_demand_three_needs_four_vertices(self, k9):
        result = minimal_satisfying_set(k9, const(9, 3.0))
        assert len(result) == 4
        for x in result:
            assert branching_degree(k9, result, x) == 3.0

    def test_raises_when_nothing_satisfies(self, triangle):
        with pytest.raises(NoSatisfyingSetError):
            minimal_satisfying_set(triangle, const(3, 5.0))

    def test_output_is_fixed_point_with_dead_deletions(self):
        rng = random.Random(21)
        for _ in range(20):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, 0.8)
            a = [rng.uniform(0.0, 1.5) for _ in range(n)]
            try:
                result = minimal_satisfying_set(g, a)
            except NoSatisfyingSetError:
                continue
            assert peel(g, result, a) == result
            for v in result:
                assert peel(g, result - {v}, a) == frozenset()


def reference_peel(graph, subset, thresholds):
    """Reference: the earlier peel, which re-sums each neighbour's induced
    degree after every deletion and deletes the most violating vertex first
    (smallest degree-minus-threshold margin, ties by index)."""
    members = set(subset)
    deg = {x: branching_degree(graph, members, x) for x in members}
    while True:
        worst = None
        worst_key = None
        for x in members:
            if deg[x] < thresholds[x]:
                key = (deg[x] - thresholds[x], x)
                if worst is None or key < worst_key:
                    worst, worst_key = x, key
        if worst is None:
            return frozenset(members)
        members.remove(worst)
        for y, _ in graph.adjacency[worst]:
            if y in members:
                deg[y] = branching_degree(graph, members, y)


def restart_minimal_satisfying_set(graph, demands, within=None):
    """Reference: the earlier search, which restarts from the lowest vertex
    after every deletion whose core stays non-empty."""
    universe = frozenset(range(graph.n)) if within is None else frozenset(within)
    current = reference_peel(graph, universe, demands)
    if not current:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    shrinking = True
    while shrinking:
        shrinking = False
        for v in sorted(current):
            candidate = reference_peel(graph, current - {v}, demands)
            if candidate:
                current = candidate
                shrinking = True
                break
    return current


class TestMinimalSetMatchesRestartSearch:
    """The one-pass incremental search returns exactly the set the
    restarting, re-summing search returns, because peel is monotone and
    every peel decision is the exact one."""

    @staticmethod
    def assert_same(graph, demands, within=None):
        try:
            expected = restart_minimal_satisfying_set(graph, demands, within)
        except NoSatisfyingSetError:
            with pytest.raises(NoSatisfyingSetError):
                minimal_satisfying_set(graph, demands, within)
            return False
        assert minimal_satisfying_set(graph, demands, within) == expected
        return True

    @pytest.mark.parametrize("tol", [0.0, 0.3])
    def test_random_weighted_graphs(self, tol):
        rng = random.Random(31)
        solved = 0
        for _ in range(60):
            n = rng.randint(2, 14)
            g = random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
            a = [rng.uniform(0.0, 3.0) for _ in range(n)]
            solved += self.assert_same(g, floors(a, tol))
        assert solved >= 20

    def test_unit_weight_zero_slack_graphs(self):
        # a = (d - 2W) / 2 on unit weights: zero slack, exact half-integers
        rng = random.Random(8)
        for _ in range(6):
            g = random_graph(rng, 40, 0.3, weight_range=(1.0, 1.0))
            a = [max(0.0, (d - 2.0) / 2.0) for d in g.d]
            active = [x for x in range(g.n) if g.d[x] > 0.0]
            assert self.assert_same(g, a, within=active)

    @pytest.mark.parametrize("width,height,r", [(6, 6, 2.1), (7, 5, 2.6), (8, 6, 3.1)])
    def test_reduced_half_degree_grids(self, width, height, r):
        graph = build_grid_graph(GridInstance.rectangle(width, height, r))
        loopless, demands = reduce_loops(graph, squares_demands(graph, DemandScheme.HALF_DEGREE))
        assert self.assert_same(loopless, demands.a)


# weights whose sums round: subtracting them one by one from an ascending sum
# drifts away from the ascending sum of the rest
TIE_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.0 / 3.0)


def planted_thresholds(rng, graph, tol=0.0):
    """Thresholds that equal each member's ascending induced degree in a
    random subset S plus ``tol``, and 1e9 elsewhere, so every member of S
    sits on its threshold once the rest is peeled away."""
    planted = {x for x in range(graph.n) if rng.random() < 0.6}
    thresholds = [1e9] * graph.n
    for x in planted:
        thresholds[x] = branching_degree(graph, planted, x) + tol
    return thresholds


def planted_tight_core(rng, n, p, tol=0.0):
    """A random graph with planted thresholds."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.choice(TIE_WEIGHTS + (None,))
                edges.append((i, j, rng.uniform(0.05, 1.0) if w is None else w))
    graph = build_graph(edges, vertices=range(n))
    return graph, planted_thresholds(rng, graph, tol)


class TestPlantedTightCore:
    """Degrees that land exactly on their thresholds after a cascade: the
    incremental degrees are a few ulps off there, and only the exact-tie
    recomputation keeps every decision equal to the reference's."""

    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_peel_matches_reference(self, tol):
        rng = random.Random(2024)
        nonempty = 0
        for _ in range(300):
            graph, thresholds = planted_tight_core(rng, rng.randint(4, 16), 0.6, tol)
            expected = reference_peel(graph, range(graph.n), floors(thresholds, tol))
            assert peel(graph, range(graph.n), floors(thresholds, tol)) == expected
            nonempty += bool(expected)
        assert nonempty >= 100

    @pytest.mark.parametrize("tol", [0.0, 0.5])
    def test_minimal_set_matches_reference(self, tol):
        rng = random.Random(77)
        solved = 0
        for _ in range(150):
            graph, thresholds = planted_tight_core(rng, rng.randint(4, 14), 0.6, tol)
            solved += TestMinimalSetMatchesRestartSearch.assert_same(
                graph, floors(thresholds, tol)
            )
        assert solved >= 50


class TestEssentialDecrement:
    """A trial fails at the decrement that takes an essential member below
    its demand by more than the exact-tie band, and only then: inside the
    band the member is decided on the exact sum."""

    def test_decrement_inside_the_band_falls_through_to_the_exact_sum(self):
        # vertex 0 needs exactly 0.1 + 0.2 and has it inside {0, 1, 2}; its
        # trial fails, so it is essential when 3 is tried.  Deleting 3 leaves
        # 0's kept degree at 0.1 + 0.2 + 0.2 - 0.2 = 0.3, one ulp below the
        # exact 0.30000000000000004, which must keep 0 and let the trial
        # succeed
        g = build_graph([(0, 1, 0.1), (0, 2, 0.2), (0, 3, 0.2), (1, 2, 0.4)])
        planted = {0, 1, 2}
        demands = [branching_degree(g, planted, x) for x in sorted(planted)] + [0.2]
        assert branching_degree(g, range(4), 0) - 0.2 < demands[0]
        assert TestMinimalSetMatchesRestartSearch.assert_same(g, demands)
        assert minimal_satisfying_set(g, demands) == planted

    def test_decrement_below_the_band_fails_the_trial(self, monkeypatch):
        # a tight weighted triangle: 0's trial empties it, and the trials of
        # 1 and 2 each take 0 below its demand by a whole edge, so they fail
        # at their first decrement and never cascade
        g = build_graph([(0, 1, 0.1), (0, 2, 0.2), (1, 2, 1.0 / 3.0)])
        demands = [branching_degree(g, range(3), x) for x in range(3)]
        cascades = []
        original = core_module._cascade

        def counting(graph, flags, deg, thresholds, stop, stack, log=None):
            cascades.append(tuple(x for x in range(len(flags)) if not flags[x]))
            return original(graph, flags, deg, thresholds, stop, stack, log)

        monkeypatch.setattr(core_module, "_cascade", counting)
        assert TestMinimalSetMatchesRestartSearch.assert_same(g, demands)
        # the last probe's, of all of ``within`` (the smaller suffixes are
        # below their demands and never cascade), then the trial of 0 only
        assert cascades == [(), (0,)]
        assert minimal_satisfying_set(g, demands) == {0, 1, 2}


def ascending_minimal_satisfying_set(graph, demands, within=None):
    """Reference: the one-pass search before the suffix probe, verbatim,
    which tries every member of the initial core in ascending order."""
    n = graph.n
    kept = _KeptSet(graph, range(n) if within is None else within, demands)
    flags, deg, essential = kept.flags, kept.deg, kept.stop
    adjacency, band = graph.adjacency, graph.band
    core_module._cascade(graph, flags, deg, demands, essential, list(compress(range(n), flags)))
    if 1 not in flags:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    for v in list(compress(range(n), flags)):
        if not flags[v]:
            continue
        stack, log = [], []
        if not (
            core_module._delete(adjacency, flags, deg, demands, band, essential, v, stack, log)
            and core_module._cascade(graph, flags, deg, demands, essential, stack, log)
            and 1 in flags
        ):
            flags[v] = essential[v] = 1
            for y, old in reversed(log):
                flags[y], deg[y] = 1, old
    return frozenset(compress(range(n), flags))


@pytest.fixture
def deletions(monkeypatch):
    """A running count of ``core._delete`` calls, from both passes."""
    count = [0]
    original = core_module._delete

    def counting(*args):
        count[0] += 1
        return original(*args)

    monkeypatch.setattr(core_module, "_delete", counting)
    return count


def ragged_cells(rng, width, height):
    # a rectangle with random cells missing, and whole runs of some columns
    return [
        (i, j) for i in range(width) for j in range(height)
        if rng.random() < 0.85 and not (i % 5 == 2 and 3 <= j < 3 + i % 4)
    ]


class TestSuffixProbe:
    """Before its first failed trial the ascending pass reaches member u in
    the state core(C ∩ {x >= u}), C the initial core; the pass jumps to a
    suffix of C whose core is non-empty.  It returns exactly what the
    ascending pass returns, and deletes fewer vertices where it jumps."""

    @staticmethod
    def compare(graph, demands, deletions, within=None):
        """The result of both passes, which must agree (None when neither
        finds a set), and whether the new pass deleted fewer vertices."""
        start = deletions[0]
        try:
            expected = ascending_minimal_satisfying_set(graph, demands, within)
        except NoSatisfyingSetError:
            with pytest.raises(NoSatisfyingSetError):
                minimal_satisfying_set(graph, demands, within)
            return None, False
        middle = deletions[0]
        assert minimal_satisfying_set(graph, demands, within) == expected
        return expected, deletions[0] - middle < middle - start

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_grids_rectangular_and_ragged(self, loop_mode, deletions):
        rng = random.Random(5)
        solved = jumped = 0
        for r in (0.6, 1.1, 1.7, 2.1, 2.6, 3.1, 3.7, 4.3):
            for cells in (
                [(i, j) for i in range(24) for j in range(18)],
                ragged_cells(rng, 26, 20),
            ):
                graph = build_grid_graph(GridInstance(cells, r), loop_mode)
                demands = squares_demands(graph, DemandScheme.HALF_DEGREE)
                result, fewer = self.compare(graph, demands.a, deletions)
                solved += result is not None
                jumped += fewer
        assert solved == 16 and jumped == 16

    def test_random_graphs_whose_first_failure_comes_early(self, deletions):
        # dense graphs at high demands: the first failed trial comes within
        # a few trials, before any probe or just after the first ones
        rng = random.Random(13)
        solved = 0
        for _ in range(40):
            n = rng.randint(6, 40)
            g = random_graph(rng, n, rng.choice([0.5, 0.8, 1.0]))
            demands = [rng.uniform(0.3, 0.5) * d for d in g.d]
            solved += self.compare(g, demands, deletions)[0] is not None
        assert solved >= 30

    def test_zero_slack_climbing_instances(self, deletions):
        # the climb's inputs: the first trial fails at about 40 of 100
        rng = random.Random(8)
        for _ in range(4):
            g = random_graph(rng, 100, 0.3, weight_range=(1.0, 1.0))
            demands = [max(0.0, (d - 2.0) / 2.0) for d in g.d]
            assert self.compare(g, demands, deletions)[0]

    def test_within_subsets(self, deletions):
        rng = random.Random(29)
        solved = jumped = 0
        for _ in range(12):
            graph = build_grid_graph(GridInstance.rectangle(18, 12, rng.choice((2.1, 3.1))))
            demands = squares_demands(graph, DemandScheme.HALF_DEGREE)
            within = [x for x in range(graph.n) if rng.random() < 0.9]
            result, fewer = self.compare(graph, demands.a, deletions, within)
            solved += result is not None
            jumped += fewer
        for _ in range(40):
            n = rng.randint(6, 30)
            g = random_graph(rng, n, 0.6)
            within = rng.sample(range(n), rng.randint(0, n))
            demands = [rng.uniform(0.0, 0.4) * d for d in g.d]
            solved += self.compare(g, demands, deletions, within)[0] is not None
        assert solved >= 35 and jumped >= 6

    @pytest.mark.parametrize("weights", ["0.1", "1/3", "U(0.5, 1)"])
    def test_non_dyadic_weights_planted_on_a_suffix(self, weights, deletions):
        # every member of a planted suffix sits exactly on its threshold, the
        # ascending sum of its weights into the suffix; the probe's degrees
        # are summed in another order, so it decides them on the exact sum
        draw = {
            "0.1": lambda rng: 0.1,
            "1/3": lambda rng: 1.0 / 3.0,
            "U(0.5, 1)": lambda rng: rng.uniform(0.5, 1.0),
        }[weights]
        rng = random.Random(61)
        jumped = 0
        for _ in range(30):
            n = rng.randint(30, 60)
            edges = [
                (i, j, draw(rng)) for i in range(n) for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            g = build_graph(edges, vertices=range(n))
            planted = set(range(n - rng.randint(3, 8), n))
            demands = [rng.uniform(0.0, 0.2) * d for d in g.d]
            for x in planted:
                demands[x] = branching_degree(g, planted, x)
            result, fewer = self.compare(g, demands, deletions)
            assert result
            jumped += fewer
        assert jumped >= 20

    def test_a_probe_degree_an_ulp_low_is_decided_on_the_exact_sum(self, deletions):
        # 13 needs 0.1 + 0.2 + 0.3 = 0.6000000000000001 from 12, 14 and 15.
        # The probe of size 4 adds 13's row after 14's and 15's: 0.2 + 0.3,
        # then 0.1, which is 0.6, an ulp low.  The exact sum keeps 13, so the
        # probe finds {12, ..., 15} and the trials start there
        g = build_graph([(12, 13, 0.1), (13, 14, 0.2), (13, 15, 0.3)], vertices=range(16))
        planted = {12, 13, 14, 15}
        demands = [0.0] * 12 + [branching_degree(g, planted, x) for x in sorted(planted)]
        assert (0.2 + 0.3) + 0.1 < demands[13]
        result, fewer = self.compare(g, demands, deletions)
        assert result == planted and fewer

    def test_a_grid_skips_most_of_its_cells(self, deletions):
        # 40x38 at r = 3.1: the first failed trial is at cell 1,444 of 1,520,
        # and the ascending pass deletes about every cell before it
        graph = build_grid_graph(GridInstance.rectangle(40, 38, 3.1))
        demands = squares_demands(graph, DemandScheme.HALF_DEGREE).a
        result = ascending_minimal_satisfying_set(graph, demands)
        assert deletions[0] >= graph.n
        deletions[0] = 0
        assert minimal_satisfying_set(graph, demands) == result and len(result) == 76
        assert deletions[0] < graph.n // 5


class TestInputChecksComeFirst:
    """A probe never looks at the low end of ``within``, yet every input is
    still checked before the pass starts."""

    @pytest.fixture
    def grid(self):
        graph = build_grid_graph(GridInstance.rectangle(20, 20, 3.1))
        return graph, list(squares_demands(graph, DemandScheme.HALF_DEGREE).a)

    def test_an_out_of_range_vertex_below_every_probe(self, grid):
        graph, demands = grid
        for x in (-1, -graph.n - 1):
            with pytest.raises(ValueError, match=rf"^vertex {x} is out of range$"):
                minimal_satisfying_set(graph, demands, within=[x, *range(graph.n)])

    def test_a_nan_or_missing_threshold(self, grid):
        graph, demands = grid
        with pytest.raises(ValueError, match=r"^thresholds must not be NaN$"):
            minimal_satisfying_set(graph, [math.nan] + demands[1:])
        with pytest.raises(ValueError, match=rf"^expected {graph.n} thresholds, got"):
            minimal_satisfying_set(graph, demands[:-1])

    def test_an_empty_within_or_an_empty_core(self, grid):
        graph, demands = grid
        with pytest.raises(NoSatisfyingSetError):
            minimal_satisfying_set(graph, demands, within=[])
        # the first column alone: every cell misses half its degree there
        with pytest.raises(NoSatisfyingSetError):
            minimal_satisfying_set(graph, demands, within=range(20))


def members(kept):
    return {x for x in range(kept.graph.n) if kept.flags[x]}


class TestKeptSideDegrees:
    """``core._KeptSet`` as one side of the hill-climb, against exact
    recomputation."""

    def test_witness_tie_goes_to_the_lower_index(self):
        # vertex 0 keeps 0.2 + 0.1 - 0.1 = 0.20000000000000004 once its 0.1
        # neighbour leaves; its exact margin 0.8 + 0.2 - 0.2 ties vertex 1's,
        # and the lower index must win
        g = build_graph([(0, 2, 0.2), (0, 3, 0.1), (1, 2, 0.2)], vertices=range(4))
        side = _KeptSet(g, range(4), [0.8] * 4)
        side.remove(3)
        assert side.deg[0] != branching_degree(g, members(side), 0)
        assert side.witness([0.8 + w for w in g.W]) == (0, 0.2)

    def test_degrees_and_cores_follow_many_moves(self):
        # a star whose leaves leave and return thousands of times; without
        # reseeding, the centre's kept degree drifts past the band.  Its
        # demand is the exact sum over leaves 1, 3 and 4, so the core is
        # non-empty exactly when the centre reaches it, often by a tie.
        weights = [0.1, 0.1, 1 / 3, 1 / 3, 1 / 3]
        g = build_graph(
            [(0, leaf, w) for leaf, w in enumerate(weights, start=1)], vertices=range(6)
        )
        demand = [branching_degree(g, {0, 1, 3, 4}, 0)] + [0.1] * 5
        side = _KeptSet(g, range(6), demand)
        rng = random.Random(0)
        for _ in range(4000):
            v = rng.randrange(1, 6)
            if side.flags[v]:
                side.remove(v)
            else:
                side.add(v, branching_degree(g, members(side) | {v}, v))
            for x in members(side):
                assert abs(side.deg[x] - branching_degree(g, members(side), x)) <= g.band[x]
            assert side.core == peel(g, members(side), demand)

    @staticmethod
    def triangle_with_tails():
        # core {0, 1, 2}: a unit triangle at demand 2; 3 hangs off 0 and
        # needs 1.5, 4 joins the triangle at demand 2, 5 links 3 and 0
        g = build_graph(
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 1.0), (1, 4, 1.0),
             (2, 4, 1.0), (3, 5, 1.0), (0, 5, 1.0)],
            vertices=range(6),
        )
        return g, [2.0, 2.0, 2.0, 1.5, 2.0, 1.5]

    def test_removing_a_vertex_outside_the_core_keeps_it(self):
        g, demand = self.triangle_with_tails()
        side = _KeptSet(g, range(4), demand)
        core = side.core
        assert core == {0, 1, 2}
        side.remove(3)
        assert side.core is core
        assert side.core == peel(g, members(side), demand)

    def test_adding_a_vertex_that_is_peeled_keeps_the_old_core(self):
        g, demand = self.triangle_with_tails()
        side = _KeptSet(g, range(3), demand)
        core = side.core
        side.add(3, branching_degree(g, {0, 1, 2, 3}, 3))
        assert side.core is core
        assert side.core == peel(g, members(side), demand) == {0, 1, 2}

    def test_adding_to_a_non_empty_core(self):
        g, demand = self.triangle_with_tails()
        side = _KeptSet(g, range(4), demand)
        # 4 joins the core by itself; 5 brings 3 in with it
        side.add(4, branching_degree(g, {0, 1, 2, 3, 4}, 4))
        assert side.core == peel(g, members(side), demand) == {0, 1, 2, 4}
        side.add(5, branching_degree(g, set(range(6)), 5))
        assert side.core == peel(g, members(side), demand) == set(range(6))

    def test_random_moves_follow_peel(self):
        # weighted random graphs at demands near half the degree, so cores
        # come and go; every add and remove is checked against peel, and
        # adds to a side with a non-empty core must occur
        rng = random.Random(5)
        grown = 0
        for _ in range(30):
            n = rng.randint(6, 16)
            g = random_graph(rng, n, 0.5)
            demand = [rng.uniform(0.3, 0.6) * d for d in g.d]
            start = [x for x in range(n) if rng.random() < 0.5]
            side = _KeptSet(g, start, demand)
            for _ in range(60):
                v = rng.randrange(n)
                if side.flags[v]:
                    side.remove(v)
                else:
                    grown += bool(side.core)
                    side.add(v, branching_degree(g, members(side) | {v}, v))
                assert side.core == peel(g, members(side), demand)
        assert grown >= 100


class TestExactRows:
    """An exact row (integer weights and loop term, d < 2^53) has a band of
    0, and its kept degree stands for the exact sum.  Rows just outside that
    rule keep their band, and on graphs that mix both kinds every decision
    is still the reference's."""

    BIG = 2.0 ** 52

    # each case: edges, loop mode, thresholds, the core; vertex 0's row is
    # banded, and deleting vertex 1 leaves its kept degree off the exact sum
    # by a whole unit or more, on the wrong side of its threshold
    CASES = {
        "degree-2^53": (
            [(0, 1, BIG), (0, 2, BIG), (0, 3, 1.0), (2, 3, 1.0)],
            LoopMode.DOUBLE, [BIG + 1.0, 1e300, BIG, 1.0], {0, 2, 3},
        ),
        "half-weight": (
            [(0, 1, BIG), (0, 2, 0.5), (0, 3, 0.5), (2, 3, 1.0)],
            LoopMode.DOUBLE, [1.0, 1e300, 1.0, 1.0], {0, 2, 3},
        ),
        "half-loop-once": (
            [(0, 1, BIG), (0, 2, 1.0), (0, 0, 0.5), (2, 3, 1.0)],
            LoopMode.ONCE, [1.75, 1e300, 1.0, 1.0], {2, 3},
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_a_row_just_outside_the_rule_keeps_its_band(self, name):
        edges, mode, thresholds, core = self.CASES[name]
        g = build_graph(edges, mode, vertices=range(4))
        assert g.band[0] > 0.0
        assert reference_peel(g, range(4), thresholds) == core
        assert peel(g, range(4), thresholds) == core

    def test_a_half_loop_doubled_is_an_exact_row(self):
        # the ONCE case above with the loop counted twice: 1.0 + 1.0 >= 1.75
        g = build_graph([(0, 1, self.BIG), (0, 2, 1.0), (0, 0, 0.5), (2, 3, 1.0)],
                        LoopMode.DOUBLE)
        thresholds = [1.75, 1e300, 1.0, 1.0]
        assert g.band == (0.0,) * 4
        assert reference_peel(g, range(4), thresholds) == {0, 2, 3}
        assert peel(g, range(4), thresholds) == {0, 2, 3}

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_mixed_rows_match_the_reference_searches(self, loop_mode):
        rng = random.Random(17)
        exact_rows = banded_rows = nonempty = solved = 0
        for _ in range(120):
            n = rng.randint(4, 14)
            g = mixed_graph(rng, n, 0.4, rng.randint(1, 2), (1.0, 2.0, 3.0), loop_mode, True)
            exact_rows += sum(zero_band(g))
            banded_rows += g.n - sum(zero_band(g))
            thresholds = planted_thresholds(rng, g)
            expected = reference_peel(g, range(g.n), thresholds)
            assert peel(g, range(g.n), thresholds) == expected
            nonempty += bool(expected)
            solved += TestMinimalSetMatchesRestartSearch.assert_same(g, thresholds)
        assert exact_rows >= 250 and banded_rows >= 250
        assert nonempty >= 100 and solved >= 100

    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_mixed_rows_on_a_hill_climb_side(self, loop_mode):
        # every add and remove against the reference peel, every exact row's
        # kept degree against the ascending sum, and the witness against a
        # scan of exact margins
        rng = random.Random(23)
        grown = 0
        for _ in range(30):
            n = rng.randint(6, 14)
            g = mixed_graph(rng, n, 0.5, rng.randint(1, 2), (1.0, 2.0, 3.0), loop_mode, True)
            demand = [rng.choice((0.3, 0.4, 0.5)) * d for d in g.d]
            target = [t + w for t, w in zip(demand, g.W)]
            side = _KeptSet(g, [x for x in range(n) if rng.random() < 0.5], demand)
            for _ in range(40):
                v = rng.randrange(n)
                if side.flags[v]:
                    side.remove(v)
                else:
                    grown += bool(side.core)
                    side.add(v, branching_degree(g, members(side) | {v}, v))
                kept = members(side)
                assert side.core == reference_peel(g, kept, demand)
                for x in kept:
                    if g.band[x] == 0.0:
                        assert side.deg[x] == branching_degree(g, kept, x)
                best, found = 0.0, None
                for x in sorted(kept):
                    margin = target[x] - branching_degree(g, kept, x)
                    if margin > best:
                        best, found = margin, (x, branching_degree(g, kept, x))
                assert side.witness(target) == found
        assert grown >= 100

    def test_an_exact_row_is_never_reseeded(self, monkeypatch):
        # a unit star whose leaves leave and return thousands of times: the
        # centre's kept degree stays the exact sum without one exact sum
        g = build_graph([(0, leaf, 1.0) for leaf in range(1, 6)])
        demand = [2.0] + [1.0] * 5
        side = _KeptSet(g, range(6), demand)
        calls = []
        original = core_module._side_degree
        monkeypatch.setattr(
            core_module, "_side_degree", lambda *args: calls.append(args) or original(*args)
        )
        rng = random.Random(3)
        for _ in range(2000):
            v = rng.randrange(1, 6)
            if side.flags[v]:
                side.remove(v)
            else:
                side.add(v, branching_degree(g, members(side) | {v}, v))
            assert side.deg[0] == branching_degree(g, members(side), 0)
            assert side.core == reference_peel(g, members(side), demand)
        assert calls == []

    def test_a_deletion_queues_no_neighbour_that_lands_on_its_threshold(self):
        # a unit triangle: deleting 0 leaves 1 and 2 at degree 1, exactly
        # their thresholds, so their pops would keep them and none is queued
        g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
        thresholds = [0.0, 1.0, 1.0]
        flags, deg, stack = bytearray(b"\x01" * 3), list(g.d), []
        assert core_module._delete(
            g.adjacency, flags, deg, thresholds, g.band, bytearray(3), 0, stack, None
        )
        assert deg[1:] == [1.0, 1.0] and stack == [] and flags == bytearray(b"\x00\x01\x01")
        assert peel(g, range(3), thresholds) == reference_peel(g, range(3), thresholds)


class TestAnchoredRemoval:
    """A hill-climb side keeps an anchor, a member u with core(S - u) = {},
    and a removal's peel ends as soon as it would delete u; a minimal set
    has every member as its anchor.  Every core is still peel's."""

    @staticmethod
    def removal_case(kept, v):
        # which path ``remove(v)`` takes, read before the call
        if v not in kept.core:
            return "non-core"
        if kept._minimal:
            return "minimal"
        if kept._anchor is None:
            return "no anchor"
        return "anchor removed" if v == kept._anchor else "anchor held"

    @staticmethod
    def instance(rng, weight):
        # weight None draws U(0.5, 1) weights; a fixed weight makes demands
        # of whole multiples of it, so exact ties occur
        n = rng.randint(8, 18)
        if weight is None:
            g = random_graph(rng, n, 0.5, weight_range=(0.5, 1.0))
            return g, [rng.uniform(0.3, 0.6) * d for d in g.d]
        g = random_graph(rng, n, 0.5, weight_range=(weight, weight))
        return g, [weight * round(rng.uniform(0.3, 0.6) * d / weight) for d in g.d]

    @pytest.mark.parametrize("weight", [1.0, 1.0 / 3.0, None], ids=["unit", "third", "uniform"])
    def test_random_sequences_follow_peel(self, weight):
        rng = random.Random(36)
        cases = dict.fromkeys(
            ("minimal", "anchor removed", "stop at anchor", "anchor held", "no anchor",
             "non-core"),
            0,
        )
        for trial in range(60):
            g, demand = self.instance(rng, weight)
            if trial % 2:
                try:
                    start = minimal_satisfying_set(g, demand)
                except NoSatisfyingSetError:
                    continue
                kept = _KeptSet(g, start, demand, minimal=True)
            else:
                kept = _KeptSet(g, [x for x in range(g.n) if rng.random() < 0.5], demand)
            assert kept.core == peel(g, members(kept), demand)
            for _ in range(40):
                v = rng.randrange(g.n)
                if kept.flags[v]:
                    case = self.removal_case(kept, v)
                    kept.remove(v)
                    if case == "anchor held" and not kept.core:
                        case = "stop at anchor"
                    cases[case] += 1
                else:
                    kept.add(v, branching_degree(g, members(kept) | {v}, v))
                assert kept.core == peel(g, members(kept), demand)
        assert all(cases.values()), cases

    def test_a_minimal_set_grown_and_shrunk_by_one_keeps_its_core(self):
        # core(A + v - v) = A: the add must end the minimal set's claim that
        # every member anchors it, or this removal would empty the core
        g = complete_graph(5)
        demand = [2.0] * 5
        side_a = minimal_satisfying_set(g, demand)
        assert len(side_a) == 3
        v = min(set(range(5)) - side_a)
        kept = _KeptSet(g, side_a, demand, minimal=True)
        kept.add(v, branching_degree(g, side_a | {v}, v))
        assert kept.core == side_a | {v}
        kept.remove(v)
        assert kept.core == side_a

    def test_removals_in_a_climb_stop_at_the_anchor(self, monkeypatch):
        # the seed-1 G(100, 0.3) zero-slack climb of the climb ladder: its
        # first removal leaves the minimal set and cascades not at all,
        # and all its removals together delete at most 40 vertices
        graph, demands = load_script("climb_ladder").zero_slack_instance(100, 0.3, 1)
        inside, removals = [False], []
        delete, remove = core_module._delete, _KeptSet.remove

        def counting_delete(*args):
            if inside[0]:
                removals[-1][1] += 1
            return delete(*args)

        def counting_remove(self, v):
            removals.append([members(self), 0])
            inside[0] = True
            try:
                remove(self, v)
            finally:
                inside[0] = False

        monkeypatch.setattr(core_module, "_delete", counting_delete)
        monkeypatch.setattr(_KeptSet, "remove", counting_remove)
        _, cert = solve(graph, demands)
        assert len(removals) == len(cert.moves) == 13
        assert removals[0] == [set(cert.hillclimb_start[0]), 0]
        assert sum(count for _, count in removals) <= 40
