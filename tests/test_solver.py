import ast
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degsplit import (
    CompletionAssertFailedError,
    Demands,
    LoopMode,
    MoveLimitExceededError,
    NonImprovingMoveError,
    Partition,
    PartitionCollapseError,
    SingleVertexGraphError,
    SolverError,
    UnstablePartitionError,
    brute_force_solve,
    build_graph,
    check_feasibility,
    find_stable_pair,
    random_feasible_instance,
    solve,
    verify_partition,
)
from degsplit import core as core_module
from degsplit import solver as solver_module
from degsplit.core import minimal_satisfying_set, peel
from degsplit.solver import PHASE_HILLCLIMB, Move

from conftest import (
    branching_degree, complete_graph, is_meager, mixed_graph, reduce_loops, weight_dict,
    zero_band,
)
from conftest import random_graph as conftest_random_graph


def ascending_h(graph, side_a, side_b, demands):
    """The potential summed in the order ``find_stable_pair`` sums its
    starting h: A's induced degrees in ascending index, then B's, then 2b
    over A, then 2a over B.  Equal to ``cert.h_start`` bit for bit."""
    total = 0.0
    for x in sorted(side_a):
        total += branching_degree(graph, side_a, x)
    for x in sorted(side_b):
        total += branching_degree(graph, side_b, x)
    for x in sorted(side_a):
        total += 2.0 * demands.b[x]
    for x in sorted(side_b):
        total += 2.0 * demands.a[x]
    return total


def h_reference(graph, side_a, side_b, demands):
    """Independent recomputation of the potential from a weight dict:
    ordered-pair internal edge sums, per-mode loop contributions, doubled
    cross demand terms."""
    weights = weight_dict(graph)
    factor = graph.loop_mode.factor
    total = 0.0
    for side in (side_a, side_b):
        for x in side:
            for y in side:
                if x != y:
                    total += weights.get((x, y), 0.0)
            total += factor * weights.get((x, x), 0.0)
    total += sum(2.0 * demands.b[x] for x in side_a)
    total += sum(2.0 * demands.a[x] for x in side_b)
    return total


def assert_stable_pair(graph, demands, side_a, side_b):
    assert side_a and side_b
    assert not (side_a & side_b)
    for x in side_a:
        assert branching_degree(graph, side_a, x) >= demands.a[x]
    for x in side_b:
        assert branching_degree(graph, side_b, x) >= demands.b[x]


def reference_find_stable_pair(graph, demands, max_moves=10_000):
    """``find_stable_pair`` without kept side degrees: both sides are
    peeled from scratch and every witness margin is re-summed at each move,
    so every decision is taken on exact sums.  Returns
    (hillclimb_start, moves, h_trace, stable_pair) as tuples of plain
    values, or raises the solver's error."""

    def candidate(src_set, dst_set, src_name):
        if len(src_set) < 2:
            return None
        dem = demands.b if src_name == "B" else demands.a
        witness, best_margin = None, 0.0
        for x in sorted(src_set):
            margin = dem[x] + graph.W[x] - branching_degree(graph, src_set, x)
            if margin > best_margin:
                witness, best_margin = x, margin
        if witness is None:
            return None
        d_old = branching_degree(graph, src_set, witness)
        d_new = branching_degree(graph, dst_set | {witness}, witness)
        if src_name == "B":
            swap, dst_name = demands.b[witness] - demands.a[witness], "A"
        else:
            swap, dst_name = demands.a[witness] - demands.b[witness], "B"
        return witness, src_name, dst_name, 2.0 * (d_new - d_old + swap)

    active = frozenset(x for x in range(graph.n) if graph.d[x] > 0.0)
    side_a = minimal_satisfying_set(graph, demands.a, within=active)
    side_b = active - side_a
    if not side_b:
        raise PartitionCollapseError("every active vertex is needed")
    core_b = peel(graph, side_b, demands.b)
    if core_b:
        return None, (), (), (side_a, core_b)

    side_a, side_b = set(side_a), set(side_b)
    start = (frozenset(side_a), frozenset(side_b))
    h = ascending_h(graph, side_a, side_b, demands)
    moves, h_trace = [], [h]
    for _ in range(max_moves):
        core_a = peel(graph, side_a, demands.a)
        core_b = peel(graph, side_b, demands.b)
        if core_a and core_b:
            return start, tuple(moves), tuple(h_trace), (core_a, core_b)
        to_a = candidate(side_b, side_a, "B")
        to_b = candidate(side_a, side_b, "A")
        if not core_a and core_b:
            move = to_a or to_b
        elif not core_b and core_a:
            move = to_b or to_a
        elif to_a and to_b:
            move = to_a if to_a[3] >= to_b[3] else to_b
        else:
            move = to_a or to_b
        if move is None:
            raise PartitionCollapseError("no witness vertex can move")
        vertex, from_side, to_side, gain = move
        if gain <= 0.0:
            raise NonImprovingMoveError(f"moving vertex {vertex} gains {gain}")
        if from_side == "B":
            side_b.remove(vertex)
            side_a.add(vertex)
        else:
            side_a.remove(vertex)
            side_b.add(vertex)
        moves.append(Move(vertex, from_side, to_side, h, h + gain))
        h = h + gain
        h_trace.append(h)
    raise MoveLimitExceededError(f"no stable pair within {max_moves} moves")


class TestCheckFeasibility:
    def test_k9_tight_demands_infeasible(self, k9):
        report = check_feasibility(k9, Demands.constant(9, 3.5, 3.5))
        assert not report.feasible
        assert report.slack == (-1.0,) * 9
        assert report.violations == tuple(range(9))

    def test_k9_exact_demands_feasible(self, k9):
        report = check_feasibility(k9, Demands.constant(9, 3.0, 3.0))
        assert report.feasible
        assert report.slack == (0.0,) * 9

    def test_triangle_zero_demands(self, triangle):
        report = check_feasibility(triangle, Demands.constant(3, 0.0, 0.0))
        assert report.feasible
        assert report.slack == (0.0, 0.0, 0.0)

    def test_loop_correction_per_mode(self):
        for mode, factor in ((LoopMode.ONCE, 1), (LoopMode.DOUBLE, 2)):
            g = build_graph([("x", "y", 1.0), ("x", "x", 2.0)], mode)
            # zero demands: both clamps take the whole loop share back, so x
            # keeps its loopless slack 1 - 2W in either mode
            report = check_feasibility(g, Demands.constant(2, 0.0, 0.0))
            assert report.slack[0] == -1.0
            # demands at least the loop share: d - a - b - 2W + factor*loop
            dem = Demands((4.0, 0.0), (4.0, 0.0))
            report = check_feasibility(g, dem)
            assert report.slack[0] == g.d[0] - 8.0 - 2.0 + factor * 2.0

    def test_looped_k9_beyond_the_loop_share_is_infeasible(self):
        # a unit loop at each vertex of K9 gives d = 10, so d - a - b - 2W
        # plus the loop share reads +0.5; the reduced instance has d' = 8 and
        # b' = 7.5, so its slack is 8 - 7.5 - 2 = -1.5
        g = build_graph(
            [(i, j, 1.0) for i in range(9) for j in range(i, 9)], LoopMode.DOUBLE
        )
        dem = Demands.constant(9, 0.0, 9.5)
        report = check_feasibility(g, dem)
        assert report.feasible is False
        assert report.slack == (-1.5,) * 9
        assert not brute_force_solve(g, dem).exists

    def test_random_loop_graphs_report_the_reduced_slack(self):
        # loops above and below the demands, so each clamp binds and misses;
        # demands share d - 2W, which some reduced instances cannot afford
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            feasible = 0
            for seed in range(100):
                rng = random.Random(seed)
                n = rng.randint(2, 9)
                g = conftest_random_graph(
                    rng, n, rng.choice([0.6, 0.8, 1.0]), (0.5, 1.0),
                    loops=True, loop_mode=mode,
                )
                a, b = [], []
                for x in range(n):
                    budget = max(0.0, g.d[x] - 2.0 * g.W[x])
                    a.append(rng.random() * budget)
                    b.append(rng.random() * (budget - a[-1]))
                dem = Demands(tuple(a), tuple(b))
                report = check_feasibility(g, dem)
                plain = check_feasibility(*reduce_loops(g, dem))
                for s, t in zip(report.slack, plain.slack):
                    assert math.isclose(s, t, rel_tol=1e-12, abs_tol=1e-12)
                if report.feasible:
                    feasible += 1
                    assert brute_force_solve(g, dem).exists
                    partition, _ = solve(g, dem)
                    assert not verify_partition(g, dem, partition)
            # the sample holds both feasible and infeasible reports
            assert 20 < feasible < 80


class TestHValue:
    def test_k4_split_counts_edges_twice(self, k4):
        p = Partition(frozenset({0, 1}), frozenset({2, 3}))
        assert ascending_h(k4, p.a, p.b, Demands.constant(4, 0.0, 0.0)) == 4.0

    def test_triangle_singleton_side(self, triangle):
        p = Partition(frozenset({0}), frozenset({1, 2}))
        assert ascending_h(triangle, p.a, p.b, Demands.constant(3, 0.0, 0.0)) == 2.0

    def test_h_plus_twice_cut_is_constant(self):
        rng = random.Random(3)
        g = complete_graph(6, w=1.0)
        weights = weight_dict(g)
        zero = Demands.constant(6, 0.0, 0.0)
        total = sum(w for (x, y), w in weights.items() if x < y)
        for _ in range(10):
            side_a = frozenset(x for x in range(6) if rng.random() < 0.5)
            if not side_a or len(side_a) == 6:
                continue
            side_b = frozenset(range(6)) - side_a
            cut = sum(
                weights.get((x, y), 0.0) for x in side_a for y in side_b
            )
            h = ascending_h(g, side_a, side_b, zero)
            assert math.isclose(h + 2.0 * cut, 2.0 * total, rel_tol=1e-12)

    def test_matches_reference_with_demands(self):
        rng = random.Random(17)
        g = complete_graph(5, w=1.0)
        dem = Demands(
            tuple(rng.uniform(0, 2) for _ in range(5)),
            tuple(rng.uniform(0, 2) for _ in range(5)),
        )
        p = Partition(frozenset({0, 2}), frozenset({1, 3, 4}))
        assert math.isclose(
            ascending_h(g, p.a, p.b, dem), h_reference(g, p.a, p.b, dem), rel_tol=1e-12
        )


class TestFindStablePair:
    def test_k9_balanced_demands(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        side_a, side_b, cert = find_stable_pair(k9, dem)
        assert len(side_a) == 4
        assert_stable_pair(k9, dem, side_a, side_b)
        assert cert.stable_pair == (side_a, side_b)

    def test_triangle_zero_demands(self, triangle):
        dem = Demands.constant(3, 0.0, 0.0)
        side_a, side_b, _ = find_stable_pair(triangle, dem)
        assert_stable_pair(triangle, dem, side_a, side_b)

    def test_k9_infeasible_raises_never_lies(self, k9):
        with pytest.raises((NonImprovingMoveError, MoveLimitExceededError,
                            PartitionCollapseError)):
            find_stable_pair(k9, Demands.constant(9, 3.5, 3.5))

    def test_hillclimb_certificate_consistency(self):
        # seed 8 runs the hill-climb for two moves (found by survey, frozen)
        g, dem = random_feasible_instance(10, 1.0, (0.5, 1.0), seed=8)
        side_a, side_b, cert = find_stable_pair(g, dem)
        assert PHASE_HILLCLIMB in cert.phase_log
        assert len(cert.moves) >= 1
        assert_stable_pair(g, dem, side_a, side_b)
        # h trace strictly increases and matches the independent recomputation
        assert all(b > a for a, b in zip(cert.h_trace, cert.h_trace[1:]))
        cur_a, cur_b = set(cert.hillclimb_start[0]), set(cert.hillclimb_start[1])
        assert math.isclose(
            cert.h_trace[0], h_reference(g, cur_a, cur_b, dem), abs_tol=1e-9
        )
        for move, h_after in zip(cert.moves, cert.h_trace[1:]):
            if move.from_side == "B":
                cur_b.remove(move.vertex)
                cur_a.add(move.vertex)
            else:
                cur_a.remove(move.vertex)
                cur_b.add(move.vertex)
            assert math.isclose(h_after, h_reference(g, cur_a, cur_b, dem), abs_tol=1e-9)

    def test_h_trace_is_derived_from_the_moves(self):
        g, dem = random_feasible_instance(10, 1.0, (0.5, 1.0), seed=8)
        _, _, cert = find_stable_pair(g, dem)
        assert cert.h_trace == (cert.h_start, *(m.h_after for m in cert.moves))
        with pytest.raises(AttributeError):
            cert.h_trace = []
        _, _, no_climb = find_stable_pair(complete_graph(9), Demands.constant(9, 3.0, 3.0))
        assert no_climb.h_start is None and no_climb.h_trace == ()

    def test_move_limit(self):
        g, dem = random_feasible_instance(10, 1.0, (0.5, 1.0), seed=8)
        with pytest.raises(MoveLimitExceededError):
            find_stable_pair(g, dem, max_moves=1)

    def test_sides_stay_meager_throughout_climb(self):
        # replay certificates: on loopless feasible instances both sides are
        # meager at the climb start and after every move, and h starts at
        # exactly the ascending sum
        climbs = 0
        for seed in range(120):
            n = 5 + seed % 8
            g, dem = random_feasible_instance(n, 1.0, (0.5, 1.0), seed=3000 + seed)
            _, _, cert = find_stable_pair(g, dem)
            if cert.hillclimb_start is None:
                continue
            climbs += 1
            assert cert.h_start == ascending_h(g, *cert.hillclimb_start, dem)
            side_a = set(cert.hillclimb_start[0])
            side_b = set(cert.hillclimb_start[1])
            states = [(set(side_a), set(side_b))]
            for move in cert.moves:
                if move.from_side == "B":
                    side_b.remove(move.vertex)
                    side_a.add(move.vertex)
                else:
                    side_a.remove(move.vertex)
                    side_b.add(move.vertex)
                states.append((set(side_a), set(side_b)))
            for state_a, state_b in states:
                assert is_meager(g, state_a, dem.a)
                assert is_meager(g, state_b, dem.b)
        assert climbs > 0

    def test_b_core_is_the_case1_pair(self):
        # B's b-core is non-empty but its (b + W)-core is empty here, so
        # case 1 returns A with the b-core and the climb never starts
        # (partition frozen from a run that climbed for 0 moves)
        g, dem = random_feasible_instance(15, 0.5, (0.5, 1.0), 155)
        partition, cert = solve(g, dem)
        assert PHASE_HILLCLIMB not in cert.phase_log
        assert cert.h_start is None and cert.hillclimb_start is None
        assert cert.moves == []
        assert sorted(partition.a) == [0, 1, 5, 6, 8, 9, 10, 11, 12, 13, 14]
        assert sorted(partition.b) == [2, 3, 4, 7]
        side_a, side_b = cert.stable_pair
        assert side_b == peel(g, frozenset(range(15)) - side_a, dem.b)

    def test_collapse_when_demands_swallow_everything(self):
        g = build_graph([("x", "y", 1.0)])
        with pytest.raises(PartitionCollapseError):
            find_stable_pair(g, Demands.constant(2, 0.5, 0.5))


def climb_outcome(climb, graph, demands):
    try:
        return climb(graph, demands)
    except SolverError as exc:
        return type(exc).__name__


def kept_degree_climb(graph, demands):
    _, _, cert = find_stable_pair(graph, demands)
    return cert.hillclimb_start, tuple(cert.moves), cert.h_trace, cert.stable_pair


class TestKeptDegreeClimbMatchesReference:
    """``find_stable_pair`` keeps each side's degrees across moves and
    re-peels only a side whose core can have changed; it must make exactly
    the moves of the re-peeling reference.  The instances are G(n, 0.3),
    n from 30 to 60, with every edge of weight w and a = b = (d - 2W) / 2,
    zero slack everywhere.  At w = 1 every sum is exact; at the non-dyadic
    weights kept degrees drift from the ascending sums by a few ulps while
    ties between margins, and between degrees and demands, stay exact, so a
    decision taken on a drifted value shows up as a different move."""

    @pytest.mark.parametrize("weight", [1.0, 0.1, 0.2, 0.3, 0.7, 1 / 3])
    def test_same_climb(self, weight):
        long_climbs = 0
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(30, 60)
            edges = [
                (i, j, weight)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            g = build_graph(edges, vertices=range(n))
            dem = [max(0.0, (g.d[x] - 2.0 * g.W[x]) / 2.0) for x in range(n)]
            demands = Demands(tuple(dem), tuple(dem))
            got = climb_outcome(kept_degree_climb, g, demands)
            assert got == climb_outcome(reference_find_stable_pair, g, demands), seed
            if isinstance(got, tuple) and len(got[1]) >= 5:
                long_climbs += 1
        assert long_climbs >= 10


def reference_complete_sets(graph, demands, pair, universe):
    """The restart-scan completion: leftovers default to the B side, and
    the lowest leftover that misses its b-demand there moves into A, which
    must then meet its a-demand; the scan restarts after every move."""
    abar, bbar = pair
    side_a = set(abar)
    rest = set(universe) - abar - bbar
    while True:
        b_full = bbar | rest
        mover = next(
            (x for x in sorted(rest) if branching_degree(graph, b_full, x) < demands.b[x]), None
        )
        if mover is None:
            return frozenset(side_a), frozenset(b_full)
        if branching_degree(graph, side_a | {mover}, mover) < demands.a[mover]:
            raise CompletionAssertFailedError(f"vertex {mover} meets neither side's demand")
        side_a.add(mover)
        rest.remove(mover)


def completion_outcome(complete):
    try:
        return complete()
    except CompletionAssertFailedError as exc:
        return str(exc)


class TestCompletePair:
    """Completion through ``solve``: the pair ``find_stable_pair`` finds,
    extended to a partition of every vertex."""

    def test_pair_covering_everything_is_kept(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        side_a, side_b, _ = find_stable_pair(k9, dem)
        part, _ = solve(k9, dem)
        assert part.a == side_a and part.b == side_b

    def test_path_leftover_joins_b(self, path3):
        # the climb ends on the pair ({x}, {y}), and z, which meets b = 0
        # next to Bbar, joins B
        dem = Demands((0.0, 1.0, 1.0), (3.0, 0.0, 0.0))
        abar, bbar, cert = find_stable_pair(path3, dem)
        assert cert.hillclimb_start is not None
        assert (abar, bbar) == ({0}, {1})
        part, _ = solve(path3, dem)
        assert part == Partition({0}, {1, 2})
        assert (part.a, part.b) == reference_complete_sets(
            path3, dem, (abar, bbar), frozenset(range(3))
        )

    def test_random_instances_extend_and_stay_stable(self):
        for seed in range(40):
            n = 4 + seed % 7
            g, dem = random_feasible_instance(n, 0.7, (0.5, 1.0), seed=seed)
            side_a, side_b, _ = find_stable_pair(g, dem)
            part, _ = solve(g, dem)
            assert side_a <= part.a
            assert side_b <= part.b
            assert not verify_partition(g, dem, part)

    def test_completion_miss_comes_before_the_isolated_misses(self):
        # u, isolated at index 0, joins A and misses a = 1 there too, but
        # the gate names y, the vertex that completion added to A
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0)], vertices=["u", "x", "y", "z"])
        dem = Demands((1.0, 0.0, 3.0, 1.0), (1.0, 1.0, 3.0, 0.0))
        with pytest.raises(CompletionAssertFailedError, match="vertex 2 "):
            solve(g, dem)

    def test_isolated_misses_alone_are_counted(self):
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)],
                        vertices=["u", "x", "y", "z", "v"])
        dem = Demands((1.0, 0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(UnstablePartitionError, match="^2 vertices miss their demand"):
            solve(g, dem)


class TestCompletionMatchesRestartScan:
    """Completion takes B as one b-core peel of everything outside Abar.
    Wherever the restart scan returns, ``solve`` returns the same partition;
    where the scan raises, ``solve`` may still complete, since its gate
    checks the a-demands in the final A, which holds every vertex the scan
    had moved."""

    def test_random_pairs_on_both_sides_of_the_precondition(self):
        outcomes = {"same": 0, "feasible": 0, "peel completes": 0}
        for seed in range(3000):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            g = conftest_random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]))
            # demands up to 1.2 times half of d, or of d - 2W
            w = rng.choice([0.0, 2.0])
            base = [max(0.0, g.d[x] - w * g.W[x]) / 2.0 for x in range(n)]
            dem = Demands(
                tuple(rng.uniform(0.0, 1.2) * base[x] for x in range(n)),
                tuple(rng.uniform(0.0, 1.2) * base[x] for x in range(n)),
            )
            try:
                abar, bbar, _ = find_stable_pair(g, dem, max_moves=5000)
            except SolverError:
                continue
            universe = frozenset(x for x in range(n) if g.d[x] > 0.0)
            expected = completion_outcome(
                lambda: reference_complete_sets(g, dem, (abar, bbar), universe)
            )
            # isolated vertices have zero demands here, so they join A
            got = completion_outcome(lambda: solve(g, dem, max_moves=5000)[0])
            feasible = check_feasibility(g, dem).feasible
            if isinstance(got, Partition):
                got = got.a & universe, got.b
                side_a, side_b = got
                assert side_a | side_b == universe, seed
                assert abar <= side_a and bbar <= side_b, seed
                assert_stable_pair(g, dem, side_a, side_b)
            else:
                assert not feasible, seed
            if isinstance(expected, tuple):
                assert got == expected, seed
                outcomes["same"] += 1
                outcomes["feasible"] += feasible
            elif isinstance(got, tuple):
                outcomes["peel completes"] += 1
        assert outcomes["same"] >= 2000
        assert outcomes["feasible"] >= 200
        assert outcomes["peel completes"] >= 1

    def test_vertex_needing_a_later_leftover_in_a(self):
        # the pair is ({2}, {3}); leftover 0 misses b = 2 next to Bbar, and
        # alone in A it misses a = 1, so the scan raises; but 1 then misses
        # b = 2 too, and in A together both meet a = 1
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        dem = Demands((1.0, 1.0, 0.0, 5.0), (2.0, 2.0, 0.0, 0.0))
        abar, bbar, _ = find_stable_pair(g, dem)
        assert (abar, bbar) == ({2}, {3})
        with pytest.raises(CompletionAssertFailedError, match="vertex 0 "):
            reference_complete_sets(g, dem, (abar, bbar), frozenset(range(4)))
        part, _ = solve(g, dem)
        assert part == Partition(frozenset({0, 1, 2}), frozenset({3}))
        assert not verify_partition(g, dem, part)


def zero_slack_climb(seed, weight=1.0):
    """G(n, 0.3) with n from 30 to 60, every edge of weight ``weight`` and
    a = b = (d - 2W) / 2, the instances the benchmark's climb pool draws."""
    rng = random.Random(seed)
    n = rng.randint(30, 60)
    edges = [(i, j, weight) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    g = build_graph(edges, vertices=range(n))
    dem = tuple(max(0.0, (g.d[x] - 2.0 * g.W[x]) / 2.0) for x in range(n))
    return edges, Demands(dem, dem)


def mixed_zero_slack_climb(seed):
    """G(n, 0.3), n from 30 to 60, at zero slack a = b = (d - 2W) / 2, with
    unit weights but for the edges of three chosen vertices: exact rows and
    banded rows in one climb."""
    rng = random.Random(seed)
    g = mixed_graph(rng, rng.randint(30, 60), 0.3, 3)
    dem = tuple(max(0.0, (g.d[x] - 2.0 * g.W[x]) / 2.0) for x in range(g.n))
    return g, Demands(dem, dem)


class TestMixedRowClimbMatchesReference:
    """The kept-degree climb on graphs that mix exact rows (band 0, kept
    degrees taken as exact sums) and banded rows makes the re-summing
    reference's moves."""

    def test_same_climb(self):
        long_climbs = exact_rows = banded_rows = 0
        for seed in range(60):
            g, demands = mixed_zero_slack_climb(seed)
            exact_rows += sum(zero_band(g))
            banded_rows += g.n - sum(zero_band(g))
            got = climb_outcome(kept_degree_climb, g, demands)
            assert got == climb_outcome(reference_find_stable_pair, g, demands), seed
            if isinstance(got, tuple) and len(got[1]) >= 5:
                long_climbs += 1
        assert long_climbs >= 12
        assert exact_rows >= 800 and banded_rows >= 800


class TestExactRowTies:
    """On an exact row the degrees in a move's gain are exact, so the gain's
    rounding bound is 0: a gain of exactly 0 is a tie, and any other loss is
    a loss."""

    def test_a_zero_gain_is_a_tie_within_zero(self):
        g = build_graph([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (2, 3, 1.0)])
        dem = Demands((1.0, 4.0, 0.0, 4.0), (1.0, 3.0, 3.0, 4.0))
        with pytest.raises(
            NonImprovingMoveError, match=r"gains 0\.0, a tie within the rounding bound 0;"
        ):
            solve(g, dem)

    def test_a_negative_gain_is_no_tie(self):
        g = build_graph(
            [(0, 2, 1.0), (0, 3, 1.0), (0, 4, 1.0), (0, 5, 1.0), (1, 2, 1.0), (1, 3, 1.0),
             (1, 4, 1.0), (1, 6, 1.0), (2, 3, 1.0), (2, 5, 1.0), (2, 6, 1.0), (4, 6, 1.0)],
            vertices=range(7),
        )
        dem = Demands((2.0, 3.0, 4.0, 0.0, 2.0, 3.0, 2.0), (4.0, 1.0, 4.0, 3.0, 3.0, 4.0, 2.0))
        with pytest.raises(NonImprovingMoveError, match=r"gains -2\.0; the degree"):
            solve(g, dem)

    def test_only_the_moved_vertex_is_summed(self, monkeypatch):
        # on unit weights at zero slack the one exact sum a climb still
        # makes is the moved vertex's degree on its new side
        sums, new_side = [], []
        original_sum, original_exact = core_module._exact, core_module._KeptSet.exact

        def counting_sum(graph, flags, x):
            sums.append(x)
            return original_sum(graph, flags, x)

        def counting_exact(self, x):
            new_side.append(x)
            return original_exact(self, x)

        monkeypatch.setattr(core_module, "_exact", counting_sum)
        monkeypatch.setattr(core_module._KeptSet, "exact", counting_exact)
        moves = 0
        for seed in range(40):
            edges, dem = zero_slack_climb(seed)
            _, cert = solve(build_graph(edges, vertices=range(len(dem))), dem)
            moves += len(cert.moves)
        assert moves >= 80
        assert sums == new_side and len(sums) >= moves


class TestPreconditionEdge:
    """Past zero slack the guarantee is gone: a = b = f (d - 2W) / 2 with f
    from 1.05 to 1.5, on integer weights (exact rows) and on fractional
    weights (banded rows).  ``solve`` must raise a solver error or return a
    partition that verifies, never an unstable one.  Up to 14 vertices the
    oracle's verdict is recorded too: a partition ``solve`` returns means
    one exists, while ``solve`` may raise where the oracle still finds one,
    which the precondition allows."""

    @staticmethod
    def instance(seed, integer):
        rng = random.Random(seed)
        n = rng.randint(6, 14) if seed % 2 else rng.randint(30, 40)
        p = rng.choice([0.5, 0.7, 0.9])
        edges = [
            (i, j, float(rng.randint(1, 3)) if integer else rng.uniform(0.5, 2.0))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        g = build_graph(edges, vertices=range(n))
        f = rng.uniform(1.05, 1.5)
        dem = tuple(f * max(0.0, (g.d[x] - 2.0 * g.W[x]) / 2.0) for x in range(n))
        return g, Demands(dem, dem)

    @pytest.mark.parametrize("integer", [True, False], ids=["integer", "fractional"])
    def test_solve_raises_or_verifies(self, integer):
        verdicts = Counter()
        for seed in range(80):
            g, dem = self.instance(seed, integer)
            assert zero_band(g) == (integer,) * g.n
            try:
                partition, _ = solve(g, dem)
            except SolverError:
                outcome = "raised"
            else:
                assert verify_partition(g, dem, partition) == [], seed
                outcome = "solved"
            exists = brute_force_solve(g, dem).exists if g.n <= 14 else None
            assert exists is not False or outcome == "raised", seed
            verdicts[outcome, exists] += 1
        # both outcomes occur, on both sizes, and the solver gives up on
        # some instance that has a stable partition
        assert verdicts["solved", True] >= 10 and verdicts["solved", None] >= 2
        assert verdicts["raised", True] >= 3 and verdicts["raised", False] >= 1
        assert verdicts["raised", None] >= 5


class TestMetamorphic:
    """Relations between solves of related climbing instances."""

    @pytest.mark.parametrize("k", [-3, 5])
    def test_power_of_two_scaling(self, k):
        scale = 2.0 ** k
        climbed = 0
        for seed in range(40):
            edges, dem = zero_slack_climb(seed)
            n = len(dem)
            part, cert = solve(build_graph(edges, vertices=range(n)), dem)
            scaled_part, scaled_cert = solve(
                build_graph([(i, j, w * scale) for i, j, w in edges], vertices=range(n)),
                Demands(tuple(v * scale for v in dem.a), tuple(v * scale for v in dem.b)),
            )
            assert scaled_part == part, seed
            assert [(m.vertex, m.from_side, m.to_side) for m in scaled_cert.moves] == [
                (m.vertex, m.from_side, m.to_side) for m in cert.moves
            ], seed
            assert scaled_cert.h_trace == tuple(h * scale for h in cert.h_trace), seed
            climbed += len(cert.moves) >= 5
        assert climbed >= 8

    @pytest.mark.parametrize("weight", [1.0, 0.3])
    def test_h_trace_rises_strictly_within_the_bound(self, weight):
        # h counts each side's induced degrees, at most d, and the cross
        # demands twice, so it never exceeds sum d + 2 sum max(a, b)
        climbed = 0
        for seed in range(40):
            edges, dem = zero_slack_climb(seed, weight)
            g = build_graph(edges, vertices=range(len(dem)))
            _, cert = solve(g, dem)
            trace = cert.h_trace
            assert all(b > a for a, b in zip(trace, trace[1:])), seed
            bound = sum(g.d) + 2.0 * sum(max(a, b) for a, b in zip(dem.a, dem.b))
            assert all(h <= bound for h in trace), seed
            climbed += len(cert.moves) >= 5
        assert climbed >= 8

    def test_relabelling_keeps_the_partition_stable(self):
        climbed = 0
        for seed in range(40):
            edges, dem = zero_slack_climb(seed, weight=0.3)
            n = len(dem)
            perm = random.Random(seed).sample(range(n), n)
            g = build_graph([(perm[i], perm[j], w) for i, j, w in edges], vertices=range(n))
            a, b = [0.0] * n, [0.0] * n
            for x in range(n):
                a[perm[x]], b[perm[x]] = dem.a[x], dem.b[x]
            relabelled = Demands(tuple(a), tuple(b))
            part, cert = solve(g, relabelled)
            assert verify_partition(g, relabelled, part) == [], seed
            climbed += bool(cert.moves)
        assert climbed >= 10


class TestEntryChecks:
    """``solve`` and ``find_stable_pair`` share their entry checks: a demand
    vector of the wrong length and ``max_moves`` below 1 raise the same
    ValueError from both, before any phase runs, whether the graph has 0, 1
    or at least 2 vertices of positive degree."""

    GRAPHS = {
        "no-positive-degree": lambda: build_graph([], vertices=["u", "v", "w"]),
        "one-positive-degree": lambda: build_graph([("v", "v", 1.0)], vertices=["v", "u"]),
        "k9": lambda: complete_graph(9),
    }

    @pytest.fixture(params=sorted(GRAPHS))
    def graph(self, request, monkeypatch):
        # any phase that runs fails the test
        def no_phase(*args, **kwargs):
            raise AssertionError("a phase ran before the entry checks")

        for name in ("minimal_satisfying_set", "peel", "_KeptSet", "check_feasibility"):
            monkeypatch.setattr(solver_module, name, no_phase)
        return self.GRAPHS[request.param]()

    @pytest.mark.parametrize("entry", [solve, find_stable_pair], ids=["solve", "find_stable_pair"])
    @pytest.mark.parametrize("offset", [-1, 1])
    def test_demands_of_the_wrong_length(self, graph, entry, offset):
        m = graph.n + offset
        message = rf"^expected demands for {graph.n} vertices, got {m}$"
        with pytest.raises(ValueError, match=message):
            entry(graph, Demands.constant(m, 0.0, 0.0))

    @pytest.mark.parametrize("entry", [solve, find_stable_pair], ids=["solve", "find_stable_pair"])
    @pytest.mark.parametrize("max_moves", [0, -1])
    def test_max_moves_below_one(self, graph, entry, max_moves):
        with pytest.raises(ValueError, match=r"^max_moves must be at least 1$"):
            entry(graph, Demands.constant(graph.n, 0.0, 0.0), max_moves=max_moves)

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_each_graph_is_accepted_with_valid_arguments(self, name):
        # so the errors above come from the entry checks, not from the graph:
        # solve accepts all three, and find_stable_pair needs two vertices
        # of positive degree
        g = self.GRAPHS[name]()
        dem = Demands.constant(g.n, 0.0, 0.0)
        part, _ = solve(g, dem, max_moves=1)
        assert part.n == g.n
        if name == "k9":
            abar, bbar, _ = find_stable_pair(g, dem, max_moves=1)
            assert abar and bbar
        else:
            with pytest.raises(PartitionCollapseError):
                find_stable_pair(g, dem, max_moves=1)


class TestSolve:
    def test_k9(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        part, cert = solve(k9, dem)
        assert not verify_partition(k9, dem, part)
        assert sorted(len(s) for s in (part.a, part.b)) == [4, 5]
        assert cert.feasibility.feasible
        assert cert.verification is not None
        assert all(s >= 0.0 for s in cert.verification)

    def test_two_vertex_zero_demands_succeeds_despite_infeasibility(self):
        g = build_graph([("x", "y", 1.0)])
        dem = Demands.constant(2, 0.0, 0.0)
        part, cert = solve(g, dem)
        assert not cert.feasibility.feasible
        assert {len(part.a), len(part.b)} == {1}

    def test_single_vertex_rejected(self):
        g = build_graph([], vertices=["x"])
        with pytest.raises(SingleVertexGraphError):
            solve(g, Demands.constant(1, 0.0, 0.0))

    def test_isolated_vertices_reattached(self):
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)],
                        vertices=["x", "y", "z", "u", "v"])
        dem = Demands.constant(5, 0.0, 0.0)
        part, _ = solve(g, dem)
        assert not verify_partition(g, dem, part)
        # zero-demand isolated vertices land on side A
        assert g.index_of("u") in part.a
        assert g.index_of("v") in part.a

    def test_isolated_vertex_with_a_demand_goes_to_b(self):
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)],
                        vertices=["x", "y", "z", "u"])
        dem = Demands((0.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0))
        part, _ = solve(g, dem)
        assert g.index_of("u") in part.b
        assert not verify_partition(g, dem, part)

    def test_unsatisfiable_isolated_vertex_raises(self):
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)],
                        vertices=["x", "y", "z", "u"])
        dem = Demands((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))
        with pytest.raises(UnstablePartitionError):
            solve(g, dem)

    def test_gate_rejects_the_smallest_miss(self):
        # the gate is exact: a miss of one subnormal ulp is still a miss
        g = build_graph([("x", "y", 1.0), ("y", "z", 1.0), ("z", "x", 1.0)],
                        vertices=["x", "y", "z", "u"])
        tiny = 5e-324
        dem = Demands((0.0, 0.0, 0.0, tiny), (0.0, 0.0, 0.0, tiny))
        with pytest.raises(UnstablePartitionError):
            solve(g, dem)

    def test_all_isolated(self):
        g = build_graph([], vertices=["p", "q", "r"])
        part, _ = solve(g, Demands.constant(3, 0.0, 0.0))
        assert part.a == {0}
        assert part.b == {1, 2}

    def test_single_loop_vertex_with_demanding_isolated_neighbor(self):
        # u (a=0, b=5) can only sit on A, so v (b=0) must fill side B
        g = build_graph([("v", "v", 1.0)], vertices=["v", "u"])
        dem = Demands((0.0, 0.0), (0.0, 5.0))
        part, _ = solve(g, dem)
        assert g.index_of("u") in part.a
        assert g.index_of("v") in part.b
        assert not verify_partition(g, dem, part)

    def test_vertex_meeting_neither_demand_fails_completion(self, path3):
        # the stable pair ({x}, {z}) leaves y, which has degree 2 against
        # demands of 3 on both sides
        dem = Demands((0.0, 3.0, 1.0), (1.0, 3.0, 0.0))
        with pytest.raises(CompletionAssertFailedError, match="vertex 1 "):
            solve(path3, dem)

    def test_completion_peels_only_after_a_climb(self, k9, monkeypatch):
        # a case-1 pair already holds the b-core completion needs; only a
        # pair the climb found is completed with a peel
        calls = []
        original = solver_module.peel

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(solver_module, "peel", counting)
        dem = Demands.constant(9, 3.0, 3.0)
        part, cert = solve(k9, dem)
        assert PHASE_HILLCLIMB not in cert.phase_log
        assert calls == []
        assert part.b == original(k9, frozenset(range(9)) - cert.stable_pair[0], dem.b)
        g, dem = random_feasible_instance(10, 1.0, (0.5, 1.0), seed=8)
        part, cert = solve(g, dem)
        assert cert.moves
        assert len(calls) == 1
        assert not verify_partition(g, dem, part)

    def test_random_instances_verified_against_demands(self):
        for seed in range(60):
            n = 3 + seed % 9
            p = [0.5, 0.8, 1.0][seed % 3] if n > 3 else 0.5
            g, dem = random_feasible_instance(n, p, (0.5, 1.0), seed=1000 + seed)
            part, cert = solve(g, dem)
            assert not verify_partition(g, dem, part)
            assert cert.feasibility.feasible


class TestSolveNeverLies:
    """On arbitrary demands, feasible or not, solve either raises a solver
    error or returns a partition that verifies exactly."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_solve_output_always_verifies(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        g = conftest_random_graph(rng, n, rng.choice([0.3, 0.6, 0.9]),
                                  loops=rng.random() < 0.3)
        dem = Demands(
            tuple(rng.uniform(0.0, 3.0) for _ in range(n)),
            tuple(rng.uniform(0.0, 3.0) for _ in range(n)),
        )
        try:
            partition, _ = solve(g, dem, max_moves=5000)
        except SolverError:
            return
        assert verify_partition(g, dem, partition, tol=0.0) == []


class TestVerifyPartition:
    @pytest.mark.parametrize("loop_mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_degrees_are_the_branching_sum_bit_for_bit(self, loop_mode):
        # fractional weights (banded rows), loops, and isolated vertices;
        # demands above every degree make every vertex a violation
        rng = random.Random(29)
        isolated = solved = 0
        for _ in range(60):
            n = rng.randint(2, 16)
            g = conftest_random_graph(rng, n, rng.choice((0.1, 0.5)), loops=True,
                                      loop_mode=loop_mode)
            isolated += sum(not row for row in g.adjacency)
            side_a = set(rng.sample(range(n), rng.randint(1, n - 1)))
            part = Partition(side_a, set(range(n)) - side_a)
            high = Demands([d + 1.0 for d in g.d], [d + 1.0 for d in g.d])
            found = verify_partition(g, high, part)
            assert [v.vertex for v in found] == list(range(n))
            for v in found:
                side = part.a if v.side == "A" else part.b
                assert v.degree == branching_degree(g, side, v.vertex)
            dem = Demands([0.1 * d for d in g.d], [0.1 * d for d in g.d])
            try:
                partition, cert = solve(g, dem)
            except SolverError:
                continue
            solved += 1
            for x in range(n):
                side, own = (partition.a, dem.a) if x in partition.a else (partition.b, dem.b)
                assert cert.verification[x] == branching_degree(g, side, x) - own[x]
        assert isolated >= 10 and solved >= 30

    def test_k9_good_split_clean(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        part = Partition(frozenset(range(4)), frozenset(range(4, 9)))
        assert verify_partition(k9, dem, part) == []

    def test_k9_singleton_side_violates(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        part = Partition(frozenset({0}), frozenset(range(1, 9)))
        violations = verify_partition(k9, dem, part)
        assert [v.vertex for v in violations] == [0]
        assert violations[0].degree == 0.0
        assert violations[0].degree - violations[0].demand == -3.0

    def test_zero_demands_never_violate(self, triangle):
        dem = Demands.constant(3, 0.0, 0.0)
        part = Partition(frozenset({1}), frozenset({0, 2}))
        assert verify_partition(triangle, dem, part) == []

    def test_tolerance_soaks_small_misses(self, k9):
        dem = Demands.constant(9, 3.1, 3.0)
        part = Partition(frozenset(range(4)), frozenset(range(4, 9)))
        assert len(verify_partition(k9, dem, part)) == 4
        assert verify_partition(k9, dem, part, tol=0.2) == []

    def test_partition_of_another_graph_rejected(self, triangle, k4):
        part = Partition(frozenset({0, 1}), frozenset({2, 3}))
        with pytest.raises(ValueError, match=r"^partition does not cover this graph$"):
            verify_partition(triangle, Demands.constant(3, 0.0, 0.0), part)
        with pytest.raises(ValueError, match=r"^partition does not cover this graph$"):
            verify_partition(k4, Demands.constant(4, 0.0, 0.0), Partition({0}, {1, 2}))

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_tolerance_must_be_non_negative(self, triangle, tol):
        # every comparison with NaN is False, so a NaN tolerance would call
        # any partition stable
        part = Partition(frozenset({0}), frozenset({1, 2}))
        with pytest.raises(ValueError):
            verify_partition(triangle, Demands.constant(3, 5.0, 5.0), part, tol=tol)


class TestReduceLoops:
    def test_loopless_identity(self, triangle):
        dem = Demands.constant(3, 1.0, 0.5)
        graph, demands = reduce_loops(triangle, dem)
        assert graph == triangle
        assert demands == dem

    def test_double_loop_shifts_demand_by_twice_weight(self):
        g = build_graph([("x", "y", 1.0), ("x", "x", 1.0)], LoopMode.DOUBLE)
        graph, demands = reduce_loops(g, Demands((3.0, 0.0), (0.5, 0.0)))
        assert demands.a == (1.0, 0.0)
        assert demands.b == (0.0, 0.0)  # clamped at zero
        assert graph.loops == (0.0, 0.0)
        assert graph.d == (1.0, 1.0)

    def test_once_loop_shifts_demand_by_weight(self):
        g = build_graph([("x", "y", 1.0), ("x", "x", 1.0)], LoopMode.ONCE)
        _, demands = reduce_loops(g, Demands((3.0, 0.0), (0.5, 0.0)))
        assert demands.a == (2.0, 0.0)

    def test_precondition_is_the_reduced_instance_slack(self):
        # loops above and below the demands, so each clamp is hit and missed;
        # halves and small integers keep every sum exact
        edges = [("x", "y", 1.0), ("y", "z", 2.0), ("x", "x", 1.0), ("z", "z", 3.0)]
        dem = Demands((3.0, 1.0, 0.5), (0.5, 0.0, 4.0))
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            g = build_graph(edges, mode)
            assert check_feasibility(g, dem) == check_feasibility(*reduce_loops(g, dem))

    def test_stability_transfers_to_original(self):
        rng = random.Random(99)
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            factor = 1 if mode is LoopMode.ONCE else 2
            for seed in range(15):
                base, dem = random_feasible_instance(6, 0.8, (0.5, 1.0), seed=seed)
                edges = [
                    (x, y, w)
                    for x in range(6)
                    for y, w in base.adjacency[x]
                    if x < y
                ]
                loops = {x: rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]) for x in range(6)}
                loop_edges = [(x, x, w) for x, w in loops.items() if w > 0.0]
                g = build_graph(edges + loop_edges, mode, vertices=range(6))
                lifted = Demands(
                    tuple(dem.a[x] + factor * loops[x] for x in range(6)),
                    tuple(dem.b[x] + factor * loops[x] for x in range(6)),
                )
                part, _ = solve(*reduce_loops(g, lifted))
                assert not verify_partition(g, lifted, part)


def looped_instance(seed, mode):
    """A random graph on 3 to 10 vertices, loops at about half of them, and
    demands sharing 80-100% of the loop-reduced budget d - s - 2W (s the
    loop share); each demand is lifted by s, or set below s at random,
    which the reduction clamps to zero."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    g = conftest_random_graph(
        rng, n, rng.choice([0.6, 0.8, 1.0]), (0.5, 1.0), loops=True, loop_mode=mode
    )
    a, b = [], []
    for x in range(n):
        share = mode.factor * g.loops[x]
        budget = max(0.0, g.d[x] - share - 2.0 * g.W[x]) * rng.uniform(0.8, 1.0)
        pair = [rng.random() * budget]
        pair.append(budget - pair[0])
        for i in range(2):
            if share and rng.random() < 0.3:
                pair[i] = rng.random() * share
            else:
                pair[i] += share
        a.append(pair[0])
        b.append(pair[1])
    return g, Demands(tuple(a), tuple(b))


def lifted_climb(seed, mode):
    """Zero-slack unit G(100, 0.3) with a loop of weight 1/4, 1/2 or 1 at
    about 30% of the vertices and both demands raised there by the loop
    share: reduce_loops gives back the loopless zero-slack instance."""
    rng = random.Random(seed)
    n = 100
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    plain = build_graph(edges, vertices=range(n))
    dem = [max(0.0, (plain.d[x] - 2.0 * plain.W[x]) / 2.0) for x in range(n)]
    loops = {x: rng.choice([0.25, 0.5, 1.0]) for x in range(n) if rng.random() < 0.3}
    g = build_graph(edges + [(x, x, w) for x, w in loops.items()], mode, vertices=range(n))
    lifted = tuple(dem[x] + mode.factor * loops.get(x, 0.0) for x in range(n))
    return g, Demands(lifted, lifted)


class TestLoopedSearch:
    """``solve`` searches a looped instance as given; the guarantee rests on
    the loop-reduced slack that ``check_feasibility`` reports."""

    def test_feasible_looped_instances_solve(self):
        feasible = clamped = 0
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            for seed in range(100):
                g, dem = looped_instance(seed, mode)
                if not check_feasibility(g, dem).feasible:
                    continue
                feasible += 1
                factor = mode.factor
                clamped += any(
                    min(dem.a[x], dem.b[x]) < factor * g.loops[x] for x in range(g.n)
                )
                partition, _ = solve(g, dem)
                assert verify_partition(g, dem, partition) == [], (mode, seed)
                assert brute_force_solve(g, dem).exists, (mode, seed)
        # most reports are feasible, and most of those clamp a demand
        assert feasible > 100
        assert clamped > feasible // 2

    @pytest.mark.parametrize("mode", [LoopMode.ONCE, LoopMode.DOUBLE])
    def test_climbs_match_the_reduced_path(self, mode):
        for seed in range(10):
            g, dem = lifted_climb(seed, mode)
            partition, cert = solve(g, dem)
            reduced_partition, reduced_cert = solve(*reduce_loops(g, dem))
            assert len(cert.moves) >= 10, seed
            assert partition == reduced_partition, seed
            assert [(m.vertex, m.from_side) for m in cert.moves] == [
                (m.vertex, m.from_side) for m in reduced_cert.moves
            ], seed


def test_solver_imports_no_private_core_name_but_the_kept_set():
    # the reseed rule and every exact-tie decision live in core (the band is
    # the graph's); solver reaches them only through the kept-set class
    source = Path(solver_module.__file__).read_text()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "core" and node.level == 1
        for alias in node.names
    ]
    assert "_KeptSet" in imported
    assert [name for name in imported if name.startswith("_") and name != "_KeptSet"] == []
