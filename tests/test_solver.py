import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degsplit import (
    Demands,
    LoopMode,
    MoveLimitExceededError,
    NonImprovingMoveError,
    Partition,
    PartitionCollapseError,
    SingleVertexGraphError,
    SolverError,
    UnstablePartitionError,
    build_graph,
    check_feasibility,
    complete_pair,
    find_stable_pair,
    h_value,
    induced_degree,
    random_feasible_instance,
    reduce_loops,
    solve,
    verify_partition,
)
from degsplit.solver import PHASE_HILLCLIMB

from conftest import complete_graph, weight_dict
from conftest import random_graph as conftest_random_graph


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
        assert induced_degree(graph, side_a, x) >= demands.a[x]
    for x in side_b:
        assert induced_degree(graph, side_b, x) >= demands.b[x]


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
            report = check_feasibility(g, Demands.constant(2, 0.0, 0.0))
            # at x: d - 2W + factor*loop
            assert report.slack[0] == g.d[0] - 2.0 + factor * 2.0


class TestHValue:
    def test_k4_split_counts_edges_twice(self, k4):
        p = Partition(frozenset({0, 1}), frozenset({2, 3}))
        assert h_value(k4, p, Demands.constant(4, 0.0, 0.0)) == 4.0

    def test_triangle_singleton_side(self, triangle):
        p = Partition(frozenset({0}), frozenset({1, 2}))
        assert h_value(triangle, p, Demands.constant(3, 0.0, 0.0)) == 2.0

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
            h = h_value(g, Partition(side_a, side_b), zero)
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
            h_value(g, p, dem), h_reference(g, p.a, p.b, dem), rel_tol=1e-12
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

    def test_move_limit(self):
        g, dem = random_feasible_instance(10, 1.0, (0.5, 1.0), seed=8)
        with pytest.raises(MoveLimitExceededError):
            find_stable_pair(g, dem, max_moves=1)

    def test_sides_stay_meager_throughout_climb(self):
        # replay certificates: on loopless feasible instances both sides are
        # meager at the climb start and after every move
        from degsplit import is_meager

        climbs = 0
        for seed in range(120):
            n = 5 + seed % 8
            g, dem = random_feasible_instance(n, 1.0, (0.5, 1.0), seed=3000 + seed)
            _, _, cert = find_stable_pair(g, dem)
            if cert.hillclimb_start is None:
                continue
            climbs += 1
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

    def test_collapse_when_demands_swallow_everything(self):
        g = build_graph([("x", "y", 1.0)])
        with pytest.raises(PartitionCollapseError):
            find_stable_pair(g, Demands.constant(2, 0.5, 0.5))


class TestCompletePair:
    def test_pair_covering_everything_is_kept(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        side_a, side_b, _ = find_stable_pair(k9, dem)
        part = complete_pair(k9, dem, (side_a, side_b))
        assert part.a == side_a and part.b == side_b

    def test_triangle_leftover_joins_b(self, triangle):
        dem = Demands.constant(3, 0.0, 0.0)
        part = complete_pair(triangle, dem, (frozenset({0}), frozenset({1})))
        assert part.a == {0}
        assert part.b == {1, 2}

    def test_random_instances_extend_and_stay_stable(self):
        for seed in range(40):
            n = 4 + seed % 7
            g, dem = random_feasible_instance(n, 0.7, (0.5, 1.0), seed=seed)
            side_a, side_b, _ = find_stable_pair(g, dem)
            part = complete_pair(g, dem, (side_a, side_b))
            assert side_a <= part.a
            assert side_b <= part.b
            assert not verify_partition(g, dem, part)

    def test_rejects_malformed_pair(self, triangle):
        dem = Demands.constant(3, 0.0, 0.0)
        with pytest.raises(ValueError):
            complete_pair(triangle, dem, (frozenset(), frozenset({1})))
        with pytest.raises(ValueError):
            complete_pair(triangle, dem, (frozenset({0, 1}), frozenset({1})))


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
        assert part.side(g.index_of("u")) == "A"
        assert part.side(g.index_of("v")) == "B"
        assert not verify_partition(g, dem, part)

    def test_max_moves_checked_before_any_phase(self):
        # one vertex of positive degree never reaches the hill-climb, whose
        # own check used to be the only one
        g = build_graph([("v", "v", 1.0)], vertices=["v", "u"])
        dem = Demands((0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError):
            solve(g, dem, max_moves=0)
        assert solve(g, dem, max_moves=1)[0].a

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
        assert violations[0].slack == -3.0

    def test_zero_demands_never_violate(self, triangle):
        dem = Demands.constant(3, 0.0, 0.0)
        part = Partition(frozenset({1}), frozenset({0, 2}))
        assert verify_partition(triangle, dem, part) == []

    def test_tolerance_soaks_small_misses(self, k9):
        dem = Demands.constant(9, 3.1, 3.0)
        part = Partition(frozenset(range(4)), frozenset(range(4, 9)))
        assert len(verify_partition(k9, dem, part)) == 4
        assert verify_partition(k9, dem, part, tol=0.2) == []


class TestReduceLoops:
    def test_loopless_identity(self, triangle):
        dem = Demands.constant(3, 1.0, 0.5)
        red = reduce_loops(triangle, dem)
        assert red.graph is triangle
        assert red.demands == dem

    def test_double_loop_shifts_demand_by_twice_weight(self):
        g = build_graph([("x", "y", 1.0), ("x", "x", 1.0)], LoopMode.DOUBLE)
        red = reduce_loops(g, Demands((3.0, 0.0), (0.5, 0.0)))
        assert red.demands.a == (1.0, 0.0)
        assert red.demands.b == (0.0, 0.0)  # clamped at zero
        assert red.graph.loops == (0.0, 0.0)

    def test_once_loop_shifts_demand_by_weight(self):
        g = build_graph([("x", "y", 1.0), ("x", "x", 1.0)], LoopMode.ONCE)
        red = reduce_loops(g, Demands((3.0, 0.0), (0.5, 0.0)))
        assert red.demands.a == (2.0, 0.0)

    def test_precondition_is_the_reduced_instance_slack(self):
        # loops above and below the demands, so each clamp is hit and missed;
        # halves and small integers keep every sum exact
        edges = [("x", "y", 1.0), ("y", "z", 2.0), ("x", "x", 1.0), ("z", "z", 3.0)]
        dem = Demands((3.0, 1.0, 0.5), (0.5, 0.0, 4.0))
        for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
            red = reduce_loops(build_graph(edges, mode), dem)
            assert red.precondition == check_feasibility(red.graph, red.demands)

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
                red = reduce_loops(g, lifted)
                part, _ = solve(red.graph, red.demands)
                assert not verify_partition(g, lifted, part)
