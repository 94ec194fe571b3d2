import itertools
import math
import random

import pytest

from degsplit import (
    Demands,
    GenerationFailedError,
    LoopMode,
    Partition,
    TooLargeError,
    brute_force_solve,
    build_graph,
    check_feasibility,
    random_feasible_instance,
    solve,
    verify_partition,
)

from conftest import (
    branching_degree, complete_graph, plain_induced_degree, random_graph, weight_dict,
)


def enumerate_stable_splits(graph, demands):
    """Independent reference: check every split by explicit subset loops."""
    weights = weight_dict(graph)
    factor = graph.loop_mode.factor
    n = graph.n
    stable = []
    for size in range(1, n):
        for combo in itertools.combinations(range(n), size):
            side_a = set(combo)
            side_b = set(range(n)) - side_a
            if all(
                plain_induced_degree(weights, factor, side_a, x) >= demands.a[x]
                for x in side_a
            ) and all(
                plain_induced_degree(weights, factor, side_b, x) >= demands.b[x]
                for x in side_b
            ):
                stable.append(frozenset(side_a))
    return stable


class TestBruteForce:
    def test_k9_tight_demands_no_partition(self, k9):
        result = brute_force_solve(k9, Demands.constant(9, 3.5, 3.5))
        assert not result.exists
        assert result.count == 0
        assert result.witness is None

    def test_k9_exact_demands(self, k9):
        result = brute_force_solve(k9, Demands.constant(9, 3.0, 3.0))
        assert result.exists
        # stable splits of K9 at demand 3 are exactly the 4/5 splits
        assert result.count == 252
        assert len(result.witness.a) in (4, 5)

    def test_triangle_all_splits_stable(self, triangle):
        result = brute_force_solve(triangle, Demands.constant(3, 0.0, 0.0))
        assert result.exists
        assert result.count == 6
        assert result.witness.a == {0}  # smallest qualifying bitmask

    def test_matches_reference_enumeration(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.choice([0.4, 0.8]), loops=rng.random() < 0.4)
            dem = Demands(
                tuple(rng.uniform(0.0, 2.0) for _ in range(n)),
                tuple(rng.uniform(0.0, 2.0) for _ in range(n)),
            )
            reference = enumerate_stable_splits(g, dem)
            result = brute_force_solve(g, dem)
            assert result.count == len(reference)
            assert result.exists == bool(reference)
            if reference:
                smallest = min(reference, key=lambda s: sum(1 << x for x in s))
                assert result.witness.a == smallest

    def test_witness_reverifies(self, k9):
        dem = Demands.constant(9, 3.0, 3.0)
        result = brute_force_solve(k9, dem)
        assert verify_partition(k9, dem, result.witness) == []

    @pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (1, 2)])
    def test_demands_of_the_wrong_length(self, n, m):
        # the solver's entry check and message
        g = build_graph([], vertices=range(n)) if n == 1 else complete_graph(n)
        with pytest.raises(ValueError, match=rf"^expected demands for {n} vertices, got {m}$"):
            brute_force_solve(g, Demands.constant(m, 0.0, 0.0))

    @pytest.mark.parametrize("a", [0.0, 1.0])
    def test_fewer_than_two_vertices_have_no_split(self, a):
        # a split needs two non-empty sides, whatever the demands
        graphs = (build_graph([]), build_graph([], vertices=["v"]), build_graph([("v", "v", 1.0)]))
        for g in graphs:
            result = brute_force_solve(g, Demands.constant(g.n, a, a))
            assert (result.exists, result.witness, result.count) == (False, None, 0)

    def test_cap_enforced(self):
        g = complete_graph(25)
        with pytest.raises(TooLargeError):
            brute_force_solve(g, Demands.constant(25, 0.0, 0.0))

    def test_lowering_a_demand_never_destroys_existence(self):
        rng = random.Random(77)
        for _ in range(10):
            n = rng.randint(3, 6)
            g = random_graph(rng, n, 0.7)
            dem = Demands(
                tuple(rng.uniform(0.0, 1.5) for _ in range(n)),
                tuple(rng.uniform(0.0, 1.5) for _ in range(n)),
            )
            before = brute_force_solve(g, dem).exists
            if not before:
                continue
            x = rng.randrange(n)
            lowered = Demands(
                tuple(0.0 if i == x else v for i, v in enumerate(dem.a)),
                dem.b,
            )
            assert brute_force_solve(g, lowered).exists


class TestRandomFeasibleInstance:
    def test_construction_is_feasible(self):
        for seed in range(30):
            n = 2 + seed % 10
            p = 0.6 if n > 3 else 0.5
            g, dem = random_feasible_instance(n, p, (0.5, 1.0), seed=seed)
            assert check_feasibility(g, dem).feasible

    def test_deterministic_under_seed(self):
        a = random_feasible_instance(8, 0.7, (0.2, 1.5), seed=123)
        b = random_feasible_instance(8, 0.7, (0.2, 1.5), seed=123)
        assert a[0].adjacency == b[0].adjacency
        assert a[1] == b[1]

    def test_complete_unit_instance_shape(self):
        g, dem = random_feasible_instance(9, 1.0, (1.0, 1.0), seed=5)
        assert g.d == (8.0,) * 9
        for x in range(9):
            assert dem.a[x] + dem.b[x] <= 6.0  # slack d - 2W

    def test_generation_failure_on_hopeless_density(self):
        # n=2 with a guaranteed edge always has negative slack
        with pytest.raises(GenerationFailedError):
            random_feasible_instance(2, 1.0, (0.5, 1.0), seed=0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_feasible_instance(1, 0.5, (0.5, 1.0), seed=0)
        with pytest.raises(ValueError):
            random_feasible_instance(4, 0.5, (0.0, 1.0), seed=0)
        with pytest.raises(ValueError):
            random_feasible_instance(4, 1.5, (0.5, 1.0), seed=0)
        with pytest.raises(ValueError, match="finite"):
            random_feasible_instance(5, 0.5, (0.5, math.inf), seed=0)


class TestOracleSolverAgreement:
    def test_generated_instances_always_have_partitions_and_solver_finds_them(self):
        for seed in range(40):
            n = 4 + seed % 8
            g, dem = random_feasible_instance(n, 0.8, (0.5, 1.0), seed=2000 + seed)
            result = brute_force_solve(g, dem)
            assert result.exists
            part, _ = solve(g, dem)
            assert not verify_partition(g, dem, part)
            # the solver's split is one of the enumerated stable splits
            assert not verify_partition(g, dem, result.witness)


def matmul_enumeration(graph, demands):
    """The oracle as it was before the pruned version: every mask's A-side
    degrees by a float matrix product, the B side as the degree minus the A
    side.  Exact only where every sum is, as with small integer weights."""
    import numpy as np

    n = graph.n
    weights = np.zeros((n, n))
    for x in range(n):
        for y, w in graph.adjacency[x]:
            weights[x, y] = w
        weights[x, x] = graph.loop_mode.factor * graph.loops[x]
    totals = weights.sum(axis=0)
    a, b = np.asarray(demands.a), np.asarray(demands.b)
    shifts = np.arange(n, dtype=np.uint64)
    count, witness = 0, None
    top = (1 << n) - 1
    for lo in range(1, top, 1 << 16):
        masks = np.arange(lo, min(lo + (1 << 16), top), dtype=np.uint64)
        bits = ((masks[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        deg_a = bits @ weights
        deg_b = totals[None, :] - deg_a
        bad = ((bits == 1.0) & (deg_a < a[None, :])) | ((bits == 0.0) & (deg_b < b[None, :]))
        ok = ~bad.any(axis=1)
        count += int(ok.sum())
        if witness is None and ok.any():
            witness = int(masks[int(np.argmax(ok))])
    return count, witness


def mask_of(side):
    return sum(1 << x for x in side)


def split_degrees(graph, side_a):
    """Demands equal to each vertex's exact induced degree in its side of
    the split (side_a, rest), and in the other side for the other demand:
    that split and its neighbours sit exactly on their demands."""
    side_b = set(range(graph.n)) - side_a
    return Demands(
        tuple(branching_degree(graph, side_a | {x}, x) for x in range(graph.n)),
        tuple(branching_degree(graph, side_b | {x}, x) for x in range(graph.n)),
    )


def assert_agrees_with_verify_partition(graph, demands):
    """The oracle's count, existence and smallest witness equal those of
    ``verify_partition`` run on every mask; returns the accepted masks."""
    n = graph.n
    accepted = []
    for mask in range(1, (1 << n) - 1):
        a = frozenset(x for x in range(n) if (mask >> x) & 1)
        if not verify_partition(graph, demands, Partition(a, frozenset(range(n)) - a)):
            accepted.append(mask)
    result = brute_force_solve(graph, demands)
    assert result.count == len(accepted)
    assert result.exists == bool(accepted)
    if accepted:
        assert mask_of(result.witness.a) == accepted[0]
    return accepted


class TestOracleExactness:
    @pytest.mark.parametrize("loop_mode", list(LoopMode), ids=lambda m: m.value)
    def test_ties_are_decided_as_verify_partition_decides_them(self, loop_mode):
        rng = random.Random(5 if loop_mode is LoopMode.ONCE else 6)
        for _ in range(40):
            n = rng.randint(2, 9)
            g = random_graph(rng, n, rng.choice([0.5, 0.9]), loops=True, loop_mode=loop_mode)
            side_a = {x for x in range(n) if rng.random() < 0.5}
            accepted = assert_agrees_with_verify_partition(g, split_degrees(g, side_a))
            if 0 < len(side_a) < n:
                assert mask_of(side_a) in accepted

    @pytest.mark.parametrize("loop_mode", list(LoopMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("n", range(2, 14))
    def test_every_split_of_the_low_and_high_vertices(self, n, loop_mode):
        # the high vertices, fixed per bitset of the low ones, are one (n = 2,
        # 3) to six, at odd and even n; weights that are not dyadic round
        rng = random.Random(n)
        weights = (0.1, 0.3, 1 / 3)
        edges = [
            (i, j, rng.choice(weights))
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7
        ]
        edges += [(i, i, rng.choice(weights)) for i in range(n) if rng.random() < 0.4]
        g = build_graph(edges, loop_mode, vertices=range(n))
        side_a = set(rng.sample(range(n), rng.randint(1, n - 1)))
        accepted = assert_agrees_with_verify_partition(g, split_degrees(g, side_a))
        assert mask_of(side_a) in accepted
        zero = Demands.constant(n, 0.0, 0.0)
        assert len(assert_agrees_with_verify_partition(g, zero)) == 2**n - 2

    def test_a_demand_met_in_reals_and_missed_in_floats(self):
        # (0.1 + 0.6) + 0.2 rounds to 0.8999999999999999, so vertex 0 misses
        # a demand of 0.9 with all its neighbours on its side, though the
        # estimate 0.9 - 0.2 - 0.6 lies below 0.1, its sum over vertex 1
        g = build_graph([(0, 1, 0.1), (0, 2, 0.6), (0, 0, 0.2)], LoopMode.ONCE, vertices=range(4))
        dem = Demands((0.9, 0.0, 0.0, 0.0), (0.0,) * 4)
        accepted = assert_agrees_with_verify_partition(g, dem)
        assert accepted == [m for m in range(1, 15) if not m & 1]

    @pytest.mark.parametrize("n", [17, 18])
    def test_integer_weights_match_the_matmul_enumeration(self, n):
        rng = random.Random(n)
        found = 0
        for trial in range(3):
            loop_mode = list(LoopMode)[trial % 2]
            edges = [
                (i, j, rng.randint(1, 3))
                for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
            ]
            edges += [(i, i, rng.randint(1, 2)) for i in range(n) if rng.random() < 0.3]
            g = build_graph(edges, loop_mode, vertices=range(n))
            dem = Demands(
                tuple(rng.randint(0, int(d) // 3) for d in g.d),
                tuple(rng.randint(0, int(d) // 3) for d in g.d),
            )
            count, witness = matmul_enumeration(g, dem)
            result = brute_force_solve(g, dem)
            assert result.count == count
            assert result.exists == (witness is not None)
            if witness is not None:
                found += 1
                assert mask_of(result.witness.a) == witness
                assert verify_partition(g, dem, result.witness) == []
        assert found

    def test_zero_demands_accept_every_split_across_chunks(self):
        g = random_graph(random.Random(20), 20, 0.3, loops=True)
        result = brute_force_solve(g, Demands.constant(20, 0.0, 0.0))
        assert result.count == 2**20 - 2
        assert result.witness.a == {0}
