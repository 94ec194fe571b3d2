"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.  Expected values come from independent oracles implemented
here (subset enumeration over weight matrices, adaptive quadrature) rather
than from the code paths under test.
"""

import math
import random
import time

import numpy as np
import pytest
from scipy.integrate import quad

from degsplit import (
    Demands,
    DemandScheme,
    GridInstance,
    LoopMode,
    MoveLimitExceededError,
    NonImprovingMoveError,
    PartitionCollapseError,
    brute_force_solve,
    build_graph,
    build_grid_graph,
    check_feasibility,
    circle_square_area,
    peel,
    random_feasible_instance,
    solve,
    solve_squares,
    verify_partition,
)

from conftest import complete_graph, is_meager, random_graph, reduce_loops, weight_dict


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# independent oracles


def h_reference(graph, side_a, side_b, demands):
    """Potential recomputed from a weight dict: ordered-pair internal edge
    sums plus doubled cross demand terms (instances here are loopless)."""
    weights = weight_dict(graph)
    total = 0.0
    for side in (side_a, side_b):
        for x in side:
            for y in side:
                if x != y:
                    total += weights.get((x, y), 0.0)
    total += sum(2.0 * demands.b[x] for x in side_a)
    total += sum(2.0 * demands.a[x] for x in side_b)
    return total


def dense_matrix(graph):
    m = np.zeros((graph.n, graph.n))
    for x in range(graph.n):
        for y, w in graph.adjacency[x]:
            m[x, y] = w
        m[x, x] = graph.loop_mode.factor * graph.loops[x]
    return m


def subset_survey(graph, thresholds):
    """(union of qualifying subsets, whether any qualifying subset exists)
    by enumerating every non-empty subset of V."""
    n = graph.n
    weights = dense_matrix(graph)
    f = np.asarray(thresholds, dtype=float)
    masks = np.arange(1, 1 << n, dtype=np.uint64)
    bits = ((masks[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1).astype(float)
    deg = bits @ weights
    qualifying = ~(((bits == 1.0) & (deg < f[None, :])).any(axis=1))
    union = frozenset(
        int(x) for x in range(n) if bool((bits[qualifying, x] == 1.0).any())
    )
    return union, bool(qualifying.any())


def quadrature_area(dx, dy, r):
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


# ---------------------------------------------------------------------------
# criterion 1 + 3 share one batch of runs


def schedule(i):
    n = 2 + (i % 11)
    p = [0.5, 0.8, 1.0][i % 3] if n > 3 else 0.5
    return n, p, 10_000 + i


@pytest.fixture(scope="module")
def guarantee_runs():
    runs = []
    start = time.perf_counter()
    for i in range(1000):
        n, p, seed = schedule(i)
        graph, demands = random_feasible_instance(n, p, (0.5, 1.0), seed)
        partition, cert = solve(graph, demands)
        runs.append((graph, demands, partition, cert))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_guarantee_reproduction(guarantee_runs):
    runs, solve_elapsed = guarantee_runs
    start = time.perf_counter()
    for graph, demands, partition, _ in runs:
        assert verify_partition(graph, demands, partition, tol=0.0) == []
        assert brute_force_solve(graph, demands).exists
    elapsed = solve_elapsed + (time.perf_counter() - start)
    assert len(runs) == 1000
    assert elapsed < 60.0
    report(1, f"1000/1000 random feasible instances solved, verified at tol=0, "
              f"existence confirmed by enumeration ({elapsed:.1f} s)")


def test_criterion_3_h_monotonicity(guarantee_runs):
    runs, _ = guarantee_runs
    climbs = 0
    moves_checked = 0
    for graph, demands, _, cert in runs:
        if not cert.h_trace:
            continue
        climbs += 1
        assert all(b > a for a, b in zip(cert.h_trace, cert.h_trace[1:]))
        side_a = set(cert.hillclimb_start[0])
        side_b = set(cert.hillclimb_start[1])
        assert abs(cert.h_trace[0] - h_reference(graph, side_a, side_b, demands)) <= 1e-9
        for move, h_after in zip(cert.moves, cert.h_trace[1:]):
            h_before_ref = h_reference(graph, side_a, side_b, demands)
            if move.from_side == "B":
                side_b.remove(move.vertex)
                side_a.add(move.vertex)
            else:
                side_a.remove(move.vertex)
                side_b.add(move.vertex)
            h_after_ref = h_reference(graph, side_a, side_b, demands)
            assert abs((move.h_after - move.h_before) - (h_after_ref - h_before_ref)) <= 1e-9
            assert abs(h_after - h_after_ref) <= 1e-9
            moves_checked += 1
    report(3, f"{climbs} hill-climb certificates strictly increasing; "
              f"{moves_checked} recorded gains match recomputed h differences within 1e-9")


def test_criterion_2_k9_tightness():
    start = time.perf_counter()
    k9 = complete_graph(9)

    tight = Demands.constant(9, 3.5, 3.5)
    rep = check_feasibility(k9, tight)
    assert not rep.feasible
    assert rep.slack == (-1.0,) * 9
    oracle = brute_force_solve(k9, tight)  # enumerates all 2^9 - 2 = 510 splits
    assert not oracle.exists and oracle.count == 0
    with pytest.raises((NonImprovingMoveError, MoveLimitExceededError,
                        PartitionCollapseError)):
        solve(k9, tight)

    exact = Demands.constant(9, 3.0, 3.0)
    assert check_feasibility(k9, exact).feasible
    assert brute_force_solve(k9, exact).exists
    partition, _ = solve(k9, exact)
    assert verify_partition(k9, exact, partition) == []

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"K9 at 3.5: slack -1 at all 9 vertices, 0/510 stable splits, solver "
              f"raised a diagnosable error; at 3.0 both solver and oracle succeed "
              f"({elapsed:.2f} s)")


def test_criterion_4_core_primitives_vs_brute_force():
    start = time.perf_counter()
    rng = random.Random(314159)
    agreements = 0
    for trial in range(200):
        n = rng.randint(2, 10)
        p = rng.choice([0.3, 0.5, 0.8])
        graph = random_graph(rng, n, p, weight_range=(0.1, 2.0))
        f = [rng.uniform(0.0, 1.2 * max(max(graph.d), 1.0)) for _ in range(n)]

        union, _ = subset_survey(graph, f)
        assert peel(graph, range(n), f) == union

        strong = [f[x] + graph.W[x] for x in range(n)]
        _, any_strong = subset_survey(graph, strong)
        assert is_meager(graph, range(n), f) == (not any_strong)
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 200
    assert elapsed < 30.0
    report(4, f"200/200 graphs: peel equals the union of qualifying subsets and "
              f"is_meager matches the definitional check ({elapsed:.1f} s)")


def test_criterion_5_completion():
    start = time.perf_counter()
    done = 0
    seed = 50_000
    while done < 200:
        n = 4 + (seed % 9)
        p = [0.6, 0.8, 1.0][seed % 3]
        graph, demands = random_feasible_instance(n, p, (0.5, 1.0), seed)
        seed += 1
        if sum(1 for x in range(n) if graph.d[x] > 0.0) < 2:
            continue  # all-isolated draw: the stable-pair search is undefined here
        partition, cert = solve(graph, demands)
        side_a, side_b = cert.stable_pair
        assert side_a <= partition.a
        assert side_b <= partition.b
        assert verify_partition(graph, demands, partition, tol=0.0) == []
        done += 1
    elapsed = time.perf_counter() - start
    assert done == 200
    report(5, f"200/200 stable pairs completed to stable full partitions "
              f"extending the pair ({elapsed:.1f} s)")


def test_criterion_6_geometry_kernel():
    rng = random.Random(271828)
    worst = 0.0
    for _ in range(100):
        dx = rng.uniform(-3.0, 3.0)
        dy = rng.uniform(-3.0, 3.0)
        r = rng.uniform(0.05, 3.0)
        err = abs(circle_square_area(dx, dy, r) - quadrature_area(dx, dy, r))
        worst = max(worst, err)
        assert err < 1e-6

    assert abs(circle_square_area(0.0, 0.0, 0.5) - math.pi / 4.0) < 1e-7

    grid = build_grid_graph(GridInstance.rectangle(9, 9, 2.1), LoopMode.ONCE)
    center = grid.index_of((4, 4))
    covered = sum(w for _, w in grid.adjacency[center]) + grid.loops[center]
    conservation_err = abs(covered - math.pi * 2.1 * 2.1)
    assert conservation_err < 1e-6

    report(6, f"100 random overlaps within 1e-6 of quadrature (worst {worst:.2e}); "
              f"inscribed disk matches pi/4 within 1e-7; disk-area conservation "
              f"error {conservation_err:.2e}")


def test_criterion_7_squares_application():
    start = time.perf_counter()
    instance = GridInstance.rectangle(10, 10, 2.1)
    result = solve_squares(instance, DemandScheme.HALF_DEGREE,
                           loop_mode=LoopMode.DOUBLE)
    elapsed = time.perf_counter() - start

    assert result.precondition_ok
    assert len(result.side_a) + len(result.side_b) == 100
    assert len(result.margins) == 100
    strict = result.strict_majority_cells
    assert 0 <= strict <= 100
    assert elapsed < 10.0
    report(7, f"10x10 grid at r=2.1: reduced precondition holds, stable two-coloring "
              f"found ({len(result.side_a)}/{len(result.side_b)} split, "
              f"{len(result.certificate.moves)} moves); strict physical majority at "
              f"{strict}/100 cells (reported, not gated) ({elapsed:.1f} s)")


def test_criterion_8_loop_reduction_consistency():
    rng = random.Random(161803)
    checked = 0
    for mode in (LoopMode.ONCE, LoopMode.DOUBLE):
        factor = 1 if mode is LoopMode.ONCE else 2
        for i in range(50):
            n = 4 + (i % 7)
            base, dem = random_feasible_instance(n, 0.8, (0.5, 1.0), 80_000 + i)
            edges = [
                (x, y, w) for x in range(n) for y, w in base.adjacency[x] if x < y
            ]
            loops = {x: rng.choice([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]) for x in range(n)}
            loop_edges = [(x, x, w) for x, w in loops.items() if w > 0.0]
            graph = build_graph(edges + loop_edges, mode, vertices=range(n))
            lifted = Demands(
                tuple(dem.a[x] + factor * loops[x] for x in range(n)),
                tuple(dem.b[x] + factor * loops[x] for x in range(n)),
            )
            loopless, demands = reduce_loops(graph, lifted)
            assert not any(loopless.loops)

            partition, _ = solve(loopless, demands)
            assert verify_partition(loopless, demands, partition) == []
            assert verify_partition(graph, lifted, partition, tol=0.0) == []

            witness = brute_force_solve(loopless, demands).witness
            assert witness is not None
            assert verify_partition(graph, lifted, witness, tol=0.0) == []
            checked += 1
    assert checked == 100
    report(8, "100/100 loop graphs (both conventions): stable partitions of the "
              "reduced instance re-verify exactly on the original graph")
