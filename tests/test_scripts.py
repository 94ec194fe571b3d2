"""The scripts run from a plain checkout: each puts ``src`` on its own path,
so neither an install nor PYTHONPATH is needed.  The climb ladder's
half-weight twin rungs climb as their unit rungs do, and they and the
weighted G(400, 0.3) rung make the digests recorded for them; the grid
ladder's smallest rung makes its recorded digest."""

import os
import subprocess
import sys

import pytest

from degsplit import solve

from conftest import SCRIPTS, load_script


@pytest.mark.parametrize(
    "argv",
    [
        ["random_trials.py", "--trials", "20"],
        ["squares_experiment.py", "--width", "6", "--height", "6", "--radius", "2.1"],
    ],
    ids=["random-trials", "squares-experiment"],
)
def test_script_runs_without_pythonpath(tmp_path, argv):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.fixture(scope="module")
def ladder():
    return load_script("climb_ladder")


def test_climb_ladder_twin_makes_the_unit_moves_at_half_the_h(ladder):
    # the half-weight twin of the seed-1 G(100, 0.3) rung runs on banded rows
    # and the unit rung on exact rows, yet every sum is exact on both
    unit_graph, unit_demands = ladder.zero_slack_instance(100, 0.3, 1)
    twin_graph, twin_demands = ladder.zero_slack_instance(100, 0.3, 1, 0.5)
    assert unit_graph.band == (0.0,) * 100 and all(b > 0.0 for b in twin_graph.band)
    unit, unit_cert = solve(unit_graph, unit_demands)
    twin, twin_cert = solve(twin_graph, twin_demands)
    assert twin == unit
    assert len(unit_cert.moves) >= 10
    assert [(m.vertex, m.from_side, m.to_side) for m in twin_cert.moves] == [
        (m.vertex, m.from_side, m.to_side) for m in unit_cert.moves
    ]
    assert twin_cert.h_trace == tuple(h / 2.0 for h in unit_cert.h_trace)


@pytest.mark.parametrize(
    "n,moves,digest", [(100, [13, 18], "f3e0f8f6b1a306cd"), (400, [118, 118], "4a2438f3c66291a4")]
)
def test_climb_ladder_twin_digests_are_pinned(ladder, n, moves, digest):
    # the twins climb on banded rows only, where every peel, witness and
    # gain decision rests on the exact-tie band; the digests are their unit
    # rungs', recorded before the twins existed
    _, got_moves, got_digest = ladder.climb_rung(n, 0.3, 0.5, repeats=1)
    assert (got_moves, got_digest) == (moves, digest)


def test_climb_ladder_weighted_digest_is_pinned(ladder):
    # U(0.5, 1) weights at a = s/2 and b = 0.999 s/2: rows that round, on
    # dense sides; the digest is that of a climb that re-peels a side whole
    # on every loss of a core vertex
    _, moves, digest = ladder.climb_rung(400, 0.3, None, repeats=1)
    assert (moves, digest) == ([99, 95], "86395e0e6c198c25")


def test_grid_ladder_smallest_rung_digest_is_pinned():
    # the 100x100 half-degree grid at r = 3.1, whose side A is its last
    # two columns of cells
    _, size_a, digest = load_script("grid_ladder").grid_rung(100, 100, 3.1, repeats=1)
    assert (size_a, digest) == (200, "04320471e5907216")
