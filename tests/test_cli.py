import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import degsplit
from degsplit import LoopMode, Partition, build_graph, verify_partition
from degsplit.cli import format_graph_file, main, parse_graph_file
from degsplit.geometry import DemandScheme, GridInstance, build_grid_graph, squares_demands

K9_EDGES = "".join(
    f"v{i} v{j} 1.0\n" for i in range(9) for j in range(i + 1, 9)
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k9_files(tmp_path):
    graph = write(tmp_path, "k9.edges", K9_EDGES)
    dem3 = write(
        tmp_path, "k9_3.dem", "".join(f"v{i} 3 3\n" for i in range(9))
    )
    dem35 = write(
        tmp_path, "k9_35.dem", "".join(f"v{i} 3.5 3.5\n" for i in range(9))
    )
    return graph, dem3, dem35


def test_solve_k9(capsys, k9_files):
    graph, dem3, _ = k9_files
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem3])
    assert code == 0
    payload = json.loads(out)
    assert sorted(map(len, (payload["A"], payload["B"]))) == [4, 5]
    assert payload["violations"] == []
    assert payload["feasible"] is True


def test_solve_infeasible_k9_exits_one(capsys, k9_files):
    graph, _, dem35 = k9_files
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem35])
    assert code == 1
    payload = json.loads(out)
    assert "error" in payload


def test_solve_reports_the_loop_reduced_precondition(capsys, tmp_path):
    # unit loops give d = 4, but with a = 0 the reduced instance keeps only
    # the loopless degree 2 against b' = 1 and 2W = 2
    graph = write(
        tmp_path, "tri.edges",
        "x y 1\ny z 1\nz x 1\nx x 1\ny y 1\nz z 1\n",
    )
    dem = write(tmp_path, "tri.dem", "x 0 3\ny 0 3\nz 0 3\n")
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert (payload["A"], payload["B"]) == (["z"], ["x", "y"])


def test_overflowing_h_is_written_as_json_null(capsys, tmp_path):
    # a zero-slack G(100, 0.3) whose every weight is 2^1017 solves, but
    # every h of its climb overflows to inf
    rng = random.Random(0)
    weight = 2.0 ** 1017
    edges = [(i, j) for i in range(100) for j in range(i + 1, 100) if rng.random() < 0.3]
    degree = [0] * 100
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    graph = write(tmp_path, "huge.edges", "".join(f"{i} {j} {weight!r}\n" for i, j in edges))
    dem = write(tmp_path, "huge.dem", "".join(
        f"{x} {(k - 2) * weight / 2!r} {(k - 2) * weight / 2!r}\n" for x, k in enumerate(degree)
    ))
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 0

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    assert payload["moves"] > 0
    assert len(payload["h_trace"]) == payload["moves"] + 1
    assert None in payload["h_trace"]


def test_completion_failure_exits_one(capsys, tmp_path):
    graph = write(tmp_path, "path.edges", "0 1 1\n1 2 1\n")
    dem = write(tmp_path, "path.dem", "0 0 1\n1 3 3\n2 1 0\n")
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 1
    assert json.loads(out)["error"] == "CompletionAssertFailedError"


def test_oracle_k9(capsys, k9_files):
    graph, dem3, dem35 = k9_files
    code, out, _ = run_cli(capsys, ["oracle", "--graph", graph, "--demands", dem35])
    assert code == 1
    assert json.loads(out)["exists"] is False

    code, out, _ = run_cli(capsys, ["oracle", "--graph", graph, "--demands", dem3])
    assert code == 0
    payload = json.loads(out)
    assert payload["exists"] is True
    assert payload["count"] == 252


def test_oracle_past_the_cap_exits_two(capsys, tmp_path):
    edges = "".join(f"v{i} v{j} 1\n" for i in range(25) for j in range(i + 1, 25))
    graph = write(tmp_path, "k25.edges", edges)
    dem = write(tmp_path, "k25.dem", "")
    code, out, err = run_cli(capsys, ["oracle", "--graph", graph, "--demands", dem])
    assert assert_input_error(code, out, err)["error"] == "TooLargeError"


def test_verify_accepts_solve_output(capsys, tmp_path, k9_files):
    graph, dem3, _ = k9_files
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem3])
    assert code == 0
    partition = write(tmp_path, "part.json", out)
    code, out, _ = run_cli(
        capsys,
        ["verify", "--graph", graph, "--demands", dem3, "--partition", partition],
    )
    assert code == 0
    assert json.loads(out)["stable"] is True


def test_verify_flags_bad_partition(capsys, tmp_path, k9_files):
    graph, dem3, _ = k9_files
    bad = {"A": ["v0"], "B": [f"v{i}" for i in range(1, 9)]}
    partition = write(tmp_path, "bad.json", json.dumps(bad))
    code, out, _ = run_cli(
        capsys,
        ["verify", "--graph", graph, "--demands", dem3, "--partition", partition],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["violations"][0]["vertex"] == "v0"


def test_missing_demand_lines_default_to_zero(capsys, tmp_path):
    graph = write(tmp_path, "tri.edges", "x y 1\ny z 1\nz x 1\n")
    dem = write(tmp_path, "tri.dem", "x 0 0\n")
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 0


def test_input_errors_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["solve", "--graph", "/nonexistent",
                                    "--demands", "/nonexistent"])
    assert code == 2
    assert json.loads(err)["error"] == "InputError"

    dup = write(tmp_path, "dup.edges", "a b 1\nb a 2\n")
    dem = write(tmp_path, "d.dem", "a 0 0\n")
    code, _, err = run_cli(capsys, ["solve", "--graph", dup, "--demands", dem])
    assert code == 2
    assert json.loads(err)["error"] == "DuplicateEdgeError"

    unknown = write(tmp_path, "u.dem", "zz 1 1\n")
    tri = write(tmp_path, "tri.edges", "x y 1\ny z 1\n")
    code, _, err = run_cli(capsys, ["solve", "--graph", tri, "--demands", unknown])
    assert code == 2


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert set(payload) == {"error", "message"}
    return payload


@pytest.mark.parametrize("kind", ["graph", "demands", "cells", "partition"])
def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path, k9_files, kind):
    graph, dem3, _ = k9_files
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"v0 v1 1.0\n\xff\xfe 2\n")
    partition = write(tmp_path, "p.json", json.dumps({"A": ["v0"], "B": ["v1"]}))
    files = {"graph": graph, "demands": dem3, "partition": partition, kind: str(bad)}
    argv = {
        "cells": ["squares", "--cells", str(bad), "--radius", "2.1"],
        "partition": ["verify", "--graph", files["graph"], "--demands", files["demands"],
                      "--partition", files["partition"]],
    }.get(kind, ["solve", "--graph", files["graph"], "--demands", files["demands"]])
    payload = assert_input_error(*run_cli(capsys, argv))
    assert payload["error"] == "InputError"
    assert payload["message"].startswith(f"cannot read {bad}: 'utf-8' codec can't decode")


@pytest.fixture
def grid_cells(tmp_path):
    return write(
        tmp_path, "grid.cells", "".join(f"{i} {j}\n" for i in range(4) for j in range(4))
    )


@pytest.mark.parametrize(
    "command",
    [
        ["solve", "--max-moves", "0"],
        ["squares", "--max-moves", "0"],
        ["verify", "--tolerance", "-1"],
        ["verify", "--tolerance", "nan"],
        ["squares", "--show-circle", "1,1"],
        ["squares", "--show-circle", "zz"],
        ["gen", "--weight-max", "inf"],
    ],
    ids=[
        "solve-max-moves", "squares-max-moves", "verify-tolerance", "verify-tolerance-nan",
        "squares-show-circle-without-svg", "squares-show-circle-bad-without-svg",
        "gen-weight-max-inf",
    ],
)
def test_bad_flag_values_exit_two(capsys, tmp_path, k9_files, grid_cells, command):
    graph, dem3, _ = k9_files
    good = {"A": [f"v{i}" for i in range(4)], "B": [f"v{i}" for i in range(4, 9)]}
    files = {
        "solve": ["--graph", graph, "--demands", dem3],
        "verify": ["--graph", graph, "--demands", dem3,
                   "--partition", write(tmp_path, "p.json", json.dumps(good))],
        "squares": ["--cells", grid_cells, "--radius", "2.1"],
        "gen": ["--n", "5", "--out-graph", str(tmp_path / "g.edges"),
                "--out-demands", str(tmp_path / "g.dem")],
    }[command[0]]
    payload = assert_input_error(*run_cli(capsys, command + files))
    assert payload["error"] == "InputError"
    assert not (tmp_path / "g.edges").exists()


def test_overflowing_degree_exits_two(capsys, tmp_path):
    graph = write(tmp_path, "huge.edges", "x y 1e308\ny z 1e308\nz x 1e308\n")
    dem = write(tmp_path, "huge.dem", "x 1e308 1e308\ny 1e308 1e308\nz 1e308 1e308\n")
    payload = assert_input_error(
        *run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    )
    assert payload["error"] == "InputError"
    assert "vertex 'x' has degree inf" in payload["message"]


@pytest.mark.parametrize("text", ["[1,2]", '{"A": 5, "B": []}', '{"A": ["v0"]}'])
def test_malformed_partition_file_exits_two(capsys, tmp_path, k9_files, text):
    graph, dem3, _ = k9_files
    partition = write(tmp_path, "bad.json", text)
    payload = assert_input_error(*run_cli(
        capsys,
        ["verify", "--graph", graph, "--demands", dem3, "--partition", partition],
    ))
    assert payload["error"] == "InputError"


# (file kind, file text, the one message it exits 2 with); {path} is the file
K9_HALVES = {"A": [f"v{i}" for i in range(4)], "B": [f"v{i}" for i in range(4, 9)]}
BAD_INPUTS = {
    "graph-two-fields": ("graph", "v0 v1\n", "{path}:1: expected 'u v w'"),
    "graph-bad-weight": ("graph", "v0 v1 heavy\n", "{path}:1: bad weight 'heavy'"),
    "graph-only-comments": ("graph", "# nothing\n\n  # here\n", "{path}: no edges"),
    "graph-crlf-third-line": (
        "graph", "v0 v1 1\r\nv1 v2 1\r\nv2 v0\r\n", "{path}:3: expected 'u v w'"
    ),
    "demands-two-fields": ("demands", "v0 1\n", "{path}:1: expected 'u a b'"),
    "demands-bad-value": ("demands", "v0 1 lots\n", "{path}:1: bad demand value"),
    "demands-negative": (
        "demands", "v0 -1 0\n", "{path}: demands must be finite and non-negative, got -1.0"
    ),
    "demands-nan": (
        "demands", "v0 0 nan\n", "{path}: demands must be finite and non-negative, got nan"
    ),
    "cells-three-fields": ("cells", "0 0 0\n", "{path}:1: expected 'i j'"),
    "cells-fractional": ("cells", "0 0\n0 1.5\n", "{path}:2: cell coordinates must be integers"),
    "cells-none": ("cells", "# no cells\n", "{path}: no cells"),
    "partition-bad-json": (
        "partition", "{",
        "{path}: not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    "partition-deep-json": (
        "partition", "[" * 100000 + "]" * 100000,
        "{path}: not valid JSON: maximum recursion depth exceeded while decoding a JSON "
        "array from a unicode string",
    ),
    "partition-unknown-label": (
        "partition", json.dumps({"A": ["v0", "zz"], "B": K9_HALVES["B"]}),
        "{path}: unknown vertex 'zz'",
    ),
    "partition-label-on-both-sides": (
        "partition", json.dumps({"A": K9_HALVES["A"] + ["v4"], "B": K9_HALVES["B"]}),
        "{path}: sides overlap",
    ),
    # one message whether the vertices left out are the last ones or not
    "partition-misses-the-last-vertices": (
        "partition", json.dumps({"A": K9_HALVES["A"], "B": ["v4", "v5", "v6"]}),
        "{path}: vertex 'v7' is on neither side",
    ),
    "partition-misses-an-inner-vertex": (
        "partition", json.dumps({"A": ["v0", "v1", "v3"], "B": K9_HALVES["B"]}),
        "{path}: vertex 'v2' is on neither side",
    ),
    "show-circle-with-svg": ("flag", "1;2", "--show-circle expects 'i,j'"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_each_bad_input_exits_two_with_its_message(capsys, tmp_path, k9_files, grid_cells, case):
    kind, text, message = BAD_INPUTS[case]
    graph, dem3, _ = k9_files
    path = write(tmp_path, f"bad.{kind}", text)
    files = {
        "graph": graph, "demands": dem3, "cells": grid_cells,
        "partition": write(tmp_path, "good.json", json.dumps(K9_HALVES)),
        kind: path,
    }
    if kind == "cells":
        argv = ["squares", "--cells", path, "--radius", "2.1"]
    elif kind == "flag":
        argv = ["squares", "--cells", grid_cells, "--radius", "2.1",
                "--svg", str(tmp_path / "out.svg"), "--show-circle", text]
    else:
        argv = ["verify", "--graph", files["graph"], "--demands", files["demands"],
                "--partition", files["partition"]]
    payload = assert_input_error(*run_cli(capsys, argv))
    assert payload == {"error": "InputError", "message": message.format(path=path)}


def test_duplicate_demand_line_exits_two(capsys, tmp_path, k9_files):
    graph, _, _ = k9_files
    dem = write(tmp_path, "dup.dem", "v0 1 1\nv1 1 1\nv0 2 2\n")
    payload = assert_input_error(
        *run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    )
    assert payload["error"] == "InputError"
    assert ":3:" in payload["message"]


@pytest.mark.parametrize(
    "argv", [["solve", "--seed", "1"], ["squares", "--tolerance", "0"]], ids=["seed", "tolerance"]
)
def test_flag_of_another_subcommand_is_rejected(capsys, k9_files, grid_cells, argv):
    graph, dem3, _ = k9_files
    files = (
        ["--graph", graph, "--demands", dem3]
        if argv[0] == "solve"
        else ["--cells", grid_cells, "--radius", "2.1"]
    )
    with pytest.raises(SystemExit) as exc:
        main(argv + files)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["solve", "--graph", "g.edges"], "required: --demands"),
        (["squares", "--cells", "c.txt", "--radius", "abc"], "invalid float value: 'abc'"),
        (["solve", "--graph", "g.edges", "--demands", "d.dem", "--bogus"],
         "unrecognized arguments: --bogus"),
        ([], "required: command"),
        (["solve", "--graph", "g.edges", "--demands", "d.dem", "--loop-mode", "sideways"],
         "argument --loop-mode: invalid LoopMode value: 'sideways'"),
    ],
    ids=["missing-demands", "radius-abc", "unknown-flag", "no-command", "loop-mode-sideways"],
)
def test_usage_errors_are_one_json_line(capsys, argv, fragment):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    payload = assert_input_error(exc.value.code, captured.out, captured.err)
    assert payload["error"] == "InputError"
    assert fragment in payload["message"]


def test_squares_with_a_huge_radius(capsys, tmp_path):
    # every cell's disk covers every square: the stencil's reach overflows
    # to inf and must not raise
    cells = write(tmp_path, "two.cells", "0 0\n1 0\n")
    code, out, _ = run_cli(capsys, ["squares", "--cells", cells, "--radius", "1e200"])
    assert code == 0
    payload = json.loads(out)
    instance = GridInstance(((0, 0), (1, 0)), 1e200)
    graph = build_grid_graph(instance)
    demands = squares_demands(graph, DemandScheme.HALF_DEGREE)
    partition = Partition(
        frozenset(graph.index_of(tuple(c)) for c in payload["A"]),
        frozenset(graph.index_of(tuple(c)) for c in payload["B"]),
    )
    assert verify_partition(graph, demands, partition) == []


def test_squares_on_far_cells_under_a_large_radius(tmp_path):
    # the stencil's walk would cover 10^9 offsets to find no edge; the rows
    # come from the one cell pair instead
    cells = write(tmp_path, "far.cells", "0 0\n99999999999 0\n")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "degsplit", "squares", "--cells", cells, "--radius", "1e9"],
        capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["margins"] == [[0, 0, 1.0], [99999999999, 0, 1.0]]


def cli_commands(tmp_path, k9_files, grid_cells):
    """solve, verify, squares, oracle and gen argv lists that all exit 0."""
    graph, dem3, _ = k9_files
    good = {"A": [f"v{i}" for i in range(4)], "B": [f"v{i}" for i in range(4, 9)]}
    files = ["--graph", graph, "--demands", dem3]
    return [
        ["solve", *files],
        ["verify", *files, "--partition", write(tmp_path, "p.json", json.dumps(good))],
        ["squares", "--cells", grid_cells, "--radius", "2.1"],
        ["oracle", *files],
        ["gen", "--n", "6", "--out-graph", str(tmp_path / "g.edges"),
         "--out-demands", str(tmp_path / "g.dem")],
    ]


def run_fresh_python(script):
    """Run ``script`` in a new interpreter that imports this checkout's
    package; pytest itself loads the modules these tests look for."""
    src = str(Path(degsplit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr


def test_numpy_dataclasses_and_inspect_stay_unloaded(tmp_path, k9_files, grid_cells):
    commands = cli_commands(tmp_path, k9_files, grid_cells)
    run_fresh_python(
        "import sys\n"
        "import degsplit\n"
        "from degsplit.cli import main\n"
        "unloaded = ('numpy', 'dataclasses', 'inspect')\n"
        "assert not set(unloaded) & set(sys.modules), 'import degsplit'\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "    assert not set(unloaded) & set(sys.modules), argv\n"
    )


def test_every_subcommand_runs_where_numpy_cannot_be_imported(tmp_path, k9_files, grid_cells):
    commands = cli_commands(tmp_path, k9_files, grid_cells)
    run_fresh_python(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from degsplit.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )


# the package's public names as the eager import list had them, by module
PUBLIC_NAMES = {
    "errors": "CompletionAssertFailedError DegsplitError DuplicateEdgeError "
    "GenerationFailedError MoveLimitExceededError NonImprovingMoveError "
    "NonPositiveWeightError NoSatisfyingSetError PartitionCollapseError "
    "SingleVertexGraphError SolverError TooFewCellsError TooLargeError "
    "UnstablePartitionError",
    "graph": "Demands LoopMode WeightedGraph build_graph without_loops",
    "core": "minimal_satisfying_set peel",
    "solver": "DEFAULT_MAX_MOVES FeasibilityReport Move Partition SolveCertificate "
    "Violation check_feasibility find_stable_pair solve verify_partition",
    "oracle": "OracleResult brute_force_solve random_feasible_instance",
    "geometry": "DemandScheme GridInstance SquaresResult build_grid_graph "
    "circle_square_area solve_squares squares_demands",
}


def test_import_degsplit_loads_no_submodule():
    run_fresh_python(
        "import sys\n"
        "import degsplit\n"
        "loaded = [m for m in sys.modules if m.startswith('degsplit.')]\n"
        "assert not loaded, loaded\n"
        "assert degsplit.__version__ == '0.1.0'\n"
    )


def test_star_import_binds_each_public_name_from_its_module():
    run_fresh_python(
        "import importlib\n"
        "names = {}\n"
        "exec('from degsplit import *', names)\n"
        "del names['__builtins__']\n"
        f"table = {PUBLIC_NAMES!r}\n"
        "expected = {n: m for m, line in table.items() for n in line.split()}\n"
        "assert len(expected) == 41 and set(names) == set(expected), set(names) ^ set(expected)\n"
        "for name, module in expected.items():\n"
        "    home = importlib.import_module('degsplit.' + module)\n"
        "    assert names[name] is getattr(home, name), name\n"
    )


def test_submodules_resolve_after_a_bare_import():
    run_fresh_python(
        "import sys\n"
        "import degsplit\n"
        f"for module in {sorted(PUBLIC_NAMES)!r}:\n"
        "    assert getattr(degsplit, module) is sys.modules['degsplit.' + module], module\n"
        "g = degsplit.graph.build_graph([(0, 1, 1.0)])\n"
        "assert degsplit.without_loops(g) is g\n"
    )


def test_unknown_names_fail_as_attributes_do():
    with pytest.raises(AttributeError, match="'nope'"):
        degsplit.nope
    with pytest.raises(ImportError):
        from degsplit import nope  # noqa: F401
    assert set(degsplit.__all__) <= set(dir(degsplit))
    assert "__version__" in dir(degsplit)


@pytest.mark.parametrize(
    "kinds,loaded",
    [
        (("solve", "verify"), {"cli", "core", "errors", "graph", "solver", "value"}),
        (("squares",), {"cli", "core", "errors", "geometry", "graph", "solver", "value"}),
        (("oracle",), {"cli", "core", "errors", "graph", "oracle", "solver", "value"}),
    ],
    ids=["solve-verify", "squares", "oracle"],
)
def test_a_subcommand_imports_only_its_modules(tmp_path, k9_files, grid_cells, kinds, loaded):
    commands = cli_commands(tmp_path, k9_files, grid_cells)
    chosen = [argv for argv in commands if argv[0] in kinds]
    run_fresh_python(
        "import sys\n"
        "from degsplit.cli import main\n"
        f"for argv in {chosen!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "got = {m.split('.')[1] for m in sys.modules if m.startswith('degsplit.')}\n"
        f"assert got == {loaded!r}, got\n"
    )


def test_comments_and_loops_parse(capsys, tmp_path):
    graph = write(
        tmp_path,
        "loops.edges",
        "# a loopy instance\nx y 1.0\nx x 2.0  # loop at x\n",
    )
    dem = write(tmp_path, "loops.dem", "x 4 0\ny 0 0\n")
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 0
    payload = json.loads(out)
    assert "x" in payload["A"] or "x" in payload["B"]


def test_loop_mode_once_changes_the_solution(capsys, tmp_path):
    # x meets its a-demand 2 alone when its loop counts twice, and needs y
    # beside it when the loop counts once
    graph = write(tmp_path, "loop.edges", "x y 1.0\ny z 1.0\nz x 1.0\nx x 1.0\n")
    dem = write(tmp_path, "loop.dem", "x 2 0\ny 1 1\nz 5 0\n")
    argv = ["solve", "--graph", graph, "--demands", dem, "--loop-mode"]
    results = {}
    for mode in ("once", "double"):
        code, out, _ = run_cli(capsys, argv + [mode])
        assert code == 0
        payload = json.loads(out)
        results[mode] = (payload["A"], payload["B"])
    assert results == {"once": (["x", "y"], ["z"]), "double": (["x"], ["y", "z"])}


def test_squares_with_svg(capsys, tmp_path):
    cells = write(
        tmp_path, "grid.cells",
        "".join(f"{i} {j}\n" for i in range(4) for j in range(4)),
    )
    svg_path = str(tmp_path / "out.svg")
    code, out, _ = run_cli(
        capsys,
        ["squares", "--cells", cells, "--radius", "2.1",
         "--scheme", "half-degree", "--svg", svg_path,
         "--show-circle", "1,1"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["A"]) + len(payload["B"]) == 16
    assert payload["precondition_ok"] is True
    svg = Path(svg_path).read_text(encoding="utf-8")
    assert svg.count("<rect") == 16
    assert "#1f77b4" in svg and "#ff7f0e" in svg
    assert "<circle" in svg


@pytest.mark.parametrize(
    "extra, sha256",
    [
        ([], "df5197d3eee6a318e5e24976a2fa736d6f935a446cafe2f39de9ab1519d6c5d6"),
        (["--show-circle", "1,1"],
         "b125eda5f3c0c27552bea867030908605b194c8820c98dab44de3bc067b8aa91"),
    ],
)
def test_squares_svg_bytes_are_pinned(capsys, tmp_path, extra, sha256):
    cells = write(
        tmp_path, "grid.cells",
        "".join(f"{i} {j}\n" for i in range(4) for j in range(4)),
    )
    svg_path = tmp_path / "out.svg"
    code, _, _ = run_cli(
        capsys,
        ["squares", "--cells", cells, "--radius", "2.1",
         "--scheme", "half-degree", "--svg", str(svg_path), *extra],
    )
    assert code == 0
    assert hashlib.sha256(svg_path.read_bytes()).hexdigest() == sha256


def test_squares_physical_scheme(capsys, tmp_path):
    cells = write(
        tmp_path, "grid.cells",
        "".join(f"{i} {j}\n" for i in range(5) for j in range(5)),
    )
    code, out, _ = run_cli(
        capsys,
        ["squares", "--cells", cells, "--radius", "2.1", "--scheme", "physical"],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["A"]) + len(payload["B"]) == 25
    # strict-majority demands sit outside the guarantee zone
    assert payload["precondition_ok"] is False


def test_gen_roundtrip_and_determinism(capsys, tmp_path):
    out_graph = str(tmp_path / "g.edges")
    out_dem = str(tmp_path / "g.dem")
    argv = ["gen", "--n", "7", "--edge-probability", "0.8", "--seed", "42",
            "--out-graph", out_graph, "--out-demands", out_dem]
    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    first_graph = Path(out_graph).read_text(encoding="utf-8")
    first_dem = Path(out_dem).read_text(encoding="utf-8")

    code, _, _ = run_cli(capsys, argv)
    assert code == 0
    assert Path(out_graph).read_text(encoding="utf-8") == first_graph
    assert Path(out_dem).read_text(encoding="utf-8") == first_dem

    # canonical emission round-trips byte-identically through parse + solve
    code, out, _ = run_cli(
        capsys, ["solve", "--graph", out_graph, "--demands", out_dem]
    )
    assert code == 0

    reparsed = parse_graph_file(out_graph, LoopMode.DOUBLE)
    assert format_graph_file(reparsed) == first_graph


@pytest.mark.parametrize("loop_mode", list(LoopMode))
def test_looped_graph_file_round_trips(tmp_path, loop_mode):
    # gen never draws a loop, so build a looped graph here
    rng = random.Random(3)
    edges = [(f"v{i}", f"v{j}", rng.uniform(0.1, 2.0)) for i in range(6) for j in range(i)]
    loops = [(f"v{i}", f"v{i}", rng.uniform(0.1, 2.0)) for i in (0, 2, 5)]
    # labels in the order the sorted file names them, so the graphs compare
    graph = build_graph(edges + loops, loop_mode, vertices=[f"v{i}" for i in range(6)])
    text = format_graph_file(graph)
    assert text.count("\n") == len(edges) + len(loops)
    assert "v2 v2 " in text
    reparsed = parse_graph_file(write(tmp_path, "looped.edges", text), loop_mode)
    assert reparsed == graph
    assert format_graph_file(reparsed) == text


@pytest.mark.parametrize("command", ["gen", "squares"])
def test_unwritable_output_exits_two(capsys, tmp_path, grid_cells, command):
    missing = tmp_path / "missing"
    argv = {
        "gen": ["gen", "--n", "7", "--edge-probability", "0.8",
                "--out-graph", str(missing / "g.edges"),
                "--out-demands", str(missing / "g.dem")],
        "squares": ["squares", "--cells", grid_cells, "--radius", "2.1",
                    "--svg", str(missing / "x.svg")],
    }[command]
    payload = assert_input_error(*run_cli(capsys, argv))
    assert payload["error"] == "InputError"
    assert not missing.exists()


def test_gen_output_with_an_isolated_vertex_solves(capsys, tmp_path):
    # vertex 0 draws no edge: the graph file cannot name it, so neither may
    # the demands file
    out_graph = str(tmp_path / "g.edges")
    out_dem = str(tmp_path / "g.dem")
    code, out, _ = run_cli(
        capsys,
        ["gen", "--n", "8", "--edge-probability", "0.35", "--seed", "7",
         "--out-graph", out_graph, "--out-demands", out_dem],
    )
    assert code == 0
    assert json.loads(out)["n"] == 8
    assert not any(
        line.split()[0] == "0" for line in Path(out_dem).read_text(encoding="utf-8").splitlines()
    )
    code, out, _ = run_cli(capsys, ["solve", "--graph", out_graph, "--demands", out_dem])
    assert code == 0
    assert len(json.loads(out)["A"]) + len(json.loads(out)["B"]) == 7


def test_gen_without_edges_exits_two(capsys, tmp_path):
    out_graph = tmp_path / "g.edges"
    out_dem = tmp_path / "g.dem"
    payload = assert_input_error(*run_cli(
        capsys,
        ["gen", "--n", "5", "--edge-probability", "0.2", "--seed", "3",
         "--out-graph", str(out_graph), "--out-demands", str(out_dem)],
    ))
    assert payload["error"] == "InputError"
    assert not out_graph.exists() and not out_dem.exists()


def test_gen_at_edge_probability_zero_exits_two_before_drawing(tmp_path):
    # drawing would take n^2 / 2 coins, about 5e15 here
    out_graph = tmp_path / "g.edges"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "degsplit", "gen", "--n", "100000000",
         "--edge-probability", "0", "--out-graph", str(out_graph),
         "--out-demands", str(tmp_path / "g.dem")],
        capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    payload = assert_input_error(done.returncode, done.stdout, done.stderr)
    assert payload["error"] == "InputError"
    assert payload["message"] == "no edge was drawn; raise --edge-probability or --n"
    assert not out_graph.exists()


def test_identical_argv_identical_output(capsys, k9_files):
    graph, dem3, _ = k9_files
    argv = ["solve", "--graph", graph, "--demands", dem3]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_text_format(capsys, k9_files):
    graph, dem3, _ = k9_files
    code, out, _ = run_cli(
        capsys, ["solve", "--graph", graph, "--demands", dem3, "--format", "text"]
    )
    assert code == 0
    assert "A:" in out and "B:" in out


def test_single_vertex_graph_exits_one(capsys, tmp_path):
    graph = write(tmp_path, "one.edges", "x x 1.0\n")
    dem = write(tmp_path, "one.dem", "x 0 0\n")
    code, out, _ = run_cli(capsys, ["solve", "--graph", graph, "--demands", dem])
    assert code == 1
    assert json.loads(out)["error"] == "SingleVertexGraphError"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degsplit", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout
