"""Inputs and ops of the degsplit benchmark workloads.

``setup`` turns a seed into a workload's inputs and returns them as a pool
of ops that the runner cycles through, so every run covers the whole mix of
input sizes.  An op solves one input through the package's public functions (or through
``python -m degsplit``) and then re-verifies the result itself; it returns
True only when the result verifies.  Library calls go through the module
attributes (``solver.solve``), so a tracer that rebinds them sees the
benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from degsplit import cli, geometry, oracle, solver
from degsplit import graph as graph_mod

HALF_DEGREE = geometry.DemandScheme.HALF_DEGREE

# grid: the pool is all nine (area, radius) pairs.  The cost of a shape
# depends on its width as well as its area (a 31x31 medium shape takes about
# twice as long as a 40x24 one), so the three shapes of each area take the
# three thirds of the feasible width range, one third per radius.  The seed
# picks the width inside its third and the height follows from the area: the
# pool costs about the same on every seed while the shapes vary.
GRID_RADII = (2.1, 2.6, 3.1)
GRID_AREAS = (450, 950, 1500)
GRID_SIDES = (20, 40)

CLIMB_N = 100
CLIMB_P = 0.3
CLIMB_POOL = 80

CLI_GROUPS = 16  # of four ops: solve, verify, squares, oracle
CLI_SOLVE_N = (55, 65)
CLI_SOLVE_P = 0.3
CLI_SQUARE_SIDES = (9, 11)
CLI_SQUARE_RADIUS = 2.1
CLI_ORACLE_N = 18
CLI_ORACLE_P = 0.5
CLI_WEIGHTS = (0.5, 1.0)


@dataclass
class Inputs:
    ops: list
    digest: str
    # set for workloads whose ops run in child processes
    children: "Children | None" = None


class _Digest:
    """SHA-256 over every input handed to the program, as canonical JSON or
    as the raw bytes of packed arrays."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, value) -> None:
        self._hash.update(json.dumps(value, separators=(",", ":")).encode())
        self._hash.update(b"\n")

    def add_arrays(self, *arrays: array) -> None:
        for values in arrays:
            self._hash.update(values.typecode.encode() + values.tobytes())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def verifies(graph, demands, side_a, side_b) -> bool:
    """The correctness gate: both sides list every vertex exactly once and
    ``verify_partition`` finds no vertex below its demand."""
    if len(side_a) + len(side_b) != graph.n:
        return False
    partition = solver.Partition(frozenset(side_a), frozenset(side_b))
    return solver.verify_partition(graph, demands, partition) == []


def _packed(n, edges, a, b):
    """An instance as flat arrays (n, xs, ys, ws, a, b): a pool of
    instances stays small in memory and hashes quickly."""
    xs, ys, ws = array("i"), array("i"), array("d")
    for x, y, w in edges:
        xs.append(x)
        ys.append(y)
        ws.append(w)
    return n, xs, ys, ws, array("d", a), array("d", b)


# ---------------------------------------------------------------- grid


def _grid_shape(rng, area, third):
    low, high = GRID_SIDES
    first = max(low, -(-area // high))
    span = min(high, area // low) - first + 1
    start = first + span * third // 3
    width = rng.randint(start, max(start, first + span * (third + 1) // 3 - 1))
    height = min(high, max(low, round(area / width)))
    return width, height


def _grid_op(cells, radius):
    instance = geometry.GridInstance(cells, radius)
    result = geometry.solve_squares(instance, HALF_DEGREE)
    graph = geometry.build_grid_graph(instance)
    demands = geometry.squares_demands(graph, HALF_DEGREE)
    return verifies(
        graph,
        demands,
        [graph.index_of(c) for c in result.side_a],
        [graph.index_of(c) for c in result.side_b],
    )


def _grid(seed):
    rng = random.Random(seed)
    digest = _Digest()
    ops = []
    for area in GRID_AREAS:
        for third, radius in enumerate(GRID_RADII):
            width, height = _grid_shape(rng, area, third)
            cells = tuple((i, j) for i in range(width) for j in range(height))
            digest.add([cells, radius])
            ops.append(lambda cells=cells, radius=radius: _grid_op(cells, radius))
    return Inputs(ops, digest.hexdigest())


# --------------------------------------------------------------- climb


def _solve_op(n, xs, ys, ws, a, b):
    # the program receives the edge list and demand vectors only
    graph = graph_mod.build_graph(zip(xs, ys, ws), vertices=range(n))
    demands = graph_mod.Demands(a, b)
    partition, _ = solver.solve(graph, demands)
    return verifies(graph, demands, partition.a, partition.b)


def _climb(seed):
    # unit weights with a = b = (d - 2W) / 2: zero slack at every vertex, and
    # every sum is an exact half-integer
    rng = random.Random(seed)
    digest = _Digest()
    ops = []
    for _ in range(CLIMB_POOL):
        edges = [
            (i, j, 1.0)
            for i in range(CLIMB_N)
            for j in range(i + 1, CLIMB_N)
            if rng.random() < CLIMB_P
        ]
        degree = [0] * CLIMB_N
        for i, j, _ in edges:
            degree[i] += 1
            degree[j] += 1
        demand = [max(0.0, (d - 2.0) / 2.0) for d in degree]
        packed = _packed(CLIMB_N, edges, demand, demand)
        digest.add_arrays(*packed[1:])
        ops.append(lambda packed=packed: _solve_op(*packed))
    return Inputs(ops, digest.hexdigest())


# ----------------------------------------------------------------- cli


def parse_importtime(text: str) -> tuple[float, float]:
    """Seconds importing the degsplit package and numpy, from the stderr of
    ``python -X importtime``: the cumulative column of the top-level
    ``degsplit*`` entries and of the ``numpy`` entry."""
    package = numpy = 0.0
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        if not parts[1].strip().isdigit():
            continue  # the header line
        cumulative = int(parts[1]) / 1e6
        module = parts[2].strip()
        if module == "numpy":
            numpy = cumulative
        elif not parts[2].startswith("  ") and module.split(".")[0] == "degsplit":
            package += cumulative
    return package, numpy


class Children:
    """Runs ``python -m degsplit`` from the checkout's sources.  Keeps the
    largest resident set of any child it waited for, the wall time of each
    plain run and the import times of each run under ``-X importtime``."""

    def __init__(self, src: Path, out_dir: Path):
        self.out_dir = out_dir
        self.env = dict(os.environ)
        paths = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.peak_rss_kb = 0
        self.plain_s: list[float] = []
        self.imports_s: list[tuple[float, float]] = []

    def run(self, argv, stdout_path: Path, importtime: bool = False):
        """Exit code and standard output of one child."""
        flags = ("-X", "importtime") if importtime else ()
        command = [sys.executable, *flags, "-m", "degsplit", *argv]
        stderr_path = self.out_dir / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(command, stdout=out, stderr=err, env=self.env)
            # wait4 reaps the child and reports its own peak memory
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if importtime:
            self.imports_s.append(parse_importtime(stderr_path.read_text(encoding="utf-8")))
        else:
            self.plain_s.append(wall)
        return child.returncode, stdout_path.read_text(encoding="utf-8")


class CliOp:
    """One ``python -m degsplit`` call plus the check of its exit code and
    output."""

    def __init__(self, kind, argv, check, stdout_path, children):
        self.kind = kind
        self.argv = argv
        self.check = check
        self.stdout_path = stdout_path
        self.children = children

    def __call__(self) -> bool:
        return self.check(*self.children.run(self.argv, self.stdout_path))

    def under_importtime(self) -> bool:
        return self.check(*self.children.run(self.argv, self.stdout_path, importtime=True))

    def in_process(self, tracer) -> bool:
        """The same command through ``cli.main`` under the tracer.  Output
        is captured: the verify op reads the solve op's output file."""
        captured = io.StringIO()
        tracer.install()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(self.argv)
        finally:
            tracer.uninstall()
        return self.check(code, captured.getvalue())


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def _labelled_instance(rng, n, p, directory: Path, stem: str):
    """Write a generated instance as graph and demands files; return both
    paths, the labelled edges written and each listed vertex's demands."""
    graph, demands = oracle.random_feasible_instance(n, p, CLI_WEIGHTS, rng.randrange(2**31))
    edges = [
        (str(x), str(y), w) for x in range(n) for y, w in graph.adjacency[x] if x < y
    ]
    # a vertex without edges is not in the graph file, so it gets no demand line
    present = sorted({int(u) for u, v, _ in edges} | {int(v) for u, v, _ in edges})
    graph_path = directory / f"{stem}.edges"
    demands_path = directory / f"{stem}.dem"
    _write_lines(graph_path, [f"{u} {v} {w!r}" for u, v, w in edges])
    _write_lines(
        demands_path, [f"{x} {demands.a[x]!r} {demands.b[x]!r}" for x in present]
    )
    return graph_path, demands_path, edges, {str(x): (demands.a[x], demands.b[x]) for x in present}


def label_check(edges, demand_map):
    """Check of a CLI payload holding label lists: rebuilds the graph from
    the same edges and re-verifies the A/B split."""

    def partition_ok(payload) -> bool:
        graph = graph_mod.build_graph(edges)
        a = [0.0] * graph.n
        b = [0.0] * graph.n
        for label, (a_x, b_x) in demand_map.items():
            a[graph.index_of(label)] = a_x
            b[graph.index_of(label)] = b_x
        demands = graph_mod.Demands(a, b)
        return verifies(
            graph,
            demands,
            [graph.index_of(u) for u in payload["A"]],
            [graph.index_of(u) for u in payload["B"]],
        )

    return partition_ok


def solve_output_ok(partition_ok):
    def check(code, out):
        if code != 0:
            return False
        payload = json.loads(out)
        return payload["violations"] == [] and partition_ok(payload)

    return check


def _verify_output_ok(partition_ok, partition_path: Path):
    def check(code, out):
        if code != 0 or json.loads(out) != {"stable": True, "violations": []}:
            return False
        return partition_ok(json.loads(partition_path.read_text(encoding="utf-8")))

    return check


def _oracle_output_ok(partition_ok):
    def check(code, out):
        if code != 0:
            return False
        payload = json.loads(out)
        return payload["exists"] is True and partition_ok(payload["witness"])

    return check


def _squares_output_ok(cells, radius):
    def check(code, out):
        if code != 0:
            return False
        payload = json.loads(out)
        graph = geometry.build_grid_graph(geometry.GridInstance(cells, radius))
        demands = geometry.squares_demands(graph, HALF_DEGREE)
        return verifies(
            graph,
            demands,
            [graph.index_of(tuple(c)) for c in payload["A"]],
            [graph.index_of(tuple(c)) for c in payload["B"]],
        )

    return check


def _cli(seed, out_dir, src):
    rng = random.Random(seed)
    digest = _Digest()
    children = Children(src, out_dir)
    ops = []
    for k in range(CLI_GROUPS):
        n = rng.randint(*CLI_SOLVE_N)
        graph_path, demands_path, edges, demand_map = _labelled_instance(
            rng, n, CLI_SOLVE_P, out_dir, f"solve-{k}"
        )
        solved_path = out_dir / f"solve-{k}.json"
        solved_ok = label_check(edges, demand_map)

        width, height = (rng.randint(*CLI_SQUARE_SIDES) for _ in range(2))
        cells = tuple((i, j) for i in range(width) for j in range(height))
        cells_path = out_dir / f"cells-{k}.txt"
        _write_lines(cells_path, [f"{i} {j}" for i, j in cells])

        o_graph, o_demands, o_edges, o_map = _labelled_instance(
            rng, CLI_ORACLE_N, CLI_ORACLE_P, out_dir, f"oracle-{k}"
        )
        for path in (graph_path, demands_path, cells_path, o_graph, o_demands):
            digest.add(path.read_text(encoding="utf-8"))

        files = ["--graph", str(graph_path), "--demands", str(demands_path)]
        ops.extend(
            [
                CliOp("solve", ["solve", *files], solve_output_ok(solved_ok), solved_path, children),
                CliOp(
                    "verify",
                    ["verify", *files, "--partition", str(solved_path)],
                    _verify_output_ok(solved_ok, solved_path),
                    out_dir / "verify.json",
                    children,
                ),
                CliOp(
                    "squares",
                    ["squares", "--cells", str(cells_path), "--radius", str(CLI_SQUARE_RADIUS)],
                    _squares_output_ok(cells, CLI_SQUARE_RADIUS),
                    out_dir / "squares.json",
                    children,
                ),
                CliOp(
                    "oracle",
                    ["oracle", "--graph", str(o_graph), "--demands", str(o_demands)],
                    _oracle_output_ok(label_check(o_edges, o_map)),
                    out_dir / "oracle.json",
                    children,
                ),
            ]
        )
    return Inputs(ops, digest.hexdigest(), children)


def setup(name: str, seed: int, out_dir: Path, src: Path) -> Inputs:
    """Inputs of workload ``name``; the CLI workload writes its input files
    to ``out_dir`` and runs the package from ``src``."""
    if name == "cli":
        out_dir.mkdir(parents=True, exist_ok=True)
        return _cli(seed, out_dir, src)
    return {"grid": _grid, "climb": _climb}[name](seed)
