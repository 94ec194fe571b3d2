#!/usr/bin/env python3
"""Print SHA-256 digests of everything ``solve`` returns, of its partitions
and moves alone, of the precondition reports, and of every graph built on
the benchmark's grid and climb pools, one line per seed.

A change that must not alter results or graphs prints the same digests as
its parent:

    python scripts/result_digest.py --seed 1 2

The result digest covers, for every ``solve`` call the pool's ops make (grid
ops call it through ``solve_squares``), the partition and the certificate's
phase log, moves, h trace, stable pair, hill-climb start and verification
slacks.  The partition digest (``partitions=``) covers the partition and the
moves only, so a change that alters certificates but not results keeps it.
The precondition digest (``preconditions=``) covers every ``solve``
certificate's feasibility slacks, taken when ``solve`` returns, and the
``precondition_ok`` of every ``solve_squares`` result.  The margin digest
(``margins=``) covers every ``solve_squares`` result's margins, cell by
cell in the cells' order, and its strict-majority count.
Sets are hashed as sorted tuples, since the iteration order of equal sets
can differ.  The graph digest covers the labels, adjacency, loops, ``d``,
``W``, ``band`` and ``loop_term`` of every graph that
``geometry.build_grid_graph`` and ``graph.build_graph`` return, floats by
their exact ``repr``.  The CLI
digest (``cli=``) covers the kind, exit code and standard output of every
op of the benchmark's cli pool, run in pool order through ``cli.main`` in
this process, after the other pools.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from degsplit import cli, geometry, graph, solver  # noqa: E402


def canonical(value):
    if isinstance(value, frozenset):
        return tuple(sorted(value))
    if isinstance(value, (tuple, list)):
        return tuple(canonical(item) for item in value)
    return value


def record(partition, cert) -> tuple:
    return canonical(
        (
            partition.a,
            partition.b,
            cert.phase_log,
            cert.moves,
            cert.h_trace,
            cert.hillclimb_start,
            cert.stable_pair,
            cert.verification,
        )
    )


def digest(seed: int) -> tuple[str, str, int, str, str, str, int]:
    """The result and partition digests of both pools and the number of
    ``solve`` calls hashed, the precondition and margin digests, then the
    digest of the graphs built and their number."""
    results, partitions, graphs = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    preconditions, margins = hashlib.sha256(), hashlib.sha256()
    calls = builds = 0
    original, squares = solver.solve, geometry.solve_squares
    builders = graph.build_graph, geometry.build_grid_graph

    def recording_solve(*args, **kwargs):
        nonlocal calls
        partition, cert = original(*args, **kwargs)
        results.update(repr(record(partition, cert)).encode())
        results.update(b"\n")
        partitions.update(repr(canonical((partition.a, partition.b, cert.moves))).encode())
        partitions.update(b"\n")
        preconditions.update(repr(cert.feasibility.slack).encode())
        preconditions.update(b"\n")
        calls += 1
        return partition, cert

    def recording_squares(*args, **kwargs):
        result = squares(*args, **kwargs)
        preconditions.update(repr(result.precondition_ok).encode())
        preconditions.update(b"\n")
        values = (tuple(result.margins.items()), result.strict_majority_cells)
        margins.update(repr(values).encode())
        margins.update(b"\n")
        return result

    def recording(build):
        def recording_build(*args, **kwargs):
            nonlocal builds
            built = build(*args, **kwargs)
            fields = (
                built.labels, built.adjacency, built.loops, built.d, built.W, built.band,
                built.loop_term,
            )
            graphs.update(repr(fields).encode())
            graphs.update(b"\n")
            builds += 1
            return built

        return recording_build

    solver.solve = geometry.solve = recording_solve
    geometry.solve_squares = recording_squares
    graph.build_graph, geometry.build_grid_graph = map(recording, builders)
    try:
        for name in ("grid", "climb"):
            # the output directory and source path serve the cli workload only
            for op in workloads.setup(name, seed, None, None).ops:
                if not op():
                    raise SystemExit(f"{name}: an op failed verification")
    finally:
        solver.solve = geometry.solve = original
        geometry.solve_squares = squares
        graph.build_graph, geometry.build_grid_graph = builders
    return (
        results.hexdigest(),
        partitions.hexdigest(),
        calls,
        preconditions.hexdigest(),
        margins.hexdigest(),
        graphs.hexdigest(),
        builds,
    )


def cli_digest(seed: int) -> str:
    """The digest of the cli pool's ops: each op's kind, exit code and
    standard output, which is also written to the op's output file, since
    the verify op reads the solve op's."""
    outputs = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.setup("cli", seed, Path(tmp), ROOT / "src").ops:
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op.argv)
            text = captured.getvalue()
            op.stdout_path.write_text(text, encoding="utf-8")
            if not op.check(code, text):
                raise SystemExit(f"cli: a {op.kind} op failed verification")
            outputs.update(repr((op.kind, code, text)).encode())
            outputs.update(b"\n")
    return outputs.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, nargs="+", required=True)
    args = parser.parse_args()
    for seed in args.seed:
        value, partition_value, calls, precondition_value, margin_value, graph_value, builds = (
            digest(seed)
        )
        print(
            f"{value}  seed={seed} solve_calls={calls} partitions={partition_value} "
            f"preconditions={precondition_value} margins={margin_value} "
            f"graphs={builds} {graph_value} cli={cli_digest(seed)}"
        )


if __name__ == "__main__":
    main()
