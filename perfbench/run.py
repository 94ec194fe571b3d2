#!/usr/bin/env python3
"""degsplit benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the package from ``src/`` and
fails when the sources are missing.  One process runs one client with no
threads: it cycles through the workload's pool of ops until ``--seconds``
have passed and every op has run at least once, timing the reference kernel
(``reference.py``) after each op.  Every op is re-verified, and the
self-test checks first that a corrupted partition counts as a failure.

With ``--trace 0`` the metrics are the end-to-end ones (tracing off).  With
``--trace 1`` every op runs twice, once plain and once traced, in alternating
order; the metrics are per-layer numbers from the traced runs and the
overhead ratio between the two.  The last line of standard output is the
result object; the line before it is a report with the run's metadata, the
digest of its inputs and figures that are recorded but not gated.  Spans are
written to ``.bench_out/trace-<workload>.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid", "climb", "cli")
# set-up runs per untraced run: this process plus fresh interpreters
SETUP_SAMPLES = 9
# kernel window before the first op, as if after an op of this many seconds
FIRST_WINDOW_S = 1.0


class Tally:
    """Latency and failure accounting.  An op fails when it returns a false
    value or raises; the run goes on either way."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str | None] = []
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.first_traceback: str | None = None

    def run(self, op) -> float:
        start = time.perf_counter()
        try:
            ok = bool(op())
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            ok = False
            key = f"{type(exc).__name__}: {exc}"[:200]
            self.errors[key] = self.errors.get(key, 0) + 1
            if self.first_traceback is None:
                self.first_traceback = traceback.format_exc()
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        self.kinds.append(getattr(op, "kind", None))
        if not ok:
            self.failed += 1
        return latency


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this interpreter, print it and exit",
    )
    return parser.parse_args(argv)


def setup_in_child(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def self_test(workloads) -> list[str]:
    """Feed stable and corrupted K9 splits through the same gate and
    accounting as real ops; return the cases the gate got wrong."""
    from degsplit import graph, solver

    k9 = graph.build_graph([(i, j, 1.0) for i in range(9) for j in range(i + 1, 9)])
    demands = graph.Demands.constant(9, 3.0, 3.0)
    partition, _ = solver.solve(k9, demands)
    side_a, side_b = sorted(partition.a), sorted(partition.b)
    library_cases = {
        "stable split": (side_a, side_b, True),
        "vertex moved across": (side_a[1:], side_b + side_a[:1], False),
        "vertex on both sides": (side_a + side_b[:1], side_b, False),
        "vertex missing": (side_a, side_b[1:], False),
    }
    labelled = [(str(i), str(j), 1.0) for i in range(9) for j in range(i + 1, 9)]
    check = workloads.solve_output_ok(
        workloads.label_check(labelled, {str(x): (3.0, 3.0) for x in range(9)})
    )

    def payload(a, b):
        return json.dumps({"A": [str(x) for x in a], "B": [str(x) for x in b], "violations": []})

    cli_cases = {
        "CLI stable split": (0, payload(side_a, side_b), True),
        "CLI vertex moved across": (0, payload(side_a[1:], side_b + side_a[:1]), False),
        "CLI exit code 1": (1, payload(side_a, side_b), False),
        "CLI output not JSON": (0, "Traceback", False),
    }
    wrong = []
    tally = Tally()
    for name, (a, b, expected) in library_cases.items():
        before = tally.failed
        tally.run(lambda: workloads.verifies(k9, demands, a, b))
        if (tally.failed == before) != expected:
            wrong.append(name)
    for name, (code, out, expected) in cli_cases.items():
        before = tally.failed
        tally.run(lambda: check(code, out))
        if (tally.failed == before) != expected:
            wrong.append(name)
    return wrong


def measure(ops, seconds: float) -> tuple[Tally, list, float]:
    """Cycle through the pool until ``seconds`` have passed and every op has
    run once, with a window of the reference kernel before the first op and
    after each op; (tally, kernel windows, elapsed).  The elapsed time
    leaves out the kernel windows."""
    tally = Tally()
    windows = [reference.window(FIRST_WINDOW_S)]
    elapsed = 0.0
    for index in itertools.count():
        elapsed += tally.run(ops[index % len(ops)])
        windows.append(reference.window(tally.latencies[-1]))
        if index + 1 >= len(ops) and elapsed >= seconds:
            break
    return tally, windows, elapsed


def scaled_ops_per_s(latencies, windows, pool: int) -> float:
    """Ops per second at the reference speed: each op's time is scaled by
    the kernel windows just before and after it, each input of the pool
    counts with the median of its scaled times, and the rate is the pool
    size over the sum of those medians."""
    per_input: list[list[float]] = [[] for _ in range(pool)]
    for index, latency in enumerate(latencies):
        per_input[index % pool].append(reference.scale(latency, windows[index : index + 2]))
    return pool / sum(statistics.median(times) for times in per_input)


def measure_traced(ops, seconds: float, tracer):
    """Every op plain and traced, in alternating order, cycling through the
    pool until ``seconds`` have passed.  A CLI op's traced variant runs under
    ``-X importtime``; the CLI command then runs once more in-process under
    the tracer, which gives the layer spans."""

    def installed(op):
        def run():
            tracer.install()
            try:
                return op()
            finally:
                tracer.uninstall()

        return run

    plain, traced, in_process = Tally(), Tally(), Tally()
    start = time.perf_counter()
    for index in itertools.count():
        op = ops[index % len(ops)]
        tracer.op = index
        variant = op.under_importtime if hasattr(op, "in_process") else installed(op)
        pair = [(plain, op), (traced, variant)]
        if index % 2:
            pair.reverse()
        for tally, run in pair:
            tally.run(run)
        if hasattr(op, "in_process"):
            in_process.run(lambda: op.in_process(tracer))
        if time.perf_counter() - start >= seconds:
            break
    return plain, traced, in_process


def metadata() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def latency_report(tally: Tally) -> dict:
    latencies = tally.latencies
    report = {"latency_samples": len(latencies), "latency_p50_s": statistics.median(latencies)}
    if len(latencies) >= 100:
        report["latency_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    kinds = {}
    for kind, latency in zip(tally.kinds, latencies):
        if kind is not None:
            kinds.setdefault(kind, []).append(latency)
    if kinds:
        report["latency_p50_by_kind_s"] = {k: statistics.median(v) for k, v in kinds.items()}
    return report


def cli_metrics(children, main_s: float) -> dict:
    """Per-op process and import times of the CLI workload (0 elsewhere)."""
    if children is None or not children.imports_s:
        names = ("import_s", "import_numpy_s", "process_s", "process_overhead_s")
        return {f"cli.{name}": (0.0, "s/op") for name in names}
    process_s = statistics.fmean(children.plain_s)
    return {
        "cli.import_s": (statistics.fmean(p for p, _ in children.imports_s), "s/op"),
        "cli.import_numpy_s": (statistics.fmean(n for _, n in children.imports_s), "s/op"),
        "cli.process_s": (process_s, "s/op"),
        "cli.process_overhead_s": (process_s - main_s, "s/op"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "degsplit" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no package sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_s = []
    if not args.trace and not args.setup_only:
        setup_s = [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    start = time.perf_counter()
    import workloads  # imports degsplit: part of set-up

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        inputs = workloads.setup(args.workload, args.seed, OUT / args.workload, SRC)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s.append(time.perf_counter() - start)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s[-1]}))
        return 0

    import degsplit

    if Path(degsplit.__file__).resolve().parent != (SRC / "degsplit").resolve():
        sys.stderr.write(f"perfbench: degsplit was imported from {degsplit.__file__}\n")
        return 2

    gate_errors = self_test(workloads)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs.digest,
        "self_test_errors": gate_errors,
        **metadata(),
    }
    if args.trace:
        from tracing import layer_metrics, moves_per_op

        plain, traced, in_process = measure_traced(inputs.ops, args.seconds, tracer)
        tallies = (plain, traced, in_process)
        ops = len(traced.latencies)
        metrics = layer_metrics(tracer, ops)
        metrics.update(cli_metrics(inputs.children, metrics["cli.main.s"][0]))
        metrics["trace.overhead_ratio"] = (
            sum(plain.latencies) / sum(traced.latencies),
            "ratio",
        )
        moves = moves_per_op(tracer)
        report["moves_per_op_min_max"] = [min(moves), max(moves)] if moves else None
        tracer.write(OUT / f"trace-{args.workload}.jsonl")
    else:
        tally, windows, elapsed = measure(inputs.ops, args.seconds)
        tallies = (tally,)
        if inputs.children is not None:
            peak_kb = inputs.children.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # set-up ran just before the ops, at the speed the kernel saw then
        metrics = {
            "setup_s": (reference.scale(statistics.median(setup_s), windows), "s"),
            "ops_per_s": (
                scaled_ops_per_s(tally.latencies, windows, len(inputs.ops)),
                "1/s",
            ),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        report.update(latency_report(tally))
        report["raw_ops_per_s"] = len(tally.latencies) / elapsed
        report["raw_setup_s"] = statistics.median(setup_s)
        report["setup_samples_s"] = setup_s
        report["kernel_mean_s"] = sum(s for _, s in windows) / sum(r for r, _ in windows)

    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    report["fail_ratio"] = failed / attempted
    report["errors"] = {k: v for t in tallies for k, v in t.errors.items()}
    report["first_traceback"] = next(
        (t.first_traceback for t in tallies if t.first_traceback), None
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not gate_errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
