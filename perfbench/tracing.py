"""In-memory span tracer around the degsplit package's public functions.

The tracer wraps every public function of the layer modules (``graph``,
``core``, ``solver``, ``geometry``, ``oracle``, ``cli``) by rebinding the
module attributes that refer to it, so calls between modules are traced as
well as the benchmark's own calls.  Nothing in the package changes, and
``uninstall`` restores the original functions.

Each call records a span ``[name, start, end, parent, op, leaf_s, note]``:
``parent`` is the index of the enclosing span (-1 at the top), ``op`` the
index of the benchmark op (-1 during set-up), ``leaf_s`` the time spent in
timed leaf calls made directly inside it, and ``note`` a per-function value
taken from the arguments or result (see ``_NOTES``).  Two functions are too
hot for a span each:

- ``graph.induced_degree`` is only counted; its time stays in the caller's
  self time.
- ``geometry.circle_square_area`` is counted and timed, and its time is
  charged to the enclosing span as leaf time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graph", "core", "solver", "geometry", "oracle", "cli")
COUNT_ONLY = frozenset({"graph.induced_degree"})
TIMED_LEAVES = frozenset({"geometry.circle_square_area"})


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _peel_note(args, kwargs, result):
    subset = _arg(args, kwargs, 1, "subset")
    size = len(subset) if hasattr(subset, "__len__") else 0
    return (size, bool(result))


def _edge_count(args, kwargs, graph):
    return sum(map(len, graph.adjacency)) // 2 + sum(1 for w in graph.loops if w)


def _moves(args, kwargs, result):
    return len(result[1].moves)


def _vertex_count(args, kwargs, result):
    return _arg(args, kwargs, 0, "graph").n


# per-function extra data kept on the span, read by layer_metrics
_NOTES = {
    "core.peel": _peel_note,
    "graph.build_graph": _edge_count,
    "solver.solve": _moves,
    "oracle.brute_force_solve": _vertex_count,
}


class Tracer:
    """Spans and counts of traced calls, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"degsplit.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                self._wrappers[fn] = self._wrap(fn, f"{layer}.{attr}")

    def _wrap(self, fn, name):
        counts = self.counts
        calls = f"{name}.calls"
        if name in COUNT_ONLY:

            def counted(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counted

        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        if name in TIMED_LEAVES:
            seconds = f"{name}.s"

            def leaf(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                elapsed = clock() - start
                counts[calls] += 1
                counts[seconds] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed
                return result

            return leaf

        note = _NOTES.get(name)

        def spanned(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[6] = note(args, kwargs, result)
            return result

        return spanned

    def install(self) -> None:
        """Rebind every reference to a wrapped function in the package."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "degsplit" or module_name.startswith("degsplit.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Counts on the first line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """(value, unit) of each layer number: per op over the spans of ops
    0..ops-1, except the set-up time spent in the instance generator.

    Self time is a span's duration minus its direct child spans and leaf
    time.  Minimal-set trials are the ``peel`` calls made directly by
    ``minimal_satisfying_set`` after its first (the initial core)."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    notes = defaultdict(list)
    peel_parent = defaultdict(int)
    trials = shrinking = 0
    seen_initial = set()
    setup_generation = 0.0
    for index, (name, start, end, parent, op, leaf, note) in enumerate(spans):
        if op < 0:
            if name == "oracle.random_feasible_instance":
                setup_generation += end - start
            continue
        total[name] += end - start
        own[name] += end - start - child[index] - leaf
        calls[name] += 1
        if note is not None:
            notes[name].append(note)
        if name != "core.peel" or parent < 0:
            continue
        parent_name = spans[parent][0]
        peel_parent[parent_name] += 1
        if parent_name == "core.minimal_satisfying_set":
            if parent in seen_initial:
                trials += 1
                shrinking += note[1]
            else:
                seen_initial.add(parent)

    per_op = 1.0 / ops
    splits = sum((1 << n) - 2 for n in notes["oracle.brute_force_solve"])
    oracle_s = total["oracle.brute_force_solve"]
    counts = tracer.counts
    seconds = {
        "core.minimal_satisfying_set.s": total["core.minimal_satisfying_set"],
        "core.peel.s": total["core.peel"],
        "solver.find_stable_pair.self_s": own["solver.find_stable_pair"],
        "graph.build_graph.s": total["graph.build_graph"],
        "geometry.build_grid_graph.self_s": own["geometry.build_grid_graph"],
        "geometry.circle_square_area.s": counts["geometry.circle_square_area.s"],
        "geometry.solve_squares.self_s": own["geometry.solve_squares"],
        "solver.reduce_loops.s": total["solver.reduce_loops"],
        "solver.check_feasibility.s": total["solver.check_feasibility"],
        "solver.solve.self_s": own["solver.solve"],
        "solver.verify_partition.s": total["solver.verify_partition"],
        "oracle.brute_force_solve.s": oracle_s,
        "cli.main.s": total["cli.main"],
        "cli.parse.s": sum(v for name, v in total.items() if name.startswith("cli.parse_")),
    }
    tallies = {
        "core.minimal_satisfying_set.trials": trials,
        "core.peel.calls": calls["core.peel"],
        "core.peel.vertices_in": sum(n for n, _ in notes["core.peel"]),
        "graph.induced_degree.calls": counts["graph.induced_degree.calls"],
        "solver.find_stable_pair.peel_calls": peel_parent["solver.find_stable_pair"],
        "solver.moves": sum(notes["solver.solve"]),
        "graph.build_graph.edges": sum(notes["graph.build_graph"]),
        "geometry.circle_square_area.calls": counts["geometry.circle_square_area.calls"],
        "solver.verify_partition.calls": calls["solver.verify_partition"],
    }
    metrics = {name: (value * per_op, "s/op") for name, value in seconds.items()}
    metrics.update((name, (value * per_op, "count/op")) for name, value in tallies.items())
    metrics["core.minimal_satisfying_set.shrink_ratio"] = (
        shrinking / trials if trials else 0.0,
        "ratio",
    )
    metrics["oracle.splits_per_s"] = (splits / oracle_s if oracle_s else 0.0, "1/s")
    metrics["oracle.random_feasible_instance.s"] = (setup_generation, "s")
    return metrics


def moves_per_op(tracer: Tracer) -> list[int]:
    """Hill-climb moves of each op that called ``solve``, in op order."""
    by_op = defaultdict(int)
    for name, _, _, _, op, _, note in tracer.spans:
        if name == "solver.solve" and op >= 0:
            by_op[op] += note
    return [by_op[op] for op in sorted(by_op)]
