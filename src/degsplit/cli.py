"""Command-line front end: file formats, subcommand dispatch, JSON/text
emission, and SVG rendering of square two-colorings.

File formats (UTF-8 text, ``#`` starts a comment):
  graph    one edge per line, ``u v w``; ``u u w`` declares a loop
  demands  lines ``u a b``; vertices not listed default to a = b = 0
  cells    lines ``i j`` with integer coordinates

Exit codes: 0 success with stable output, 1 infeasible or no-partition
outcome, 2 input error (one machine-parsable JSON line on stderr).

``geometry`` and ``oracle`` are imported inside the subcommands that use
them, so ``solve`` and ``verify`` load neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DegsplitError, SolverError
from .graph import Demands, LoopMode, WeightedGraph, build_graph
from .solver import DEFAULT_MAX_MOVES, Partition, solve, verify_partition

EXIT_OK = 0
EXIT_NO_PARTITION = 1
EXIT_INPUT = 2
# pixels per grid cell in a squares SVG
_SVG_SCALE = 20


class InputError(DegsplitError):
    """A malformed or unreadable input file or flag value."""


def _error_line(name: str, message: str) -> str:
    return json.dumps({"error": name, "message": message}) + "\n"


class _Parser(argparse.ArgumentParser):
    # a usage error is an input error: exit 2 with one JSON line on stderr
    # instead of argparse's usage text
    def error(self, message):
        self.exit(EXIT_INPUT, _error_line("InputError", f"{self.prog}: {message}"))


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    out = []
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            out.append((lineno, text))
    return out


def parse_graph_file(path, loop_mode: LoopMode) -> WeightedGraph:
    edges = []
    for lineno, text in _read_lines(path):
        parts = text.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u v w'")
        u, v, w_text = parts
        try:
            w = float(w_text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad weight {w_text!r}") from None
        edges.append((u, v, w))
    if not edges:
        raise InputError(f"{path}: no edges")
    return build_graph(edges, loop_mode)


def parse_demands_file(path, graph: WeightedGraph) -> Demands:
    a = [0.0] * graph.n
    b = [0.0] * graph.n
    seen = set()
    for lineno, text in _read_lines(path):
        parts = text.split()
        if len(parts) != 3:
            raise InputError(f"{path}:{lineno}: expected 'u a b'")
        label, a_text, b_text = parts
        if label not in graph.label_index:
            raise InputError(f"{path}:{lineno}: unknown vertex {label!r}")
        if label in seen:
            raise InputError(f"{path}:{lineno}: vertex {label!r} listed twice")
        seen.add(label)
        x = graph.label_index[label]
        try:
            a[x] = float(a_text)
            b[x] = float(b_text)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad demand value") from None
    try:
        return Demands(tuple(a), tuple(b))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def parse_cells_file(path) -> list[tuple[int, int]]:
    cells = []
    for lineno, text in _read_lines(path):
        parts = text.split()
        if len(parts) != 2:
            raise InputError(f"{path}:{lineno}: expected 'i j'")
        try:
            cells.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InputError(f"{path}:{lineno}: cell coordinates must be integers") from None
    if not cells:
        raise InputError(f"{path}: no cells")
    return cells


def parse_partition_file(path, graph: WeightedGraph) -> Partition:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not (isinstance(payload, dict) and all(isinstance(payload.get(k), list) for k in "AB")):
        raise InputError(f"{path}: expected an object with 'A' and 'B' label lists")
    try:
        side_a = [graph.label_index[str(u)] for u in payload["A"]]
        side_b = [graph.label_index[str(u)] for u in payload["B"]]
    except KeyError as exc:
        raise InputError(f"{path}: unknown vertex {exc}") from exc
    missing = set(range(graph.n)).difference(side_a, side_b)
    if missing:
        raise InputError(f"{path}: vertex {str(graph.labels[min(missing)])!r} is on neither side")
    try:
        return Partition(frozenset(side_a), frozenset(side_b))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def format_graph_file(graph: WeightedGraph) -> str:
    """Canonical graph text: loops then edges, each line ``u v w`` with the
    endpoint labels sorted, lines sorted, weights in shortest repr."""
    lines = []
    for x in range(graph.n):
        if graph.loops[x] > 0.0:
            label = str(graph.labels[x])
            lines.append((label, label, graph.loops[x]))
    for x in range(graph.n):
        for y, w in graph.adjacency[x]:
            if x < y:
                u, v = str(graph.labels[x]), str(graph.labels[y])
                if v < u:
                    u, v = v, u
                lines.append((u, v, w))
    lines.sort()
    return "".join(f"{u} {v} {w!r}\n" for u, v, w in lines)


def format_demands_file(graph: WeightedGraph, demands: Demands) -> str:
    """Demand lines of the vertices a graph file names: those with an edge
    or a loop."""
    lines = sorted(
        (str(graph.labels[x]), demands.a[x], demands.b[x])
        for x in range(graph.n)
        if graph.adjacency[x] or graph.loops[x] > 0.0
    )
    return "".join(f"{u} {a!r} {b!r}\n" for u, a, b in lines)


def _write_text(path, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _labels(graph: WeightedGraph, members) -> list[str]:
    return [str(graph.labels[x]) for x in sorted(members)]


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and all(not isinstance(v, (list, dict)) for v in value):
            sys.stdout.write(f"{key}: {' '.join(str(v) for v in value)}\n")
        else:
            sys.stdout.write(f"{key}: {value}\n")


def _violation_payload(graph, violations):
    return [
        {
            "vertex": str(graph.labels[v.vertex]),
            "side": v.side,
            "degree": v.degree,
            "demand": v.demand,
        }
        for v in violations
    ]


def render_squares_svg(path, instance, side_a, show_circle=None):
    """One unit rect per cell, ``_SVG_SCALE`` pixels wide: side A
    ``#1f77b4``, side B ``#ff7f0e``, 1px grid stroke; optionally overlay the
    radius-r circle of one cell."""
    cells, r, scale = instance.cells, instance.r, _SVG_SCALE
    in_a = set(side_a)
    min_i = min(i for i, _ in cells)
    max_i = max(i for i, _ in cells)
    min_j = min(j for _, j in cells)
    max_j = max(j for _, j in cells)
    pad = math.ceil(r) + 1 if show_circle else 1
    width = (max_i - min_i + 1 + 2 * pad) * scale
    height = (max_j - min_j + 1 + 2 * pad) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
    ]
    for i, j in cells:
        x = (i - min_i + pad) * scale
        y = (max_j - j + pad) * scale
        fill = "#1f77b4" if (i, j) in in_a else "#ff7f0e"
        parts.append(
            f'<rect x="{x}" y="{y}" width="{scale}" height="{scale}" '
            f'fill="{fill}" stroke="#000000" stroke-width="1"/>'
        )
    if show_circle is not None:
        ci, cj = show_circle
        cx = (ci - min_i + pad + 0.5) * scale
        cy = (max_j - cj + pad + 0.5) * scale
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{r * scale}" '
            'fill="none" stroke="#555555" stroke-width="1"/>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _cmd_solve(args) -> int:
    graph = parse_graph_file(args.graph, args.loop_mode)
    demands = parse_demands_file(args.demands, graph)
    # solve returns only partitions that pass its exact gate
    partition, cert = solve(graph, demands, max_moves=args.max_moves)
    payload = {
        "A": _labels(graph, partition.a),
        "B": _labels(graph, partition.b),
        # JSON has no infinity: an h that overflowed is written as null
        "h_trace": [h if math.isfinite(h) else None for h in cert.h_trace],
        "moves": len(cert.moves),
        "violations": [],
        "feasible": cert.feasibility.feasible,
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracle import brute_force_solve

    graph = parse_graph_file(args.graph, args.loop_mode)
    demands = parse_demands_file(args.demands, graph)
    result = brute_force_solve(graph, demands)
    payload = {"exists": result.exists, "count": result.count}
    if result.witness is not None:
        payload["witness"] = {
            "A": _labels(graph, result.witness.a),
            "B": _labels(graph, result.witness.b),
        }
    else:
        payload["witness"] = None
    _emit(payload, args.format)
    return EXIT_OK if result.exists else EXIT_NO_PARTITION


def _cmd_verify(args) -> int:
    graph = parse_graph_file(args.graph, args.loop_mode)
    demands = parse_demands_file(args.demands, graph)
    partition = parse_partition_file(args.partition, graph)
    violations = verify_partition(graph, demands, partition, tol=args.tolerance)
    payload = {
        "stable": not violations,
        "violations": _violation_payload(graph, violations),
    }
    _emit(payload, args.format)
    return EXIT_OK if not violations else EXIT_NO_PARTITION


def _cmd_squares(args) -> int:
    from .geometry import DemandScheme, GridInstance, solve_squares

    cells = parse_cells_file(args.cells)
    show = None
    if args.show_circle is not None:
        if not args.svg:
            raise InputError("--show-circle needs --svg")
        try:
            ci, cj = (int(p) for p in args.show_circle.split(","))
        except ValueError:
            raise InputError("--show-circle expects 'i,j'") from None
        show = (ci, cj)
    instance = GridInstance(tuple(cells), args.radius)
    result = solve_squares(
        instance, DemandScheme(args.scheme), loop_mode=args.loop_mode, max_moves=args.max_moves
    )
    payload = {
        "A": [list(c) for c in result.side_a],
        "B": [list(c) for c in result.side_b],
        "margins": [[i, j, result.margins[(i, j)]] for i, j in instance.cells],
        "strict_majority_cells": result.strict_majority_cells,
        "precondition_ok": result.precondition_ok,
        "moves": len(result.certificate.moves),
    }
    if args.svg:
        render_squares_svg(args.svg, instance, result.side_a, show)
        payload["svg"] = args.svg
    _emit(payload, args.format)
    return EXIT_OK


_NO_EDGE = "no edge was drawn; raise --edge-probability or --n"


def _cmd_gen(args) -> int:
    from .oracle import random_feasible_instance

    # no coin can come up at p = 0, so fail before drawing n^2 / 2 of them
    if args.edge_probability == 0.0:
        raise InputError(_NO_EDGE)
    graph, demands = random_feasible_instance(
        args.n,
        args.edge_probability,
        (args.weight_min, args.weight_max),
        args.seed,
    )
    edge_count = sum(len(row) for row in graph.adjacency) // 2
    if not edge_count:
        # a graph file without lines cannot be read back
        raise InputError(_NO_EDGE)
    _write_text(args.out_graph, format_graph_file(graph))
    _write_text(args.out_demands, format_demands_file(graph, demands))
    _emit(
        {
            "graph": args.out_graph,
            "demands": args.out_demands,
            "n": graph.n,
            "edges": edge_count,
        },
        args.format,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degsplit",
        description="Split a weighted graph into two sides meeting degree demands.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help_text, graph_files=True, loop_mode=True, max_moves=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if graph_files:
            p.add_argument("--graph", required=True, help="edge list file")
            p.add_argument("--demands", required=True, help="demands file")
        if loop_mode:
            p.add_argument(
                "--loop-mode",
                dest="loop_mode",
                type=LoopMode,
                default=LoopMode.DOUBLE,
                metavar="once|double",
                help="loop degree convention (default: double)",
            )
        if max_moves:
            p.add_argument(
                "--max-moves", dest="max_moves", type=int, default=DEFAULT_MAX_MOVES,
                help=f"hill-climb move cap (default: {DEFAULT_MAX_MOVES})",
            )
        return p

    subcommand("solve", _cmd_solve, "compute a stable partition", max_moves=True)
    subcommand("oracle", _cmd_oracle, "brute-force stable-partition existence")

    p_verify = subcommand("verify", _cmd_verify, "check a partition against demands")
    p_verify.add_argument("--partition", required=True, help="JSON file with A/B label lists")
    p_verify.add_argument(
        "--tolerance", type=float, default=0.0,
        help="report only misses larger than this (default: 0)",
    )

    p_squares = subcommand(
        "squares", _cmd_squares, "two-color grid cells", graph_files=False, max_moves=True
    )
    p_squares.add_argument("--cells", required=True, help="cell list file")
    p_squares.add_argument("--radius", type=float, required=True)
    p_squares.add_argument("--scheme", choices=("half-degree", "physical"), default="half-degree")
    p_squares.add_argument("--svg", help="write an SVG rendering here")
    p_squares.add_argument("--show-circle", dest="show_circle", help="overlay circle at cell 'i,j'")

    p_gen = subcommand(
        "gen", _cmd_gen, "generate a random feasible instance",
        graph_files=False, loop_mode=False,
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--edge-probability", dest="edge_probability", type=float, default=0.5)
    p_gen.add_argument("--weight-min", dest="weight_min", type=float, default=0.5)
    p_gen.add_argument("--weight-max", dest="weight_max", type=float, default=1.0)
    p_gen.add_argument("--out-graph", dest="out_graph", required=True)
    p_gen.add_argument("--out-demands", dest="out_demands", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, args.format)
        return EXIT_NO_PARTITION
    except (DegsplitError, ValueError) as exc:
        # library calls reject bad flag values with ValueError
        name = type(exc).__name__ if isinstance(exc, DegsplitError) else "InputError"
        sys.stderr.write(_error_line(name, str(exc)))
        return EXIT_INPUT

if __name__ == "__main__":
    raise SystemExit(main())
