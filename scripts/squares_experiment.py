#!/usr/bin/env python3
"""Two-color a rectangular grid of unit squares so that each cell's radius-r
disk keeps most of its covered area on its own side, then summarize the
physical margins for both demand schemes.  ``--loop-mode`` applies to the
half-degree scheme; the physical scheme is half-degree under ONCE loops.

Example:
    python scripts/squares_experiment.py --width 10 --height 10 --radius 2.1 \
        --svg grid.svg
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degsplit import DemandScheme, GridInstance, LoopMode, SolverError, solve_squares  # noqa: E402
from degsplit.cli import render_squares_svg  # noqa: E402


def summarize(tag, result):
    margins = sorted(result.margins.values())
    n = len(margins)
    print(f"  [{tag}] sides {len(result.side_a)}/{len(result.side_b)}, "
          f"moves {len(result.certificate.moves)}, "
          f"precondition_ok {result.precondition_ok}")
    print(f"  [{tag}] margin min {margins[0]:+.4f}  median {margins[n // 2]:+.4f}  "
          f"max {margins[-1]:+.4f}")
    print(f"  [{tag}] strict physical majority at {result.strict_majority_cells}/{n} cells")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--width", type=int, default=10)
    parser.add_argument("--height", type=int, default=10)
    parser.add_argument("--radius", type=float, default=2.1)
    parser.add_argument("--loop-mode", choices=("once", "double"), default="double",
                        help="loop mode of the half-degree solve (default: double)")
    parser.add_argument("--svg", help="write the half-degree coloring here")
    args = parser.parse_args()

    mode = LoopMode.ONCE if args.loop_mode == "once" else LoopMode.DOUBLE
    instance = GridInstance.rectangle(args.width, args.height, args.radius)
    print(f"{args.width}x{args.height} grid, r={args.radius}, loop mode {mode.value}")

    result = solve_squares(instance, DemandScheme.HALF_DEGREE, loop_mode=mode)
    summarize("half-degree", result)
    if args.svg:
        render_squares_svg(args.svg, instance, result.side_a)
        print(f"  [half-degree] wrote {args.svg}")

    try:
        physical = solve_squares(instance, DemandScheme.PHYSICAL_MAJORITY, max_moves=500_000)
    except SolverError as exc:
        print(f"  [physical] solver gave up: {type(exc).__name__}: {exc}")
        print("  [physical] (expected: this scheme is outside the guarantee zone)")
        return 1
    print("  [physical] half-degree demands under loop mode once")
    summarize("physical", physical)
    return 0


if __name__ == "__main__":
    sys.exit(main())
