"""degsplit: split a weighted graph into two sides that each meet per-vertex
degree demands, with verifiable certificates, a brute-force oracle, and a
grid-squares geometric application.

Each public name is loaded on first use (PEP 562), from the module that
defines it, so ``import degsplit`` loads no submodule and a caller pays only
for the modules it uses: the solver never loads ``geometry`` or ``oracle``.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "errors": (
        "CompletionAssertFailedError", "DegsplitError", "DuplicateEdgeError",
        "GenerationFailedError", "MoveLimitExceededError", "NonImprovingMoveError",
        "NonPositiveWeightError", "NoSatisfyingSetError", "PartitionCollapseError",
        "SingleVertexGraphError", "SolverError", "TooFewCellsError", "TooLargeError",
        "UnstablePartitionError",
    ),
    "graph": ("Demands", "LoopMode", "WeightedGraph", "build_graph"),
    "core": ("minimal_satisfying_set", "peel"),
    "solver": (
        "DEFAULT_MAX_MOVES", "FeasibilityReport", "Move", "Partition", "SolveCertificate",
        "Violation", "check_feasibility", "find_stable_pair", "solve", "verify_partition",
    ),
    "oracle": ("OracleResult", "brute_force_solve", "random_feasible_instance"),
    "geometry": (
        "DemandScheme", "GridInstance", "SquaresResult", "build_grid_graph",
        "circle_square_area", "solve_squares", "squares_demands",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    # a module name resolves to the submodule, so ``degsplit.graph`` works
    # after a bare ``import degsplit``; importing it binds it here
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
