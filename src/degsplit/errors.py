"""Exception types shared across the package."""


class DegsplitError(Exception):
    """Base class for all package-specific errors."""


class DuplicateEdgeError(DegsplitError):
    """An edge (or loop) was listed more than once, in either orientation."""


class NonPositiveWeightError(DegsplitError):
    """An edge weight was zero, negative, or not a number."""


class SolverError(DegsplitError):
    """Base class for failures of the decomposition solver."""


class NoSatisfyingSetError(SolverError):
    """No non-empty vertex set meets the requested degree demands."""


class SingleVertexGraphError(SolverError):
    """Partitioning needs at least two vertices."""


class MoveLimitExceededError(SolverError):
    """The hill-climb hit its move cap without producing a stable pair."""


class PartitionCollapseError(SolverError):
    """A move or setup step would leave one side of the partition empty."""


class NonImprovingMoveError(SolverError):
    """A hill-climb move failed to increase the potential, which cannot
    happen while the degree precondition holds."""


class CompletionAssertFailedError(SolverError):
    """A vertex that completion added to side A misses its a-demand there,
    so it meets neither side's demand."""


class UnstablePartitionError(SolverError):
    """Final verification rejected the computed partition."""


class TooLargeError(DegsplitError):
    """Instance exceeds the brute-force enumeration cap."""


class GenerationFailedError(DegsplitError):
    """Random instance generation could not reach non-negative degree slack."""


class TooFewCellsError(DegsplitError):
    """A grid instance needs at least two cells."""
