"""Decomposition solver.

Given per-vertex demand pairs (a, b), find a partition (A, B) of the vertex
set such that every A-vertex has induced degree >= a inside A and every
B-vertex induced degree >= b inside B.  Success is guaranteed whenever the
degree slack d(x) - a(x) - b(x) - 2W(x) that check_feasibility reports is
non-negative everywhere; the solver may still succeed without it but will
raise a diagnosable error rather than return an unstable partition.

The search runs in four phases.  First take an inclusion-minimal set A whose
members meet their a-demands, with B the rest.  Second, if B's own b-core is
non-empty, it and A are already a stable pair.  Otherwise hill-climb:
repeatedly move a witness vertex (one whose current side cannot keep it at
demand + W) across the split.  Every accepted move strictly increases the
potential h, so no split repeats and the climb terminates.  Last, complete
the stable pair (Abar, Bbar): B is the b-core of everything outside Abar,
which holds Bbar, and A is the rest.  After the second phase everything
outside Abar is B itself and Bbar is its core, so no peel runs.  Completion
checks nothing itself: the exact gate that ends ``solve`` sums every
vertex's degree on its side, and raises CompletionAssertFailedError on the
lowest vertex that completion added to A and that misses its a-demand there.
The gate, like ``verify_partition``, marks side A once in a list of flags
and sums each row's same-side weights in ascending order, loop term last,
with no set lookup per edge: the package's one public side degree.

On h: the value counts each internal edge twice (once per endpoint) and the
cross demand terms twice as well: both sides' induced degrees plus 2b over A
and 2a over B.  A move of vertex v changes h by exactly
2 * (new-side degree - old-side degree + demand swap), which is strictly
positive whenever the slack condition holds at v.  The starting h is summed
from the sides' freshly seeded degrees in ascending index, A's then B's, then
the demand terms in the same order, so it is the fresh recomputation's value
bit for bit.  Certificates carry a cumulative h trace
built from the per-move gains; it matches a fresh recomputation to float
accuracy and is strictly increasing by construction.  The certificate stores
only the starting h; the trace is derived from it and each move's h_after.

Loops are searched as given.  A loop w_xx adds s = factor * w_xx to x's
degree on either side; write Sigma = d - s.  The loop-reduced instance drops
every loop and lowers x's demands to max(0, a - s) and max(0, b - s); a
partition stable there is stable here, since the loop stays on x's side.
check_feasibility reports the reduced instance's slack,
Sigma - max(0, a - s) - max(0, b - s) - 2W, so Sigma + 2s - a - b - 2W is at
least that slack.  The proof's bounds hold with it: a witness move gains more
than twice it, and a vertex that completion adds to A exceeds its a-demand
there by more than it plus 2W.  By the reduced slack, every vertex keeps
d - W >= a in V - v, so the minimal set is never all of V.  Where no demand
is clamped at zero, both sides of every comparison shift by s, so the search
decides as it does on the loop-reduced instance.

Each side of the climb is a kept set from the core module, which holds the
side's kept degrees and core across moves, and makes every decision that
rests on rounding: the witness's exact margins and the gain's tie bound.
The move's degrees and gain are exact sums, so the moves and h values are
those of a climb that re-peels and re-sums everything.
"""

from __future__ import annotations

from typing import Iterable

from .core import _KeptSet, minimal_satisfying_set, peel
from .errors import (
    CompletionAssertFailedError,
    MoveLimitExceededError,
    NonImprovingMoveError,
    PartitionCollapseError,
    SingleVertexGraphError,
    UnstablePartitionError,
)
from .graph import Demands, WeightedGraph
from .value import Value

DEFAULT_MAX_MOVES = 1_000_000

PHASE_FEASIBILITY = "FEASIBILITY"
PHASE_MINIMAL_SET = "MINIMAL_SET"
PHASE_CASE1_CORE = "CASE1_CORE"
PHASE_HILLCLIMB = "HILLCLIMB"
PHASE_COMPLETION = "COMPLETION"


class Partition(Value):
    """Two disjoint non-empty sides covering vertices 0..n-1 exactly."""

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        a, b = frozenset(a), frozenset(b)
        if not a or not b:
            raise ValueError("both sides must be non-empty")
        if a & b:
            raise ValueError("sides overlap")
        if a | b != frozenset(range(len(a) + len(b))):
            raise ValueError("sides must cover vertex indices 0..n-1 exactly")
        super().__init__(a, b)

    @property
    def n(self) -> int:
        return len(self.a) + len(self.b)


class FeasibilityReport(Value):
    """Per-vertex slack of the degree precondition; a negative entry marks a
    vertex where the success guarantee does not apply."""

    __slots__ = ("slack", "violations", "feasible")


class Violation(Value):
    __slots__ = ("vertex", "side", "degree", "demand")


class Move(Value):
    __slots__ = ("vertex", "from_side", "to_side", "h_before", "h_after")


class SolveCertificate(Value):
    """Trace of a solver run: phases, hill-climb moves with h values, the
    stable pair found before completion, and final per-vertex slacks.  The
    solver fills it in as it runs, so its fields can be assigned and it has
    no hash."""

    __slots__ = (
        "phase_log", "moves", "h_start", "hillclimb_start", "stable_pair", "verification",
        "feasibility",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        phase_log: list[str] | None = None,
        moves: list[Move] | None = None,
        h_start: float | None = None,
        hillclimb_start: tuple[frozenset[int], frozenset[int]] | None = None,
        stable_pair: tuple[frozenset[int], frozenset[int]] | None = None,
        verification: list[float] | None = None,
        feasibility: FeasibilityReport | None = None,
    ):
        super().__init__(
            [] if phase_log is None else phase_log,
            [] if moves is None else moves,
            h_start, hillclimb_start, stable_pair, verification, feasibility,
        )

    @property
    def h_trace(self) -> tuple[float, ...]:
        """h at the climb's start and after each move; empty when the
        solver did not climb."""
        if self.h_start is None:
            return ()
        return (self.h_start, *(move.h_after for move in self.moves))


def _require_matching(graph: WeightedGraph, demands: Demands) -> None:
    if len(demands) != graph.n:
        raise ValueError(f"expected demands for {graph.n} vertices, got {len(demands)}")


def _active(graph: WeightedGraph, demands: Demands, max_moves: int) -> frozenset[int]:
    """The vertices of positive degree, once the demands match the graph and
    ``max_moves`` is at least 1: the entry checks of ``solve`` and
    ``find_stable_pair``."""
    _require_matching(graph, demands)
    if max_moves < 1:
        raise ValueError("max_moves must be at least 1")
    return frozenset(x for x in range(graph.n) if graph.d[x] > 0.0)


def check_feasibility(graph: WeightedGraph, demands: Demands) -> FeasibilityReport:
    """Per-vertex slack d - a - b - 2W of the loop-reduced instance.

    That instance drops each loop and lowers both demands by the loop's
    degree share s (2*w_xx under DOUBLE, w_xx under ONCE), clamped at zero:
    max(0, a - s) and max(0, b - s).  So at a vertex with a loop the slack
    is the plain one plus s, minus the part of s each clamp kept out of its
    demand.  Cancelling the original demands against the original degree
    first keeps zero slack exact; the naive order loses a few ulps there.
    Reporting only; nothing is enforced.
    """
    _require_matching(graph, demands)
    slack = []
    for x in range(graph.n):
        a, b = demands.a[x], demands.b[x]
        s = graph.d[x] - a - b - 2.0 * graph.W[x]
        share = graph.loop_term[x]
        if share:
            s += share
            s -= max(0.0, share - a)
            s -= max(0.0, share - b)
        slack.append(s)
    violations = tuple(x for x, s in enumerate(slack) if s < 0.0)
    return FeasibilityReport(tuple(slack), violations, not violations)


def _candidate(src, dst, target):
    """Best witness move out of ``src`` as (gain, vertex, its induced degree
    in ``dst``, src, dst), or None if no vertex violates the ``target``
    (demand + W) bound there, or the side would empty."""
    if src.size < 2:
        return None
    found = src.witness(target)
    if found is None:
        return None
    v, d_old = found
    d_new = dst.exact(v)
    swap = src.thresholds[v] - dst.thresholds[v]
    return 2.0 * (d_new - d_old + swap), v, d_new, src, dst


def find_stable_pair(
    graph: WeightedGraph,
    demands: Demands,
    max_moves: int = DEFAULT_MAX_MOVES,
) -> tuple[frozenset[int], frozenset[int], SolveCertificate]:
    """Disjoint non-empty sets (Abar, Bbar) with every Abar-vertex meeting
    its a-demand inside Abar and every Bbar-vertex its b-demand inside Bbar.

    Zero-degree vertices are set aside first (a pair need not cover them).
    The pair is the minimal set A and B's b-core when that core is non-empty;
    otherwise the hill-climb starts from A and B.  Raises
    MoveLimitExceededError, PartitionCollapseError or NonImprovingMoveError
    when the search cannot finish; all three are only reachable when the
    degree precondition fails.
    """
    active = _active(graph, demands, max_moves)
    cert = SolveCertificate()
    if len(active) < 2:
        raise PartitionCollapseError("need at least two vertices of positive degree")
    a_dem, b_dem = demands.a, demands.b

    cert.phase_log.append(PHASE_MINIMAL_SET)
    side_a = minimal_satisfying_set(graph, a_dem, within=active)
    side_b = active - side_a
    if not side_b:
        raise PartitionCollapseError("every active vertex is needed to meet the a-demands")

    cert.phase_log.append(PHASE_CASE1_CORE)
    sb = _KeptSet(graph, side_b, b_dem)
    if sb.core:
        cert.stable_pair = (side_a, sb.core)
        return side_a, sb.core, cert

    cert.phase_log.append(PHASE_HILLCLIMB)
    cert.hillclimb_start = (side_a, side_b)
    sa = _KeptSet(graph, side_a, a_dem)
    strong_a = [a + w for a, w in zip(a_dem, graph.W)]
    strong_b = [b + w for b, w in zip(b_dem, graph.W)]
    order_a, order_b = sorted(side_a), sorted(side_b)
    # a banded row's seed is not the exact sum; an exact row's is
    band = graph.band
    h = 0.0
    for x in order_a:
        h += sa.exact(x) if band[x] else sa.deg[x]
    for x in order_b:
        h += sb.exact(x) if band[x] else sb.deg[x]
    for x in order_a:
        h += 2.0 * b_dem[x]
    for x in order_b:
        h += 2.0 * a_dem[x]
    cert.h_start = h
    for _ in range(max_moves):
        if sa.core and sb.core:
            cert.stable_pair = (sa.core, sb.core)
            return sa.core, sb.core, cert

        # the side holding a core gives first; with both cores empty, the
        # larger gain moves and ties prefer B -> A
        if sb.core:
            move = _candidate(sb, sa, strong_b) or _candidate(sa, sb, strong_a)
        elif sa.core:
            move = _candidate(sa, sb, strong_a) or _candidate(sb, sa, strong_b)
        else:
            to_a, to_b = _candidate(sb, sa, strong_b), _candidate(sa, sb, strong_a)
            if to_a and to_b:
                move = to_a if to_a[0] >= to_b[0] else to_b
            else:
                move = to_a or to_b
        if move is None:
            raise PartitionCollapseError("no witness vertex can move without emptying a side")
        gain, v, d_new, src, dst = move
        names = ("A", "B") if src is sa else ("B", "A")
        if gain <= 0.0:
            bound = src.tie_bound(dst, v)
            tie = f", a tie within the rounding bound {bound:.3g}" if -gain <= bound else ""
            raise NonImprovingMoveError(
                f"moving vertex {v} {names[0]}->{names[1]} "
                f"gains {gain}{tie}; the degree precondition fails"
            )

        src.remove(v)
        dst.add(v, d_new)
        h_before = h
        h = h + gain
        cert.moves.append(Move(v, *names, h_before, h))

    raise MoveLimitExceededError(f"no stable pair within {max_moves} moves")


def _side_degrees(graph, demands, partition):
    """Each vertex in index order as (vertex, its side's name, its induced
    degree in that side, its demand there)."""
    in_a = [x in partition.a for x in range(graph.n)]
    for x, row in enumerate(graph.adjacency):
        side = in_a[x]
        total = 0.0
        for y, w in row:
            if in_a[y] is side:
                total += w
        total += graph.loop_term[x]
        if side:
            yield x, "A", total, demands.a[x]
        else:
            yield x, "B", total, demands.b[x]


def verify_partition(
    graph: WeightedGraph,
    demands: Demands,
    partition: Partition,
    tol: float = 0.0,
) -> list[Violation]:
    """Every vertex whose same-side induced degree is below its demand - tol.

    Empty list means the partition is stable."""
    _require_matching(graph, demands)
    if partition.n != graph.n:
        raise ValueError("partition does not cover this graph")
    if not tol >= 0.0:
        raise ValueError("tol must be non-negative")
    return [
        Violation(x, side, deg, dem)
        for x, side, deg, dem in _side_degrees(graph, demands, partition)
        if deg < dem - tol
    ]


def _attach_isolated(side_a, side_b, isolated, demands):
    # zero-degree vertices change no induced degree; side A by default,
    # side B when only the b-demand is zero, A again when neither demand is
    # satisfiable (the verification gate reports those)
    for x in isolated:
        if demands.a[x] == 0.0:
            side_a.add(x)
        elif demands.b[x] == 0.0:
            side_b.add(x)
        else:
            side_a.add(x)


def solve(
    graph: WeightedGraph,
    demands: Demands,
    max_moves: int = DEFAULT_MAX_MOVES,
) -> tuple[Partition, SolveCertificate]:
    """Find a stable partition: stable pair, completion, then an exact
    post-hoc verification of both demand families.

    Zero-degree vertices change no induced degree; they are removed up front
    and re-attached afterwards (to side A, or to B when only their b-demand
    is zero).  Never returns an unstable partition: if verification fails,
    which requires an input violating the degree precondition, the solver
    raises CompletionAssertFailedError when a vertex that completion added
    to A misses its a-demand, and UnstablePartitionError otherwise.

    ``certificate.feasibility`` is ``check_feasibility`` of the instance
    given: the slack of the instance with every loop dropped and demands
    max(0, a - s) and max(0, b - s), s = factor * w_xx.  Pass a looped
    instance as it is; building that loopless instance first and checking it
    can round the slack below 0 where it is exactly zero.
    """
    if graph.n < 2:
        raise SingleVertexGraphError("no partition exists with fewer than two vertices")
    active = _active(graph, demands, max_moves)
    isolated = sorted(set(range(graph.n)) - active)

    cert = SolveCertificate()
    # the vertices completion adds to A
    grown = frozenset()
    if len(active) >= 2:
        abar, bbar, cert = find_stable_pair(graph, demands, max_moves)
        cert.phase_log.append(PHASE_COMPLETION)
        # B is the b-core of everything outside Abar, which holds Bbar; a
        # case-1 pair is the minimal set and the b-core of the rest of
        # ``active``, so there Bbar is that core
        if cert.hillclimb_start is None:
            side_b = set(bbar)
        else:
            side_b = set(peel(graph, active - abar, demands.b))
        side_a = set(active - side_b)
        grown = side_a - abar
        _attach_isolated(side_a, side_b, isolated, demands)
    elif len(active) == 1:
        side_a, side_b = set(active), set()
        _attach_isolated(side_a, side_b, isolated, demands)
        if not side_b:
            # keep both sides non-empty: move whichever vertex can meet its
            # b-demand alone; no vertex here has an edge, so that degree is d
            mover = min(side_a, key=lambda x: (graph.d[x] < demands.b[x], x))
            side_a.discard(mover)
            side_b.add(mover)
    else:
        side_a, side_b = {0}, set(range(1, graph.n))

    cert.phase_log.insert(0, PHASE_FEASIBILITY)
    cert.feasibility = check_feasibility(graph, demands)
    partition = Partition(frozenset(side_a), frozenset(side_b))
    slacks = [deg - dem for _, _, deg, dem in _side_degrees(graph, demands, partition)]
    cert.verification = slacks

    # the exact gate: with finite doubles deg - dem < 0 exactly when
    # deg < dem, the test verify_partition makes at tol = 0
    misses = [x for x, s in enumerate(slacks) if s < 0.0]
    for x in misses:
        if x in grown:
            raise CompletionAssertFailedError(
                f"vertex {x} meets neither side's demand; the degree precondition fails"
            )
    if misses:
        raise UnstablePartitionError(
            f"{len(misses)} vertices miss their demand; "
            "the input violates the degree precondition"
        )
    return partition, cert
