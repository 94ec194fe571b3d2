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
outside Abar is B itself and Bbar is its core, so no peel runs.

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

The climb keeps each side's induced degrees across moves: a move updates the
moved vertex's neighbours only, and a kept degree is reseeded with the exact
sum after as many updates as the vertex has neighbours, so its drift stays
inside the core module's band.  Cores come from the core module's cascade on
a copy of those degrees, and a move re-peels only what it can change.  A side
that loses a vertex outside its core keeps its core: the core lies in the
smaller side and meets its thresholds there, and it holds every subset that
does.  A side that loses a core vertex is re-peeled whole.  A side that gains
v keeps every vertex of its old core, so the cascade starts from the members
outside the old core only and stops as soon as it deletes v: the new core
then lies in the old side, and so in the old core.  A witness is chosen on
exact margins: every member whose kept margin lies within the band of the
running best (which starts at 0) is recomputed as the exact ascending sum,
so ties still go to the lowest index.  The move's degrees and gain are exact
sums, so the moves and h values are those of a climb that re-peels and
re-sums everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress

from .core import (
    _ROUNDOFF, _bands, _cascade, _exact, _flags, _seed, minimal_satisfying_set, peel
)
from .errors import (
    CompletionAssertFailedError,
    MoveLimitExceededError,
    NonImprovingMoveError,
    PartitionCollapseError,
    SingleVertexGraphError,
    UnstablePartitionError,
)
from .graph import Demands, WeightedGraph, induced_degree, without_loops

DEFAULT_MAX_MOVES = 1_000_000

PHASE_FEASIBILITY = "FEASIBILITY"
PHASE_MINIMAL_SET = "MINIMAL_SET"
PHASE_CASE1_CORE = "CASE1_CORE"
PHASE_HILLCLIMB = "HILLCLIMB"
PHASE_COMPLETION = "COMPLETION"


@dataclass(frozen=True)
class Partition:
    """Two disjoint non-empty sides covering vertices 0..n-1 exactly."""

    a: frozenset[int]
    b: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "a", frozenset(self.a))
        object.__setattr__(self, "b", frozenset(self.b))
        if not self.a or not self.b:
            raise ValueError("both sides must be non-empty")
        if self.a & self.b:
            raise ValueError("sides overlap")
        n = len(self.a) + len(self.b)
        if self.a | self.b != frozenset(range(n)):
            raise ValueError("sides must cover vertex indices 0..n-1 exactly")

    @property
    def n(self) -> int:
        return len(self.a) + len(self.b)


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-vertex slack of the degree precondition; a negative entry marks a
    vertex where the success guarantee does not apply."""

    slack: tuple[float, ...]
    violations: tuple[int, ...]
    feasible: bool


@dataclass(frozen=True)
class Violation:
    vertex: int
    side: str
    degree: float
    demand: float


@dataclass(frozen=True)
class Move:
    vertex: int
    from_side: str
    to_side: str
    h_before: float
    h_after: float


@dataclass
class SolveCertificate:
    """Trace of a solver run: phases, hill-climb moves with h values, the
    stable pair found before completion, and final per-vertex slacks."""

    phase_log: list[str] = field(default_factory=list)
    moves: list[Move] = field(default_factory=list)
    h_start: float | None = None
    hillclimb_start: tuple[frozenset[int], frozenset[int]] | None = None
    stable_pair: tuple[frozenset[int], frozenset[int]] | None = None
    verification: list[float] | None = None
    feasibility: FeasibilityReport | None = None

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


def check_feasibility(graph: WeightedGraph, demands: Demands) -> FeasibilityReport:
    """Per-vertex slack d - a - b - 2W of the loop-reduced instance.

    reduce_loops strips each loop and lowers both demands by its degree
    share (2*w_xx under DOUBLE, w_xx under ONCE), clamped at zero.  So at a
    vertex with a loop the slack is the plain one plus the share, minus the
    part of the share each clamp kept out of its demand.  Cancelling the
    original demands against the original degree first keeps zero slack
    exact; the naive order loses a few ulps there.  Reporting only; nothing
    is enforced.
    """
    _require_matching(graph, demands)
    factor = graph.loop_mode.factor
    slack = []
    for x in range(graph.n):
        a, b = demands.a[x], demands.b[x]
        s = graph.d[x] - a - b - 2.0 * graph.W[x]
        if graph.loops[x]:
            share = factor * graph.loops[x]
            s += share
            s -= max(0.0, share - a)
            s -= max(0.0, share - b)
        slack.append(s)
    violations = tuple(x for x, s in enumerate(slack) if s < 0.0)
    return FeasibilityReport(tuple(slack), violations, not violations)


class _Side:
    """One side of the hill-climb: its name, its members, each member's
    induced degree kept across moves, and the core of the side.

    The state is the core module's: ``flags``, a bytearray marking the
    members, and ``deg``, a list of kept degrees indexed by vertex whose
    entries for other vertices are never read.  ``members`` holds the same
    vertices as a set, for the cascade's start lists and the side's size;
    every membership test reads the flags.  ``band`` is shared by both
    sides of a climb.

    A move updates only the moved vertex's neighbours.  A kept degree drifts
    by one rounding per update, so after len(adjacency[x]) updates it is
    reseeded with the exact sum; the core module's band covers the rest.
    ``core`` is always the side's core, and each re-peel cascades on copies
    of the flags and kept degrees (two flat copies), so a cascade adds at
    most len(adjacency[x]) subtractions.  Removing a vertex outside the core
    leaves the core as it is: the core lies in the smaller side and meets
    its thresholds there.  Removing a core vertex re-peels the whole side.
    Adding v cascades from the members outside the old core only, since the
    new core contains the old one, and keeps the old core once v is deleted,
    since the new core then lies in the old side.
    """

    def __init__(self, graph, name, members, demand, band):
        self.graph = graph
        self.name = name
        self.demand = demand
        self.strong = [demand[x] + graph.W[x] for x in range(graph.n)]
        self.band = band
        # flags the vertex whose deletion ends a cascade: the one just added
        self.stop = bytearray(graph.n)
        self.members = set(members)
        self.flags = _flags(graph, self.members)
        self.deg = _seed(graph, self.flags)
        self.updates = [0] * graph.n
        self._peel(self.members)

    def _peel(self, start) -> None:
        # cascade from the members in ``start`` on copies of the flags and
        # degrees; the survivors become the core unless the cascade deletes
        # a flagged vertex
        flags = bytearray(self.flags)
        if _cascade(
            self.graph, flags, list(self.deg), self.demand, self.band, self.stop, list(start), []
        ):
            self.core = frozenset(compress(range(self.graph.n), flags))

    def _update(self, v, sign) -> None:
        graph, flags, deg, updates = self.graph, self.flags, self.deg, self.updates
        adjacency = graph.adjacency
        for y, w in adjacency[v]:
            if flags[y]:
                deg[y] += sign * w
                updates[y] += 1
                if updates[y] >= len(adjacency[y]):
                    deg[y] = _exact(graph, flags, y)
                    updates[y] = 0

    def add(self, v, degree) -> None:
        """Insert v, whose exact induced degree in the grown side is
        ``degree``."""
        self.members.add(v)
        self.flags[v] = 1
        self._update(v, 1.0)
        self.deg[v] = degree
        self.updates[v] = 0
        self.stop[v] = 1
        self._peel(self.members - self.core)
        self.stop[v] = 0

    def remove(self, v) -> None:
        self.members.remove(v)
        self.flags[v] = 0
        self._update(v, -1.0)
        if v in self.core:
            self._peel(self.members)

    def witness(self) -> tuple[int, float] | None:
        """The member of largest margin demand + W - degree, lowest index
        first, with its exact degree; None if no margin is positive.

        The members are scanned in ascending index along the flags.  A kept
        margin may round differently from the exact one, so every member
        that could beat the running best (which starts at 0) is recomputed
        as the exact sum: the margins compared are the exact ones, and so is
        the witness.
        """
        graph, flags, deg, strong, band = self.graph, self.flags, self.deg, self.strong, self.band
        best, found = 0.0, None
        for x in compress(range(graph.n), flags):
            approx = strong[x] - deg[x]
            # |approx - exact margin| < 2 (band + 2^-52 |approx|): the degree
            # band plus one rounding of each subtraction
            if approx < best - 2.0 * (band[x] + 2.0 * _ROUNDOFF * abs(approx)):
                continue
            degree = _exact(graph, flags, x)
            margin = strong[x] - degree
            if margin > best:
                best, found = margin, (x, degree)
        return found


def _candidate(graph, src, dst):
    """Best witness move out of ``src`` as (gain, vertex, its induced degree
    in ``dst``, src, dst), or None if no vertex violates the demand + W
    bound there (or the side would empty)."""
    if len(src.members) < 2:
        return None
    found = src.witness()
    if found is None:
        return None
    v, d_old = found
    # v's degree in dst + {v}: _exact does not test v's own flag
    d_new = _exact(graph, dst.flags, v)
    swap = src.demand[v] - dst.demand[v]
    return 2.0 * (d_new - d_old + swap), v, d_new, src, dst


def find_stable_pair(
    graph: WeightedGraph,
    demands: Demands,
    max_moves: int = DEFAULT_MAX_MOVES,
    _certificate: SolveCertificate | None = None,
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
    _require_matching(graph, demands)
    if max_moves < 1:
        raise ValueError("max_moves must be at least 1")
    cert = _certificate if _certificate is not None else SolveCertificate()

    active = frozenset(x for x in range(graph.n) if graph.d[x] > 0.0)
    if len(active) < 2:
        raise PartitionCollapseError("need at least two vertices of positive degree")
    a_dem, b_dem = demands.a, demands.b

    cert.phase_log.append(PHASE_MINIMAL_SET)
    side_a = minimal_satisfying_set(graph, a_dem, within=active)
    side_b = active - side_a
    if not side_b:
        raise PartitionCollapseError("every active vertex is needed to meet the a-demands")

    cert.phase_log.append(PHASE_CASE1_CORE)
    band = _bands(graph)
    sb = _Side(graph, "B", side_b, b_dem, band)
    if sb.core:
        cert.stable_pair = (side_a, sb.core)
        return side_a, sb.core, cert

    cert.phase_log.append(PHASE_HILLCLIMB)
    cert.hillclimb_start = (side_a, side_b)
    sa = _Side(graph, "A", side_a, a_dem, band)
    order_a, order_b = sorted(side_a), sorted(side_b)
    h = 0.0
    for x in order_a:
        h += sa.deg[x]
    for x in order_b:
        h += sb.deg[x]
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
            move = _candidate(graph, sb, sa) or _candidate(graph, sa, sb)
        elif sa.core:
            move = _candidate(graph, sa, sb) or _candidate(graph, sb, sa)
        else:
            to_a, to_b = _candidate(graph, sb, sa), _candidate(graph, sa, sb)
            if to_a and to_b:
                move = to_a if to_a[0] >= to_b[0] else to_b
            else:
                move = to_a or to_b
        if move is None:
            raise PartitionCollapseError("no witness vertex can move without emptying a side")
        gain, v, d_new, src, dst = move
        if gain <= 0.0:
            # d_new and d_old are ascending sums of v's row, together within
            # band[v] of the real difference; the demand swap and the total
            # round once each
            bound = 2.0 * (src.band[v] + 2.0 * _ROUNDOFF * (src.demand[v] + dst.demand[v]))
            tie = f", a tie within the rounding bound {bound:.3g}" if -gain <= bound else ""
            raise NonImprovingMoveError(
                f"moving vertex {v} {src.name}->{dst.name} "
                f"gains {gain}{tie}; the degree precondition fails"
            )

        src.remove(v)
        dst.add(v, d_new)
        h_before = h
        h = h + gain
        cert.moves.append(Move(v, src.name, dst.name, h_before, h))

    raise MoveLimitExceededError(f"no stable pair within {max_moves} moves")


def _complete_sets(graph, demands, abar, universe, cert, b_core=None):
    """Extend a stable pair (Abar, Bbar) to a partition of ``universe``: B is
    the b-core of ``universe`` - Abar and A the rest.  Bbar lies in that core,
    since its members meet their b-demands inside it.  ``b_core``, when
    given, is that core already and no peel runs.  Raises
    CompletionAssertFailedError on the lowest vertex that joined A and misses
    its a-demand there."""
    cert.phase_log.append(PHASE_COMPLETION)
    side_b = peel(graph, universe - abar, demands.b) if b_core is None else b_core
    side_a = universe - side_b
    for x in sorted(side_a - abar):
        if induced_degree(graph, side_a, x) < demands.a[x]:
            raise CompletionAssertFailedError(
                f"vertex {x} meets neither side's demand; "
                "the degree precondition fails"
            )
    return side_a, side_b


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
    if tol < 0.0:
        raise ValueError("tol must be non-negative")
    out = []
    for x in range(graph.n):
        if x in partition.a:
            side, members, dem = "A", partition.a, demands.a[x]
        else:
            side, members, dem = "B", partition.b, demands.b[x]
        deg = induced_degree(graph, members, x)
        if deg < dem - tol:
            out.append(Violation(x, side, deg, dem))
    return out


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
    raises UnstablePartitionError instead.

    ``certificate.feasibility`` is ``check_feasibility`` of the instance
    given.  On an instance that ``reduce_loops`` produced, that is the
    reduced instance's own formula, which can round below 0 where the
    slack is exactly zero (-8.9e-16 on the half-degree 10x10 grid at
    r = 2.1); the exact report is ``reduce_loops(...).precondition``.
    """
    if graph.n < 2:
        raise SingleVertexGraphError("no partition exists with fewer than two vertices")
    _require_matching(graph, demands)
    if max_moves < 1:
        raise ValueError("max_moves must be at least 1")

    cert = SolveCertificate()
    cert.phase_log.append(PHASE_FEASIBILITY)
    cert.feasibility = check_feasibility(graph, demands)

    active = frozenset(x for x in range(graph.n) if graph.d[x] > 0.0)
    isolated = sorted(set(range(graph.n)) - active)

    if len(active) >= 2:
        abar, bbar, _ = find_stable_pair(graph, demands, max_moves, _certificate=cert)
        # a case-1 pair is the minimal set and the b-core of the rest of
        # ``active``, so Bbar is the core completion would peel
        b_core = bbar if cert.hillclimb_start is None else None
        raw_a, raw_b = _complete_sets(graph, demands, abar, active, cert, b_core)
        side_a, side_b = set(raw_a), set(raw_b)
        _attach_isolated(side_a, side_b, isolated, demands)
    elif len(active) == 1:
        side_a, side_b = set(active), set()
        _attach_isolated(side_a, side_b, isolated, demands)
        if not side_b:
            # keep both sides non-empty: move whichever vertex can meet its
            # b-demand alone (isolated members leave no degree behind)
            mover = min(
                side_a,
                key=lambda x: (induced_degree(graph, {x}, x) < demands.b[x], x),
            )
            side_a.discard(mover)
            side_b.add(mover)
    else:
        side_a, side_b = {0}, set(range(1, graph.n))

    partition = Partition(frozenset(side_a), frozenset(side_b))
    slacks = []
    for x in range(graph.n):
        members = partition.a if x in partition.a else partition.b
        dem = demands.a[x] if x in partition.a else demands.b[x]
        slacks.append(induced_degree(graph, members, x) - dem)
    cert.verification = slacks

    # the exact gate: with finite doubles deg - dem < 0 exactly when
    # deg < dem, the test verify_partition makes at tol = 0
    misses = sum(1 for s in slacks if s < 0.0)
    if misses:
        raise UnstablePartitionError(
            f"{misses} vertices miss their demand; "
            "the input violates the degree precondition"
        )
    return partition, cert


@dataclass(frozen=True)
class LoopReduction:
    """Loopless graph, adjusted demands, and the precondition report for the
    reduced instance."""

    graph: WeightedGraph
    demands: Demands
    precondition: FeasibilityReport


def reduce_loops(graph: WeightedGraph, demands: Demands) -> LoopReduction:
    """Strip loops and lower each demand by the loop's degree contribution.

    Under DOUBLE a loop w_xx lowers both demands by 2*w_xx, under ONCE by
    w_xx (clamped at zero).  Any partition stable for the reduced instance is
    stable for the original: the loop weight rejoins its vertex's side.
    """
    precondition = check_feasibility(graph, demands)
    factor = graph.loop_mode.factor
    a = tuple(
        max(0.0, demands.a[x] - factor * graph.loops[x]) for x in range(graph.n)
    )
    b = tuple(
        max(0.0, demands.b[x] - factor * graph.loops[x]) for x in range(graph.n)
    )
    return LoopReduction(without_loops(graph), Demands(a, b), precondition)
