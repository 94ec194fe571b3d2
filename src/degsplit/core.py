"""Peeling cores and inclusion-minimal demand sets.

``peel`` is the workhorse: repeatedly delete any vertex whose induced degree
falls below its threshold until none remains.  The surviving set is the
unique maximal subset in which every vertex meets its threshold, and it does
not depend on the deletion order.

``peel`` and both sides of the solver's hill-climb keep a ``_KeptSet``,
and ``minimal_satisfying_set`` keeps one set of its own; all of them peel
with ``_cascade``, in the manner of Batagelj and Zaversnik's O(m) cores
algorithm.  A set is two flat arrays indexed by vertex: a ``bytearray`` of
membership flags and a ``list`` of kept degrees, so a neighbour update
costs two index operations and no hashing.
Each member's entry holds its induced degree, and a deletion clears the
member's flag and subtracts its edge weight from every neighbour still
flagged; entries of vertices left out are never read.  Subtraction drifts a
few ulps from the ascending sum ``verify_partition`` takes, so the exact-tie
rule applies: when |deg(x) - threshold(x)| <= band(x) = 8 (k + 2) 2^-53 d(x),
with k the number of x's neighbours, x is decided on the exact ascending sum
instead.  Every decision is therefore the one exact recomputation makes.
The graph computes band(x) once, with its other caches, as ``graph.band``.

An exact row needs no band.  A row is exact when its edge weights and its
loop term are integers and d(x) < 2^53.  Every sum of some of its terms is
then an integer below 2^53, which a double holds, so each addition or
subtraction that leads from one such sum to another is exact, in whatever
order: the kept degree is the exact sum at every step.  Such a vertex gets
a band of 0 in ``graph.band``, which reads as "the kept degree is the
exact sum": the cascade decides it on deg(x) < threshold(x) without
an exact sum, it is never reseeded, and the witness and ``exact`` take a
member's deg(x) as its exact degree.  A band of 0 means the same on any
other row: it rounds to 0 only when d(x) < 2^-1022, where every partial sum
is a subnormal multiple of 2^-1074 and so exact too.

The exact sum is ``graph._side_degree`` over the flags, the package's one
side-degree sum, which ``verify_partition`` takes too.  It does not test x's
own flag, so on a vertex left out it gives the degree x would have on joining
the set.

A deletion queues only the neighbours that can fall: a vertex whose kept
degree is at least its threshold plus its band would be kept at its pop.
Above that it is kept without an exact sum.  Exactly there, the kept degree
drifts by at most half the band (see below), so the exact sum still exceeds
the threshold; on an exact row the kept degree is the exact sum and meets
it.  Degrees only fall during a cascade, so the next decrement that brings
the vertex below its threshold plus its band queues it again.  A kept
set's degrees start from one seed: ``graph.d[x]`` less the weights to x's
neighbours left out.  ``graph.d[x]`` is the exact sum with every neighbour
flagged; each subtraction counts as one single-edge update since that exact
sum.  ``minimal_satisfying_set`` seeds by adding rows instead (see below).

The band is the one bound on how far a kept degree may drift.  It covers an
exact sum (k + 1 roundings), then up to k single-edge updates, from the seed
or as vertices join and leave the set, after which ``add`` and ``remove``
reseed it with the exact sum, then up to k cascade subtractions, against an
exact sum of k + 1 roundings: 4k + 2 roundings of at most about 2^-53 d(x)
each, with a factor of two to spare.

Two more decisions of the hill-climb rest on the band.  The witness is the
member of largest margin target(x) - deg(x), lowest index first.  A kept
margin lies within 2 (band(x) + 2^-52 |margin|) of the exact one: the degree
band plus one rounding of each subtraction.  So every member whose kept
margin comes that close to the running best (which starts at 0) is
recomputed on the exact sum, and the margins compared are the exact ones.
A move's gain 2 (d_new - d_old + swap) takes both degrees as exact
ascending sums of the moved vertex's row, together within its band of the
real difference; the demand swap and the total round once each.  A gain of
at most 0 whose size is within 2 (band(v) + 2^-52 (a(v) + b(v))) is a tie,
not a loss, and ``tie_bound`` says so.  On an exact row that bound is 0.
There d_new - d_old is exact, so when the real gain is 0 the real swap is
-(d_new - d_old), a double, which rounds to itself, and the computed gain
is 0 too; and since rounding is monotone, the computed gain is negative
only when the real gain is.

A set keeps its core in one of two ways.  ``minimal_satisfying_set``
cascades in place and undoes a failed trial from its degree log alone.
A hill-climb side re-peels on copies of its flags and kept degrees, and only
what a move can change.  A side that loses a vertex outside its core keeps
its core: the core lies in the smaller side and meets its thresholds there,
and it holds every subset that does.  A side that loses a core vertex is
re-peeled whole.  A side that gains v keeps every vertex of its old core, so
the cascade starts from the members outside the old core only and stops as
soon as it deletes v: the new core then lies in the old side, and so in the
old core.

``minimal_satisfying_set`` also stops failing trials early.  Call a member
essential once its own trial has failed, that is, left the rest's core empty.
A later trial of v that would delete an essential vertex u is abandoned and
fails too: core(X - v) lies in X - u and so in core(X - u), which lies in
core(Y - u) = {} for the larger set Y that u was tried in.  The trial is
abandoned at the decrement already: when a deletion lowers u's kept degree
below threshold(u) - band(u), the cascade would delete u without an exact
sum, since degrees only fall during a cascade.  Inside the band the trial
goes on, and u is decided on the exact sum when the cascade reaches it.

And it skips trials that cannot fail.  Let S be the set searched, in
ascending order, C = core(S) the initial core, and S_u and C_u their
members from u on.  Before its first failed trial the ascending pass
reaches member u in the state core(C_u).  A kept trial of v turns core(X)
into core(core(X) - v), and that is core(X - v): core(X - v) lies in X - v
and, by monotonicity, in core(X), so in core(X) - v; and core(core(X) - v)
lies in core(X - v) by monotonicity.  A member v already deleted is not
tried, and then core(C_v) = core(C_v - v) already.  When core(C_u) is
non-empty, every trial below u succeeds as well, since the core it leaves
contains core(C_u).  And core(S_u) = core(C_u): core(S_u) lies in S_u and
in core(S) = C, so in C_u, and meets its thresholds there; the converse is
monotonicity.  So the pass first probes suffixes of S from its end, of 1,
2, 4, ... members and last all of S.  The first whose core is non-empty,
S_u say, gives the state the ascending pass reaches at u, and the pass
goes on trying from u: every later trial, essential vertex and early abort
is the one the ascending pass makes.  If even core(S) is empty, no set
meets the demands.

The probes seed their kept degrees once, adding the rows of S from its
end: a member's kept degree starts at its loop term and takes one addition
per neighbour in the suffix, as that neighbour's row or its own is added,
and a larger probe adds only its new rows.  That is k roundings at most,
fewer than a seed from d spends (an exact sum, then up to k single-edge
updates), and the cascade's subtractions come after them, so the band
covers them; an empty probe is undone from its log of degree changes, as a
failed trial is.  A probe whose members all have kept degree below
threshold - band cascades no further: each member's exact degree in the
suffix is then below its threshold, so the suffix's core is empty, as the
cascade would find.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Sequence

from .errors import NoSatisfyingSetError
from .graph import _ROUNDOFF, WeightedGraph, _side_degree

Thresholds = Sequence[float]


def _delete(adjacency, flags, deg, thresholds, band, stop, x, stack, log) -> bool:
    # remove x, subtract its weights from the members left and queue those
    # that can fall; ``log`` (when kept) records each change as (vertex, old
    # degree).  False, cut short, once a vertex flagged in ``stop`` falls
    # below its threshold by more than its band: the cascade would delete it
    flags[x] = 0
    for y, w in adjacency[x]:
        if flags[y]:
            if log is not None:
                log.append((y, deg[y]))
            deg[y] -= w
            gap = thresholds[y] - deg[y]
            # at or above its threshold plus its band, y would be kept at its
            # pop; a later decrement that brings it below queues it
            if gap > -band[y]:
                if stop[y] and gap > band[y]:
                    return False
                stack.append(y)
    return True


def _cascade(graph, flags, deg, thresholds, stop, stack, log=None) -> bool:
    # delete every queued vertex below its threshold, and in turn whatever
    # those deletions push below theirs; False, with the cascade cut short,
    # as soon as it would delete a vertex flagged in ``stop``
    adjacency, band = graph.adjacency, graph.band
    while stack:
        x = stack.pop()
        if not flags[x]:
            continue
        floor = thresholds[x]
        # outside the band the kept degree and the exact sum fall on the same
        # side of the floor; on an exact row (band 0) they are equal
        if band[x] and abs(deg[x] - floor) <= band[x]:
            below = _side_degree(graph, flags, x) < floor
        else:
            below = deg[x] < floor
        if below:
            if stop[x] or not _delete(
                adjacency, flags, deg, thresholds, band, stop, x, stack, log
            ):
                return False
    return True


def _seed(graph, flags, deg, members) -> None:
    # flag each of ``members`` in turn, its kept degree its loop term plus
    # the weights to the members flagged before it, and add its weight to
    # theirs: one single-edge update per addition
    adjacency, loop_term = graph.adjacency, graph.loop_term
    for x in members:
        flags[x] = 1
        total = loop_term[x]
        for y, w in adjacency[x]:
            if flags[y]:
                total += w
                deg[y] += w
        deg[x] = total


def _members(graph, members, thresholds) -> bytearray:
    # the membership flags of ``members``, once they and the thresholds
    # are checked
    n = graph.n
    if len(thresholds) != n:
        raise ValueError(f"expected {n} thresholds, got {len(thresholds)}")
    if any(map(math.isnan, thresholds)):
        raise ValueError("thresholds must not be NaN")
    flags = bytearray(n)
    for x in members:
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} is out of range")
        flags[x] = 1
    return flags


class _KeptSet:
    """A vertex set with each member's induced degree kept, under
    per-vertex thresholds (see the module docstring).

    ``flags`` marks the members; ``deg`` holds a kept degree per vertex,
    whose entries for vertices left out are never read.  ``stop`` flags the
    vertices whose deletion ends a cascade, and ``updates`` counts the
    single-edge updates since each kept degree was last an exact sum.
    ``core`` is the members' core, kept across ``add`` and ``remove``.
    """

    def __init__(self, graph: WeightedGraph, members: Iterable[int], thresholds: Thresholds):
        n = graph.n
        self.flags = flags = _members(graph, members, thresholds)
        self.graph, self.thresholds = graph, thresholds
        # the seed: d[x] less the weights to the neighbours left out, each
        # subtraction counted as an update since the exact sum d[x]
        deg, updates = list(graph.d), [0] * n
        for x in range(n):
            if not flags[x]:
                for y, w in graph.adjacency[x]:
                    deg[y] -= w
                    updates[y] += 1
        self.deg, self.updates = deg, updates
        self.stop = bytearray(n)
        self._core = None

    def exact(self, x: int) -> float:
        """x's induced degree in the set plus x, as the exact ascending sum."""
        if self.flags[x] and not self.graph.band[x]:
            return self.deg[x]
        return _side_degree(self.graph, self.flags, x)

    def _peel(self, start) -> None:
        # cascade from the members in ``start`` on copies of the flags and
        # degrees; the survivors become the core unless the cascade deletes
        # a vertex flagged in ``stop``
        flags = bytearray(self.flags)
        if _cascade(self.graph, flags, list(self.deg), self.thresholds, self.stop, list(start)):
            self._core = frozenset(compress(range(self.graph.n), flags))

    @property
    def core(self) -> frozenset[int]:
        # peeled on first use, so a set that cascades in place copies nothing
        if self._core is None:
            self._peel(compress(range(self.graph.n), self.flags))
        return self._core

    def _update(self, v, sign) -> None:
        # one edge update per member neighbour of v, reseeding a kept degree
        # after as many updates as its vertex has neighbours; an exact row's
        # kept degree never drifts, so it is never reseeded
        graph, flags, deg, updates = self.graph, self.flags, self.deg, self.updates
        adjacency, band = graph.adjacency, graph.band
        for y, w in adjacency[v]:
            if flags[y]:
                deg[y] += sign * w
                if band[y]:
                    updates[y] += 1
                    if updates[y] >= len(adjacency[y]):
                        deg[y] = _side_degree(graph, flags, y)
                        updates[y] = 0

    def add(self, v: int, degree: float) -> None:
        """Insert v, whose exact induced degree in the grown set is
        ``degree``."""
        core = self.core
        self.flags[v] = 1
        self._update(v, 1.0)
        self.deg[v] = degree
        self.updates[v] = 0
        self.stop[v] = 1
        self._peel([x for x in compress(range(self.graph.n), self.flags) if x not in core])
        self.stop[v] = 0

    def remove(self, v: int) -> None:
        core = self.core
        self.flags[v] = 0
        self._update(v, -1.0)
        if v in core:
            self._peel(compress(range(self.graph.n), self.flags))

    def witness(self, target: Thresholds) -> tuple[int, float] | None:
        """The member of largest margin target - degree, lowest index first,
        with its exact degree; None if no margin is positive."""
        graph, flags, deg, band = self.graph, self.flags, self.deg, self.graph.band
        best, found = 0.0, None
        for x in compress(range(graph.n), flags):
            approx = target[x] - deg[x]
            if not band[x]:
                # an exact row's kept degree is the exact sum
                degree, margin = deg[x], approx
            elif approx < best - 2.0 * (band[x] + 2.0 * _ROUNDOFF * abs(approx)):
                # a kept margin this far below the best cannot beat it exactly
                continue
            else:
                degree = _side_degree(graph, flags, x)
                margin = target[x] - degree
            if margin > best:
                best, found = margin, (x, degree)
        return found

    def tie_bound(self, other: _KeptSet, v: int) -> float:
        """The rounding bound on the gain of moving v from this set to
        ``other``: 0 on an exact row, where only a gain of exactly 0 is a
        tie."""
        band = self.graph.band[v]
        if not band:
            return 0.0
        return 2.0 * (band + 2.0 * _ROUNDOFF * (self.thresholds[v] + other.thresholds[v]))


def peel(graph: WeightedGraph, subset: Iterable[int], thresholds: Thresholds) -> frozenset[int]:
    """Maximal T within ``subset`` where every member keeps induced degree
    >= thresholds[x].  Possibly empty.

    The deletion order is that of a work stack and is not part of the
    contract: adding a positive weight to an ascending sum never lowers it,
    so any order returns the same set.  Degrees are kept incrementally; a
    degree within a few ulps of its threshold is recomputed as the exact
    ascending sum, so the result is the one exact recomputation gives.
    """
    return _KeptSet(graph, subset, thresholds).core


def minimal_satisfying_set(
    graph: WeightedGraph,
    demands: Thresholds,
    within: Iterable[int] | None = None,
) -> frozenset[int]:
    """A non-empty inclusion-minimal set whose members all meet their demand
    inside it.

    Starts from the full core and makes one pass over its members in
    ascending index: each member still present is deleted, and the core of
    the rest replaces the current set whenever it is non-empty.  No restart
    is needed because peel is monotone (the core of a subset lies inside the
    core of any superset): a deletion that collapsed a superset collapses
    every subset too.  So no proper non-empty subset of the result has the
    all-members property.

    One set of flags and kept degrees serves the whole pass, peeled in
    place.  A trial cascades only from the deleted vertex's neighbours; when
    it empties the set, the deleted vertex and every vertex in its log of
    degree changes are flagged again and the changes undone.  That restores
    every vertex it deleted: a trial only deletes, so each logged vertex was
    a member, and each one deleted after the first was queued by a logged
    decrement.  A member whose trial failed is essential, and a trial that
    would delete an essential vertex fails at that point, or already when a
    deletion takes the essential vertex's degree below its demand by more
    than the exact-tie band: the core of the rest is empty because it lies
    in the core of the larger set the essential vertex was tried in, minus
    that vertex, which was empty.

    The pass starts where the ascending one stands before its first failed
    trial.  It peels suffixes of ``within`` from its end, of 1, 2, 4, ...
    members and last all of it, takes the first with a non-empty core as
    its state and tries the members from that suffix's first on.  The
    result, and every trial made, are the ascending pass's (see the module
    docstring).
    """
    n = graph.n
    members = _members(graph, range(n) if within is None else within, demands)
    order = list(compress(range(n), members))
    flags, deg, essential = bytearray(n), [0.0] * n, bytearray(n)
    adjacency, band = graph.adjacency, graph.band
    # the probe: suffixes of ``order`` of 1, 2, 4, ... members, and last all
    # of it, each seeding only the rows the one before left out
    size, seeded = 1, len(order)
    while True:
        start = max(len(order) - size, 0)
        _seed(graph, flags, deg, reversed(order[start:seeded]))
        seeded = start
        suffix = order[start:]
        if any(deg[x] >= demands[x] - band[x] for x in suffix):
            log = []
            _cascade(graph, flags, deg, demands, essential, list(suffix), log)
            if 1 in flags:
                break
            for x in suffix:
                flags[x] = 1
            for y, old in reversed(log):
                deg[y] = old
        if not start:
            raise NoSatisfyingSetError("no non-empty subset meets the demands")
        size *= 2
    # the ascending pass, on from the suffix's first member
    for v in suffix:
        if not flags[v]:
            continue
        stack, log = [], []
        if not (
            _delete(adjacency, flags, deg, demands, band, essential, v, stack, log)
            and _cascade(graph, flags, deg, demands, essential, stack, log)
            and 1 in flags
        ):
            flags[v] = essential[v] = 1
            for y, old in reversed(log):
                flags[y], deg[y] = 1, old
    return frozenset(compress(range(n), flags))
