"""Peeling cores and inclusion-minimal demand sets.

``peel`` is the workhorse: repeatedly delete any vertex whose induced degree
falls below its threshold until none remains.  The surviving set is the
unique maximal subset in which every vertex meets its threshold, and it does
not depend on the deletion order.

``peel``, ``minimal_satisfying_set`` and both sides of the solver's
hill-climb build on one kept set, ``_KeptSet``: a cascade engine in the
manner of Batagelj and Zaversnik's O(m) cores algorithm.  Its state is two flat arrays indexed
by vertex: a ``bytearray`` of membership flags and a ``list`` of kept
degrees, so a neighbour update costs two index operations and no hashing.
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
a band of 0 in ``graph.band``, which the kept set reads as "the kept degree
is the exact sum": the cascade decides it on deg(x) < threshold(x) without
an exact sum, it is never reseeded, and the witness takes deg(x) as its
exact degree.  A band of 0 means the same on any other row: it rounds to 0
only when d(x) < 2^-1022, where every partial sum is a subnormal multiple
of 2^-1074 and so exact too.

The exact sum is ``_exact``, the sum ``verify_partition`` takes with the
flagged set as x's side.  It adds the same weights (the flagged neighbours',
in the ascending order of the row) and then the graph's cached loop term,
``graph.loop_term[x]``, last; floating-point addition in the same order on
the same operands gives the same double, so the two agree bit for bit.  It
does not test x's own flag, so on a vertex left out it gives the degree x
would have on joining the set.

A deletion queues only the neighbours that can fall: a vertex whose kept
degree is at least its threshold plus its band would be kept at its pop.
Above that it is kept without an exact sum.  Exactly there, the kept degree
drifts by at most half the band (see below), so the exact sum still exceeds
the threshold; on an exact row the kept degree is the exact sum and meets
it.  Degrees only fall during a cascade, so the next decrement that brings
the vertex below its threshold plus its band queues it again.  Every kept
degree starts from one seed: ``graph.d[x]`` less the weights to x's
neighbours left out.  ``graph.d[x]`` is the exact sum of x's whole row, the
terms ``_exact`` adds when every neighbour is flagged, in the same order;
each subtraction counts as one single-edge update since that exact sum.

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
cascades in place and undoes a failed trial from a log of degree changes.
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
fails too: core(S - v) lies in S - u and so in core(S - u), which lies in
core(S_u - u) = {} for the larger set S_u that u was tried in.  The trial is
abandoned at the decrement already: when a deletion lowers u's kept degree
below threshold(u) - band(u), the cascade would delete u without an exact
sum, since degrees only fall during a cascade.  Inside the band the trial
goes on, and u is decided on the exact sum when the cascade reaches it.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterable, Sequence

from .errors import NoSatisfyingSetError
from .graph import _ROUNDOFF, WeightedGraph

Thresholds = Sequence[float]


def _exact(graph: WeightedGraph, flags, x: int) -> float:
    # verify_partition's sum for x in the flagged set plus x: the same terms
    # in the same ascending order, loop last, so the same double
    total = 0.0
    for y, w in graph.adjacency[x]:
        if flags[y]:
            total += w
    return total + graph.loop_term[x]


def _delete(adjacency, flags, deg, thresholds, band, stop, x, stack, removed, log) -> bool:
    # remove x, subtract its weights from the members left and queue those
    # that can fall; ``log`` (when kept) records each change as (vertex, old
    # degree).  False, cut short, once a vertex flagged in ``stop`` falls
    # below its threshold by more than its band: the cascade would delete it
    flags[x] = 0
    removed.append(x)
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


class _KeptSet:
    """A vertex set with each member's induced degree kept, under
    per-vertex thresholds (see the module docstring).

    ``flags`` marks the members and ``size`` counts them; ``deg`` holds a
    kept degree per vertex, whose entries for vertices left out are never
    read.  ``stop`` flags the vertices whose deletion ends a cascade, and
    ``updates`` counts the single-edge updates since each kept degree was
    last an exact sum.  ``core`` is the members' core, kept across ``add``
    and ``remove``.
    """

    def __init__(self, graph: WeightedGraph, members: Iterable[int], thresholds: Thresholds):
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
        self.graph, self.thresholds = graph, thresholds
        self.flags = flags
        self.size = flags.count(1)
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
        return _exact(self.graph, self.flags, x)

    def cascade(self, flags, deg, stack, removed, log=None) -> bool:
        # delete every queued vertex below its threshold, and in turn whatever
        # those deletions push below theirs; False, with the cascade cut short,
        # as soon as it would delete a vertex flagged in ``stop``
        graph, thresholds, stop = self.graph, self.thresholds, self.stop
        adjacency, band = graph.adjacency, graph.band
        while stack:
            x = stack.pop()
            if not flags[x]:
                continue
            floor = thresholds[x]
            # outside the band the kept degree and the exact sum fall on the same
            # side of the floor; on an exact row (band 0) they are equal
            if band[x] and abs(deg[x] - floor) <= band[x]:
                below = _exact(graph, flags, x) < floor
            else:
                below = deg[x] < floor
            if below:
                if stop[x] or not _delete(
                    adjacency, flags, deg, thresholds, band, stop, x, stack, removed, log
                ):
                    return False
        return True

    def _peel(self, start) -> None:
        # cascade from the members in ``start`` on copies of the flags and
        # degrees; the survivors become the core unless the cascade deletes
        # a vertex flagged in ``stop``
        flags = bytearray(self.flags)
        if self.cascade(flags, list(self.deg), list(start), []):
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
                        deg[y] = _exact(graph, flags, y)
                        updates[y] = 0

    def add(self, v: int, degree: float) -> None:
        """Insert v, whose exact induced degree in the grown set is
        ``degree``."""
        core = self.core
        self.flags[v] = 1
        self.size += 1
        self._update(v, 1.0)
        self.deg[v] = degree
        self.updates[v] = 0
        self.stop[v] = 1
        self._peel([x for x in compress(range(self.graph.n), self.flags) if x not in core])
        self.stop[v] = 0

    def remove(self, v: int) -> None:
        core = self.core
        self.flags[v] = 0
        self.size -= 1
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
                degree = _exact(graph, flags, x)
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

    One kept set serves the whole pass, peeled in place.  A trial cascades
    only from the deleted vertex's neighbours; when it empties the set, the
    deleted vertices are flagged again and the logged degree changes are
    undone.  A member whose trial failed is essential, and a trial that
    would delete an essential vertex fails at that point, or already when a
    deletion takes the essential vertex's degree below its demand by more
    than the exact-tie band: the core of the rest is empty because it lies
    in the core of the larger set the essential vertex was tried in, minus
    that vertex, which was empty.
    """
    n = graph.n
    kept = _KeptSet(graph, range(n) if within is None else within, demands)
    flags, deg, essential = kept.flags, kept.deg, kept.stop
    adjacency, band = graph.adjacency, graph.band
    removed = []
    kept.cascade(flags, deg, list(compress(range(n), flags)), removed)
    kept.size -= len(removed)
    if not kept.size:
        raise NoSatisfyingSetError("no non-empty subset meets the demands")
    for v in list(compress(range(n), flags)):
        if not flags[v]:
            continue
        stack, removed, log = [], [], []
        if (
            _delete(adjacency, flags, deg, demands, band, essential, v, stack, removed, log)
            and kept.cascade(flags, deg, stack, removed, log)
            and len(removed) < kept.size
        ):
            kept.size -= len(removed)
        else:
            for x in removed:
                flags[x] = 1
            for y, old in reversed(log):
                deg[y] = old
            essential[v] = 1
    return frozenset(compress(range(n), flags))
