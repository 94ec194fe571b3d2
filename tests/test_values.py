"""The contract of the package's value types: constructors, validation,
equality, hash, repr, immutability, and copy/deepcopy/pickle round-trips."""

import copy
import math
import pickle
import re

import pytest

from degsplit import (
    Demands,
    FeasibilityReport,
    GridInstance,
    Move,
    OracleResult,
    Partition,
    SolveCertificate,
    SquaresResult,
    Violation,
    WeightedGraph,
    build_graph,
)


def sample_graph():
    return build_graph([("x", "y", 1.0), ("y", "z", 2.0), ("z", "z", 0.5)])


def sample_partition():
    return Partition(frozenset({0}), frozenset({1, 2}))


def sample_squares_result():
    cert = SolveCertificate(phase_log=["FEASIBILITY"], h_start=1.5)
    return SquaresResult(((0, 0),), ((0, 1),), {(0, 0): 0.5, (0, 1): -0.5}, 1, True, cert)


# each case: a builder that makes a fresh, equal instance, its repr, one of
# its field names, and an instance of the same type that differs from it
CASES = {
    "WeightedGraph": (
        sample_graph,
        "WeightedGraph(n=3, loop_mode=<LoopMode.DOUBLE: 'double'>)",
        "n",
        lambda: build_graph([("x", "y", 1.0), ("y", "z", 2.0)]),
    ),
    "Demands": (
        lambda: Demands((1, 2.5), [3.0, 0]),
        "Demands(a=(1.0, 2.5), b=(3.0, 0.0))",
        "a",
        lambda: Demands((1.0, 2.5), (3.0, 1.0)),
    ),
    "Partition": (
        sample_partition,
        "Partition(a=frozenset({0}), b=frozenset({1, 2}))",
        "a",
        lambda: Partition(frozenset({1}), frozenset({0, 2})),
    ),
    "FeasibilityReport": (
        lambda: FeasibilityReport((1.0, -0.5), (1,), False),
        "FeasibilityReport(slack=(1.0, -0.5), violations=(1,), feasible=False)",
        "feasible",
        lambda: FeasibilityReport((1.0, 0.5), (), True),
    ),
    "Violation": (
        lambda: Violation(2, "B", 1.5, 2.0),
        "Violation(vertex=2, side='B', degree=1.5, demand=2.0)",
        "degree",
        lambda: Violation(2, "A", 1.5, 2.0),
    ),
    "Move": (
        lambda: Move(3, "A", "B", 1.0, 2.5),
        "Move(vertex=3, from_side='A', to_side='B', h_before=1.0, h_after=2.5)",
        "h_after",
        lambda: Move(3, "A", "B", 1.0, 3.5),
    ),
    "OracleResult": (
        lambda: OracleResult(True, sample_partition(), 3),
        "OracleResult(exists=True, witness=Partition(a=frozenset({0}), "
        "b=frozenset({1, 2})), count=3)",
        "count",
        lambda: OracleResult(False, None, 0),
    ),
    "GridInstance": (
        lambda: GridInstance(((1, 0), (0, 0)), 2),
        "GridInstance(cells=((0, 0), (1, 0)), r=2.0)",
        "r",
        lambda: GridInstance(((1, 0), (0, 0)), 2.5),
    ),
    "SquaresResult": (
        sample_squares_result,
        "SquaresResult(side_a=((0, 0),), side_b=((0, 1),), "
        "margins={(0, 0): 0.5, (0, 1): -0.5}, strict_majority_cells=1, "
        "precondition_ok=True, certificate=SolveCertificate(phase_log=['FEASIBILITY'], "
        "moves=[], h_start=1.5, hillclimb_start=None, stable_pair=None, "
        "verification=None, feasibility=None))",
        "strict_majority_cells",
        lambda: SquaresResult(((0, 0),), ((0, 1),), {}, 1, True, SolveCertificate()),
    ),
    "SolveCertificate": (
        lambda: SolveCertificate(
            phase_log=["FEASIBILITY", "MINIMAL_SET"],
            moves=[Move(0, "B", "A", 1.0, 2.0)],
            h_start=1.0,
            stable_pair=(frozenset({0}), frozenset({1})),
        ),
        "SolveCertificate(phase_log=['FEASIBILITY', 'MINIMAL_SET'], "
        "moves=[Move(vertex=0, from_side='B', to_side='A', h_before=1.0, h_after=2.0)], "
        "h_start=1.0, hillclimb_start=None, stable_pair=(frozenset({0}), frozenset({1})), "
        "verification=None, feasibility=None)",
        "h_start",
        lambda: SolveCertificate(),
    ),
}
FIELDS = {
    "WeightedGraph": (
        "n", "labels", "adjacency", "loops", "loop_mode", "loop_term", "d", "W", "band",
        "label_index",
    ),
    "Demands": ("a", "b"),
    "Partition": ("a", "b"),
    "FeasibilityReport": ("slack", "violations", "feasible"),
    "Violation": ("vertex", "side", "degree", "demand"),
    "Move": ("vertex", "from_side", "to_side", "h_before", "h_after"),
    "OracleResult": ("exists", "witness", "count"),
    "GridInstance": ("cells", "r"),
    "SquaresResult": (
        "side_a", "side_b", "margins", "strict_majority_cells", "precondition_ok", "certificate",
    ),
    "SolveCertificate": (
        "phase_log", "moves", "h_start", "hillclimb_start", "stable_pair", "verification",
        "feasibility",
    ),
}
# types holding a dict or a certificate cannot be hashed
UNHASHABLE = {"SquaresResult", "SolveCertificate"}
# the one mutable type: the solver fills it in as it runs
MUTABLE = {"SolveCertificate"}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param, *CASES[request.param]


def test_repr(case):
    _, make, text, _, _ = case
    assert repr(make()) == text


def test_equality_and_hash(case):
    name, make, _, _, other = case
    first, second = make(), make()
    assert first is not second
    assert first == second
    assert not first != second
    assert first != other()
    assert type(first).__name__ == name
    # equality is per type, never against a tuple of the same fields
    assert first != tuple(getattr(first, f) for f in FIELDS[name])
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


def test_fields_cannot_be_assigned(case):
    name, make, _, field, _ = case
    value = make()
    before = getattr(value, field)
    if name in MUTABLE:
        setattr(value, field, before)
        assert getattr(value, field) is before
        return
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, field) is before


@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_compare_equal(case, roundtrip):
    name, make, text, _, _ = case
    value = make()
    clone = roundtrip(value)
    assert type(clone) is type(value)
    assert clone == value
    assert repr(clone) == text
    if name not in UNHASHABLE:
        assert hash(clone) == hash(value)


def test_no_value_is_a_tuple(case):
    _, make, _, _, _ = case
    assert not isinstance(make(), tuple)


def test_graph_equality_ignores_label_index():
    graph = sample_graph()
    fields = {f: getattr(graph, f) for f in FIELDS["WeightedGraph"]}
    other = WeightedGraph(**{**fields, "label_index": {}})
    assert other == graph
    assert hash(other) == hash(graph)
    assert other.label_index == {}


def test_graph_copies_keep_the_label_index():
    graph = sample_graph()
    for clone in (copy.copy(graph), copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert clone.label_index == {"x": 0, "y": 1, "z": 2}
        assert clone.index_of("z") == 2


def test_certificate_defaults_are_fresh_lists():
    first, second = SolveCertificate(), SolveCertificate()
    first.phase_log.append("FEASIBILITY")
    first.moves.append(Move(0, "A", "B", 0.0, 1.0))
    assert second.phase_log == [] and second.moves == []
    assert first.h_trace == ()
    first.h_start = 0.0
    assert first.h_trace == (0.0, 1.0)


def test_constructors_take_keywords():
    assert Partition(a={0}, b=[1]) == Partition(frozenset({0}), frozenset({1}))
    assert Demands(a=[1], b=[2]).a == (1.0,)
    assert GridInstance(cells=[(0, 1), (0, 0)], r=1).cells == ((0, 0), (0, 1))
    assert Move(vertex=1, from_side="A", to_side="B", h_before=0.0, h_after=1.0).vertex == 1
    for name, (make, *_) in CASES.items():
        value = make()
        fields = {f: getattr(value, f) for f in FIELDS[name]}
        assert type(value)(**fields) == type(value)(*fields.values()) == value, name


# the types that Value's own constructor builds
GENERIC = ["FeasibilityReport", "Move", "OracleResult", "SquaresResult", "Violation", "WeightedGraph"]


@pytest.mark.parametrize("name", GENERIC)
@pytest.mark.parametrize("fault", ["too many", "unknown", "repeated", "missing"])
def test_generic_constructor_rejects_bad_fields(name, fault):
    value, fields = CASES[name][0](), FIELDS[name]
    values = [getattr(value, f) for f in fields]
    args, kwargs, message = {
        "too many": (
            [*values, 0], {}, f"takes {len(fields)} fields but {len(fields) + 1} were given"
        ),
        "unknown": (values, {"extra": 0}, "got an unexpected field 'extra'"),
        "repeated": (values, {fields[0]: 0}, f"got multiple values for field {fields[0]!r}"),
        "missing": (values[:-1], {}, f"missing field {fields[-1]!r}"),
    }[fault]
    with pytest.raises(TypeError, match=re.escape(f"{name}() {message}")):
        type(value)(*args, **kwargs)


class TestValidation:
    def test_partition_converts_sides_to_frozensets(self):
        part = Partition({1, 2}, [0])
        assert type(part.a) is frozenset and type(part.b) is frozenset
        assert part.n == 3

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (set(), {0}, "both sides must be non-empty"),
            ({0}, set(), "both sides must be non-empty"),
            ({0, 1}, {1}, "sides overlap"),
            ({0}, {2}, "sides must cover vertex indices 0..n-1 exactly"),
        ],
    )
    def test_partition_errors(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Partition(frozenset(a), frozenset(b))

    def test_demands_convert_to_float_tuples(self):
        dem = Demands([1, 2], (True, 0))
        assert dem.a == (1.0, 2.0) and dem.b == (1.0, 0.0)
        assert all(type(v) is float for v in dem.a + dem.b)
        assert len(dem) == 2
        assert Demands.constant(2, 1, 0) == Demands((1.0, 1.0), (0.0, 0.0))

    @pytest.mark.parametrize(
        "a, b, message",
        [
            ((1.0,), (1.0, 2.0), "demand vectors differ in length"),
            ((-1.0,), (0.0,), "demands must be finite and non-negative, got -1.0"),
            ((0.0,), (math.inf,), "demands must be finite and non-negative, got inf"),
            ((math.nan,), (0.0,), "demands must be finite and non-negative, got nan"),
        ],
    )
    def test_demands_errors(self, a, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Demands(a, b)

    def test_demands_reject_non_numbers(self):
        with pytest.raises(ValueError):
            Demands(("x",), (0.0,))

    @pytest.mark.parametrize(
        "cells, r, message",
        [
            (((0, 0), (0, 0)), 1.0, "cells must be distinct"),
            (((0, 0), (1, 0)), 0.0, "radius must be positive and finite"),
            (((0, 0), (1, 0)), -1.0, "radius must be positive and finite"),
            (((0, 0), (1, 0)), math.inf, "radius must be positive and finite"),
            (((0, 0), (1, 0)), math.nan, "radius must be positive and finite"),
        ],
    )
    def test_grid_instance_errors(self, cells, r, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            GridInstance(cells, r)

    def test_grid_instance_converts_cells_and_radius(self):
        inst = GridInstance([(1.0, 2), (0, 5)], 3)
        assert inst.cells == ((0, 5), (1, 2))
        assert all(type(c) is int for cell in inst.cells for c in cell)
        assert type(inst.r) is float
        assert GridInstance.rectangle(2, 1, 1.5).cells == ((0, 0), (1, 0))
