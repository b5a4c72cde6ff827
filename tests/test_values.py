"""The eleven value classes keep what their frozen-dataclass form gave them.

``dataclass_values`` holds the dataclass definitions they replaced.  Each
test builds the same arguments both ways: the new class must accept and
reject exactly what the reference does, with the same exception and text,
and agree with it on equality, hash, repr, ``__match_args__`` and its
signature's names, kinds and defaults.
"""

import copy
import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

import dataclass_values as ref
import dyck4d
from dyck4d import (AXES, MAX_COORD, PLANES_2D, PLANES_3D, CheckResult, Decomposition, Diagram,
                    DiagramSpec, DyckWord, DynamicsTable, Node, PathTrace, Plane,
                    ProjectedPath, build_table, iter_nodes)
from dyck4d.render import PlacedNode


class Index(int):
    """An int subclass, which Node accepts."""


ints = st.one_of(
    st.integers(-3, 40),
    st.integers(MAX_COORD - 2, MAX_COORD + 2),
    st.integers(0, 40).map(Index),
)
values = st.one_of(ints, st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))


@st.composite
def node_args(draw):
    """Valid nodes (of plain ints, int subclasses or near MAX_COORD), the same
    with one coordinate perturbed, which breaks i = n + k or j = n - k, and
    arbitrary values."""
    n = draw(st.one_of(st.integers(0, 30), st.integers(MAX_COORD - 32, MAX_COORD + 2)))
    k = draw(st.integers(0, 30))
    args = [n + k, n - k, n, k]
    kind = draw(st.sampled_from(["valid", "subclass", "perturbed", "arbitrary"]))
    if kind == "subclass":
        args = [draw(st.sampled_from([int, Index]))(a) for a in args]
    elif kind == "perturbed":
        args[draw(st.integers(0, 3))] += draw(st.sampled_from([-2, -1, 1, 2]))
    elif kind == "arbitrary":
        args = draw(st.lists(st.one_of(ints, values), min_size=4, max_size=4))
    return tuple(args)


axes = st.sampled_from([*AXES, "x", "I", ""])
plane_args = st.tuples(st.lists(axes, max_size=4).map(tuple))
columns = st.lists(st.lists(st.integers(0, 10**30), max_size=4).map(tuple), max_size=4).map(tuple)
table_args = st.tuples(st.integers(-2, 10), columns)
decomposition_args = st.tuples(st.integers(-2, 100), st.lists(ints, max_size=5).map(tuple))


def tuples_of(strategy, max_size=3):
    return st.lists(strategy, max_size=max_size).map(tuple)


# Steps of U and D (valid or not), other characters, a tuple of steps, or no sequence at all.
word_args = st.tuples(st.one_of(
    st.text("UD", max_size=12), st.text("UDx(", max_size=6),
    tuples_of(st.sampled_from(["U", "D", "x", 1]), 4), ints,
))
words = st.sampled_from(["", "U", "UD", "UUDD", "UDUUUUU"]).map(DyckWord)
nodes = st.sampled_from(list(iter_nodes(12)))
planes = st.sampled_from(PLANES_2D + PLANES_3D)
points = tuples_of(st.tuples(ints, ints))
trace_args = st.tuples(words, tuples_of(nodes))
projected_args = st.tuples(planes, points)
families = st.sampled_from(["i", "j", "n", "k", "x", "ij"])
spec_isolines = st.one_of(st.frozensets(families), tuples_of(families, 5),
                          tuples_of(families, 5).map("".join))
spec_args = st.tuples(
    planes, st.one_of(st.integers(-2, 12), st.none()), spec_isolines,
    st.one_of(st.none(), words), st.sampled_from(["text", "svg", "png"]),
)
placed_args = st.tuples(nodes, ints, ints, st.text(max_size=4))
diagram_args = st.tuples(
    st.builds(DiagramSpec, planes, st.integers(0, 12), tuples_of(st.sampled_from(AXES), 4)), planes,
    st.one_of(st.none(), st.text(max_size=8)), tuples_of(placed_args.map(lambda a: PlacedNode(*a))),
)
check_args = st.tuples(st.text(max_size=8), st.booleans(), st.text(max_size=8),
                       st.floats(allow_nan=False))

CASES = [
    (Node, ref.Node, node_args()),
    (Plane, ref.Plane, plane_args),
    (DynamicsTable, ref.DynamicsTable, table_args),
    (Decomposition, ref.Decomposition, decomposition_args),
    (DyckWord, ref.DyckWord, word_args),
    (PathTrace, ref.PathTrace, trace_args),
    (ProjectedPath, ref.ProjectedPath, projected_args),
    (DiagramSpec, ref.DiagramSpec, spec_args),
    (PlacedNode, ref.PlacedNode, placed_args),
    (Diagram, ref.Diagram, diagram_args),
    (CheckResult, ref.CheckResult, check_args),
]
IDS = [case[0].__name__ for case in CASES]


def build(cls, args):
    try:
        return cls(*args)
    except Exception as exc:  # compared with the reference's exception
        return exc


def check_same_acceptance(cls, ref_cls, args):
    """Build both ways; return (new, reference) when both accept ``args``."""
    new, old = build(cls, args), build(ref_cls, args)
    if isinstance(old, Exception):
        assert type(new) is type(old) and str(new) == str(old), (args, new, old)
        return None
    assert not isinstance(new, Exception), (args, new)
    return new, old


@pytest.mark.parametrize("cls, ref_cls, strategy", CASES, ids=IDS)
def test_accepts_rejects_and_shows_like_the_dataclass(cls, ref_cls, strategy):
    @given(strategy, strategy)
    def check(args, other_args):
        built = check_same_acceptance(cls, ref_cls, args)
        other = check_same_acceptance(cls, ref_cls, other_args)
        if built is None:
            return
        new, old = built
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        assert new == cls(*args)
        if other is not None:
            assert (new == other[0]) == (old == other[1])
            assert (new != other[0]) == (old != other[1])
        assert cls.__match_args__ == ref_cls.__match_args__
        assert ([getattr(new, name) for name in cls.__match_args__]
                == [getattr(old, name) for name in ref_cls.__match_args__])

    check()


@pytest.mark.parametrize("cls, ref_cls, strategy", CASES, ids=IDS)
def test_frozen_and_round_trips(cls, ref_cls, strategy):
    @given(strategy)
    def check(args):
        if check_same_acceptance(cls, ref_cls, args) is None:
            return
        value = cls(*args)
        for name in (*cls.__match_args__, "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is cls
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    check()


@pytest.mark.parametrize("cls, ref_cls", [case[:2] for case in CASES], ids=IDS)
def test_signature_matches_the_dataclass(cls, ref_cls):
    def parameters(c):
        return [(p.name, p.kind, p.default) for p in inspect.signature(c).parameters.values()]

    assert parameters(cls) == parameters(ref_cls)


@pytest.mark.parametrize("build_both", [
    lambda m: m.DiagramSpec(plane=Plane.parse("nk"), max_i=3, fmt="svg"),
    lambda m: m.DiagramSpec(Plane.parse("ij"), 4, word=m.DyckWord("UD")),
    lambda m: m.DyckWord(),
    lambda m: m.CheckResult("name", True, detail="detail"),
], ids=["spec-keywords", "spec-word", "word-default", "check-default"])
def test_keywords_and_defaults_build_what_the_dataclass_builds(build_both):
    assert repr(build_both(dyck4d)) == repr(build_both(ref))


def test_check_result_equality_and_hash_ignore_seconds():
    for cls in (CheckResult, ref.CheckResult):
        fast, slow = cls("name", True, "detail", 0.5), cls("name", True, "detail", 2.0)
        assert fast == slow and hash(fast) == hash(slow)
        assert repr(slow).endswith("seconds=2.0)") and repr(fast) != repr(slow)
        assert fast != cls("name", False, "detail", 0.5)


def test_node_is_not_its_tuple():
    assert Node(2, 0, 1, 1) != (2, 0, 1, 1)
    assert (2, 0, 1, 1) != Node(2, 0, 1, 1)
    assert Node(2, 0, 1, 1) != ref.Node(2, 0, 1, 1)


def test_a_value_equals_only_its_own_class():
    # Node has its own __eq__; every other value class defers through _Value's.
    dec = Decomposition(1, (1,))
    assert dec.__eq__((1, (1,))) is NotImplemented
    assert dec != (1, (1,)) and (1, (1,)) != dec
    assert dec != ref.Decomposition(1, (1,))
    assert dec == Decomposition(1, (1,))


@pytest.mark.parametrize("max_i", [0, 1, 7, 40])
def test_tables_and_decompositions_match_the_dataclass(max_i):
    table = build_table(max_i)
    old = ref.DynamicsTable(max_i, table._cols)
    assert repr(table) == repr(old) == f"DynamicsTable(max_i={max_i})"
    assert hash(table) == hash(old)
    assert table == DynamicsTable(max_i, tuple(table._cols))
    terms = tuple(table.count(max_i, max_i - 2 * k) for k in range(max_i // 2 + 1))
    new_dec, old_dec = Decomposition(max_i, terms), ref.Decomposition(max_i, terms)
    assert new_dec.sum_of_squares == old_dec.sum_of_squares
