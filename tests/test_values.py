"""The five value classes keep what their frozen-dataclass form gave them.

``dataclass_values`` holds the dataclass definitions they replaced.  Each
test builds the same arguments both ways: the new class must accept and
reject exactly what the reference does, with the same exception and text,
and agree with it on equality, hash, repr and ``__match_args__``.
"""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

import dataclass_values as ref
from dyck4d import AXES, MAX_COORD, Decomposition, DynamicsTable, Isoline, Node, Plane, build_table


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
isoline_args = st.tuples(st.one_of(axes, st.integers(0, 3)), st.one_of(ints, st.booleans()))
columns = st.lists(st.lists(st.integers(0, 10**30), max_size=4).map(tuple), max_size=4).map(tuple)
table_args = st.tuples(st.integers(-2, 10), columns)
decomposition_args = st.tuples(st.integers(-2, 100), st.lists(ints, max_size=5).map(tuple))

CASES = [
    (Node, ref.Node, node_args()),
    (Plane, ref.Plane, plane_args),
    (Isoline, ref.Isoline, isoline_args),
    (DynamicsTable, ref.DynamicsTable, table_args),
    (Decomposition, ref.Decomposition, decomposition_args),
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
        assert [getattr(new, name) for name in cls.__match_args__] == list(args)

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


def test_node_is_not_its_tuple():
    assert Node(2, 0, 1, 1) != (2, 0, 1, 1)
    assert (2, 0, 1, 1) != Node(2, 0, 1, 1)
    assert Node(2, 0, 1, 1) != ref.Node(2, 0, 1, 1)


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
    assert new_dec.to_json_dict() == old_dec.to_json_dict()
