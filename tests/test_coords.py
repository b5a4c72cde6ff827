import itertools

import pytest
from hypothesis import given, strategies as st

from dyck4d import (
    AXES,
    MAX_COORD,
    PLANES_2D,
    PLANES_3D,
    Node,
    Plane,
    is_reachable,
    iter_nodes,
    node_from,
    planarity_equation,
    planarity_residual,
    project,
)
from dyck4d import coords
from dyck4d.errors import NotANode

from test_render import _nodes_on_isoline

IJ = Plane.parse("ij")


@st.composite
def valid_nodes(draw, max_i=200):
    i = draw(st.integers(0, max_i))
    k = draw(st.integers(0, i // 2))
    return node_from(IJ, i, i - 2 * k)


class TestNode:
    def test_valid_construction(self):
        node = Node(7, 3, 5, 2)
        assert (node.i, node.j, node.n, node.k) == (7, 3, 5, 2)

    def test_rejects_equation_violation(self):
        with pytest.raises(NotANode):
            Node(7, 3, 5, 3)

    def test_rejects_negative(self):
        with pytest.raises(NotANode):
            Node(1, -1, 0, 1)

    def test_rejects_non_integer(self):
        with pytest.raises(NotANode):
            Node(2.0, 0, 1, 1)
        with pytest.raises(NotANode):
            Node(True, 1, 1, 0)

    def test_rejects_over_cap(self):
        with pytest.raises(NotANode):
            Node(MAX_COORD + 2, MAX_COORD + 2, MAX_COORD + 2, 0)

    def test_immutable(self):
        node = Node(2, 0, 1, 1)
        with pytest.raises(AttributeError):
            node.i = 3


class TestPlane:
    def test_parse_two_axis(self):
        assert Plane.parse("NJ").axes == ("n", "j")
        assert Plane.parse("ij").name == "ij"
        assert not Plane.parse("kj").is_spatial

    def test_parse_three_axis(self):
        plane = Plane.parse("ijn")
        assert plane.is_spatial
        assert plane.axes == ("i", "j", "n")

    @pytest.mark.parametrize("bad", ["i", "iijj", "ii", "xy", "ijnk"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ValueError):
            Plane.parse(bad)

    def test_built_from_a_list_equals_the_parsed_plane(self):
        plane = Plane(["j", "i"])
        assert type(plane.axes) is tuple
        assert plane == Plane.parse("ji")
        assert hash(plane) == hash(Plane.parse("ji"))
        assert {plane, Plane.parse("ji")} == {plane}

    def test_exactly_ten_planes(self):
        assert len({frozenset(p.axes) for p in PLANES_2D}) == 6
        assert len({frozenset(p.axes) for p in PLANES_3D}) == 4


class TestNodeFrom:
    def test_ij_example(self):
        assert node_from(IJ, 7, 3) == Node(7, 3, 5, 2)

    def test_origin(self):
        assert node_from(IJ, 0, 0) == Node(0, 0, 0, 0)

    def test_odd_sum_rejected(self):
        with pytest.raises(NotANode):
            node_from(IJ, 6, 1)

    def test_kj_example(self):
        assert node_from(Plane.parse("kj"), 2, 0) == Node(4, 0, 2, 2)

    def test_j_above_i_rejected(self):
        with pytest.raises(NotANode):
            node_from(IJ, 2, 4)

    def test_in_outside_wedge_rejected(self):
        with pytest.raises(NotANode):
            node_from(Plane.parse("in"), 3, 1)

    def test_spatial_plane_rejected(self):
        with pytest.raises(ValueError):
            node_from(Plane.parse("ijn"), 1, 1)


class TestReachability:
    @pytest.mark.parametrize(
        "i,j,expected",
        [(7, 1, True), (6, 1, False), (2, 4, False), (0, 0, True),
         (-2, 0, False), (3, -1, False), (12, 0, True)],
    )
    def test_examples(self, i, j, expected):
        assert is_reachable(i, j) is expected

    @given(st.integers(-5, 60), st.integers(-5, 60))
    def test_matches_node_completion(self, i, j):
        try:
            node_from(IJ, i, j)
            constructible = True
        except NotANode:
            constructible = False
        assert is_reachable(i, j) == constructible


class TestProjection:
    def test_nj_example(self):
        assert project(Node(7, 1, 4, 3), Plane.parse("nj")) == (4, 1)

    def test_nk_origin(self):
        assert project(Node(0, 0, 0, 0), Plane.parse("nk")) == (0, 0)

    def test_ik_example(self):
        assert project(Node(6, 2, 4, 2), Plane.parse("ik")) == (6, 2)

    def test_three_axis(self):
        assert project(Node(7, 1, 4, 3), Plane.parse("ijn")) == (7, 1, 4)

    @given(valid_nodes())
    def test_round_trip_all_planes(self, node):
        for plane in PLANES_2D:
            assert node_from(plane, *project(node, plane)) == node

    @given(valid_nodes())
    def test_planarity_all_triples(self, node):
        for plane in PLANES_3D:
            assert planarity_residual(node, plane) == 0

    def test_planarity_equations(self):
        rendered = {p.name: planarity_equation(p) for p in PLANES_3D}
        assert rendered == {
            "ijn": "i + j - 2n = 0",
            "ijk": "i - j - 2k = 0",
            "nik": "i - n - k = 0",
            "jnk": "j - n + k = 0",
        }

    def test_planarity_rejects_two_axis(self):
        with pytest.raises(ValueError):
            planarity_residual(Node(0, 0, 0, 0), IJ)

    def test_planarity_equation_rejects_two_axis(self):
        with pytest.raises(ValueError) as info:
            planarity_equation(Plane.parse("ij"))
        assert str(info.value) == "planarity applies to three-axis planes, got 'ij'"


class TestIsolines:
    @given(valid_nodes(max_i=40))
    def test_node_lies_on_all_four(self, node):
        for axis in AXES:
            assert node in _nodes_on_isoline(axis, getattr(node, axis), node.i)


def test_iter_nodes_counts_columns():
    nodes = list(iter_nodes(6))
    assert len(nodes) == sum(i // 2 + 1 for i in range(7))
    assert all(is_reachable(node.i, node.j) for node in nodes)
    assert nodes[0] == Node(0, 0, 0, 0)


class TestNodeRejectionText:
    """Each kind of invalid node keeps its NotANode text."""

    @pytest.mark.parametrize(
        "coords, text",
        [
            ((2.0, 0, 1, 1), "coordinate i must be an integer, got 2.0"),
            ((2, 0, "1", 1), "coordinate n must be an integer, got '1'"),
            ((True, 1, 1, 0), "coordinate i must be an integer, got True"),
            ((1, 1, 1, False), "coordinate k must be an integer, got False"),
            ((1, -1, 0, 1), "coordinate j must be nonnegative, got -1"),
            ((0, 0, -1, 1), "coordinate n must be nonnegative, got -1"),
            (
                (MAX_COORD + 2, MAX_COORD + 2, MAX_COORD + 2, 0),
                f"position {MAX_COORD + 2} exceeds the coordinate limit {MAX_COORD}",
            ),
            ((7, 3, 5, 3), "(7, 3, 5, 3) violates i = n + k, j = n - k"),
        ],
    )
    def test_message(self, coords, text):
        with pytest.raises(NotANode) as info:
            Node(*coords)
        assert str(info.value) == text

    def test_int_subclass_accepted(self):
        class Index(int):
            pass

        node = Node(Index(7), 3, Index(5), 2)
        assert (node.i, node.j, node.n, node.k) == (7, 3, 5, 2)

    def test_largest_position_accepted(self):
        node = Node(MAX_COORD, MAX_COORD, MAX_COORD, 0)
        assert node.i == MAX_COORD


ORDERED_PAIRS = [a + b for a, b in itertools.permutations(AXES, 2)]


class TestOrderedPairs:
    @pytest.mark.parametrize("name", ORDERED_PAIRS)
    def test_round_trip(self, name):
        plane = Plane.parse(name)
        for node in iter_nodes(30):
            assert node_from(plane, *project(node, plane)) == node

    def test_direct_construction(self):
        for axes in (("j", "i"), ["j", "i"]):
            plane = Plane(axes)
            assert project(Node(7, 3, 5, 2), plane) == (3, 7)
            assert node_from(plane, 3, 7) == Node(7, 3, 5, 2)

    @pytest.mark.parametrize(
        "name, a, b, text",
        [
            ("ij", 6, 1, "(i=6, j=1) has odd coordinate sum, no node there"),
            ("ji", 6, 1, "(i=1, j=6) has odd coordinate sum, no node there"),
            ("in", 3, 5, "coordinate k must be nonnegative, got -2"),
            ("ni", 6, 1, "coordinate k must be nonnegative, got -5"),
            ("ik", 3, 5, "coordinate j must be nonnegative, got -7"),
            ("ki", 3, 5, "coordinate j must be nonnegative, got -1"),
            ("jn", 6, 1, "coordinate i must be nonnegative, got -4"),
            ("nj", 3, 5, "coordinate k must be nonnegative, got -2"),
            ("jk", -1, 0, "coordinate i must be nonnegative, got -1"),
            ("kj", -1, 0, "coordinate i must be nonnegative, got -2"),
            ("nk", 3, 5, "coordinate j must be nonnegative, got -2"),
            ("kn", 6, 1, "coordinate j must be nonnegative, got -5"),
        ],
    )
    def test_rejection_messages(self, name, a, b, text):
        with pytest.raises(NotANode) as info:
            node_from(Plane.parse(name), a, b)
        assert str(info.value) == text


def test_completions_are_written_for_the_paper_planes_only():
    # Each reversed order is the same argument-swapping wrapper of a written entry.
    assert set(coords._COMPLETIONS) == set(itertools.permutations(AXES, 2))
    swapped = coords._COMPLETIONS[("j", "i")].__code__
    written = {axes for axes, complete in coords._COMPLETIONS.items()
               if complete.__code__ is not swapped}
    assert written == {plane.axes for plane in PLANES_2D}
