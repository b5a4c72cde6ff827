import copy
import hashlib
import io
import itertools
import pickle
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from dyck4d import (
    AXES,
    DEFAULT_POSITION_CAP,
    DiagramSpec,
    Node,
    Plane,
    build_table,
    emit,
    layout,
    node_from,
    parse_word,
    project_path,
    trace,
)
from dyck4d import cli, render
from dyck4d.coords import PLANES_2D, PLANES_3D, project
from dyck4d.errors import DomainError, ResourceLimit
from dyck4d.render import ISOLINE_COLORS

DATA = Path(__file__).parent / "data"

IJ = Plane.parse("ij")
SVG = "{http://www.w3.org/2000/svg}"


def _svg_isolines(svg):
    """The document's iso-* polylines read back to lattice points, as
    ((family, index), points) in document order."""
    root = ET.fromstring(svg)
    height = int(root.get("height"))

    def lattice(point):
        x, y = map(int, point.split(","))
        return (x - render.MARGIN) / render.SCALE, (height - render.MARGIN - y) / render.SCALE

    isolines = []
    for line in root.iterfind(f"{SVG}g[@id='isolines']/{SVG}polyline"):
        name = line.get("class").removeprefix("iso-")
        isolines.append(((name[0], int(name[1:])), tuple(map(lattice, line.get("points").split()))))
    return tuple(isolines)


class TestLayout:
    def test_small_triangle_placement(self):
        diagram = layout(DiagramSpec(plane=IJ, max_i=2))
        placed = {(p.x, p.y): p.label for p in diagram.nodes}
        assert placed == {(0, 0): "1", (1, 1): "1", (2, 0): "1", (2, 2): "1"}

    def test_single_node(self):
        diagram = layout(DiagramSpec(plane=Plane.parse("kj"), max_i=0))
        assert [(p.x, p.y, p.label) for p in diagram.nodes] == [(0, 0, "1")]

    def test_labels_come_from_table(self):
        for plane_name in ("ij", "nk", "in"):
            diagram = layout(DiagramSpec(plane=Plane.parse(plane_name), max_i=9))
            table = build_table(9)
            for placed in diagram.nodes:
                assert placed.label == str(table.count_node(placed.node))

    def test_nk_ground_isoline_is_main_diagonal(self):
        svg = emit(layout(DiagramSpec(plane=Plane.parse("nk"), max_i=12, fmt="svg")))
        ground = dict(_svg_isolines(svg))[("j", 0)]
        assert ground == tuple((m, m) for m in range(7))

    def test_kj_quadrant_is_full(self):
        max_i = 10
        diagram = layout(DiagramSpec(plane=Plane.parse("kj"), max_i=max_i))
        placed = {(p.x, p.y): p.label for p in diagram.nodes}
        expected = {
            (k, j) for k in range(max_i // 2 + 1) for j in range(max_i - 2 * k + 1)
        }
        assert set(placed) == expected
        assert all(int(label) > 0 for label in placed.values())

    def test_spatial_plane_flattens_with_note(self):
        diagram = layout(DiagramSpec(plane=Plane.parse("ijn"), max_i=4))
        assert diagram.plane == IJ
        assert "i + j - 2n = 0" in diagram.note

    def test_isoline_family_selection(self):
        svg = emit(layout(DiagramSpec(plane=IJ, max_i=6, isolines=frozenset("nk"), fmt="svg")))
        assert {family for (family, _), _ in _svg_isolines(svg)} == {"n", "k"}

    def test_text_builds_no_isoline_or_path(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("only SVG draws the path")
        monkeypatch.setattr(render, "project_path", refuse)
        monkeypatch.setattr(render, "trace", refuse)
        spec = DiagramSpec(IJ, 6, "ijnk", parse_word("(()"), "text")
        assert emit(layout(spec)) == emit(layout(DiagramSpec(IJ, 6, "", fmt="text")))

    def test_resource_limit_propagates(self):
        with pytest.raises(ResourceLimit):
            layout(DiagramSpec(plane=IJ, max_i=9999))


class TestSpecValidation:
    def test_word_must_fit(self):
        with pytest.raises(DomainError):
            DiagramSpec(plane=IJ, max_i=2, word=parse_word("(())"))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            DiagramSpec(plane=IJ, max_i=2, isolines=frozenset("xz"))

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            DiagramSpec(plane=IJ, max_i=2, fmt="png")

    def test_negative_bound(self):
        with pytest.raises(DomainError) as info:
            DiagramSpec(plane=IJ, max_i=-1)
        assert str(info.value) == "max_i must be nonnegative, got -1"

    def test_output_cap_refuses_the_spec(self, monkeypatch):
        monkeypatch.setattr(render, "layout", None)  # refused with no layout to call
        with pytest.raises(ResourceLimit) as info:
            DiagramSpec(IJ, 432)
        assert str(info.value) == ("a diagram up to max_i = 432 may take 33564627 bytes, "
                                   "beyond the output cap of 33554432")

    def test_position_cap_refuses_the_spec(self):
        with pytest.raises(ResourceLimit) as info:
            DiagramSpec(IJ, 4097)
        assert str(info.value) == "max_i = 4097 exceeds the position cap of 4096"

    def test_highlights_are_not_a_field(self):
        with pytest.raises(TypeError):
            DiagramSpec(IJ, 4, highlights=())

    @pytest.mark.parametrize("size", range(len(AXES) + 1))
    def test_isolines_are_stored_in_axes_order(self, size):
        for subset in itertools.combinations(AXES, size):  # each subset, in AXES order
            canonical = "".join(subset)
            specs = [DiagramSpec(IJ, 4, isolines=given)
                     for given in (frozenset(subset), subset[::-1], canonical)]
            assert [spec.isolines for spec in specs] == [canonical] * 3
            assert specs[0] == specs[1] == specs[2]
            for spec in specs:
                for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec),
                             copy.deepcopy(spec)):
                    assert twin == spec and repr(twin) == repr(spec)


class TestEmitText:
    def test_golden_triangle(self):
        text = emit(layout(DiagramSpec(plane=IJ, max_i=4, fmt="text")))
        assert text == (DATA / "ij_max4.txt").read_text()

    def test_single_node_document(self):
        text = emit(layout(DiagramSpec(plane=IJ, max_i=0, fmt="text")))
        assert "1" in text
        assert text.endswith("\n")

    def test_deterministic(self):
        spec = DiagramSpec(plane=Plane.parse("in"), max_i=7, fmt="text")
        assert emit(layout(spec)) == emit(layout(spec))


class TestEmitSvg:
    def test_golden_small(self):
        svg = emit(layout(DiagramSpec(plane=IJ, max_i=2, fmt="svg")))
        assert svg == (DATA / "ij_max2.svg").read_text()

    def test_well_formed_xml(self):
        svg = emit(layout(DiagramSpec(plane=Plane.parse("nj"), max_i=8, fmt="svg")))
        ET.fromstring(svg)

    def test_deterministic(self):
        spec = DiagramSpec(plane=IJ, max_i=8, fmt="svg")
        assert emit(layout(spec)) == emit(layout(spec))

    def test_one_color_per_axis(self):
        assert set(ISOLINE_COLORS) == set(AXES)

    def test_isoline_colors(self):
        svg = emit(layout(DiagramSpec(plane=IJ, max_i=6, fmt="svg")))
        for family, color in ISOLINE_COLORS.items():
            assert re.search(f'class="iso-{family}\\d+"[^/]*stroke="{color}"', svg)

    def test_labels_match_table(self):
        svg = emit(layout(DiagramSpec(plane=IJ, max_i=8, fmt="svg")))
        labels = sorted(int(m) for m in re.findall(r"<text[^>]*>(\d+)</text>", svg))
        table = build_table(8)
        assert labels == sorted(value for _, value in table.items())

    def test_path_present(self):
        spec = DiagramSpec(plane=IJ, max_i=4, word=parse_word("(())"), fmt="svg")
        assert '<g id="path">' in emit(layout(spec))

    def test_flattened_plane_notes_eliminated_axis(self):
        svg = emit(layout(DiagramSpec(plane=Plane.parse("jnk"), max_i=4, fmt="svg")))
        assert "<desc>" in svg
        assert "j - n + k = 0" in svg


# SHA-256 of every document over the grid below, each followed by a NUL byte.
GRID_DIGEST = "27fcd7e39ffa039903cff7ab5a930c4b48a54828ecc96e9e6e0f0ee4ee9d444b"


def test_documents_over_the_grid_are_pinned():
    digest = hashlib.sha256()
    for plane in PLANES_2D + PLANES_3D:
        for max_i in (0, 1, 2, 5, 13):
            for isolines in ("ijnk", "", "nk", "i"):
                for word in (None, "", "(()", "()()"):
                    if word is not None and len(word) > max_i:
                        continue
                    for fmt in ("text", "svg"):
                        spec = DiagramSpec(plane, max_i, isolines,
                                           None if word is None else parse_word(word), fmt)
                        digest.update(emit(layout(spec)).encode() + b"\0")
    assert digest.hexdigest() == GRID_DIGEST


def test_emit_honors_spec_format():
    assert emit(layout(DiagramSpec(plane=IJ, max_i=2, fmt="svg"))).startswith("<?xml")
    assert emit(layout(DiagramSpec(plane=IJ, max_i=2, fmt="text"))).startswith("j\n")


def _nodes_on_isoline(family, v, max_i):
    """All valid nodes whose ``family`` coordinate is ``v``, with position at most
    ``max_i``, each completed from its ij coordinates: by increasing position, or for
    an i-isoline by increasing unbalance."""
    if family == "i":
        if v > max_i:
            return []
        return [node_from(IJ, v, j) for j in range(v % 2, v + 1, 2)]
    if family == "j":
        return [node_from(IJ, i, v) for i in range(v, max_i + 1, 2)]
    if family == "n":
        return [node_from(IJ, i, 2 * v - i) for i in range(v, min(2 * v, max_i) + 1)]
    return [node_from(IJ, i, i - 2 * v) for i in range(2 * v, max_i + 1)]


class TestNodesOnIsoline:
    def test_falling_diagonal(self):
        nodes = _nodes_on_isoline("n", 6, 12)
        assert [(node.i, node.j) for node in nodes] == [
            (6, 6), (7, 5), (8, 4), (9, 3), (10, 2), (11, 1), (12, 0),
        ]

    def test_rising_diagonal(self):
        nodes = _nodes_on_isoline("k", 1, 6)
        assert [(node.i, node.j) for node in nodes] == [
            (2, 0), (3, 1), (4, 2), (5, 3), (6, 4),
        ]

    def test_ground_row_at_origin(self):
        assert _nodes_on_isoline("j", 0, 0) == [Node(0, 0, 0, 0)]

    def test_vertical(self):
        nodes = _nodes_on_isoline("i", 4, 10)
        assert [(node.i, node.j) for node in nodes] == [(4, 0), (4, 2), (4, 4)]

    def test_vertical_out_of_range(self):
        assert _nodes_on_isoline("i", 5, 4) == []


def _reference_isolines(spec):
    """Isolines as completed node by node through _nodes_on_isoline, not grouped from
    the placed nodes as the SVG emitter does."""
    plane = Plane(spec.plane.axes[:2])
    placed = list(build_table(spec.max_i).items())
    isolines = []
    for family in "ijnk":
        if family not in spec.isolines:
            continue
        for index in sorted({getattr(node, family) for node, _ in placed}):
            points = tuple(
                project(node, plane) for node in _nodes_on_isoline(family, index, spec.max_i)
            )
            if len(points) >= 2:
                isolines.append(((family, index), points))
    return tuple(isolines)


@pytest.mark.parametrize("plane", PLANES_2D + PLANES_3D, ids=lambda p: p.name)
def test_isolines_match_node_completion(plane):
    for max_i in range(16):
        for families in ("ijnk", "i", "kn", ""):
            spec = DiagramSpec(plane=plane, max_i=max_i, isolines=frozenset(families), fmt="svg")
            assert _svg_isolines(emit(layout(spec))) == _reference_isolines(spec)


def test_output_cap_keeps_labels_below_every_digit_limit():
    # layout converts labels with str() unchecked: the output cap must refuse every max_i
    # whose largest count, below 2**max_i, could reach the least int/str limit, 640 digits.
    max_i = max(m for m in range(DEFAULT_POSITION_CAP + 1)
                if render._output_bound(m) <= render.OUTPUT_BYTE_CAP)
    assert max_i == 431
    assert len(str(1 << max_i)) < 640


def test_word_on_every_axis_order():
    # jnk flattens to jn, where a downstep moves left.
    plane = layout(DiagramSpec(plane=Plane.parse("jnk"), max_i=4)).plane
    path = project_path(trace(parse_word("()()")), plane)
    assert path.points == ((0, 0), (1, 1), (0, 1), (1, 2), (0, 2))


@pytest.mark.parametrize("max_i", [0, 1, 2, 3, 5, 8, 13, 16, 21, 40, 64])
def test_output_bound_covers_every_document(max_i):
    word = parse_word("()" * (max_i // 2)) if max_i else None
    for plane in PLANES_2D + PLANES_3D:
        for fmt in ("text", "svg"):
            document = emit(layout(DiagramSpec(plane=plane, max_i=max_i, word=word, fmt=fmt)))
            assert len(document.encode()) <= render._output_bound(max_i), (plane.name, fmt)


def test_output_bound_labels_hold_the_digits_of_the_largest_count():
    # No count in column i passes 2**i, which has exactly _max_digits(i) digits.
    for max_i in range(DEFAULT_POSITION_CAP + 1):
        digits = len(str(1 << max_i))
        assert render._output_bound(max_i) == (max_i + 1) ** 2 * (digits + 48) + 4096, max_i


def test_output_cap_admits_the_largest_tested_render_and_refuses_before_the_table(monkeypatch):
    assert render._output_bound(200) <= render.OUTPUT_BYTE_CAP  # the benchmark's largest render
    monkeypatch.setattr(render, "build_table", None)  # refused before any build
    with pytest.raises(ResourceLimit, match="beyond the output cap of 33554432"):
        layout(DiagramSpec(plane=IJ, max_i=4096))
    with pytest.raises(ResourceLimit, match="exceeds the position cap of 4096"):
        layout(DiagramSpec(plane=IJ, max_i=4097))


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["text", "svg"])
@pytest.mark.parametrize("plane", ["ij", "ijn"])
def test_render_writes_the_document_in_pieces(tmp_path, plane, fmt):
    # The CLI holds the placed nodes and one line or isoline family, never the document.
    spec = DiagramSpec(plane=Plane.parse(plane), max_i=200, fmt=fmt)
    document = emit(layout(spec))
    bound = _traced_peak(lambda: layout(spec)) + len(document) // 2
    argv = ["render", "--plane", plane, "--max-i", "200"]
    if fmt == "svg":
        argv += ["--svg", str(tmp_path / "diagram.svg")]
    codes = []
    assert _traced_peak(lambda: codes.append(cli.run(argv, stdout=_Discard()))) < bound
    assert codes == [0]
    if fmt == "svg":
        assert (tmp_path / "diagram.svg").read_text(encoding="utf-8") == document
