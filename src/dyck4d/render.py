"""Text and SVG diagrams of the triangle's planar views.

Output is deterministic: the same :class:`DiagramSpec` always serializes to the same bytes,
so emitted documents are safe to pin as golden files.  Node labels are always read straight
off a count table built for the spec; nothing is recomputed at draw time.  ``layout`` only
places the nodes; the SVG emitter groups them by one coordinate into isolines and projects
the word's path.  Each emitter yields its document one line at a time: the CLI writes the
lines as they come, so it never holds the document, and ``emit`` joins them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .coords import AXES, Node, Plane, _Value, planarity_equation, project
from .dynamics import _check_bound, _max_digits, build_table
from .errors import DomainError, ResourceLimit
from .paths import DyckWord, project_path, trace

# One color per isoline family, fixed so golden files stay stable.
ISOLINE_COLORS = {"i": "#008000", "j": "#0000ff", "n": "#b8860b", "k": "#ff0000"}

PATH_COLOR = "#000000"

# One lattice unit is 40 px; the origin sits bottom-left and the y axis is
# flipped only at emit time.
SCALE = 40
MARGIN = 40

OUTPUT_BYTE_CAP = 1 << 25  # largest document, in bytes, that a spec admits by _output_bound


def _output_bound(max_i: int) -> int:
    """Bytes a text or SVG diagram up to ``max_i`` can take: (max_i + 1)**2 grid cells
    at most, each a space and a label no longer than 2**max_i, which no count passes,
    or a quarter of an SVG node's under 200 bytes of markup, and 4096 for the SVG
    header, note and path."""
    return (max_i + 1) ** 2 * (_max_digits(max_i) + 48) + 4096


class DiagramSpec(_Value):
    """What to draw: a plane, a position bound, the isoline families (stored as one string
    in ``AXES`` order), an optional word's path, and the format.  Raises
    :class:`ResourceLimit` past the position cap or ``OUTPUT_BYTE_CAP``, before any other
    check, so that ``layout`` can draw every spec."""

    __slots__ = ("plane", "max_i", "isolines", "word", "fmt")

    def __init__(self, plane: Plane, max_i: int, isolines: Iterable[str] = "".join(AXES),
                 word: DyckWord | None = None, fmt: str = "text"):
        self._set(plane, max_i, isolines, word, fmt)
        _check_bound(self.max_i)  # the position cap is reported first
        if (size := _output_bound(self.max_i)) > OUTPUT_BYTE_CAP:
            raise ResourceLimit(f"a diagram up to max_i = {self.max_i} may take {size} bytes, "
                                f"beyond the output cap of {OUTPUT_BYTE_CAP}")
        families = set(isolines)
        if unknown := families - set(AXES):
            raise DomainError(f"unknown isoline families: {sorted(unknown)}")
        object.__setattr__(self, "isolines", "".join(f for f in AXES if f in families))
        if self.fmt not in ("text", "svg"):
            raise DomainError(f"format must be 'text' or 'svg', got {self.fmt!r}")
        if self.word is not None and len(self.word) > self.max_i:
            raise DomainError(
                f"word of {len(self.word)} steps does not fit within max_i = {self.max_i}"
            )


class PlacedNode(_Value):
    __slots__ = ("node", "x", "y", "label")

    def __init__(self, node: Node, x: int, y: int, label: str):
        object.__setattr__(self, "node", node)  # one per node: no _set call
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "label", label)


class Diagram(_Value):
    """A laid-out diagram, ready to serialize: ``plane`` is the two-axis plane actually
    drawn, and ``note`` is set when a three-axis plane was flattened."""

    __slots__ = ("spec", "plane", "note", "nodes")

    def __init__(self, spec: DiagramSpec, plane: Plane, note: str | None,
                 nodes: tuple[PlacedNode, ...]):
        self._set(spec, plane, note, nodes)


def layout(spec: DiagramSpec) -> Diagram:
    """Place every reachable node.

    A three-axis plane is drawn as its first two axes: every three-axis
    view lies exactly on one plane, so the third axis carries no extra
    information and the diagram records which equation eliminated it.
    """
    plane = spec.plane
    note = None
    if plane.is_spatial:
        flat = Plane(plane.axes[:2])
        note = (
            f"{plane.name} flattened to {flat.name}; axis {plane.axes[2]} "
            f"is determined by {planarity_equation(plane)}"
        )
        plane = flat

    # A spec admits max_i <= 431, so labels have <= 130 digits: below any int/str limit.
    table = build_table(spec.max_i)
    placed = tuple(
        PlacedNode(node, *project(node, plane), str(value))
        for node, value in table.items()
    )
    return Diagram(spec, plane, note, placed)


def emit(diagram: Diagram) -> str:
    """Serialize a laid-out diagram in its spec's format, which the spec validated."""
    return "".join(_pieces(diagram))


def _pieces(diagram: Diagram) -> Iterator[str]:
    """The document ``emit`` returns, one line at a time, each ending in a newline."""
    return (_emit_svg if diagram.spec.fmt == "svg" else _emit_text)(diagram)


def _emit_text(diagram: Diagram) -> Iterator[str]:
    """Aligned grid of count labels; rows run top to bottom by the y axis.

    Isolines and the path are drawn only in SVG.
    """
    x_name, y_name = diagram.plane.axes
    labels = {(p.x, p.y): p.label for p in diagram.nodes}
    x_max = max(p.x for p in diagram.nodes)
    y_max = max(p.y for p in diagram.nodes)
    width = max(len(label) for label in labels.values())
    width = max(width, len(str(x_max)))
    y_width = len(str(y_max))

    if diagram.note:
        yield f"[{diagram.note}]\n"
    yield y_name + "\n"
    for y in range(y_max, -1, -1):
        cells = [labels.get((x, y), "").rjust(width) for x in range(x_max + 1)]
        yield (f"{str(y).rjust(y_width)} | " + " ".join(cells)).rstrip() + "\n"
    yield " " * y_width + " +" + "-" * ((width + 1) * (x_max + 1)) + "\n"
    ticks = " ".join(str(x).rjust(width) for x in range(x_max + 1))
    yield f"{' ' * y_width}   {ticks}  {x_name}\n"


def _emit_svg(diagram: Diagram) -> Iterator[str]:
    """SVG 1.1 document with isolines, the optional path, and one labeled dot per node."""
    x_max = max(p.x for p in diagram.nodes)
    y_max = max(p.y for p in diagram.nodes)
    width = 2 * MARGIN + SCALE * x_max
    height = 2 * MARGIN + SCALE * y_max

    def px(x: int) -> int:
        return MARGIN + SCALE * x

    def py(y: int) -> int:
        return height - MARGIN - SCALE * y

    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    yield f"<title>{diagram.plane.name} diagram, positions up to {diagram.spec.max_i}</title>\n"
    if diagram.note:
        yield f"<desc>{diagram.note}</desc>\n"

    yield '<g id="isolines">\n'
    for family in diagram.spec.isolines:
        # Nodes are placed column by column, k ascending, so each group runs
        # by rising position; read backwards, a column runs by rising j.
        groups: dict[int, list[str]] = {}
        for p in reversed(diagram.nodes) if family == "i" else diagram.nodes:
            groups.setdefault(getattr(p.node, family), []).append(f"{px(p.x)},{py(p.y)}")
        for index, points in sorted(groups.items()):
            if len(points) >= 2:
                yield (
                    f'<polyline class="iso-{family}{index}" fill="none" '
                    f'stroke="{ISOLINE_COLORS[family]}" stroke-width="1" '
                    f'points="{" ".join(points)}"/>\n'
                )
    yield "</g>\n"

    if diagram.spec.word is not None:
        path = project_path(trace(diagram.spec.word), diagram.plane)
        path_points = " ".join(f"{px(x)},{py(y)}" for x, y in path.points)
        yield '<g id="path">\n'
        yield (
            f'<polyline fill="none" stroke="{PATH_COLOR}" stroke-width="3" '
            f'points="{path_points}"/>\n'
        )
        yield "</g>\n"

    yield '<g id="nodes">\n'
    for p in diagram.nodes:
        yield f'<circle cx="{px(p.x)}" cy="{py(p.y)}" r="3" fill="#000000"/>\n'
        yield (
            f'<text x="{px(p.x)}" y="{py(p.y) - 8}" font-family="monospace" '
            f'font-size="12" text-anchor="middle">{p.label}</text>\n'
        )
    yield "</g>\n"
    yield "</svg>\n"
