"""Cross-checks wiring every identity and invariant together.

Each check runs within a caller-supplied position bound and returns whether
it passed and a short detail string.  :data:`_CHECKS` names every check once,
in run order, and :func:`run_checks` alone makes each :class:`CheckResult`,
with the seconds the check took; the command line's ``verify`` subcommand
prints one line per check, or one JSON record per check with ``--json``.
No table is held for the bound: each check that reads counts walks the
recurrence's columns itself, keeping at most the previous one, or builds the
small prefix table it needs, so a check's seconds cover everything it reads.
The Catalan numbers come from :func:`_catalans`, which reads no column.  Only
square-terms compares whole closed-form columns with the recurrence's; the point
forms (square_term, convolution) are compared at the k that :func:`_point_ks` picks.
Checks that compare against the brute-force scanners clamp themselves to the
scanners' hard caps.
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Iterable, Iterator

from . import coords, dynamics, identities, paths, render
from .errors import DyckError, NotANode, TableFormatError

GEOMETRY_SEED = 427531
GEOMETRY_WORDS = 1000
POINT_COLUMNS = 128  # see _point_ks; every golden bound lies within it

_NK = coords.Plane.parse("nk")

_Outcome = tuple[bool, str]  # passed, detail


class CheckResult(coords._Value):
    __slots__ = ("name", "passed", "detail", "seconds")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float = 0.0):
        self._set(name, passed, detail, seconds)

    def _astuple(self) -> tuple:
        # Leaves out seconds: the wall time of the check and of all it reads.
        return self.name, self.passed, self.detail


def _random_word(rng: random.Random, semilength: int) -> paths.DyckWord:
    steps = []
    ups = downs = 0
    while downs < semilength:
        can_up = ups < semilength
        can_down = downs < ups
        if can_up and (not can_down or rng.random() < 0.5):
            steps.append("U")
            ups += 1
        else:
            steps.append("D")
            downs += 1
    return paths.DyckWord("".join(steps))


def _catalans(v_max: int) -> Iterator[int]:
    """Catalan numbers 0 through ``v_max`` by the ratio recurrence
    C(v+1) = C(v)·2(2v+1)/(v+2), which reads neither a column nor ``math.comb``."""
    cat = 1
    for v in range(v_max + 1):
        yield cat
        cat = cat * 2 * (2 * v + 1) // (v + 2)


def _check_node_equations(bound: int) -> _Outcome:
    total = 0
    for node in coords.iter_nodes(bound):
        total += 1
        ok = (
            node.i + node.j == 2 * node.n
            and node.i - node.j == 2 * node.k
            and node.i >= node.n >= node.j >= 0
            and node.n >= node.k >= 0
        )
        if not ok:
            return False, f"coordinate equations fail at {node}"
    return True, f"{total} nodes with i <= {bound}"


def _check_reachability(bound: int) -> _Outcome:
    ij = coords.PLANES_2D[0]
    checked = 0
    for i in range(-2, bound + 1):
        for j in range(-2, i + 3):
            checked += 1
            try:
                coords.node_from(ij, i, j)
                constructible = True
            except NotANode:
                constructible = False
            if coords.is_reachable(i, j) != constructible:
                return False, f"is_reachable({i}, {j}) disagrees with node completion"
    return True, f"{checked} (i, j) pairs"


def _check_roundtrip(bound: int) -> _Outcome:
    node_from, project = coords.node_from, coords.project
    total = 0
    for node in coords.iter_nodes(bound):
        for plane in coords.PLANES_2D:
            total += 1
            if node_from(plane, *project(node, plane)) != node:
                return False, f"{plane.name} does not round-trip {node}"
    return True, f"{total} projections"


def _check_planarity(bound: int) -> _Outcome:
    residual = coords.planarity_residual
    total = 0
    for node in coords.iter_nodes(bound):
        for plane in coords.PLANES_3D:
            total += 1
            if residual(node, plane) != 0:
                return False, f"{plane.name} residual nonzero at {node}"
    return True, f"{total} residuals, all zero"


def _check_recurrence(bound: int) -> _Outcome:
    entries, prev = 0, {}
    for i, col in enumerate(dynamics._columns(bound)):
        counts = dict(zip(range(i, -1, -2), col))  # by height j = i - 2k
        entries += len(col)
        for j, value in counts.items():
            if i and value != prev.get(j + 1, 0) + prev.get(j - 1, 0):
                return False, f"recurrence fails at ({i}, {j})"
        prev = counts
    return True, f"{entries} entries, i <= {bound}"


def _check_four_coordinate_form(bound: int) -> _Outcome:
    # Column i takes the next len(col) nodes: a node out of step reads the wrong column.
    nodes, prev = coords.iter_nodes(bound), ()
    for i, col in enumerate(dynamics._columns(bound)):
        counts = dict(zip(range(i, -1, -2), col))
        for node in itertools.islice(nodes, len(col)):
            value = col[node.k]
            if value != counts.get(node.j, 0):
                return False, f"2D/4D disagree at {node}"
            if node.i == 0:
                continue
            up = coords.Node(node.i - 1, node.j + 1, node.n, node.k - 1) if node.k else None
            down = coords.Node(node.i - 1, node.j - 1, node.n - 1, node.k) if node.j else None
            total = (prev[up.k] if up else 0) + (prev[down.k] if down else 0)
            if value != total:
                return False, f"shifted recurrence fails at {node}"
        prev = col
    return True, f"all nodes with i <= {bound}"


def _check_bottom_rows(bound: int) -> _Outcome:
    prev = ()
    for i, col in enumerate(dynamics._columns(bound)):
        # An even column ends at height 0, the odd one before it at height 1.
        if i and i % 2 == 0 and col[-1] != prev[-1]:
            return False, f"rows disagree at n = {i // 2}"
        prev = col
    return True, f"n <= {bound // 2}"


def _check_column_tops(bound: int) -> _Outcome:
    for i, col in enumerate(dynamics._columns(bound)):
        if col[0] != 1:
            return False, f"count({i}, {i}) != 1"
    return True, f"i <= {bound}"


def _check_oracle(bound: int) -> _Outcome:
    scan_bound = min(bound, paths.COUNT_SCAN_CAP)
    positions = 0
    for i, col in enumerate(dynamics._columns(scan_bound)):
        by_height = paths.count_paths_by_height(i)
        for j, value in zip(range(i, -1, -2), col):  # the order of iter_nodes
            positions += 1
            if by_height[j] != value:
                return False, f"brute force disagrees at ({i}, {j})"
    return True, f"{positions} positions, i <= {scan_bound}"


def _point_ks(i: int, lo: int = 0) -> Iterable[int]:
    """The k in ``lo`` .. i // 2 at which a check compares a point form with
    column i: all of them in columns up to POINT_COLUMNS, else the k that
    ``square_term_special`` covers."""
    if i <= POINT_COLUMNS:
        return range(lo, i // 2 + 1)
    return sorted({k for k in (0, 1, 2, i // 2) if lo <= k})


def _check_square_terms(bound: int) -> _Outcome:
    total = 0
    for i, col in enumerate(dynamics._columns(bound)):
        terms = identities.square_terms(i)
        total += len(col)
        if terms != col:
            k = dynamics._first_difference(terms, col)
            return False, f"closed form disagrees at (i={i}, k={k})"
        for k in _point_ks(i):
            if identities.square_term(i, k) != terms[k]:
                return False, f"square_term disagrees with its column at (i={i}, k={k})"
    return True, f"{total} terms, i <= {bound}"


def _check_convolution(bound: int) -> _Outcome:
    # Entry (n, j) is count(2n - j, j): column i = 2n - j at k = n - j.  So column i
    # holds the entries of rows n = i - k <= bound // 2, those with k >= i - bound // 2.
    for i, col in enumerate(dynamics._columns(bound)):
        for k in _point_ks(i, max(0, i - bound // 2)):
            n, j = i - k, i - 2 * k
            if identities.convolution(n, j) != col[k]:
                return False, f"convolution disagrees with its column at (n={n}, j={j})"
    return True, f"n <= {bound // 2}"


def _check_sum_of_squares(bound: int) -> _Outcome:
    for v, cat in enumerate(_catalans(bound)):
        if sum(t * t for t in identities.square_terms(v)) != cat:
            return False, f"identity fails at v = {v}"
    return True, f"v <= {bound}"


def _check_special_terms(bound: int) -> _Outcome:
    checked = 0
    for v in range(bound + 1):
        for k in {0, 1, 2, v // 2}:
            if 2 * k > v:
                continue
            checked += 1
            special = identities.square_term_special(v, k)
            general = identities.square_term(v, k)
            if special != general:
                return False, f"dedicated form {special} != general {general} at (v={v}, k={k})"
    return True, f"{checked} special terms, v <= {bound}"


def _check_decomposition(bound: int) -> _Outcome:
    limit = min(bound, 40)
    cats = list(_catalans(limit))
    for v in range(limit + 1):
        try:
            dec = identities.decompose_catalan(v)
        except DyckError as exc:  # its closed form and recurrence disagreed
            return False, f"decompose_catalan({v}) raised: {exc}"
        if dec.terms[0] != 1:
            return False, f"first term not 1 at v = {v}"
        if dec.terms[-1] != cats[(v + 1) // 2]:
            return False, f"last term wrong at v = {v}"
        if dec.sum_of_squares != cats[v]:
            return False, f"squared sum wrong at v = {v}"
    return True, f"v <= {limit}"


def _check_path_geometry(bound: int) -> _Outcome:
    rng = random.Random(GEOMETRY_SEED)
    size_cap = min(bound // 2, 12)
    for _ in range(GEOMETRY_WORDS):
        word = _random_word(rng, rng.randint(0, size_cap))
        path = paths.trace(word)  # Node construction re-validates the coordinate equations
        for step, before, after in zip(word.steps, path.nodes, path.nodes[1:]):
            if step == "U" and after.k != before.k:
                return False, f"upstep changed k in {word.steps}"
            if step == "D" and after.n != before.n:
                return False, f"downstep changed n in {word.steps}"
        flat = paths.project_path(path, _NK)
        if any(k > n for n, k in flat.points):
            return False, f"nk projection crossed the diagonal: {word.steps}"
    return True, f"{GEOMETRY_WORDS} seeded words of semilength <= {size_cap}"


def _check_enumeration(bound: int) -> _Outcome:
    # The text the enumerate command prints, read without building a DyckWord per line.
    limit = min(bound // 2, 10)
    for m, cat in enumerate(_catalans(limit)):
        text = "".join(paths._word_blocks(m))
        lines = text.splitlines()
        if len(lines) != cat:
            return False, f"{len(lines)} words of semilength {m}, expected catalan({m})"
        if set(map(len, lines)) != {2 * m}:
            return False, f"a line of semilength {m} is not {2 * m} steps long"
        # A line of 2m parentheses is a complete word iff m rounds of deleting every
        # innermost "()" empty it.
        rest = text
        for _ in range(m):
            rest = rest.replace("()", "")
        if rest != "\n" * cat:
            return False, f"a line of semilength {m} is not a complete word"
        if lines != sorted(lines) or len(set(lines)) != len(lines):
            return False, f"order or distinctness broken at m = {m}"
    return True, f"m <= {limit}"


def _check_serialization(bound: int) -> _Outcome:
    size = min(bound, 32)
    prefix = dynamics.build_table(size)
    csv_text, json_text = dynamics.table_to_csv(prefix), dynamics.table_to_json(prefix)
    try:
        # An export imports by matching the writer's own formatting; the parsers share none.
        if prefix != dynamics.table_from_csv(csv_text) or prefix != dynamics._parse_csv(csv_text):
            return False, "CSV round-trip changed the table"
        if prefix != dynamics.table_from_json(json_text) or prefix != dynamics._parse_json(json_text):
            return False, "JSON round-trip changed the table"
    except TableFormatError as exc:  # import validation caught a wrong build
        return False, f"import rejected the export: {exc}"
    return True, f"CSV and JSON, i <= {size}"


def _check_render_determinism(bound: int) -> _Outcome:
    spec = render.DiagramSpec(plane=coords.PLANES_2D[0], max_i=min(bound, 8), fmt="svg")
    diagram, table = render.layout(spec), dynamics.build_table(spec.max_i)
    if render.emit(diagram) != render.emit(render.layout(spec)):
        return False, "same spec emitted different bytes"
    for placed in diagram.nodes:
        if placed.label != str(table.count_node(placed.node)):
            return False, f"label drift at {placed.node}"
    return True, f"ij diagram, i <= {spec.max_i}"


def _check_kj_coverage(bound: int) -> _Outcome:
    limit = min(bound, 12)
    diagram = render.layout(render.DiagramSpec(plane=coords.Plane.parse("kj"), max_i=limit))
    placed = {(p.x, p.y): p.label for p in diagram.nodes}
    expected = {
        (k, j) for k in range(limit // 2 + 1) for j in range(limit - 2 * k + 1)
    }
    if set(placed) != expected:
        return False, "kj quadrant has holes or extras"
    if any(int(label) <= 0 for label in placed.values()):
        return False, "non-positive label in the kj quadrant"
    return True, f"{len(placed)} lattice points, i <= {limit}"


# Every check by name, in run order.
_CHECKS: dict[str, Callable[[int], _Outcome]] = {
    "node-equations": _check_node_equations,
    "reachability": _check_reachability,
    "projection-roundtrip": _check_roundtrip,
    "planarity": _check_planarity,
    "recurrence-closure": _check_recurrence,
    "four-coordinate-form": _check_four_coordinate_form,
    "bottom-rows": _check_bottom_rows,
    "column-tops": _check_column_tops,
    "oracle-equivalence": _check_oracle,
    "square-terms": _check_square_terms,
    "convolution-matrix": _check_convolution,
    "sum-of-squares": _check_sum_of_squares,
    "special-terms": _check_special_terms,
    "decomposition": _check_decomposition,
    "path-geometry": _check_path_geometry,
    "enumeration-count": _check_enumeration,
    "table-serialization": _check_serialization,
    "render-determinism": _check_render_determinism,
    "kj-coverage": _check_kj_coverage,
}


def run_checks(max_i: int = 32) -> list[CheckResult]:
    """Run every invariant check within the given position bound, timing each."""
    dynamics._check_bound(max_i)
    results = []
    for name, check in _CHECKS.items():
        start = time.perf_counter()
        passed, detail = check(max_i)
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
