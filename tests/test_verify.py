import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from dyck4d import CheckResult, coords, dynamics, identities, paths, render, run_checks, verify

GOLDEN = Path(__file__).parent / "data" / "verify_details.json"


def test_every_check_is_timed():
    results = run_checks(10)
    assert len(results) == 19
    assert len({r.name for r in results}) == 19
    assert all(r.passed for r in results)
    assert all(isinstance(r.seconds, float) and r.seconds >= 0 for r in results)


def test_seconds_do_not_affect_equality():
    assert CheckResult("x", True, "d", seconds=1.5) == CheckResult("x", True, "d")


def test_rejects_negative_bound():
    with pytest.raises(ValueError, match=r"^max_i must be nonnegative, got -1$"):
        run_checks(-1)


def _record_sizes(monkeypatch, owner, attr):
    """The first argument of every call to ``owner.attr``, in call order."""
    sizes = []
    real = getattr(owner, attr)

    def recording(max_i, **kwargs):
        sizes.append(max_i)
        return real(max_i, **kwargs)

    monkeypatch.setattr(owner, attr, recording)
    return sizes


def test_no_table_past_32_is_built(monkeypatch):
    # No table is held for the bound: only the prefix checks build one, at their own size.
    sizes = _record_sizes(monkeypatch, dynamics, "build_table")
    run_checks(64)
    assert sizes and max(sizes) <= 32


def test_no_column_past_the_bound_is_made(monkeypatch):
    sizes = _record_sizes(monkeypatch, dynamics, "_columns")
    run_checks(64)
    assert sizes and max(sizes) <= 64


@pytest.mark.parametrize("bound", ["0", "1", "13", "64", "128", "512"])
def test_details_match_golden(bound):
    # Every check's name, order, outcome and detail text at six bounds; 512 reaches the
    # columns where the point forms are compared at a sample of entries only.
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[bound]
    got = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in run_checks(int(bound))]
    assert got == expected


def _bumped_columns(at_i, at_ks):
    """A fault for ``dynamics._columns``: the counts of column i at each k one too high."""
    def fault(real):
        def columns(max_i):
            for i, col in enumerate(real(max_i)):
                yield tuple(v + (i == at_i and k in at_ks) for k, v in enumerate(col))
        return columns
    return fault


def test_bumped_count_fails_oracle_and_recurrence(monkeypatch):
    # count(5, 3) and count(5, 1), in every walk of the columns and every table built from one.
    monkeypatch.setattr(dynamics, "_columns", _bumped_columns(5, (1, 2))(dynamics._columns))
    details = {r.name: r.detail for r in run_checks(14) if not r.passed}
    # Each check reports the first mismatch in column order, k ascending; every check
    # that reads column 5 fails.  The matrix entry (4, 3) is count(5, 3), and the
    # importer rejects the wrong export: the check reports it instead of raising.
    assert details == {
        "recurrence-closure": "recurrence fails at (5, 3)",
        "four-coordinate-form": "shifted recurrence fails at Node(i=5, j=3, n=4, k=1)",
        "bottom-rows": "rows disagree at n = 3",
        "oracle-equivalence": "brute force disagrees at (5, 3)",
        "square-terms": "closed form disagrees at (i=5, k=1)",
        "convolution-matrix": "convolution disagrees with its column at (n=4, j=3)",
        "table-serialization":
            "import rejected the export: entry at (5, 3) fails the recurrence: 5 != 1 + 3",
    }


def test_sum_of_squares_builds_no_table(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sum-of-squares built a whole count table")

    monkeypatch.setattr(dynamics, "build_table", refuse)
    monkeypatch.setattr(dynamics, "_columns", refuse)
    assert verify._check_sum_of_squares(64) == (True, "v <= 64")


def bump_column_term(monkeypatch, i=37, k=5):
    """Make ``identities.square_terms`` one too high at (i, k)."""
    real = identities.square_terms

    def bumped(column):
        terms = real(column)
        return terms[:k] + (terms[k] + 1,) + terms[k + 1:] if column == i else terms

    monkeypatch.setattr(identities, "square_terms", bumped)


def test_sum_of_squares_fails_on_a_wrong_term(monkeypatch):
    bump_column_term(monkeypatch)
    assert verify._check_sum_of_squares(64) == (False, "identity fails at v = 37")


def test_a_wrong_column_term_fails_every_check_that_reads_it(monkeypatch):
    bump_column_term(monkeypatch)
    details = {r.name: r.detail for r in run_checks(64) if not r.passed}
    assert details == {
        "square-terms": "closed form disagrees at (i=37, k=5)",
        "sum-of-squares": "identity fails at v = 37",
        "decomposition": "decompose_catalan(37) raised: inconsistent routes at (i=37, k=5): "
        "closed form 369853, recurrence 369852",
    }


def test_a_formatter_fault_fails_table_serialization(monkeypatch):
    # The exact-bytes import formats with the same _column_text, so it alone accepts
    # the bumped export; the parsers read the text independently.
    real = dynamics._column_text

    def bumped(pieces, sep, digits, i, col):
        return real(pieces, sep, digits, i, tuple(v + 1 for v in col) if i == 5 else col)

    monkeypatch.setattr(dynamics, "_column_text", bumped)
    details = {r.name: r.detail for r in run_checks(64) if not r.passed}
    assert details == {
        "table-serialization": "import rejected the export: entry at (5, 5) fails the recurrence: "
        "2 != 0 + 1",
    }


def test_a_wrong_point_term_fails_the_checks_that_call_it(monkeypatch):
    real = identities.square_term
    monkeypatch.setattr(identities, "square_term", lambda i, k: real(i, k) + ((i, k) == (37, 5)))
    details = {r.name: r.detail for r in run_checks(64) if not r.passed}
    assert details == {
        "square-terms": "square_term disagrees with its column at (i=37, k=5)",
        "convolution-matrix": "convolution disagrees with its column at (n=32, j=27)",
    }


@pytest.mark.parametrize("k", [0, 1, 2, 100])
def test_point_terms_past_the_point_columns_are_checked_at_the_special_k(monkeypatch, k):
    real = identities.square_term
    monkeypatch.setattr(identities, "square_term", lambda i, kk: real(i, kk) + ((i, kk) == (200, k)))
    assert verify._check_square_terms(200) == (
        False, f"square_term disagrees with its column at (i=200, k={k})"
    )
    # Column 200 holds one matrix entry at bound 200: row n = 100, j = 0, at k = 100.
    assert verify._check_convolution(200)[0] == (k != 100)


def test_point_terms_past_the_point_columns_are_checked_inside_the_column(monkeypatch):
    # Wrong only where no dedicated form reaches: 2 < k < i // 2 past POINT_COLUMNS.  The
    # interior k are seeded by the column, so the first failure is the same in every run.
    real = identities.square_term
    monkeypatch.setattr(identities, "square_term", lambda i, k: (
        0 if verify.POINT_COLUMNS < i and 2 < k < i // 2 else real(i, k)))
    assert verify._check_square_terms(512) == (
        False, "square_term disagrees with its column at (i=129, k=36)")
    assert verify._check_convolution(512) == (
        False, "convolution disagrees with its column at (n=93, j=57)")


def _counting(real):
    calls = itertools.count()
    return lambda diagram: real(diagram) + str(next(calls))


def _kj_nodes(edit):
    """A fault for ``render.layout``: the kj diagram's placed nodes go through ``edit``."""
    def fault(real):
        def layout(spec):
            diagram = real(spec)
            if spec.plane.name != "kj":
                return diagram
            return render.Diagram(diagram.spec, diagram.plane, diagram.note, edit(diagram.nodes))
        return layout
    return fault


def _zero_label(nodes):
    last = nodes[-1]
    return nodes[:-1] + (render.PlacedNode(last.node, last.x, last.y, "0"),)


def _bumped_decomposition(at_v, at_k):
    """A fault for ``identities.decompose_catalan``: term k of column v one too high."""
    return lambda real: lambda v: identities.Decomposition(
        v, tuple(t + ((v, k) == (at_v, at_k)) for k, t in enumerate(real(v).terms)))


def _drifting_trace(axis):
    """A fault for ``paths.trace``: the nodes' ``axis`` grows by one more at each step."""
    def fault(real):
        def trace(word):
            return SimpleNamespace(nodes=[
                SimpleNamespace(**{"n": node.n, "k": node.k, axis: getattr(node, axis) + step})
                for step, node in enumerate(real(word).nodes)])
        return trace
    return fault


def _edited_lines(at_m, edit):
    """A fault for ``paths._generate``: the lines of semilength ``at_m`` go through
    ``edit``, then come out as one block."""
    def fault(real):
        def generate(m):
            if m != at_m:
                return real(m)
            return iter(["".join(line + "\n" for line in edit("".join(real(m)).splitlines()))])
        return generate
    return fault


# (check, patched owner, attribute, replacement made from the real one, the check's detail)
_FAULTS = [
    ("column-tops", dynamics, "_columns", _bumped_columns(3, (0,)), "count(3, 3) != 1"),
    ("reachability", coords, "is_reachable", lambda real: lambda i, j: True,
     "is_reachable(-2, -2) disagrees with node completion"),
    ("projection-roundtrip", coords, "node_from",
     lambda real: lambda plane, a, b: coords.Node(0, 0, 0, 0),
     "ij does not round-trip Node(i=1, j=1, n=1, k=0)"),
    ("planarity", coords, "planarity_residual", lambda real: lambda node, plane: 1,
     "ijn residual nonzero at Node(i=0, j=0, n=0, k=0)"),
    # The origin twice: the second reads column 1, where height 0 counts zero.
    ("four-coordinate-form", coords, "iter_nodes",
     lambda real: lambda bound: itertools.chain([coords.Node(0, 0, 0, 0)], real(bound)),
     "2D/4D disagree at Node(i=0, j=0, n=0, k=0)"),
    ("special-terms", identities, "square_term_special",
     lambda real: lambda v, k: real(v, k) + (v == 9),
     "dedicated form 2 != general 1 at (v=9, k=0)"),
    ("decomposition", identities, "decompose_catalan", _bumped_decomposition(0, 0),
     "first term not 1 at v = 0"),
    ("decomposition", identities, "decompose_catalan", _bumped_decomposition(5, 2),
     "last term wrong at v = 5"),
    ("decomposition", identities, "decompose_catalan", _bumped_decomposition(4, 1),
     "squared sum wrong at v = 4"),
    ("path-geometry", paths, "project_path",
     lambda real: lambda path, plane: SimpleNamespace(points=((0, 1),)),
     "nk projection crossed the diagonal: UD"),
    ("path-geometry", paths, "trace", _drifting_trace("k"), "upstep changed k in UD"),
    ("path-geometry", paths, "trace", _drifting_trace("n"), "downstep changed n in UD"),
    ("enumeration-count", paths, "_generate", _edited_lines(3, lambda lines: lines[:-1]),
     "4 words of semilength 3, expected catalan(3)"),
    ("enumeration-count", paths, "_generate", _edited_lines(2, lambda lines: lines[::-1]),
     "order or distinctness broken at m = 2"),
    # The last word of semilength 3, ()()(), made unbalanced, then balanced but short.
    ("enumeration-count", paths, "_generate",
     _edited_lines(3, lambda lines: [*lines[:-1], "()()(("]),
     "a line of semilength 3 is not a complete word"),
    ("enumeration-count", paths, "_generate", _edited_lines(3, lambda lines: [*lines[:-1], "()()"]),
     "a line of semilength 3 is not 6 steps long"),
    ("table-serialization", dynamics, "_parse_csv", lambda real: lambda text: dynamics.build_table(0),
     "CSV round-trip changed the table"),
    ("table-serialization", dynamics, "_parse_json", lambda real: lambda text: dynamics.build_table(0),
     "JSON round-trip changed the table"),
    ("render-determinism", render, "emit", _counting, "same spec emitted different bytes"),
    # The diagram's table has count(3, 3) one too high; verify builds its own.
    ("render-determinism", render, "build_table", lambda real: lambda max_i: dynamics.DynamicsTable(
        max_i, tuple(_bumped_columns(3, (0,))(dynamics._columns)(max_i))),
     "label drift at Node(i=3, j=3, n=3, k=0)"),
    ("kj-coverage", render, "layout", _kj_nodes(lambda nodes: nodes[:-1]),
     "kj quadrant has holes or extras"),
    ("kj-coverage", render, "layout", _kj_nodes(_zero_label), "non-positive label in the kj quadrant"),
]


def _fault_id(n):
    """The check's name; with the detail where an earlier fault guards the same check."""
    name, detail = _FAULTS[n][0], _FAULTS[n][-1]
    return name if all(case[0] != name for case in _FAULTS[:n]) else f"{name}: {detail}"


@pytest.mark.parametrize("name, owner, attr, fault, detail", _FAULTS,
                         ids=map(_fault_id, range(len(_FAULTS))))
def test_a_fault_fails_the_check_that_guards_it(monkeypatch, name, owner, attr, fault, detail):
    # The run reports the fault instead of raising.
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    results = {r.name: r for r in run_checks(16)}
    assert not results[name].passed
    assert results[name].detail == detail


def test_a_broken_node_fails_node_equations(monkeypatch):
    # Node() refuses these coordinates, so set its slots directly; patching iter_nodes
    # for a whole run would make other checks raise NotANode.
    node = object.__new__(coords.Node)
    for axis in coords.AXES:
        coords.Node.__dict__[axis].__set__(node, 1)
    monkeypatch.setattr(coords, "iter_nodes", lambda bound: iter([node]))
    assert verify._check_node_equations(16) == (
        False, "coordinate equations fail at Node(i=1, j=1, n=1, k=1)"
    )
