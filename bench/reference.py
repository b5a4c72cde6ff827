"""Independent reference values and output checkers.

Every expected value here comes from ``math.comb``; this module never
imports dyck4d, so the benchmark never checks the program against itself.
A checker returns ``None`` when an output is right and a short reason when
it is wrong.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from math import comb

from workloads import OVER_CAP

VERIFY_CHECKS = 19


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def count(i: int, j: int) -> int:
    """Path-prefix count at (i, j): C(i, k) - C(i, k-1) with k = (i-j)/2."""
    if j < 0 or j > i or (i - j) % 2:
        return 0
    k = (i - j) // 2
    return comb(i, k) - (comb(i, k - 1) if k else 0)


def node(i: int, j: int) -> dict[str, int]:
    return {"i": i, "j": j, "n": (i + j) // 2, "k": (i - j) // 2}


def table(max_i: int) -> list[list[int]]:
    """Column i holds the counts at heights i, i-2, ..., in rising-diagonal order."""
    return [[count(i, i - 2 * k) for k in range(i // 2 + 1)] for i in range(max_i + 1)]


# --------------------------------------------------------------- CLI queries

def cli_expected(argv: list[str]) -> str | None:
    """Expected stdout of one query, or None when it must be refused (exit 2)."""
    command, *args = argv
    values = [int(a) for a in args]
    if command == "catalan":
        (n,) = values
        return None if n > OVER_CAP[command] else f"{catalan(n)}\n"
    if command == "dynamics":
        i, j = values
        if i > OVER_CAP[command]:
            return None
        c = node(i, j)
        return f"{count(i, j)} (i={i}, j={j}, n={c['n']}, k={c['k']})\n"
    if command == "decompose":
        (v,) = values
        if v > OVER_CAP[command]:
            return None
        terms = [count(v, v - 2 * k) for k in range(v // 2 + 1)]
        total = catalan(v)
        if sum(t * t for t in terms) != total:
            raise AssertionError(f"reference squares identity fails at {v}")
        return f"terms: {','.join(map(str, terms))}\nsum-of-squares: {total}\nstatus: OK\n"
    raise ValueError(f"no reference for command {command!r}")


def check_cli(expected: str | None, exit_code: int, stdout: str) -> str | None:
    """Check one query's exit code and stdout against ``cli_expected``'s answer."""
    if expected is None:
        if exit_code != 2:
            return f"expected refusal with exit 2, got exit {exit_code}"
        return None
    if exit_code != 0:
        return f"exit {exit_code}"
    if not stdout:
        return "empty stdout"
    if stdout != expected:
        return "wrong output"
    return None


# ----------------------------------------------------------- library session

def library_expected(kind: str, args: tuple) -> int:
    """Expected value of a single-value library call."""
    if kind == "catalan":
        return catalan(args[0])
    if kind == "convolution":
        n, j = args
        return count(2 * n - j, j)
    if kind in ("square_term", "square_term_special"):
        i, k = args
        return count(i, i - 2 * k)
    if kind == "binomial":
        return comb(*args)
    raise ValueError(f"no reference for library call {kind!r}")


def check_value(expected):
    return lambda result: None if result == expected else "wrong value"


def check_decomposition(v: int, result) -> str | None:
    terms = tuple(count(v, v - 2 * k) for k in range(v // 2 + 1))
    if result.v != v or tuple(result.terms) != terms:
        return "wrong decomposition terms"
    if result.sum_of_squares != catalan(v):
        return "squares do not sum to the Catalan number"
    return None


def _node_tuple(obj) -> tuple[int, int, int, int]:
    return (obj.i, obj.j, obj.n, obj.k)


def check_node_query(i: int, j: int, plane: str, result) -> str | None:
    """Check (node_from result, its projection onto ``plane``, a planarity residual)."""
    made, projected, residual = result
    want = node(i, j)
    if _node_tuple(made) != tuple(want.values()):
        return "node_from completed the wrong node"
    if projected != tuple(want[axis] for axis in plane):
        return "project gave wrong coordinates"
    return None if residual == 0 else "nonzero planarity residual"


def walk(text: str) -> list[tuple[int, int, int, int]]:
    """Nodes visited by a parenthesis word, starting at the origin."""
    i = j = n = k = 0
    nodes = [(0, 0, 0, 0)]
    for ch in text:
        i += 1
        if ch == "(":
            j += 1
            n += 1
        else:
            j -= 1
            k += 1
        nodes.append((i, j, n, k))
    return nodes


def check_path_query(text: str, plane: str, result) -> str | None:
    """Check (parse_word result, its trace, the trace projected onto ``plane``)."""
    word, path, projected = result
    nodes = walk(text)
    if word.steps != text.replace("(", "U").replace(")", "D"):
        return "parse_word gave wrong steps"
    if [_node_tuple(x) for x in path.nodes] != nodes:
        return "trace visited wrong nodes"
    a, b = ("ijnk".index(axis) for axis in plane)
    if list(projected.points) != [(x[a], x[b]) for x in nodes]:
        return "project_path gave wrong points"
    return None


# --------------------------------------------------------------- bulk tables

def check_table(ref: list[list[int]], max_i: int, tbl) -> str | None:
    if tbl.max_i != max_i:
        return f"table bound {tbl.max_i}, expected {max_i}"
    if len(tbl) != sum(len(col) for col in ref[: max_i + 1]):
        return "wrong number of entries"
    for i in range(max_i + 1):
        for k, value in enumerate(ref[i]):
            if tbl.count(i, i - 2 * k) != value:
                return f"wrong count at ({i}, {i - 2 * k})"
    return None


def _records(ref: list[list[int]], max_i: int):
    for i in range(max_i + 1):
        for k, value in enumerate(ref[i]):
            yield [str(i), str(i - 2 * k), str(i - k), str(k), str(value)]


def _lines(text: str):
    """Lines of ``text`` one at a time.  ``io.StringIO`` would hold a copy at
    four bytes per character, and the checker's memory counts in the
    worker's peak."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def check_csv(ref: list[list[int]], max_i: int, text: str) -> str | None:
    rows = csv.reader(_lines(text))
    if next(rows, None) != ["i", "j", "n", "k", "count"]:
        return "wrong CSV header"
    for want in _records(ref, max_i):
        if next(rows, None) != want:
            return f"wrong CSV row, expected {','.join(want[:4])}"
    if next(rows, None) is not None:
        return "extra CSV rows"
    return None


_WHITESPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()


def _skip(text: str, pos: int, token: str = "") -> int:
    """Position after whitespace, and after ``token`` and more whitespace if given."""
    pos = _WHITESPACE.match(text, pos).end()
    if token:
        if not text.startswith(token, pos):
            raise ValueError(f"expected {token!r} at offset {pos}")
        pos = _WHITESPACE.match(text, pos + len(token)).end()
    return pos


def _next_item(text: str, pos: int, close: str) -> int:
    """Position of the next item of an object or array, or of its ``close``."""
    pos = _skip(text, pos)
    return pos if text.startswith(close, pos) else _skip(text, pos, ",")


def _json_members(text: str):
    """(key, value) for each member of a JSON object, decoded one at a time.

    Each element of an ``entries`` array comes as its own ``("entries",
    element)``, so a large table is never held as Python objects all at
    once; ``json.loads`` on an 11 MB export would peak near 50 MB.  Raises
    ValueError on malformed JSON.
    """
    pos = _skip(text, 0, "{")
    while not text.startswith("}", pos):
        key, pos = _DECODER.raw_decode(text, pos)
        pos = _skip(text, pos, ":")
        if key == "entries" and text.startswith("[", pos):
            pos = _skip(text, pos, "[")
            while not text.startswith("]", pos):
                value, pos = _DECODER.raw_decode(text, pos)
                yield key, value
                pos = _next_item(text, pos, "]")
            pos += 1
        else:
            value, pos = _DECODER.raw_decode(text, pos)
            yield key, value
        pos = _next_item(text, pos, "}")
    if _skip(text, pos + 1) != len(text):
        raise ValueError("text after the JSON document")


def check_json(ref: list[list[int]], max_i: int, text: str) -> str | None:
    header = {}
    wants = _records(ref, max_i)
    try:
        for key, value in _json_members(text):
            if key != "entries":
                header[key] = value
                continue
            want = next(wants, None)
            if want is None:
                return "extra JSON entries"
            if not isinstance(value, dict):
                return "JSON entry is not an object"
            got = [str(value.get(axis)) for axis in ("i", "j", "n", "k")] + [value.get("count")]
            if got != want:
                return f"wrong JSON entry, expected {','.join(want[:4])}"
    except ValueError as exc:
        return f"malformed JSON: {exc}"
    if header.get("format") != "dyck4d-table/1" or header.get("max_i") != max_i:
        return "wrong JSON header"
    if next(wants, None) is not None:
        return "missing JSON entries"
    return None


def plane_labels(ref: list[list[int]], axes: str, max_i: int) -> dict[tuple[int, int], str]:
    """Label at each drawn point of a plane; a three-axis plane is drawn as its first two."""
    a, b = ("ijnk".index(axis) for axis in axes[:2])
    labels = {}
    for i in range(max_i + 1):
        for k, value in enumerate(ref[i]):
            coords = (i, i - 2 * k, i - k, k)
            labels[(coords[a], coords[b])] = str(value)
    return labels


def check_diagram(ref: list[list[int]], axes: str, max_i: int, diagram) -> str | None:
    labels = plane_labels(ref, axes, max_i)
    placed = {(p.x, p.y): p.label for p in diagram.nodes}
    if len(placed) != len(diagram.nodes) or placed != labels:
        return "diagram labels differ from the reference counts"
    return None


_SVG_LABEL = re.compile(r"<text [^>]*>([0-9]+)</text>")


def check_document(ref: list[list[int]], axes: str, max_i: int, fmt: str, doc: str) -> str | None:
    labels = plane_labels(ref, axes, max_i)
    if fmt == "svg":
        if not doc.startswith("<?xml") or not doc.rstrip().endswith("</svg>"):
            return "not an SVG document"
        if Counter(_SVG_LABEL.findall(doc)) != Counter(labels.values()):
            return "SVG labels differ from the reference counts"
        return None
    return None if _text_cells(doc) == labels else "text grid differs from the reference counts"


def _text_cells(doc: str) -> dict[tuple[int, int], str]:
    """Non-empty cells of a text grid, keyed by (x, y)."""
    lines = doc.splitlines()
    axis_line = lines[-1].split()
    x_max = int(axis_line[-2])
    rows = [line for line in lines if " | " in line]
    width = (len(lines[-2].split("+", 1)[1]) // (x_max + 1)) - 1
    cells = {}
    for line in rows:
        y_text, rest = line.split(" | ", 1)
        y = int(y_text)
        for x in range(x_max + 1):
            cell = rest[x * (width + 1): x * (width + 1) + width].strip()
            if cell:
                cells[(x, y)] = cell
    return cells


def check_checks(results) -> str | None:
    if len(results) != VERIFY_CHECKS:
        return f"{len(results)} checks ran, expected {VERIFY_CHECKS}"
    failed = [r.name for r in results if not r.passed]
    return f"checks failed: {', '.join(failed)}" if failed else None
