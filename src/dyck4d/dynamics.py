"""Exact path-count tables over the lattice.

The count at node (i, j) is the number of valid path prefixes of length i
ending at height j.  Tables are built column by column from the two-term
recurrence

    count(0, 0) = 1,
    count(i, j) = count(i-1, j+1) + count(i-1, j-1),

with absent predecessors contributing zero (``_next_column``, which import
validation reruns; ``_columns`` runs it from the origin), and hold exact
Python integers throughout.  Export and import go one column at a time
(i and k fix j = i - 2k and n = i - k, so no :class:`Node` is built per
entry): ``stream_table`` writes an export holding two columns.  A column is
joined at C level, with no format call per entry: the writer splits its
format's entry template into six literal pieces once, keeps ``str(x)`` for
every position x reached so far, reads j, n and k off that list by slices,
and formats only the counts with ``str()``.  Since one
recurrence fixes the table, a valid file is the export of ``_columns(max_i)``:
an import takes max_i from the text (JSON's header, a CSV's last record),
matches each piece ``_export`` yields for it in place, never the whole text,
and returns the recurrence's columns at a full match.  Else (a piece differs
or the writer refuses) the format's parser takes the whole text: it accepts
re-formatted files, such as compact JSON or CRLF lines, and words every
rejection, checking each column as soon as it is complete, so records must
come in export order, as both writers emit them.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from itertools import repeat

from .coords import MAX_COORD, Node, _Value, is_reachable, iter_nodes
from .errors import DomainError, NotANode, OutOfRange, ResourceLimit, TableFormatError

# Desk-scale guard against accidental huge builds, fixed as the scan caps are:
# every count, table, diagram and check stops at this position.
DEFAULT_POSITION_CAP = 4096

TABLE_FORMAT = "dyck4d-table/1"


class DynamicsTable(_Value):
    """Immutable map from every reachable node with i <= max_i to its count.

    Column i stores counts densely by rising-diagonal index k (so the entry
    for k sits at height j = i - 2k); unreachable nodes are never
    materialized and read as zero.
    """

    __slots__ = ("max_i", "_cols")

    def __init__(self, max_i: int, _cols: tuple[tuple[int, ...], ...]):
        self._set(max_i, _cols)

    def count(self, i: int, j: int) -> int:
        """Path-prefix count at (i, j); zero at unreachable positions."""
        if i > self.max_i:
            raise OutOfRange(f"position {i} exceeds the table bound {self.max_i}")
        if not is_reachable(i, j):
            return 0
        return self._cols[i][(i - j) // 2]

    def count_node(self, node: Node) -> int:
        """Count at a four-coordinate node."""
        return self.count(node.i, node.j)

    def items(self) -> Iterator[tuple[Node, int]]:
        """All (node, count) pairs, column by column, rising diagonal ascending."""
        for node in iter_nodes(self.max_i):
            yield node, self._cols[node.i][node.k]

    def __len__(self) -> int:
        return sum(len(col) for col in self._cols)


def _next_column(prev: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Column i from column i-1: entry k adds the predecessors one height up
    (diagonal k-1) and one height down (diagonal k), absent ones as zero."""
    padded = (0, *prev, 0)
    return tuple([a + b for a, b in zip(padded, padded[1 : i // 2 + 2])])


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Index of the first entry where two unequal columns differ (or where one ends)."""
    return next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _columns(max_i: int) -> Iterator[tuple[int, ...]]:
    """Columns 0 through ``max_i`` in order, each made from the one before;
    a caller that keeps only the latest holds two columns at a time."""
    col = (1,)
    yield col
    for i in range(1, max_i + 1):
        col = _next_column(col, i)
        yield col


def build_table(max_i: int) -> DynamicsTable:
    """Build the count table for every position up to ``max_i``."""
    _check_bound(max_i)
    return DynamicsTable(max_i, tuple(_columns(max_i)))


def _check_bound(max_i: int) -> None:
    if max_i < 0:
        raise DomainError(f"max_i must be nonnegative, got {max_i}")
    if max_i > DEFAULT_POSITION_CAP:
        raise ResourceLimit(f"max_i = {max_i} exceeds the position cap of {DEFAULT_POSITION_CAP}")


def catalan(n: int) -> int:
    """The n-th Catalan number, C(2n, n) / (n + 1): the count at (2n, 0),
    so the position cap applies to 2n."""
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if 2 * n > DEFAULT_POSITION_CAP:
        raise ResourceLimit(f"catalan({n}) needs positions up to {2 * n}, "
                            f"beyond the cap of {DEFAULT_POSITION_CAP}")
    return math.comb(2 * n, n) // (n + 1)


def _check_str_digits(digits: int) -> None:
    """Raise ResourceLimit before an int/str conversion of ``digits`` digits fails."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit and digits > limit:
        raise ResourceLimit(f"a count of up to {digits} digits is beyond the int/str limit {limit}")


def _max_digits(bits: int) -> int:
    """The most decimal digits a count of ``bits`` bits can have."""
    return math.floor(bits * math.log10(2)) + 1


def _check_count_digits(largest: int) -> None:
    """Raise ResourceLimit before str() of any count up to ``largest`` fails."""
    _check_str_digits(_max_digits(largest.bit_length()))


# Per format: the header (JSON's takes max_i), the entry template, the separator
# between entries and between columns, and the tail.  Only ``_export`` writes
# them; the exact-bytes import replays it.  JSON is byte for byte
# json.dumps(doc, indent=2); no int or digit string needs escaping.
_FORMATS = {
    "csv": ("i,j,n,k,count\n", "{},{},{},{},{}", "\n", "\n"),
    "json": (
        '{{\n  "format": "' + TABLE_FORMAT + '",\n  "max_i": {},\n  "entries": [\n',
        '    {{\n      "i": {},\n      "j": {},\n      "n": {},\n      "k": {},\n'
        '      "count": "{}"\n    }}',
        ",\n",
        "\n  ]\n}\n",
    ),
}


def _column_text(pieces: list[str], sep: str, digits: list[str], i: int,
                 col: tuple[int, ...]) -> str:
    """Column i's entries joined by ``sep``, each the six literal ``pieces``
    around i, j, n, k and the count, where ``digits[x]`` is ``str(x)`` for x <= i."""
    a, b, c, d, e, f = pieces
    # Entry k: j = i - 2k falls by 2, n = i - k by 1, k rises from 0; zip ends with col.
    return sep.join(map("".join, zip(
        repeat(a + digits[i] + b), digits[i::-2], repeat(c),
        reversed(digits[i - len(col) + 1 : i + 1]), repeat(d), digits, repeat(e),
        map(str, col), repeat(f))))


def _export(columns: Iterable[tuple[int, ...]], max_i: int, fmt: str,
            bits: int) -> Iterator[str]:
    """The ``fmt`` export of ``columns`` in pieces, per column and separator,
    none before the digit limit is checked for counts of up to ``bits`` bits."""
    _check_str_digits(_max_digits(bits))
    header, entry, sep, tail = _FORMATS[fmt]
    pieces = [piece.format() for piece in entry.split("{}")]  # format() unescapes braces
    digits: list[str] = []
    yield header.format(max_i)
    for i, col in enumerate(columns):
        digits.append(str(i))
        if i:
            yield sep
        yield _column_text(pieces, sep, digits, i, col)
    yield tail


def table_to_csv(table: DynamicsTable) -> str:
    """CSV text with columns i, j, n, k, count (count as a decimal string)."""
    return "".join(_export(table._cols, table.max_i, "csv",
                           max(map(max, table._cols)).bit_length()))


def table_to_json(table: DynamicsTable) -> str:
    """JSON document: header with max_i and format version, then all records."""
    return "".join(_export(table._cols, table.max_i, "json",
                           max(map(max, table._cols)).bit_length()))


def stream_table(max_i: int, fmt: str) -> Iterator[str]:
    """The ``fmt`` export of ``build_table(max_i)`` in pieces, holding two columns; the
    bound is checked here, the digit limit (no count passes 2**max_i) before any piece."""
    _check_bound(max_i)
    return _export(_columns(max_i), max_i, fmt, max_i + 1)


def _assemble(records: Iterable[tuple[int, ...]], max_i: int | None) -> DynamicsTable:
    """Check records (i, j, n, k, count) in export order as they arrive: every
    reachable node up to ``max_i`` (if None, the last column) once, each column
    against the recurrence, which pins the table down; the first fault is raised."""
    cols: list[tuple[int, ...]] = []
    col: list[int] = []
    for i, j, n, k, value in records:
        # Node's own checks, without a Node per record; one words a rejection.
        if not (0 <= k and 0 <= j and i <= MAX_COORD and i == n + k and j == n - k):
            try:
                Node(i, j, n, k)
            except NotANode as exc:
                raise TableFormatError(f"bad node record ({i}, {j}, {n}, {k}): {exc}") from exc
        if max_i is not None and i > max_i:
            raise TableFormatError(f"record at position {i} beyond declared max_i {max_i}")
        if i != len(cols) or k != len(col):
            if (i, k) < (len(cols), len(col)):
                raise TableFormatError(f"duplicate record for node ({i}, {j})")
            break  # a position was skipped
        col.append(value)
        if k == i // 2:  # column i is complete
            cols.append(tuple(col))
            col = []
            if not i and value != 1:
                raise TableFormatError(f"origin count must be 1, got {value}")
            if i and cols[i] != (expected := _next_column(cols[i - 1], i)):
                k = _first_difference(cols[i], expected)
                padded = (0, *cols[i - 1], 0)
                raise TableFormatError(
                    f"entry at ({i}, {i - 2 * k}) fails the recurrence: "
                    f"{cols[i][k]} != {padded[k]} + {padded[k + 1]}"
                )
    else:  # the records ran out
        if not (col or cols):
            raise TableFormatError("table has no records; even an empty build has the origin")
        if not col and (max_i is None or len(cols) > max_i):
            return DynamicsTable(len(cols) - 1, tuple(cols))
    raise TableFormatError(f"missing entry for node ({len(cols)}, {len(cols) - 2 * len(col)})")


def _parse_count(text: str) -> int:
    text = text.strip()
    # str.isdigit also accepts non-ASCII digits such as "¹", which int() rejects.
    if not (text.isascii() and text.isdigit()):
        raise TableFormatError(f"count {text!r} is not a nonnegative decimal string")
    if len(text) > 640:  # the lowest int/str limit Python allows
        _check_str_digits(len(text))
    return int(text)


def _csv_record(row: list[str]) -> tuple[int, int, int, int, int]:
    if len(row) != 5:
        raise TableFormatError(f"expected 5 fields per row, got {row!r}")
    try:
        i, j, n, k = map(int, row[:4])
    except ValueError as exc:
        raise TableFormatError(f"non-integer coordinate in row {row!r}") from exc
    return i, j, n, k, _parse_count(row[4])


def _exact_table(text: str, fmt: str) -> DynamicsTable | None:
    """The table whose ``fmt`` export is ``text`` byte for byte, or None.  Each piece
    ``_export`` yields for the text's max_i (JSON's header field, the first field of
    a CSV's last record) is matched in place, so the whole text is never built; None
    at the first that differs or where the writer refuses: the parser words both."""
    if not isinstance(text, str):  # e.g. bytes, which json.loads takes too
        return None
    if not text.endswith(_FORMATS[fmt][3]):  # every export ends with its format's tail
        return None
    at = (len(_FORMATS["json"][0].partition("{}")[0].format()) if fmt == "json"
          else text.rfind("\n", 0, len(text) - 1) + 1)  # where max_i's digits start
    # A dozen characters at most: int() of thousands of digits would fail.
    digits = text[at : at + 12].partition(",")[0]
    # Each column takes at least one character, so the text bounds max_i.
    if not (digits.isascii() and digits.isdigit()) or int(digits) >= len(text):
        return None
    max_i, pos, cols = int(digits), 0, []
    try:
        for piece in _export((cols.append(col) or col for col in _columns(max_i)),
                             max_i, fmt, max_i + 1):
            if not text.startswith(piece, pos):
                return None
            pos += len(piece)
    except ResourceLimit:
        return None
    return DynamicsTable(max_i, tuple(cols)) if pos == len(text) else None


def table_from_csv(text: str) -> DynamicsTable:
    """Rebuild a table from :func:`table_to_csv` output: byte for byte, column by
    column, if it is one; else parsed a row at a time in export order."""
    table = _exact_table(text, "csv")
    return _parse_csv(text) if table is None else table


def _parse_csv(text: str) -> DynamicsTable:
    import csv
    import re
    # One line at a time: io.StringIO would hold a four-byte copy of each character.
    rows = csv.reader(line.group() for line in re.finditer(r".*\n|.+", text))
    try:
        if next(rows, None) != ["i", "j", "n", "k", "count"]:
            raise TableFormatError("missing or wrong CSV header, expected i,j,n,k,count")
        return _assemble(map(_csv_record, filter(None, rows)), None)
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise TableFormatError(f"not valid CSV: {exc}") from exc


def _json_record(entry: object) -> tuple[int, int, int, int, int]:
    if not isinstance(entry, dict):
        raise TableFormatError(f"record must be an object, got {entry!r}")
    try:
        i, j, n, k = entry["i"], entry["j"], entry["n"], entry["k"]
        count_text = entry["count"]
    except KeyError as exc:
        raise TableFormatError(f"record missing field {exc}") from exc
    if not type(i) is type(j) is type(n) is type(k) is int:
        value = next(value for value in (i, j, n, k) if type(value) is not int)
        raise TableFormatError(f"coordinate {value!r} is not an integer")
    if not isinstance(count_text, str):
        raise TableFormatError(f"count must be a decimal string, got {count_text!r}")
    return i, j, n, k, _parse_count(count_text)


def table_from_json(text: str) -> DynamicsTable:
    """Rebuild a table from :func:`table_to_json` output: byte for byte, column by
    column, if it is one; else parsed, with entries in export order."""
    table = _exact_table(text, "json")
    return _parse_json(text) if table is None else table


def _parse_json(text: str) -> DynamicsTable:
    import json
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        raise TableFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TableFormatError("top level must be an object")
    if doc.get("format") != TABLE_FORMAT:
        raise TableFormatError(
            f"unsupported format {doc.get('format')!r}, expected {TABLE_FORMAT!r}"
        )
    max_i = doc.get("max_i")
    if type(max_i) is not int or max_i < 0:  # JSON true/false load as bools
        raise TableFormatError(f"max_i must be a nonnegative integer, got {max_i!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise TableFormatError("entries must be an array of records")
    return _assemble(map(_json_record, entries), max_i)
