"""Exact path-count tables over the lattice.

The count at node (i, j) is the number of valid path prefixes of length i
ending at height j.  Tables are built column by column from the two-term
recurrence

    count(0, 0) = 1,
    count(i, j) = count(i-1, j+1) + count(i-1, j-1),

with absent predecessors contributing zero (``_next_column``, which import
validation reruns; ``_columns`` runs it from the origin), and hold exact
Python integers throughout.  Export and import read the columns directly:
i and k fix j = i - 2k and n = i - k, so no :class:`Node` is built per
entry.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Iterator

from .coords import MAX_COORD, Node, iter_nodes
from .errors import NotANode, OutOfRange, ResourceLimit, TableFormatError

# Desk-scale guard against accidental huge builds; callers that really want
# a bigger table pass a larger cap explicitly.
DEFAULT_POSITION_CAP = 4096

TABLE_FORMAT = "dyck4d-table/1"


@dataclass(frozen=True)
class DynamicsTable:
    """Immutable map from every reachable node with i <= max_i to its count.

    Column i stores counts densely by rising-diagonal index k (so the entry
    for k sits at height j = i - 2k); unreachable nodes are never
    materialized and read as zero.
    """

    max_i: int
    _cols: tuple[tuple[int, ...], ...] = field(repr=False)

    def count(self, i: int, j: int) -> int:
        """Path-prefix count at (i, j); zero at unreachable positions."""
        if i > self.max_i:
            raise OutOfRange(f"position {i} exceeds the table bound {self.max_i}")
        if i < 0 or j < 0 or j > i or (i - j) % 2:
            return 0
        return self._cols[i][(i - j) // 2]

    def count_node(self, node: Node) -> int:
        """Count at a four-coordinate node; equals ``count(node.i, node.j)``."""
        if node.i > self.max_i:
            raise OutOfRange(f"position {node.i} exceeds the table bound {self.max_i}")
        return self._cols[node.i][node.k]

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


def _columns(max_i: int) -> Iterator[tuple[int, ...]]:
    """Columns 0 through ``max_i`` in order, each made from the one before;
    a caller that keeps only the latest holds two columns at a time."""
    col = (1,)
    yield col
    for i in range(1, max_i + 1):
        col = _next_column(col, i)
        yield col


def build_table(max_i: int, *, cap: int = DEFAULT_POSITION_CAP) -> DynamicsTable:
    """Build the count table for every position up to ``max_i``."""
    if max_i < 0:
        raise ValueError(f"max_i must be nonnegative, got {max_i}")
    if max_i > cap:
        raise ResourceLimit(f"max_i = {max_i} exceeds the position cap of {cap}")
    return DynamicsTable(max_i, tuple(_columns(max_i)))


def catalan(n: int, *, cap: int = DEFAULT_POSITION_CAP) -> int:
    """The n-th Catalan number, C(2n, n) / (n + 1): the count at (2n, 0),
    so the position cap applies to 2n."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if 2 * n > cap:
        raise ResourceLimit(
            f"catalan({n}) needs positions up to {2 * n}, beyond the cap of {cap}"
        )
    return math.comb(2 * n, n) // (n + 1)


def _check_str_digits(digits: int) -> None:
    """Raise ResourceLimit before an int/str conversion of ``digits`` digits fails."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit and digits > limit:
        raise ResourceLimit(f"a count of up to {digits} digits is beyond the int/str limit {limit}")


def _check_count_digits(largest: int) -> None:
    """Raise ResourceLimit before str() of any count up to ``largest`` fails."""
    # A count of b bits has at most floor(b * log10(2)) + 1 decimal digits.
    _check_str_digits(math.floor(largest.bit_length() * math.log10(2)) + 1)


def _format_entries(table: DynamicsTable, fmt: str) -> list[str]:
    """``fmt.format(i, j, n, k, count)`` for every entry, in table order."""
    _check_count_digits(max(map(max, table._cols)))
    cols = enumerate(table._cols)
    return [fmt.format(i, i - 2 * k, i - k, k, v) for i, col in cols for k, v in enumerate(col)]


def table_to_csv(table: DynamicsTable) -> str:
    """CSV text with columns i, j, n, k, count (count as a decimal string)."""
    return "".join(["i,j,n,k,count\n", *_format_entries(table, "{},{},{},{},{}\n")])


def table_to_json(table: DynamicsTable) -> str:
    """JSON document: header with max_i and format version, then all records.

    Byte for byte what ``json.dumps(doc, indent=2)`` gives; every value is
    an int or a decimal string, so nothing needs escaping.
    """
    entry = '    {{\n      "i": {},\n      "j": {},\n      "n": {},\n      "k": {},\n'
    entry += '      "count": "{}"\n    }}'
    head = f'{{\n  "format": "{TABLE_FORMAT}",\n  "max_i": {table.max_i},\n  "entries": [\n'
    return head + ",\n".join(_format_entries(table, entry)) + "\n  ]\n}\n"


def _table_from_records(records: list[tuple[int, int, int, int, int]], max_i: int) -> DynamicsTable:
    """Validate records exhaustively and assemble the immutable table.

    Every reachable node up to max_i must appear exactly once, coordinates
    must be self-consistent, and every entry must satisfy the recurrence;
    the recurrence pins the whole table down, so imported data that passes
    is bit-identical to a fresh build.
    """
    seen: dict[tuple[int, int], int] = {}
    for i, j, n, k, value in records:
        # Node's own checks, without a Node per record; one words a rejection.
        if not (0 <= k and 0 <= j and i <= MAX_COORD and i == n + k and j == n - k):
            try:
                Node(i, j, n, k)
            except NotANode as exc:
                raise TableFormatError(f"bad node record ({i}, {j}, {n}, {k}): {exc}") from exc
        if i > max_i:
            raise TableFormatError(f"record at position {i} beyond declared max_i {max_i}")
        if (i, k) in seen:
            raise TableFormatError(f"duplicate record for node ({i}, {j})")
        seen[(i, k)] = value

    cols: list[tuple[int, ...]] = []
    for i in range(max_i + 1):
        try:
            cols.append(tuple([seen[i, k] for k in range(i // 2 + 1)]))
        except KeyError as exc:
            k = exc.args[0][1]
            raise TableFormatError(f"missing entry for node ({i}, {i - 2 * k})") from None

    if cols[0][0] != 1:
        raise TableFormatError(f"origin count must be 1, got {cols[0][0]}")
    for i in range(1, max_i + 1):
        col, expected = cols[i], _next_column(cols[i - 1], i)
        if col != expected:
            k = next(k for k, pair in enumerate(zip(col, expected)) if pair[0] != pair[1])
            padded = (0, *cols[i - 1], 0)
            raise TableFormatError(
                f"entry at ({i}, {i - 2 * k}) fails the recurrence: "
                f"{col[k]} != {padded[k]} + {padded[k + 1]}"
            )
    return DynamicsTable(max_i, tuple(cols))


def _parse_count(text: str) -> int:
    text = text.strip()
    # str.isdigit also accepts non-ASCII digits such as "¹", which int() rejects.
    if not (text.isascii() and text.isdigit()):
        raise TableFormatError(f"count {text!r} is not a nonnegative decimal string")
    if len(text) > 640:  # the lowest int/str limit Python allows
        _check_str_digits(len(text))
    return int(text)


def table_from_csv(text: str) -> DynamicsTable:
    """Rebuild a table from :func:`table_to_csv` output (bound inferred)."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
        raise TableFormatError(f"not valid CSV: {exc}") from exc
    if not rows or rows[0] != ["i", "j", "n", "k", "count"]:
        raise TableFormatError("missing or wrong CSV header, expected i,j,n,k,count")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise TableFormatError(f"expected 5 fields per row, got {row!r}")
        try:
            coords = list(map(int, row[:4]))
        except ValueError as exc:
            raise TableFormatError(f"non-integer coordinate in row {row!r}") from exc
        records.append((*coords, _parse_count(row[4])))
    if not records:
        raise TableFormatError("table has no records; even an empty build has the origin")
    max_i = max(record[0] for record in records)
    return _table_from_records(records, max_i)


def table_from_json(text: str) -> DynamicsTable:
    """Rebuild a table from :func:`table_to_json` output."""
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
    records = []
    for entry in entries:
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
        records.append((i, j, n, k, _parse_count(count_text)))
    return _table_from_records(records, max_i)
