"""Exact path-count tables over the lattice.

The count at node (i, j) is the number of valid path prefixes of length i
ending at height j.  Tables are built column by column from the two-term
recurrence

    count(0, 0) = 1,
    count(i, j) = count(i-1, j+1) + count(i-1, j-1),

with absent predecessors contributing zero, and hold exact Python integers
throughout -- the values outgrow any machine word quickly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterator

from .coords import Node, iter_nodes
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


def build_table(max_i: int, *, cap: int = DEFAULT_POSITION_CAP) -> DynamicsTable:
    """Build the count table for every position up to ``max_i``."""
    if max_i < 0:
        raise ValueError(f"max_i must be nonnegative, got {max_i}")
    if max_i > cap:
        raise ResourceLimit(f"max_i = {max_i} exceeds the position cap of {cap}")
    cols: list[tuple[int, ...]] = [(1,)]
    for i in range(1, max_i + 1):
        prev = cols[i - 1]
        prev_k_max = (i - 1) // 2
        col = []
        for k in range(i // 2 + 1):
            # Predecessor one height up sits on diagonal k-1, one height
            # down on diagonal k; either may fall outside the triangle.
            from_above = prev[k - 1] if k >= 1 else 0
            from_below = prev[k] if k <= prev_k_max else 0
            col.append(from_above + from_below)
        cols.append(tuple(col))
    return DynamicsTable(max_i, tuple(cols))


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


def table_to_csv(table: DynamicsTable) -> str:
    """CSV text with columns i, j, n, k, count (count as a decimal string)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "n", "k", "count"])
    for node, value in table.items():
        writer.writerow([node.i, node.j, node.n, node.k, str(value)])
    return out.getvalue()


def table_to_json(table: DynamicsTable) -> str:
    """JSON document: header with max_i and format version, then all records."""
    doc = {
        "format": TABLE_FORMAT,
        "max_i": table.max_i,
        "entries": [
            {"i": node.i, "j": node.j, "n": node.n, "k": node.k, "count": str(value)}
            for node, value in table.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _table_from_records(records: list[tuple[int, int, int, int, int]], max_i: int) -> DynamicsTable:
    """Validate records exhaustively and assemble the immutable table.

    Every reachable node up to max_i must appear exactly once, coordinates
    must be self-consistent, and every entry must satisfy the recurrence;
    the recurrence pins the whole table down, so imported data that passes
    is bit-identical to a fresh build.
    """
    seen: dict[tuple[int, int], int] = {}
    for i, j, n, k, value in records:
        try:
            Node(i, j, n, k)
        except NotANode as exc:
            raise TableFormatError(f"bad node record ({i}, {j}, {n}, {k}): {exc}") from exc
        if value < 0:
            raise TableFormatError(f"negative count {value} at ({i}, {j})")
        if i > max_i:
            raise TableFormatError(f"record at position {i} beyond declared max_i {max_i}")
        if (i, k) in seen:
            raise TableFormatError(f"duplicate record for node ({i}, {j})")
        seen[(i, k)] = value

    cols: list[tuple[int, ...]] = []
    for i in range(max_i + 1):
        col = []
        for k in range(i // 2 + 1):
            if (i, k) not in seen:
                raise TableFormatError(f"missing entry for node ({i}, {i - 2 * k})")
            col.append(seen[(i, k)])
        cols.append(tuple(col))

    if cols[0][0] != 1:
        raise TableFormatError(f"origin count must be 1, got {cols[0][0]}")
    for i in range(1, max_i + 1):
        prev_k_max = (i - 1) // 2
        for k in range(i // 2 + 1):
            from_above = cols[i - 1][k - 1] if k >= 1 else 0
            from_below = cols[i - 1][k] if k <= prev_k_max else 0
            if cols[i][k] != from_above + from_below:
                raise TableFormatError(
                    f"entry at ({i}, {i - 2 * k}) fails the recurrence: "
                    f"{cols[i][k]} != {from_above} + {from_below}"
                )
    return DynamicsTable(max_i, tuple(cols))


def _parse_count(text: str) -> int:
    text = text.strip()
    # str.isdigit also accepts non-ASCII digits such as "¹", which int() rejects.
    if not (text.isascii() and text.isdigit()):
        raise TableFormatError(f"count {text!r} is not a nonnegative decimal string")
    return int(text)


def table_from_csv(text: str) -> DynamicsTable:
    """Rebuild a table from :func:`table_to_csv` output (bound inferred)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["i", "j", "n", "k", "count"]:
        raise TableFormatError("missing or wrong CSV header, expected i,j,n,k,count")
    records = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != 5:
            raise TableFormatError(f"expected 5 fields per row, got {row!r}")
        try:
            coords = [int(field_) for field_ in row[:4]]
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
    except json.JSONDecodeError as exc:
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
            coords = [entry[axis] for axis in ("i", "j", "n", "k")]
            count_text = entry["count"]
        except KeyError as exc:
            raise TableFormatError(f"record missing field {exc}") from exc
        for value in coords:
            if type(value) is not int:
                raise TableFormatError(f"coordinate {value!r} is not an integer")
        if not isinstance(count_text, str):
            raise TableFormatError(f"count must be a decimal string, got {count_text!r}")
        records.append((*coords, _parse_count(count_text)))
    return _table_from_records(records, max_i)
