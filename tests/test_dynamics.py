import hashlib
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from dyck4d import (
    Node,
    build_table,
    catalan,
    iter_nodes,
    table_from_csv,
    table_from_json,
    table_to_csv,
    table_to_json,
)
from dyck4d import dynamics
from dyck4d.dynamics import TABLE_FORMAT, DynamicsTable
from dyck4d.errors import OutOfRange, ResourceLimit, TableFormatError

from conftest import STR_DIGITS, needs_digit_limit, returned_or_raised


class TestBuildTable:
    def test_single_entry(self):
        table = build_table(0)
        assert table.count(0, 0) == 1
        assert len(table) == 1

    def test_paper_fixture_values(self):
        table = build_table(12)
        assert table.count(12, 0) == 132
        assert table.count(7, 1) == table.count(6, 2) + table.count(6, 0)
        # frozen from the brute-force scan: 14 = 9 + 5
        assert table.count(7, 1) == 14
        assert table.count(6, 2) == 9
        assert table.count(6, 0) == 5

    def test_unreachable_reads_zero(self):
        table = build_table(8)
        assert table.count(6, 1) == 0
        assert table.count(2, 4) == 0
        assert table.count(-1, 0) == 0
        assert table.count(3, -1) == 0

    def test_query_beyond_bound_raises(self):
        table = build_table(5)
        with pytest.raises(OutOfRange):
            table.count(6, 0)
        with pytest.raises(OutOfRange):
            table.count_node(Node(6, 0, 3, 3))

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            build_table(4097)
        assert dynamics._check_bound(4096) is None
        with pytest.raises(ResourceLimit) as info:
            dynamics._check_bound(4097)
        assert str(info.value) == "max_i = 4097 exceeds the position cap of 4096"

    def test_negative_bound(self):
        with pytest.raises(ValueError):
            build_table(-1)

    @given(st.integers(0, 60))
    def test_recurrence_closure(self, max_i):
        table = build_table(max_i)
        for node in iter_nodes(max_i):
            if node.i == 0:
                continue
            assert table.count(node.i, node.j) == (
                table.count(node.i - 1, node.j + 1)
                + table.count(node.i - 1, node.j - 1)
            )

    def test_column_tops_are_one(self):
        table = build_table(40)
        for i in range(41):
            assert table.count(i, i) == 1

    def test_bottom_rows_agree(self):
        table = build_table(60)
        for n in range(1, 31):
            assert table.count(2 * n, 0) == table.count(2 * n - 1, 1)


class TestFourCoordinateForm:
    def test_shifted_recurrence_example(self):
        table = build_table(7)
        assert table.count_node(Node(7, 1, 4, 3)) == (
            table.count_node(Node(6, 2, 4, 2)) + table.count_node(Node(6, 0, 3, 3))
        )

    def test_origin(self):
        assert build_table(0).count_node(Node(0, 0, 0, 0)) == 1

    def test_value_example(self):
        assert build_table(6).count_node(Node(6, 0, 3, 3)) == 5

    def test_agrees_with_two_coordinates(self):
        table = build_table(30)
        for node in iter_nodes(30):
            assert table.count_node(node) == table.count(node.i, node.j)


class TestCatalan:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14), (6, 132)])
    def test_values(self, n, expected):
        assert catalan(n) == expected

    def test_matches_odd_column(self):
        table = build_table(40)
        for n in range(1, 21):
            assert catalan(n) == table.count(2 * n - 1, 1)

    def test_big_values_are_exact(self):
        # Frozen from an independent factorial-quotient computation;
        # Cat(37) overflows unsigned 64-bit, so exactness must survive it.
        assert catalan(36) == 11959798385860453492
        assert catalan(37) == 45950804324621742364

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            catalan(2049)
        with pytest.raises(ValueError):
            catalan(-1)


class TestSerialization:
    def test_csv_round_trip(self):
        table = build_table(9)
        assert table_from_csv(table_to_csv(table)) == table

    def test_csv_shape(self):
        text = table_to_csv(build_table(2))
        assert text.splitlines() == [
            "i,j,n,k,count",
            "0,0,0,0,1",
            "1,1,1,0,1",
            "2,2,2,0,1",
            "2,0,1,1,1",
        ]

    def test_json_round_trip(self):
        table = build_table(9)
        assert table_from_json(table_to_json(table)) == table

    def test_json_header(self):
        import json

        doc = json.loads(table_to_json(build_table(3)))
        assert doc["format"] == TABLE_FORMAT
        assert doc["max_i"] == 3
        assert len(doc["entries"]) == 1 + 1 + 2 + 2
        assert all(isinstance(entry["count"], str) for entry in doc["entries"])

    def test_json_counts_stay_exact(self):
        table = build_table(80)
        restored = table_from_json(table_to_json(table))
        assert restored.count(80, 0) == table.count(80, 0)

    def test_csv_rejects_wrong_header(self):
        with pytest.raises(TableFormatError):
            table_from_csv("a,b,c\n1,2,3\n")

    def test_csv_rejects_corrupt_count(self):
        text = table_to_csv(build_table(3)).replace("2,0,1,1,1", "2,0,1,1,7")
        with pytest.raises(TableFormatError):
            table_from_csv(text)

    def test_csv_rejects_missing_entry(self):
        lines = table_to_csv(build_table(3)).splitlines()
        with pytest.raises(TableFormatError):
            table_from_csv("\n".join(lines[:-1]) + "\n")

    def test_csv_rejects_bad_node(self):
        with pytest.raises(TableFormatError):
            table_from_csv("i,j,n,k,count\n0,0,0,0,1\n1,1,1,1,1\n")

    def test_csv_rejects_duplicate(self):
        text = table_to_csv(build_table(1)) + "1,1,1,0,1\n"
        with pytest.raises(TableFormatError):
            table_from_csv(text)

    def test_json_rejects_wrong_format(self):
        import json

        doc = json.loads(table_to_json(build_table(1)))
        doc["format"] = "dyck4d-table/9"
        with pytest.raises(TableFormatError):
            table_from_json(json.dumps(doc))

    def test_json_rejects_numeric_count(self):
        import json

        doc = json.loads(table_to_json(build_table(1)))
        doc["entries"][0]["count"] = 1
        with pytest.raises(TableFormatError):
            table_from_json(json.dumps(doc))

    def test_csv_rejects_non_ascii_digit_count(self):
        # "¹".isdigit() is true, but int() rejects it.
        text = table_to_csv(build_table(1)).replace("1,1,1,0,1", "1,1,1,0,¹")
        with pytest.raises(TableFormatError):
            table_from_csv(text)

    @pytest.mark.parametrize("field", ["max_i", "i", "j", "n", "k"])
    def test_json_rejects_bool_integers(self, field):
        import json

        doc = json.loads(table_to_json(build_table(1)))
        if field == "max_i":
            doc["max_i"] = True
        else:
            doc["entries"][1][field] = True
        with pytest.raises(TableFormatError):
            table_from_json(json.dumps(doc))

    def test_csv_rejects_field_past_the_csv_limit(self):
        # csv.reader refuses fields over 131,072 characters with csv.Error.
        text = "i,j,n,k,count\n0,0,0,0," + "1" * 200_000
        with pytest.raises(TableFormatError, match="not valid CSV: field larger than field limit"):
            table_from_csv(text)

    @pytest.mark.parametrize("text, message", [
        ("[]", "top level must be an object"),
        (f'{{"format": "{TABLE_FORMAT}", "max_i": 0, "entries": {{}}}}',
         "entries must be an array of records"),
        (f'{{"format": "{TABLE_FORMAT}", "max_i": 0, "entries": [1]}}',
         "record must be an object, got 1"),
    ])
    def test_json_rejects_wrong_structure(self, text, message):
        with pytest.raises(TableFormatError) as info:
            table_from_json(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a": ', "}")])
    def test_json_rejects_deep_nesting(self, opener, closer):
        # json.loads recurses per level and raises RecursionError this deep.
        text = opener * 100_000 + "1" + closer * 100_000
        with pytest.raises(TableFormatError, match="not valid JSON: maximum recursion depth"):
            table_from_json(text)


def _reference_csv(table):
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["i", "j", "n", "k", "count"])
    for node, value in table.items():
        writer.writerow([node.i, node.j, node.n, node.k, str(value)])
    return out.getvalue()


def _reference_json(table):
    import json

    doc = {
        "format": TABLE_FORMAT,
        "max_i": table.max_i,
        "entries": [
            {"i": node.i, "j": node.j, "n": node.n, "k": node.k, "count": str(value)}
            for node, value in table.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _first_difference(got, want):
    """None when the texts are equal, else the first differing line pair;
    keeps a failure's report short where a full diff of megabytes would not."""
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            return number, a, b
    return len(got_lines), len(want_lines)


class TestWritersMatchStdlib:
    """The column writers give the bytes csv.writer and json.dumps give."""

    @pytest.mark.parametrize("max_i", [*range(41), 257])
    def test_csv(self, max_i):
        table = build_table(max_i)
        assert _first_difference(table_to_csv(table), _reference_csv(table)) is None

    @pytest.mark.parametrize("max_i", [*range(41), 257])
    def test_json(self, max_i):
        table = build_table(max_i)
        assert _first_difference(table_to_json(table), _reference_json(table)) is None


# SHA-256 of the CSV then the JSON export of each table below, each followed by a NUL byte.
EXPORT_GRID_DIGEST = "8085d917761d9295c94ddfd1de0b294b04a5d1bdfee9bee99322a73023e65970"


def test_exports_over_the_grid_are_pinned():
    digest = hashlib.sha256()
    for max_i in [*range(65), 128, 255, 512]:
        table = build_table(max_i)
        digest.update(table_to_csv(table).encode() + b"\0" + table_to_json(table).encode() + b"\0")
    assert digest.hexdigest() == EXPORT_GRID_DIGEST


class TestRecurrenceRejection:
    # Columns 3 and 4 are (1, 2) and (1, 3, 2), rising diagonal k ascending.
    @pytest.mark.parametrize(
        "row, tampered, text",
        [
            ("4,4,4,0,1", "4,4,4,0,5", "entry at (4, 4) fails the recurrence: 5 != 0 + 1"),
            ("4,2,3,1,3", "4,2,3,1,7", "entry at (4, 2) fails the recurrence: 7 != 1 + 2"),
            ("4,0,2,2,2", "4,0,2,2,9", "entry at (4, 0) fails the recurrence: 9 != 2 + 0"),
        ],
    )
    def test_csv_tampered_entry(self, row, tampered, text):
        original = table_to_csv(build_table(6))
        assert f"\n{row}\n" in original
        with pytest.raises(TableFormatError) as info:
            table_from_csv(original.replace(f"\n{row}\n", f"\n{tampered}\n"))
        assert str(info.value) == text

    def test_json_tampered_entry(self):
        import json

        doc = json.loads(table_to_json(build_table(6)))
        entry = next(e for e in doc["entries"] if (e["i"], e["k"]) == (4, 1))
        entry["count"] = "7"
        with pytest.raises(TableFormatError) as info:
            table_from_json(json.dumps(doc))
        assert str(info.value) == "entry at (4, 2) fails the recurrence: 7 != 1 + 2"

    def test_tampered_origin(self):
        with pytest.raises(TableFormatError) as info:
            table_from_csv("i,j,n,k,count\n0,0,0,0,2\n")
        assert str(info.value) == "origin count must be 1, got 2"

    def test_bad_node_record_text(self):
        with pytest.raises(TableFormatError) as info:
            table_from_csv("i,j,n,k,count\n0,0,0,0,1\n1,1,1,1,1\n")
        assert str(info.value) == (
            "bad node record (1, 1, 1, 1): (1, 1, 1, 1) violates i = n + k, j = n - k"
        )

    def test_missing_entry_text(self):
        lines = table_to_csv(build_table(3)).splitlines()
        del lines[3]  # node (2, 2)
        with pytest.raises(TableFormatError) as info:
            table_from_csv("\n".join(lines) + "\n")
        assert str(info.value) == "missing entry for node (2, 2)"


@needs_digit_limit
class TestDigitLimit:
    """Counts past the interpreter's int/str digit limit raise ResourceLimit,
    checked before any conversion."""

    def test_csv_export(self):
        with pytest.raises(ResourceLimit):
            table_to_csv(DynamicsTable(0, ((10**5000,),)))

    def test_json_export(self):
        with pytest.raises(ResourceLimit):
            table_to_json(DynamicsTable(0, ((10**5000,),)))

    def test_csv_import(self):
        with pytest.raises(ResourceLimit):
            table_from_csv("i,j,n,k,count\n0,0,0,0," + "1" * 5000 + "\n")

    def test_json_import_of_long_integer(self):
        # A bare JSON number this long fits no table field; json.loads itself
        # refuses to convert it.
        text = '{"format": "dyck4d-table/1", "max_i": ' + "1" * 5000 + ', "entries": []}'
        with pytest.raises(TableFormatError):
            table_from_json(text)

    def test_import_at_the_limit_reaches_validation(self):
        with pytest.raises(TableFormatError, match="origin count must be 1"):
            table_from_csv("i,j,n,k,count\n0,0,0,0," + "1" * STR_DIGITS + "\n")


def _csv_lines(max_i):
    return table_to_csv(build_table(max_i)).splitlines(True)


def _json_doc(max_i):
    return json.loads(table_to_json(build_table(max_i)))


def _rejection(parse, text):
    with pytest.raises(TableFormatError) as info:
        parse(text)
    return str(info.value)


# Re-formatted exports: no byte match, so the format's parser imports them.
def _crlf_csv(table):
    return table_to_csv(table).replace("\n", "\r\n")


def _compact_json(table):
    return json.dumps(json.loads(table_to_json(table)))


class TestImportInExportOrder:
    """Records are checked as they arrive: the first fault in file order is
    the one reported.  Columns 4 and 6 of build_table(6) hold (1, 3, 2) and
    (1, 5, 9, 5); CSV line 0 is the header and column 4 starts at line 7."""

    def test_swapped_rows(self):
        lines = _csv_lines(6)
        lines[7], lines[8] = lines[8], lines[7]
        assert _rejection(table_from_csv, "".join(lines)) == "missing entry for node (4, 4)"
        doc = _json_doc(6)
        entries = doc["entries"]
        entries[6], entries[7] = entries[7], entries[6]
        assert _rejection(table_from_json, json.dumps(doc)) == "missing entry for node (4, 4)"

    def test_shuffled_rows(self):
        lines = _csv_lines(6)
        text = lines[0] + "".join(reversed(lines[1:]))
        assert _rejection(table_from_csv, text) == "missing entry for node (0, 0)"

    def test_duplicated_row(self):
        lines = _csv_lines(6)
        lines.insert(9, lines[8])
        assert _rejection(table_from_csv, "".join(lines)) == "duplicate record for node (4, 2)"
        doc = _json_doc(6)
        doc["entries"].insert(8, doc["entries"][7])
        assert _rejection(table_from_json, json.dumps(doc)) == "duplicate record for node (4, 2)"

    def test_truncated_last_column(self):
        lines = _csv_lines(6)
        assert _rejection(table_from_csv, "".join(lines[:-1])) == "missing entry for node (6, 0)"
        doc = _json_doc(6)
        del doc["entries"][-1]
        assert _rejection(table_from_json, json.dumps(doc)) == "missing entry for node (6, 0)"

    def test_json_declared_column_absent(self):
        doc = _json_doc(6)
        del doc["entries"][-4:]
        assert _rejection(table_from_json, json.dumps(doc)) == "missing entry for node (6, 6)"

    def test_json_record_beyond_declared_max_i(self):
        doc = _json_doc(6)
        doc["entries"].append({"i": 7, "j": 7, "n": 7, "k": 0, "count": "1"})
        assert _rejection(table_from_json, json.dumps(doc)) == (
            "record at position 7 beyond declared max_i 6"
        )

    def test_csv_without_records(self):
        assert _rejection(table_from_csv, "i,j,n,k,count\n\n") == (
            "table has no records; even an empty build has the origin"
        )

    @pytest.mark.parametrize("parse, export, limit", [
        (table_from_csv, table_to_csv, 10_000_000),
        (table_from_json, table_to_json, 32_000_000),
        (table_from_csv, _crlf_csv, 10_000_000),
        (table_from_json, _compact_json, 32_000_000),
    ])
    def test_import_peak_memory(self, parse, export, limit):
        table = build_table(512)
        text = export(table)
        tracemalloc.start()
        try:
            restored = parse(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert restored == table
        # The table itself is about 4.2 MB.  An export matched column by column
        # holds one column's text on top (4.8 MB in all); json.loads of the
        # whole text alone took about 24 MB (28 MB in all for a compact JSON
        # export), and holding every row and a dict of all (i, k) as well
        # passes 50 MB.
        assert peak < limit

    def test_json_export_import_peak_memory(self):
        # A JSON export matched column by column stays near the table's own
        # size, like CSV, instead of the 24 MB that json.loads needs.
        self.test_import_peak_memory(table_from_json, table_to_json, 10_000_000)


def _mutate(text, data):
    """One line deleted, duplicated or swapped with the next, or one digit changed."""
    lines = text.splitlines(True)
    at = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["delete", "duplicate", "swap", "digit"]))
    if how == "delete":
        del lines[at]
    elif how == "duplicate":
        lines.insert(at, lines[at])
    elif how == "swap":
        lines[at : at + 2] = reversed(lines[at : at + 2])
    else:
        digits = [p for p, c in enumerate(lines[at]) if c.isdigit()]
        if digits:
            p = data.draw(st.sampled_from(digits))
            new = data.draw(st.sampled_from("0123456789"))
            lines[at] = lines[at][:p] + new + lines[at][p + 1 :]
    return "".join(lines)


def _import_or_reject(parse, text):
    try:
        table = parse(text)
    except (TableFormatError, ResourceLimit):
        return
    assert table == build_table(table.max_i)


class TestImportFuzz:
    """Whatever the text, an import either refuses it or returns exactly a
    fresh build of its bound."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([table_from_csv, table_from_json]),
        st.one_of(st.text(), st.text().map(lambda text: "i,j,n,k,count\n" + text)),
    )
    def test_arbitrary_text(self, parse, text):
        _import_or_reject(parse, text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(table_from_csv, table_to_csv), (table_from_json, table_to_json)]),
        st.integers(0, 12),
        st.data(),
    )
    def test_damaged_export(self, formats, max_i, data):
        parse, export = formats
        _import_or_reject(parse, _mutate(export(build_table(max_i)), data))


@pytest.fixture
def parsers_refuse(monkeypatch):
    def refuse(text):
        raise AssertionError("a canonical export reached the parser")

    monkeypatch.setattr(dynamics, "_parse_csv", refuse)
    monkeypatch.setattr(dynamics, "_parse_json", refuse)


def _quote_count(text, data):
    """One CSV record with its count field quoted, which csv.reader unquotes."""
    lines = text.splitlines(True)
    at = data.draw(st.integers(1, len(lines) - 1))
    head, _, count = lines[at].rpartition(",")
    lines[at] = f'{head},"{count.rstrip()}"\n'
    return "".join(lines)


def _replace_separator(text, data):
    """One comma or line end replaced, say between two columns."""
    at = data.draw(st.sampled_from([at for at, char in enumerate(text) if char in ",\n"]))
    return text[:at] + data.draw(st.sampled_from(' ,;\n\r\t"[]{}x1')) + text[at + 1 :]


def _bogus_max_i(text, data):
    """The JSON header's max_i replaced: off by one, zero-padded, signed or not an int."""
    doc = json.loads(text)
    bogus = data.draw(st.sampled_from(
        [doc["max_i"] + 1, doc["max_i"] - 1, "007", "-0", "1e1", "true", "null", '"3"']))
    declared = f'"max_i": {doc["max_i"]},'
    return text.replace(declared, f'"max_i": {bogus},', 1)


# Changes that keep the text a valid file, or break it, without keeping it an export.
_CSV_VARIANTS = {
    "mutate": _mutate,
    "separator": _replace_separator,
    "crlf": lambda text, data: text.replace("\n", "\r\n"),
    "no final newline": lambda text, data: text[:-1],
    "trailing blank line": lambda text, data: text + "\n",
    "quoted count": _quote_count,
    "trailing data": lambda text, data: text + "7,7,7,0,1\n",
}
_JSON_VARIANTS = {
    "mutate": _mutate,
    "separator": _replace_separator,
    "compact": lambda text, data: json.dumps(json.loads(text)),
    "no final newline": lambda text, data: text[:-1],
    "trailing blank line": lambda text, data: text + "\n",
    "bogus max_i": _bogus_max_i,
    "trailing data": lambda text, data: text + "{}",
}


class TestExactBytesRoute:
    """An import matches the text against the recurrence's own export and
    parses only what differs; either way it ends as the parser alone would."""

    @pytest.mark.parametrize("max_i", [*range(41), 257])
    def test_exports_never_reach_the_parser(self, parsers_refuse, max_i):
        table = build_table(max_i)
        assert table_from_csv(table_to_csv(table)) == table
        assert table_from_json(table_to_json(table)) == table

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["csv", "json"]), st.integers(0, 12), st.data())
    def test_same_outcome_as_the_parser(self, fmt, max_i, data):
        if fmt == "csv":
            parse, reference, text = table_from_csv, dynamics._parse_csv, table_to_csv
            variants = _CSV_VARIANTS
        else:
            parse, reference, text = table_from_json, dynamics._parse_json, table_to_json
            variants = _JSON_VARIANTS
        change = variants[data.draw(st.sampled_from(sorted(variants)))]
        text = change(text(build_table(max_i)), data)
        assert returned_or_raised(parse, text) == returned_or_raised(reference, text)

    @pytest.mark.parametrize("parse, reference", [
        (table_from_csv, "_parse_csv"), (table_from_json, "_parse_json")])
    @pytest.mark.parametrize("text", [
        "", "i,j,n,k,count\n", "i,j,n,k,count\n0,0,0,0,1", '{\n  "format": "dyck4d-table/1"',
        b"i,j,n,k,count\n0,0,0,0,1\n", table_to_json(build_table(5)).encode(), None, 7])
    def test_short_or_non_text_input(self, parse, reference, text):
        # json.loads takes bytes, so a JSON export as bytes still imports.
        expected = returned_or_raised(getattr(dynamics, reference), text)
        assert returned_or_raised(parse, text) == expected

    def test_hands_over_before_the_digit_limit(self, monkeypatch):
        # Under a limit of 3 digits, counts up to 2**12 could pass it; the writer
        # refuses before its first piece, so no column is formatted, and the parser
        # takes the text.
        text = table_to_csv(build_table(12))
        formatted = []
        column_text = dynamics._column_text

        def spy(pieces, sep, digits, i, col):
            formatted.append(i)
            return column_text(pieces, sep, digits, i, col)

        monkeypatch.setattr(dynamics, "_column_text", spy)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3, raising=False)
        assert dynamics._exact_table(text, "csv") is None
        assert formatted == []
        assert table_from_csv(text) == build_table(12)

    @pytest.mark.parametrize("parse, export", [
        (table_from_csv, table_to_csv), (table_from_json, table_to_json)])
    def test_a_text_without_the_final_newline_replays_no_column(self, monkeypatch, parse, export):
        # No export lacks its format's tail, so the parser takes the text unmatched.
        table = build_table(40)
        text = export(table)[:-1]

        def refuse(max_i):
            raise AssertionError(f"columns made up to {max_i}")

        monkeypatch.setattr(dynamics, "_columns", refuse)
        assert parse(text) == table

    @pytest.mark.parametrize("parse, fmt, text", [
        (table_from_json, "json", table_to_json(build_table(2)).replace(
            '"max_i": 2,', '"max_i": 999999999999,', 1)),
        (table_from_csv, "csv", table_to_csv(build_table(2)) + "200,0,100,100,1\n"),
        (table_from_csv, "csv", "i,j,n,k,count\n0,0,0,0,1\n40,0,20,20,1\n"),
    ], ids=["json header", "csv past an export", "csv short"])
    def test_claimed_bound_past_the_text_makes_no_column(self, monkeypatch, parse, fmt, text):
        # Each column takes at least one character, so a max_i of at least the
        # text's length cannot be an export: the parser takes it unmatched.
        reference = returned_or_raised(getattr(dynamics, f"_parse_{fmt}"), text)

        def refuse(max_i):
            raise AssertionError(f"columns made up to {max_i}")

        monkeypatch.setattr(dynamics, "_columns", refuse)
        assert dynamics._exact_table(text, fmt) is None
        assert returned_or_raised(parse, text) == reference

    @pytest.mark.parametrize("limit", [STR_DIGITS, 0], ids=["digit limit", "no digit limit"])
    def test_claimed_bound_within_the_text_formats_one_column(self, monkeypatch, limit):
        # About 1 MB whose last record claims a max_i just below the text's length and
        # whose origin count is wrong: the replay stops at column 0, formatting no
        # position beyond it, whether or not the digit limit refuses first.  The digit
        # check reads a bit length: it builds no int of max_i bits (125 KB here).
        body = "i,j,n,k,count\n0,0,0,0,2\n" + "1,1,1,0,1\n" * 100_000
        text = f"{body}{len(body)},0,0,0,1\n"
        formatted = []
        column_text = dynamics._column_text

        def spy(pieces, sep, digits, i, col):
            formatted.append(i)
            return column_text(pieces, sep, digits, i, col)

        monkeypatch.setattr(dynamics, "_column_text", spy)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
        tracemalloc.start()
        try:
            assert dynamics._exact_table(text, "csv") is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert formatted == ([] if limit else [0])
        assert peak < 32_000, peak
        with pytest.raises(TableFormatError, match="origin count must be 1, got 2"):
            table_from_csv(text)
