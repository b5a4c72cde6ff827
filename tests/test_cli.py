import errno
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_golden
import dyck4d
from dyck4d import (CheckResult, DiagramSpec, Plane, build_table, cli, dynamics, emit,
                    identities, layout, table_to_csv, table_to_json, verify)
from dyck4d.cli import run

from conftest import invoke


# The CLI contract: every case of tests/data/cli_golden.json, exit code, stdout and stderr.
@pytest.mark.parametrize("case", cli_golden.load(), ids=cli_golden.case_id)
def test_contract_corpus(case):
    assert cli_golden.pins(case, *cli_golden.run_case(case)) == cli_golden.expected(case)


def test_command_runs_the_nul_case_from_src_whatever_the_environment(monkeypatch):
    monkeypatch.delenv("PYTHONPATH", raising=False)
    case = next(case for case in cli_golden.load() if "\0" in "".join(case["argv"]))
    got = cli_golden.run_case(case, command="no-such-dyck4d")
    assert cli_golden.pins(case, *got) == cli_golden.expected(case)


def test_generate_names_each_case_whose_pins_changed(tmp_path, monkeypatch, capsys):
    cases = {cli_golden.case_id(case): case for case in cli_golden.load()}
    fresh, kept = cases["catalan 6"], cases["catalan 10"]
    stale = {**fresh, "stdout": "0\n"}
    monkeypatch.setattr(cli_golden, "CORPUS", tmp_path / "cli_golden.json")
    monkeypatch.setattr(sys, "path", [*sys.path])  # generate puts src/ first
    cli_golden.CORPUS.write_text(json.dumps([stale, kept]), encoding="utf-8")
    cli_golden.generate()
    assert capsys.readouterr().out == f"{cli_golden.case_id(fresh)}\n1 of 2 CLI cases changed\n"
    assert cli_golden.load() == [fresh, kept]


class TestTable:
    def test_csv_default(self):
        code, out, _ = invoke("table", "--max-i", "2")
        assert code == 0
        assert out.splitlines()[0] == "i,j,n,k,count"
        assert len(out.splitlines()) == 1 + 4

    def test_resource_limit(self):
        code, _, err = invoke("table", "--max-i", "99999")
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("max_i", [*range(41), 300])
    def test_streams_the_export_without_a_table(self, monkeypatch, max_i, fmt):
        table = build_table(max_i)
        expected = table_to_csv(table) if fmt == "csv" else table_to_json(table)

        def refuse(*args, **kwargs):
            raise AssertionError("table built a whole count table")

        for module in (cli, dynamics):
            monkeypatch.setattr(module, "build_table", refuse, raising=False)
        assert invoke("table", "--max-i", str(max_i), "--format", fmt) == (0, expected, "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_decompose_refuses_the_digit_limit_before_the_recurrence(monkeypatch):
    def refuse(max_i):
        raise AssertionError("decompose ran the recurrence before refusing")

    monkeypatch.setattr(identities, "_columns", refuse)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, _ = invoke("decompose", "2048")
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, out) == (2, "")


class TestVerify:
    def test_passes(self):
        code, out, _ = invoke("verify", "--max-i", "12")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1])
        assert lines[-1].endswith("checks passed")

    def test_line_per_check(self):
        _, out, _ = invoke("verify", "--max-i", "8")
        names = [line.split()[1].rstrip(":") for line in out.splitlines()[:-1]]
        assert "oracle-equivalence" in names
        assert "sum-of-squares" in names
        assert len(names) == len(set(names))

    def test_json_records(self):
        code, out, _ = invoke("verify", "--max-i", "12", "--json")
        _, text, _ = invoke("verify", "--max-i", "12")
        records = json.loads(out)
        assert code == 0
        assert len(records) == 19
        assert all(list(r) == ["name", "passed", "detail", "seconds"] for r in records)
        assert all(r["passed"] and r["seconds"] >= 0 for r in records)
        lines = [f"PASS {r['name']}: {r['detail']}" for r in records]
        assert text.splitlines()[:-1] == lines

    def test_json_failure_exit_code(self, monkeypatch):
        failed = CheckResult("column-tops", False, "count(3, 3) != 1", seconds=0.25)
        monkeypatch.setattr(verify, "run_checks", lambda max_i: [failed])
        code, out, _ = invoke("verify", "--max-i", "3", "--json")
        assert code == 1
        assert json.loads(out) == [
            {"name": "column-tops", "passed": False, "detail": "count(3, 3) != 1", "seconds": 0.25}
        ]


class TestProject:
    def test_plane_case_insensitive(self):
        assert invoke("project", "--plane", "NK", "--word", "()")[0] == 0


class TestRender:
    def test_svg_files_byte_identical(self, tmp_path):
        first = tmp_path / "a.svg"
        second = tmp_path / "b.svg"
        assert invoke("render", "--plane", "ij", "--max-i", "8", "--svg", str(first))[0] == 0
        assert invoke("render", "--plane", "ij", "--max-i", "8", "--svg", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_spatial_plane_svg_is_the_flattened_layout(self, tmp_path):
        target = tmp_path / "ijn.svg"
        assert invoke("render", "--plane", "ijn", "--max-i", "3", "--svg", str(target)) == (0, "", "")
        document = emit(layout(DiagramSpec(Plane.parse("ijn"), 3, fmt="svg")))
        assert target.read_bytes() == document.encode()
        assert "<desc>ijn flattened to ij; axis n is determined by " in document

    def test_word_overlay(self, tmp_path):
        target = tmp_path / "path.svg"
        code, _, _ = invoke(
            "render", "--plane", "nk", "--max-i", "6",
            "--word", "((()))", "--svg", str(target),
        )
        assert code == 0
        assert '<g id="path">' in target.read_text()

    def test_isoline_subset(self):
        code, out, _ = invoke("render", "--plane", "ij", "--max-i", "2", "--isolines", "nk")
        assert code == 0

    def test_unwritable_svg_path(self, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = invoke("render", "--plane", "ij", "--max-i", "2", "--svg", str(target))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_nul_in_svg_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke("render", "--plane", "ij", "--max-i", "1", "--svg", "a\x00b")
        assert (code, out) == (1, "")
        assert err == "error: cannot write 'a\\x00b': embedded null byte\n"  # no raw NUL
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("svg", [False, True], ids=["text", "svg"])
    def test_output_cap_refuses_at_once(self, tmp_path, svg):
        # About 20 GB of text, or 10 GB of SVG, uncapped.
        target = tmp_path / "big.svg"
        start = time.perf_counter()
        code, out, err = invoke(
            "render", "--plane", "ij", "--max-i", "4096", *(["--svg", str(target)] if svg else [])
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("resource limit: a diagram up to max_i = 4096 may take ")
        assert err.endswith(" bytes, beyond the output cap of 33554432\n")
        assert not target.exists()


# Each ends in an exit code and a one-line message, never a traceback.
BAD_ARGV = [
    [], ["frobnicate"], ["--frobnicate"], ["catalan"], ["catalan", "x"],
    ["catalan", "1", "2"], ["table"], ["table", "--max-i", "3", "--format", "xml"],
    ["dynamics", "1"], ["dynamics", "4097", "1"], ["dynamics", "a", "b"],
    ["decompose", "1.5"], ["verify"],
    ["project", "--plane", "ij"], ["enumerate", "-1"],
    ["render", "--plane", "ijnk", "--max-i", "3"],
    ["catalan", "\u0661\u0662"], ["table", "--max-i", "\uff13"],  # int() reads both as 12 and 3
]


@pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda argv: " ".join(argv) or "(none)")
def test_bad_arguments_exit_without_traceback(argv):
    code, out, err = invoke(*argv)
    assert code in (1, 2)
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: " if code == 1 else "resource limit: ")


# Generated bad vectors: one valid, small command with one fault put in.
_NEGATIVE = st.integers(-99, -1).map(str)
_NON_INTEGER = st.sampled_from(["x", "", "1.5", "1e3", "0x10", "one", "--", "5-"])
_NON_ASCII_DIGITS = st.sampled_from(["\u0661\u0662", "\uff13", "\u00b2", "\u0969", "1\u0663"])
_NOT_A_COUNT = st.one_of(_NON_INTEGER, _NON_ASCII_DIGITS)


def _over(cap):
    return st.integers(cap + 1, 10**30).map(str)


_BAD_PLANE = st.sampled_from(["xy", "ji", "ijn", "", "i", "\uff49\uff4a", "ij k"])
_BAD_RENDER_PLANE = st.sampled_from(["xy", "ji", "ijnk", "", "i", "\uff49\uff4a", "ij k", "kji"])
_BAD_FORMAT = st.sampled_from(["xml", "CSV", "", "jsonl"])
_BAD_ISOLINES = st.sampled_from(["xyz", "q", "i,j", "\u00df", "\u0130"])
_BAD_WORD = st.sampled_from([")(", "(x)", "())", ")", "U", "\u00fc"])  # "((" is a valid prefix

# Per command: required slots, then optional ones, each (flag, or None for a
# positional; valid values, None for a bare flag; bad values, if any).
_COMMANDS = {
    "catalan": ([(None, st.integers(0, 6), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(2048)))], []),
    "table": ([("--max-i", st.integers(0, 4), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(4096)))],
              [("--format", st.sampled_from(["csv", "json"]), _BAD_FORMAT)]),
    # A negative or unreachable (i, j) reads 0, so the bad i past the cap is
    # even, as is every valid i, with j = 0.
    "dynamics": ([(None, st.integers(0, 3).map(lambda i: 2 * i),
                   st.one_of(_NOT_A_COUNT, st.integers(2049, 10**6).map(lambda i: 2 * i))),
                  (None, st.just(0), _NOT_A_COUNT)], []),
    "decompose": ([(None, st.integers(0, 5), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(2048)))],
                  [("--json", None, None)]),
    "verify": ([("--max-i", st.integers(0, 3), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(4096)))],
               [("--json", None, None)]),
    "project": ([("--plane", st.sampled_from(["ij", "NK", " in "]), _BAD_PLANE),
                 ("--word", st.sampled_from(["()", "(())", "(()"]), _BAD_WORD)], []),
    "enumerate": ([(None, st.integers(0, 3), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(16)))], []),
    "render": ([("--plane", st.sampled_from(["ij", "kj", "IK", "jnk"]), _BAD_RENDER_PLANE),
                ("--max-i", st.integers(2, 4), st.one_of(_NEGATIVE, _NOT_A_COUNT, _over(4096)))],
               [("--word", st.just("()"), _BAD_WORD),
                ("--isolines", st.sampled_from(["nk", "IJ"]), _BAD_ISOLINES)]),
}


@st.composite
def bad_argv(draw):
    """A small valid command with one fault: a bad value, a required argument
    left out, an unknown flag, or an unknown command."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional = _COMMANDS[command]
    slots = required + [slot for slot in optional if draw(st.booleans())]
    values = [None if valid is None else draw(valid) for _, valid, _ in slots]
    fault = draw(st.sampled_from(["value", "missing", "unknown flag", "unknown command"]))
    if fault == "value":
        at = draw(st.sampled_from([n for n, (_, _, bad) in enumerate(slots) if bad is not None]))
        values[at] = draw(slots[at][2])
    elif fault == "missing":
        at = draw(st.integers(0, len(required) - 1))
        del slots[at], values[at]
    argv = [command]
    for (flag, _, _), value in zip(slots, values):
        argv += [part for part in (flag, value) if part is not None]
    if fault == "unknown flag":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--frobnicate", "-z"])))
    elif fault == "unknown command":
        argv[0] = draw(st.sampled_from(["frobnicate", "Catalan", "", "tabel", "\u00e9"]))
    return [str(part) for part in argv]


@settings(max_examples=300, deadline=None)
@given(bad_argv())
def test_generated_bad_arguments_exit_with_one_line(argv):
    code, out, err = invoke(*argv)
    assert code in (1, 2), (argv, code, out[:200])
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    assert err.startswith("error: " if code == 1 else "resource limit: ")


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "dyck4d" in capsys.readouterr().out
        # With stdout= given, the help goes there and nowhere else.
        for argv, usage in ((["--help"], "usage: dyck4d "),
                            (["table", "--help"], "usage: dyck4d table ")):
            code, out, err = invoke(*argv)
            assert (code, err) == (0, "")
            assert out.startswith(usage)
            assert capsys.readouterr() == ("", "")


class _FullDisk(io.StringIO):
    """A stdout whose writes, or only its flush, fail as on a full disk."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.failing == "flush":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestOutputErrors:
    def test_closed_pipe_exits_1_without_a_traceback(self):
        # As `dyck4d table --max-i 300 | head -c 10`: the reader closes after 10 bytes.
        src = str(Path(dyck4d.__file__).resolve().parent.parent)
        proc = subprocess.Popen([sys.executable, "-m", "dyck4d.cli", "table", "--max-i", "300"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.read(10) == b"i,j,n,k,co"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""  # no traceback, no "Exception ignored" at exit
        proc.stderr.close()

    def test_ctrl_c_exits_130_without_a_traceback(self):
        # As Ctrl-C on `dyck4d enumerate 16`, once its first line has been read.
        src = str(Path(dyck4d.__file__).resolve().parent.parent)
        proc = subprocess.Popen([sys.executable, "-m", "dyck4d.cli", "enumerate", "16"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.readline() == b"(" * 16 + b")" * 16 + b"\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)  # the lines written before it stopped
        assert proc.returncode == 130
        assert err == b""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [["enumerate", "3"], ["table", "--max-i", "3"], ["catalan", "3"]])
    def test_other_write_errors_exit_1_with_one_line(self, failing, argv):
        err = io.StringIO()
        assert run(argv, stdout=_FullDisk(failing), stderr=err) == 1
        assert err.getvalue() == f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n"
