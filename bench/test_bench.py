"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference
import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli_queries", "library_session", "bulk_tables")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
              "latency_tail_s": "s", "peak_rss_mb": "MB"}


def run_bench(root: Path, workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=root, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result, stdout = run_bench(ROOT, workload, 0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "failed_ratio    0 ratio" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    result, _ = run_bench(ROOT, workload, 1)
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(
        run.per_layer_units())
    assert result["metrics"]["trace.spans"]["value"] > 0


def test_checker_rejects_wrong_answers():
    catalan_6, over_cap = reference.cli_expected(["catalan", "6"]), None
    assert reference.check_cli(catalan_6, 0, "132\n") is None
    assert reference.check_cli(catalan_6, 0, "133\n") == "wrong output"
    assert reference.check_cli(catalan_6, 0, "") == "empty stdout"
    assert reference.check_cli(catalan_6, 1, "132\n") == "exit 1"
    assert reference.cli_expected(["catalan", "99999"]) is over_cap
    assert reference.check_cli(over_cap, 2, "") is None
    assert reference.check_cli(over_cap, 0, "0\n") is not None
    check_binomial = reference.check_value(reference.library_expected("binomial", (10, 3)))
    assert check_binomial(120) is None
    assert check_binomial(121) == "wrong value"
    path = SimpleNamespace(steps="UUD", nodes=())
    assert reference.check_path_query("(()", "ij", (path, path, path)) == (
        "trace visited wrong nodes")
    ref = reference.table(4)
    good = "i,j,n,k,count\n" + "".join(
        f"{i},{i - 2 * k},{i - k},{k},{ref[i][k]}\n" for i in range(5) for k in range(i // 2 + 1))
    assert reference.check_csv(ref, 4, good) is None
    assert reference.check_csv(ref, 4, good.replace("4,0,2,2,2\n", "4,0,2,2,3\n")) is not None
    doc = {"format": "dyck4d-table/1", "max_i": 4, "entries": [
        {"i": i, "j": i - 2 * k, "n": i - k, "k": k, "count": str(ref[i][k])}
        for i in range(5) for k in range(i // 2 + 1)]}
    assert reference.check_json(ref, 4, json.dumps(doc, indent=2)) is None
    assert reference.check_json(ref, 4, json.dumps(doc, separators=(",", ":"))) is None
    assert reference.check_json(ref, 4, json.dumps(doc)[:-2]).startswith("malformed JSON")
    doc["entries"][-1]["count"] = "3"
    assert reference.check_json(ref, 4, json.dumps(doc)) == "wrong JSON entry, expected 4,0,2,2"
    del doc["entries"][-1]
    assert reference.check_json(ref, 4, json.dumps(doc)) == "missing JSON entries"


def test_wrong_program_counts_as_failed(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    dynamics = tmp_path / "src" / "dyck4d" / "dynamics.py"
    dynamics.write_text(dynamics.read_text() + (
        "\n_exact_catalan = catalan\n\n\n"
        "def catalan(n, **kwargs):\n    return _exact_catalan(n, **kwargs) + 1\n"))
    result, stdout = run_bench(tmp_path, "cli_queries", 0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "wrong output" in stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"), "--tiny",
                           "--workload", "all", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
