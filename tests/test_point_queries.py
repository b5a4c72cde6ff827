"""Point queries answer by closed form: no count table is ever built."""

import math
import tracemalloc

import pytest

from dyck4d import build_table, catalan, cli, decompose_catalan, dynamics, identities

from conftest import invoke


@pytest.mark.parametrize("i", ["99999"])  # the corpus pins `dynamics 4097 1`
def test_dynamics_over_cap_is_a_resource_limit(i):
    code, out, err = invoke("dynamics", i, "1")
    assert code == 2
    assert out == ""
    assert err.startswith("resource limit:")


def test_dynamics_agrees_with_table():
    table = build_table(40)
    for i in range(41):
        for j in range(i % 2, i + 1, 2):
            code, out, _ = invoke("dynamics", str(i), str(j))
            assert code == 0
            assert out.split()[0] == str(table.count(i, j)), (i, j)


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a point query built a count table")

    for module in (dynamics, cli):
        monkeypatch.setattr(module, "build_table", refuse, raising=False)
    for module in (dynamics, identities):
        monkeypatch.setattr(module, "_columns", refuse)


def test_catalan_builds_no_table(no_tables):
    assert catalan(2048) == math.comb(4096, 2048) // 2049
    assert invoke("catalan", "2048") == (0, f"{catalan(2048)}\n", "")


def test_dynamics_builds_no_table(no_tables):
    assert invoke("dynamics", "12", "0") == (0, "132 (i=12, j=0, n=6, k=6)\n", "")
    assert invoke("dynamics", "4095", "1")[0] == 0


def test_decompose_keeps_one_column(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose built a count table")

    for module in (dynamics, identities, cli):
        monkeypatch.setattr(module, "build_table", refuse, raising=False)
    tracemalloc.start()
    try:
        dec = decompose_catalan(1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dec.sum_of_squares == math.comb(2048, 1024) // 1025
    # The whole table to column 1024 peaks at about 27 MB; two columns, 0.15 MB.
    assert peak < 5_000_000
    assert invoke("decompose", "6") == (0, "terms: 1,5,9,5\nsum-of-squares: 132\nstatus: OK\n", "")
