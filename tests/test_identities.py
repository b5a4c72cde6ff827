import json
import math
import sys

import pytest
from hypothesis import given, strategies as st

from dyck4d import (
    Decomposition,
    DyckError,
    binomial,
    build_table,
    catalan,
    convolution,
    decompose_catalan,
    square_term,
    square_term_special,
)
from dyck4d import identities
from dyck4d.dynamics import _columns
from dyck4d.errors import DomainError, ResourceLimit

from conftest import invoke


class TestBinomial:
    @pytest.mark.parametrize(
        "n,k,expected",
        [(8, 4, 70), (6, -1, 0), (5, 5, 1), (0, 0, 1), (5, 7, 0), (10, 1, 10)],
    )
    def test_values(self, n, k, expected):
        assert binomial(n, k) == expected

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 300), st.integers(-2, 302))
    def test_matches_stdlib(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binomial(n, k) == expected

    @given(st.integers(1, 120), st.integers(0, 120))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestConvolution:
    def test_first_column_is_catalan(self):
        assert convolution(4, 0) == 14
        for n in range(21):
            assert convolution(n, 0) == catalan(n)

    def test_diagonal_is_one(self):
        for n in (0, 1, 5, 17):
            assert convolution(n, n) == 1

    def test_inner_value(self):
        # binomial(6, 2) - binomial(6, 1) = 15 - 6
        assert convolution(4, 2) == 9

    def test_matches_table(self):
        table = build_table(40)
        for n in range(21):
            for j in range(n + 1):
                assert convolution(n, j) == table.count(2 * n - j, j)

    @pytest.mark.parametrize("n,j", [(3, 4), (-1, 0), (2, -2)])
    def test_domain(self, n, j):
        with pytest.raises(DomainError):
            convolution(n, j)


class TestSquareTerm:
    def test_first_term_is_one(self):
        for v in (0, 1, 7, 30):
            assert square_term(v, 0) == 1

    def test_known_values(self):
        assert square_term(6, 1) == 5
        assert square_term(6, 2) == 9

    def test_matches_table(self):
        table = build_table(40)
        for i in range(41):
            for k in range(i // 2 + 1):
                assert square_term(i, k) == table.count(i, i - 2 * k)

    @pytest.mark.parametrize("i,k", [(5, 3), (4, 3), (-1, 0), (3, -1)])
    def test_domain(self, i, k):
        with pytest.raises(DomainError):
            square_term(i, k)


class TestSquareTerms:
    def test_equals_every_recurrence_column(self):
        for i, column in enumerate(_columns(300)):
            assert identities.square_terms(i) == column, i

    @pytest.mark.parametrize("i", [0, 1, 2, 7, 12, 64, 301, 1024])
    def test_equals_the_point_terms(self, i):
        assert identities.square_terms(i) == tuple(square_term(i, k) for k in range(i // 2 + 1))


class TestSquareTermSpecial:
    def test_last_term_example(self):
        assert square_term_special(6, 3) == 5

    def test_second_term(self):
        assert square_term_special(4, 1) == 3

    def test_third_term(self):
        assert square_term_special(4, 2) == 2

    def test_odd_column_last_term(self):
        # the bottom node of an odd column sits at height 1, so the final
        # term is the Catalan number of the rounded-up half
        assert square_term_special(5, 2) == 5
        assert square_term_special(7, 3) == 14

    def test_agrees_with_general_form(self):
        for v in range(31):
            for k in {0, 1, 2, v // 2}:
                if 2 * k <= v:
                    assert square_term_special(v, k) == square_term(v, k)

    def test_outside_special_set(self):
        with pytest.raises(DomainError):
            square_term_special(10, 4)

    def test_outside_triangle(self):
        with pytest.raises(DomainError):
            square_term_special(5, 3)


class TestDecomposition:
    def test_trivial_column(self):
        dec = decompose_catalan(0)
        assert dec.terms == (1,)
        assert dec.sum_of_squares == 1

    def test_column_four(self):
        dec = decompose_catalan(4)
        assert dec.terms == (1, 3, 2)
        assert dec.sum_of_squares == 14

    def test_column_six(self):
        dec = decompose_catalan(6)
        assert dec.terms == (1, 5, 9, 5)
        assert dec.sum_of_squares == 132

    def test_sum_of_squares_up_to_thirty(self):
        for v in range(31):
            dec = decompose_catalan(v)
            assert dec.sum_of_squares == catalan(v)
            assert dec.terms[0] == 1
            assert dec.terms[-1] == catalan((v + 1) // 2)

    def test_terms_equal_the_table_column(self):
        table = build_table(40)
        for v in range(41):
            terms = decompose_catalan(v).terms
            assert terms == tuple(table.count(v, v - 2 * k) for k in range(v // 2 + 1))

    def test_recurrence_mismatch_raises(self, monkeypatch):
        def columns(max_i):
            yield (1,)
            yield (1, 4, 2)  # column 4 with term 1 off by one

        monkeypatch.setattr(identities, "_columns", columns)
        with pytest.raises(DyckError) as info:
            decompose_catalan(4)
        assert str(info.value) == "inconsistent routes at (i=4, k=1): closed form 3, recurrence 4"

    def test_catalan_mismatch_raises(self, monkeypatch):
        real = identities.catalan
        monkeypatch.setattr(identities, "catalan", lambda v: real(v) + 1)
        with pytest.raises(DyckError) as info:
            decompose_catalan(4)
        assert str(info.value) == "squares of column 4 sum to 14, but catalan(4) = 15"

    def test_json_record(self):
        code, out, err = invoke("decompose", "4", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"v": 4, "terms": ["1", "3", "2"], "catalan": "14"}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decompose_catalan(-1)

    def test_cap(self):
        with pytest.raises(ResourceLimit) as info:
            decompose_catalan(2049)
        assert str(info.value) == (
            "decomposing column 2049 needs positions up to 4098, beyond the cap of 4096")

    def test_value_type(self):
        dec = Decomposition(2, (1, 1))
        assert dec.sum_of_squares == 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str limit")
def test_json_record_past_digit_limit():
    # No term is longer than the squared sum, Cat(v), so the one digit check on Cat(v)
    # admits decompose's record up to the limit and refuses it one column past.
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        at_limit = invoke("decompose", "1070", "--json")
        past_limit = invoke("decompose", "1071", "--json")
    finally:
        sys.set_int_max_str_digits(before)
    code, out, err = at_limit
    assert (code, err) == (0, "")
    assert len(json.loads(out)["catalan"]) == 640
    code, out, err = past_limit
    assert (code, out) == (2, "")
    assert err.startswith("resource limit: ")
