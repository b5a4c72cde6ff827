import functools
import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

import dyck4d
from dyck4d import dynamics, paths
from dyck4d import (
    DyckWord,
    Node,
    Plane,
    ProjectedPath,
    build_table,
    catalan,
    count_paths_by_height,
    count_paths_to,
    enumerate_words,
    format_word,
    parse_word,
    project_path,
    trace,
)
from dyck4d.errors import InvalidCharacter, PrefixViolation, ResourceLimit

from conftest import random_valid_word, returned_or_raised

NK = Plane.parse("nk")
NJ = Plane.parse("nj")


@functools.lru_cache(maxsize=None)
def _words(m: int) -> tuple[DyckWord, ...]:
    return tuple(enumerate_words(m))


@st.composite
def complete_words(draw, max_semilength=7):
    m = draw(st.integers(0, max_semilength))
    words = _words(m)
    return words[draw(st.integers(0, len(words) - 1))]


class TestParsing:
    def test_single_arch(self):
        assert parse_word("()").steps == "UD"

    def test_empty_word(self):
        word = parse_word("")
        assert word.steps == ""
        assert word.is_complete

    def test_prefix_violation_position(self):
        with pytest.raises(PrefixViolation) as excinfo:
            parse_word("())(")
        assert excinfo.value.position == 3

    def test_invalid_character(self):
        with pytest.raises(InvalidCharacter):
            parse_word("(x)")

    def test_incomplete_prefix_allowed(self):
        word = parse_word("((")
        assert not word.is_complete
        assert word.unbalance == 2

    def test_direct_construction_validates(self):
        with pytest.raises(InvalidCharacter):
            DyckWord("UDX")
        with pytest.raises(PrefixViolation) as excinfo:
            DyckWord("DU")
        assert excinfo.value.position == 1

    def test_format_round_trip(self):
        for text in ("", "()", "(())()", "((("):
            assert format_word(parse_word(text)) == text


def reference_validate(steps):
    """DyckWord's check as it was before its fast path: one character at a time."""
    height = 0
    for position, step in enumerate(steps, start=1):
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
        else:
            raise InvalidCharacter(
                f"step {position}: expected 'U' or 'D', got {step!r}"
            )
        if height < 0:
            raise PrefixViolation(position)


def outcome(validate, steps):
    try:
        validate(steps)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@st.composite
def near_words(draw):
    """A valid prefix with at most one extra character put in somewhere."""
    steps = random_valid_word(random.Random(draw(st.integers(0, 2**16))),
                              draw(st.integers(0, 12))).steps
    steps = steps[: draw(st.integers(0, len(steps)))]
    cut = draw(st.integers(0, len(steps)))
    return steps[:cut] + draw(st.sampled_from(["", "U", "D", "x", ")", "DD"])) + steps[cut:]


word_inputs = st.one_of(
    st.text(alphabet="UD()x", max_size=30),
    st.just(""),
    near_words(),
    st.integers(),
    st.none(),
    st.binary(max_size=6),
    st.lists(st.sampled_from(["U", "D", "x", "UD", 1, None]), max_size=8),
    st.lists(st.sampled_from("UD"), max_size=8).map(tuple),
)


@given(word_inputs)
def test_validation_matches_the_per_character_loop(steps):
    # Same words accepted; on rejection the same exception class and message.
    assert outcome(DyckWord, steps) == outcome(reference_validate, steps)


def reference_parse(text):
    """parse_word as it was before it mapped with str.replace: one character at a time."""
    step_for_paren = {"(": "U", ")": "D"}
    steps = []
    for position, ch in enumerate(text, start=1):
        if ch not in step_for_paren:
            raise InvalidCharacter(f"position {position}: expected '(' or ')', got {ch!r}")
        steps.append(step_for_paren[ch])
    return DyckWord("".join(steps))


# Parenthesis text: near-valid words, and text from "()xU " with non-ASCII characters.
paren_inputs = st.one_of(
    near_words().map(lambda steps: steps.replace("U", "(").replace("D", ")")),
    st.text(alphabet="()xU ", max_size=30),
    st.text(alphabet=st.sampled_from(["(", ")", "x", "U", " ", "é", "\u2014", "\U0001f600",
                                      "\x00"]), max_size=16),
    st.text(max_size=12),
)


@given(paren_inputs)
def test_parse_word_matches_the_per_character_loop(text):
    # Same word, or the same exception class and message.
    assert returned_or_raised(parse_word, text) == returned_or_raised(reference_parse, text)


class TestTrace:
    def test_single_arch(self):
        path = trace(parse_word("()"))
        assert path.nodes == (Node(0, 0, 0, 0), Node(1, 1, 1, 0), Node(2, 0, 1, 1))

    def test_three_upsteps(self):
        path = trace(DyckWord("UUU"))
        assert path.nodes[-1] == Node(3, 3, 3, 0)

    def test_complete_word_lands_on_main_corner(self):
        for word in _words(6)[:20]:
            assert trace(word).nodes[-1] == Node(12, 0, 6, 6)

    @given(complete_words())
    def test_steps_ride_their_diagonals(self, word):
        path = trace(word)
        for step, before, after in zip(word.steps, path.nodes, path.nodes[1:]):
            if step == "U":
                assert after.k == before.k
                assert (after.i, after.j, after.n) == (before.i + 1, before.j + 1, before.n + 1)
            else:
                assert after.n == before.n
                assert (after.i, after.j, after.k) == (before.i + 1, before.j - 1, before.k + 1)


class TestFigurePathSegments:
    """The worked example path is pinned only by its stated segments; the
    two steps between (6,4) and (8,4) are ambiguous, so both variants are
    checked."""

    VARIANTS = ("UUUDUUUDDDDD", "UUUDUUDUDDDD")

    @pytest.mark.parametrize("steps", VARIANTS)
    def test_stated_segments(self, steps):
        word = DyckWord(steps)
        assert word.steps.startswith("UUU")
        assert word.steps.endswith("DDDD")
        path = trace(word)
        visited = {(node.i, node.j) for node in path.nodes}
        assert {(3, 3), (4, 2), (5, 3), (6, 4), (8, 4)} <= visited
        assert path.nodes[-1] == Node(12, 0, 6, 6)


class TestProjectPath:
    def test_nk_single_arch(self):
        flat = project_path(trace(parse_word("()")), NK)
        assert flat == ProjectedPath(NK, ((0, 0), (1, 0), (1, 1)))

    def test_nj_single_arch(self):
        flat = project_path(trace(parse_word("()")), NJ)
        assert flat == ProjectedPath(NJ, ((0, 0), (1, 1), (1, 0)))

    def test_ij_points(self):
        flat = project_path(trace(parse_word("()")), Plane.parse("ij"))
        assert flat.points == ((0, 0), (1, 1), (2, 0))

    def test_rejects_spatial_plane(self):
        with pytest.raises(ValueError):
            project_path(trace(parse_word("()")), Plane.parse("ijn"))

    @given(complete_words())
    def test_nk_stays_below_diagonal(self, word):
        flat = project_path(trace(word), NK)
        m = len(word) // 2
        assert flat.points[-1] == (m, m)
        assert all(k <= n for n, k in flat.points)

    def test_seeded_words_stay_below_diagonal(self):
        rng = random.Random(90125)
        for _ in range(300):
            word = random_valid_word(rng, rng.randint(0, 12))
            flat = project_path(trace(word), NK)
            assert all(k <= n for n, k in flat.points)


class TestEnumeration:
    def test_empty_semilength(self):
        assert _words(0) == (DyckWord(""),)

    def test_counts(self):
        assert len(_words(3)) == 5
        assert len(_words(6)) == 132

    def test_counts_match_catalan(self):
        for m in range(11):
            assert len(_words(m)) == catalan(m)

    def test_lexicographic_and_distinct(self):
        for m in (2, 3, 5):
            parens = [format_word(word) for word in _words(m)]
            assert parens == sorted(parens)
            assert len(set(parens)) == len(parens)

    def test_all_complete(self):
        assert all(word.is_complete for word in _words(5))

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            enumerate_words(17)
        with pytest.raises(ValueError):
            enumerate_words(-1)

    def test_cap_raised_before_iteration(self):
        # the guard fires at call time, not on first next()
        with pytest.raises(ResourceLimit):
            enumerate_words(99)


class TestBruteForceCounter:
    def test_origin(self):
        assert count_paths_to(0, 0) == 1

    def test_known_values(self):
        assert count_paths_to(7, 1) == 14
        assert count_paths_to(6, 2) == 9
        assert count_paths_to(6, 0) == 5

    def test_unreachable(self):
        assert count_paths_to(6, 1) == 0
        assert count_paths_to(2, 4) == 0
        assert count_paths_to(3, -1) == 0

    def test_matches_table_to_twelve(self):
        table = build_table(12)
        for i in range(13):
            for j in range(i % 2, i + 1, 2):
                assert count_paths_to(i, j) == table.count(i, j)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            count_paths_to(15, 1)
        with pytest.raises(ValueError):
            count_paths_to(-1, 0)


def _naive_counts(i: int) -> tuple[int, ...]:
    """One step at a time over every raw sequence, as the counter worked before it
    read the steps in chunks, tallied by final height 0..i."""
    counts = [0] * (i + 1)
    for steps in itertools.product((1, -1), repeat=i):
        if min(itertools.accumulate(steps, initial=0)) >= 0:
            counts[sum(steps)] += 1
    return tuple(counts)


class TestHeightScan:
    # Up to the cap: only at 14 is the second 7-step chunk full.
    @pytest.mark.parametrize("i", range(15))
    def test_matches_naive_scan(self, i):
        assert count_paths_by_height(i) == _naive_counts(i)

    @pytest.mark.parametrize(
        "i, j, expected",
        [(4, -2, 0), (4, -1, 0), (4, 5, 0), (4, 6, 0), (5, 2, 0), (6, 3, 0), (6, 6, 1), (0, 0, 1)],
    )
    def test_point_counts_at_the_edges(self, i, j, expected):
        assert count_paths_to(i, j) == expected

    def test_errors_unchanged(self):
        with pytest.raises(ResourceLimit, match=r"^position 15 exceeds the scan cap of 14$"):
            count_paths_to(15, 1)
        with pytest.raises(ResourceLimit):
            count_paths_by_height(15)
        with pytest.raises(ValueError, match=r"^position must be nonnegative, got -1$"):
            count_paths_to(-1, 0)
        with pytest.raises(ValueError):
            count_paths_by_height(-1)

    def test_touches_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the brute-force scan built a table")

        monkeypatch.setattr(dynamics, "build_table", refuse)
        monkeypatch.setattr(dyck4d, "build_table", refuse)
        # Every valid prefix of length 12 ends at some height: C(12, 6) of them.
        assert sum(count_paths_by_height(12)) == math.comb(12, 6)


@pytest.mark.parametrize("m", range(11))
def test_block_text_is_the_formatted_words(m):
    # The text the enumerate command writes, one parenthesis line per word.
    blocks = paths._word_blocks(m)
    assert "".join(blocks) == "".join(format_word(word) + "\n" for word in enumerate_words(m))


@pytest.mark.parametrize("m", range(8))
def test_enumeration_matches_filtered_product(m):
    def valid(steps):
        heights = itertools.accumulate(1 if s == "U" else -1 for s in steps)
        return min(heights, default=0) >= 0 and steps.count("U") == m

    expected = ["".join(steps) for steps in itertools.product("UD", repeat=2 * m)]
    assert [w.steps for w in enumerate_words(m)] == [s for s in expected if valid(s)]


# The single arch "()" visits three nodes: the origin, (1, 1, 1, 0) after its
# upstep and (2, 0, 1, 1) after its downstep.  Each axis's coordinates along it:
_ARCH_COORDS = {"i": (0, 1, 2), "j": (0, 1, 0), "n": (0, 1, 1), "k": (0, 0, 1)}


# The arch's points on every ordered axis pair, which fix its moves there.
@pytest.mark.parametrize("name", sorted(map("".join, itertools.permutations("ijnk", 2))))
def test_every_axis_order_names_its_moves(name):
    flat = project_path(trace(parse_word("()")), Plane.parse(name))
    x, y = name
    assert flat.points == tuple(zip(_ARCH_COORDS[x], _ARCH_COORDS[y]))
