import random
import sys

import pytest

from dyck4d import DyckWord

STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < STR_DIGITS < 5000, reason="needs an int/str digit limit below 5000"
)


def random_valid_word(rng: random.Random, semilength: int) -> DyckWord:
    """Sample one complete word: at each step pick uniformly among the
    feasible continuations.  Not uniform over words, but valid and
    reproducible for a fixed rng."""
    steps = []
    ups = downs = 0
    while downs < semilength:
        can_up = ups < semilength
        can_down = downs < ups
        if can_up and (not can_down or rng.random() < 0.5):
            steps.append("U")
            ups += 1
        else:
            steps.append("D")
            downs += 1
    return DyckWord("".join(steps))
