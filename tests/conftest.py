import sys

import pytest

# One seeded sampler of complete words, shared with verify's path-geometry check.
from dyck4d.verify import _random_word as random_valid_word  # noqa: F401

STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < STR_DIGITS < 5000, reason="needs an int/str digit limit below 5000"
)
