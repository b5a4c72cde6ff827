import io
import sys

import pytest

from dyck4d.cli import run

# One seeded sampler of complete words, shared with verify's path-geometry check.
from dyck4d.verify import _random_word as random_valid_word  # noqa: F401

STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not 0 < STR_DIGITS < 5000, reason="needs an int/str digit limit below 5000"
)


def invoke(*argv):
    """Run the CLI in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def returned_or_raised(call, arg):
    """What ``call(arg)`` returns, or the type and text of what it raises."""
    try:
        return call(arg)
    except Exception as exc:
        return type(exc), str(exc)
