"""Closed-form binomial identities for the triangle's counts.

Everything here is exact integer arithmetic on ``math.comb``.  The closed
forms give a second, independent route to values the count tables produce
by recurrence; :func:`decompose_catalan` cross-checks the two routes
against each other on every call.
"""

from __future__ import annotations

import math

from .coords import _Value
from .dynamics import DEFAULT_POSITION_CAP, _columns, _first_difference, catalan
from .errors import DomainError, DyckError, ResourceLimit


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient; zero when k < 0 or k > n.

    ``math.comb`` already gives zero for k > n; negative k, which it
    rejects, is an empty choice here.
    """
    if n < 0:
        raise DomainError(f"n must be nonnegative, got {n}")
    if k < 0:
        return 0
    return math.comb(n, k)


def convolution(n: int, j: int) -> int:
    """Entry (n, j) of the Catalan convolution matrix.

    Equals the path-prefix count at position 2n - j, height j; the matrix
    is exactly the nj view of the count triangle.
    """
    if n < 0 or j < 0:
        raise DomainError(f"convolution needs n, j >= 0, got ({n}, {j})")
    if j > n:
        raise DomainError(f"convolution needs j <= n, got ({n}, {j})")
    return square_term(2 * n - j, n - j)


def square_term(i: int, k: int) -> int:
    """Term k of the squares decomposition at column i.

    The general closed form is binomial(i, k) - binomial(i, k - 1); it
    equals the count at (i, i - 2k).  Outside 0 <= 2k <= i the difference
    turns negative and no longer counts anything, so that domain is
    rejected.
    """
    if i < 0 or k < 0 or 2 * k > i:
        raise DomainError(f"square terms need 0 <= 2k <= i, got (i={i}, k={k})")
    return binomial(i, k) - binomial(i, k - 1)


def square_terms(i: int) -> tuple[int, ...]:
    """Every term of column i, ``square_term(i, k)`` for k = 0 .. i // 2, in one pass.

    Each binomial comes from the one before, C(i, k) = C(i, k-1) * (i-k+1) // k,
    so no other column is read and the route stays independent of the recurrence.
    """
    terms = [1]
    below = c = 1  # C(i, k-1) and C(i, k)
    for k in range(1, i // 2 + 1):
        c = c * (i - k + 1) // k
        terms.append(c - below)
        below = c
    return tuple(terms)


def square_term_special(i: int, k: int) -> int:
    """Term k at column i via its dedicated closed form.

    Only k in {0, 1, 2, floor(i/2)} has one: 1, i - 1, i*(i-3)/2, and the
    ceil(i/2)-th Catalan number for the final term (the column's bottom
    node, which sits at height 0 or 1 depending on parity).
    """
    if i < 0 or k < 0 or 2 * k > i:
        raise DomainError(f"square terms need 0 <= 2k <= i, got (i={i}, k={k})")
    if k == 0:
        return 1
    if k == 1:
        return i - 1
    if k == 2:
        return i * (i - 3) // 2
    if k == i // 2:
        return catalan((i + 1) // 2)
    raise DomainError(f"no dedicated closed form for term {k} at column {i}")


class Decomposition(_Value):
    """Squares decomposition of one column: the squared terms sum to a
    Catalan number."""

    __slots__ = ("v", "terms")

    def __init__(self, v: int, terms: tuple[int, ...]):
        self._set(v, terms)

    @property
    def sum_of_squares(self) -> int:
        return sum(t * t for t in self.terms)


def decompose_catalan(v: int) -> Decomposition:
    """All squares-decomposition terms of column v, cross-checked two ways.

    Terms come from the binomial closed form (:func:`square_terms`); they are
    checked against column v of the recurrence, and the squared sum against
    the Catalan number's own closed form.  A mismatch would mean a broken route and
    raises.  The recurrence runs from the origin and keeps only its latest
    column, so memory stays at two columns rather than a whole table.  The
    cap applies to position 2v, where Cat(v) sits.
    """
    if v < 0:
        raise DomainError(f"v must be nonnegative, got {v}")
    if 2 * v > DEFAULT_POSITION_CAP:
        raise ResourceLimit(f"decomposing column {v} needs positions up to {2 * v}, "
                            f"beyond the cap of {DEFAULT_POSITION_CAP}")
    for column in _columns(v):  # each replaces the last; column v remains
        pass
    terms = square_terms(v)
    if terms != column:
        k = _first_difference(terms, column)
        raise DyckError(
            f"inconsistent routes at (i={v}, k={k}): closed form {terms[k]}, "
            f"recurrence {column[k]}"
        )
    dec = Decomposition(v, terms)
    total, expected = dec.sum_of_squares, catalan(v)
    if total != expected:
        raise DyckError(
            f"squares of column {v} sum to {total}, but catalan({v}) = {expected}"
        )
    return dec
