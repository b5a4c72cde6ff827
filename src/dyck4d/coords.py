"""Node algebra for the four-coordinate lattice.

A node carries four interdependent integer coordinates:

* ``i`` -- position: the number of steps taken so far,
* ``j`` -- unbalance: upsteps minus downsteps (the height),
* ``n`` -- index of the falling diagonal through the node,
* ``k`` -- index of the rising diagonal through the node.

They are tied together by ``i = n + k`` and ``j = n - k`` (equivalently
``i + j = 2n`` and ``i - j = 2k``), so any two coordinates determine the
other two.  A :class:`Node` always stores all four; two- or three-axis
views of it are projections, never separate truths.

Coordinates are indices, not counts, and stay machine-width: positions are
capped at ``MAX_COORD``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator
from itertools import permutations

from .errors import DomainError, NotANode

AXES = ("i", "j", "n", "k")

MAX_COORD = 2**31 - 1


class _Value:
    """Base of every value class: what ``@dataclass(frozen=True)`` gave them (field-wise
    ``==`` and hash, the repr without ``_`` fields, no assignment or deletion,
    ``__match_args__``, pickle and copy), so that no module imports ``dataclasses``.
    Subclasses name their fields in ``__slots__`` and set them in ``__init__``, all at once
    with ``_set`` or, where many are built, one ``object.__setattr__`` per field (``Node``,
    built in hot loops, with its slots' own setters)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        """The values ``==`` and hash compare; a subclass may leave some fields out."""
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = [f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), _Value._astuple(self)


class Node(_Value):
    """A lattice node in canonical four-coordinate form."""

    __slots__ = AXES

    def __init__(self, i: int, j: int, n: int, k: int):
        # Fast path for valid nodes (n, i >= 0 follow); the loop words rejections.
        if not (type(i) is type(j) is type(n) is type(k) is int and 0 <= k and 0 <= j
                and i <= MAX_COORD and i == n + k and j == n - k):
            for name, value in zip(AXES, (i, j, n, k)):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise NotANode(f"coordinate {name} must be an integer, got {value!r}")
                if value < 0:
                    raise NotANode(f"coordinate {name} must be nonnegative, got {value}")
            if i > MAX_COORD:
                raise NotANode(f"position {i} exceeds the coordinate limit {MAX_COORD}")
            if i != n + k or j != n - k:
                raise NotANode(f"({i}, {j}, {n}, {k}) violates i = n + k, j = n - k")
        _set_i(self, i)
        _set_j(self, j)
        _set_n(self, n)
        _set_k(self, k)

    # Written out: render and the projection checks compare nodes in hot loops.
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.i, self.j, self.n, self.k) == (other.i, other.j, other.n, other.k)

    def __hash__(self):
        return hash((self.i, self.j, self.n, self.k))


# The slots' setters skip _Value.__setattr__, which refuses every assignment.
_set_i, _set_j, _set_n, _set_k = (Node.__dict__[axis].__set__ for axis in AXES)

# Every ordered choice of two or three axes, to a getter of the node's coordinates
# along them in that order: a fixed table, so ``project`` does one lookup and one call.
_GETTERS = {
    axes: operator.attrgetter(*axes)
    for size in (2, 3) for axes in permutations(AXES, size)
}


class Plane(_Value):
    """An ordered selection of two or three distinct coordinate axes."""

    __slots__ = ("axes",)

    def __init__(self, axes: Iterable[str]):
        axes = tuple(axes)
        if len(axes) not in (2, 3):
            raise DomainError(f"a plane selects 2 or 3 axes, got {axes!r}")
        if len(set(axes)) != len(axes):
            raise DomainError(f"plane axes must be distinct, got {axes!r}")
        for axis in axes:
            if axis not in AXES:
                raise DomainError(f"unknown axis {axis!r}, expected one of {AXES}")
        self._set(axes)

    @classmethod
    def parse(cls, name: str) -> "Plane":
        """Build a plane from a compact name such as ``"nj"`` or ``"ijn"``."""
        return cls(tuple(name.strip().lower()))

    @property
    def name(self) -> str:
        return "".join(self.axes)

    @property
    def is_spatial(self) -> bool:
        return len(self.axes) == 3


PLANES_2D = tuple(Plane.parse(name) for name in ("ij", "nj", "nk", "in", "kj", "ik"))
PLANES_3D = tuple(Plane.parse(name) for name in ("ijn", "ijk", "nik", "jnk"))


def _diag_from_ij(i: int, j: int) -> tuple[int, int]:
    n, parity = divmod(i + j, 2)
    if parity:
        raise NotANode(f"(i={i}, j={j}) has odd coordinate sum, no node there")
    return n, (i - j) // 2


# Every two-axis pair determines (n, k); the remaining coordinates follow
# from i = n + k, j = n - k.  One entry per paper plane takes that plane's
# coordinates (a, b) in its order; each reversed order swaps the arguments.
_COMPLETIONS = {
    ("i", "j"): _diag_from_ij,
    ("n", "j"): lambda n, j: (n, n - j),
    ("n", "k"): lambda n, k: (n, k),
    ("i", "n"): lambda i, n: (n, i - n),
    ("k", "j"): lambda k, j: (j + k, k),
    ("i", "k"): lambda i, k: (i - k, k),
}
_COMPLETIONS |= {(b, a): (lambda f: lambda y, x: f(x, y))(f) for (a, b), f in _COMPLETIONS.items()}


def node_from(plane: Plane, a: int, b: int) -> Node:
    """Complete the unique node whose ``plane`` coordinates are ``(a, b)``.

    Raises :class:`NotANode` when no valid node has those coordinates,
    e.g. an odd coordinate sum in the ij plane, or j > i.
    """
    complete = _COMPLETIONS.get(plane.axes)
    if complete is None:  # a plane has two or three axes, and every pair is a key
        raise DomainError(f"node_from needs a two-axis plane, got {plane.name!r}")
    n, k = complete(a, b)
    return Node(n + k, n - k, n, k)


def is_reachable(i: int, j: int) -> bool:
    """True when some path prefix can occupy position ``i`` at height ``j``."""
    return 0 <= j <= i <= MAX_COORD and (i + j) % 2 == 0


def project(node: Node, plane: Plane) -> tuple[int, ...]:
    """The node's coordinates along the plane's axes, in the plane's order."""
    return _GETTERS[plane.axes](node)


# Any three axes obey one linear equation; maps give the coefficients of
# the left-hand side of "<combination> = 0".
PLANARITY = {
    frozenset("ijn"): {"i": 1, "j": 1, "n": -2},
    frozenset("ijk"): {"i": 1, "j": -1, "k": -2},
    frozenset("ink"): {"i": 1, "n": -1, "k": -1},
    frozenset("jnk"): {"j": 1, "n": -1, "k": 1},
}


# Every order of each equation's three axes, to its getter and coefficients in that order.
_RESIDUALS = {
    axes: (_GETTERS[axes], *map(coeffs.get, axes))
    for coeffs in PLANARITY.values() for axes in permutations(coeffs)
}


def planarity_residual(node: Node, plane: Plane) -> int:
    """Value of the plane's linear equation at a node; zero for every valid node."""
    terms = _RESIDUALS.get(plane.axes)
    if terms is None:  # every three-axis order is a key
        raise DomainError(f"planarity applies to three-axis planes, got {plane.name!r}")
    get, ca, cb, cc = terms
    a, b, c = get(node)
    return ca * a + cb * b + cc * c


def planarity_equation(plane: Plane) -> str:
    """Human-readable equation of a three-axis plane, e.g. ``'i + j - 2n = 0'``."""
    if not plane.is_spatial:
        raise DomainError(f"planarity applies to three-axis planes, got {plane.name!r}")
    # Each equation lists its axes in AXES order and leads with a positive coefficient.
    terms = " ".join(f"{'+' if c > 0 else '-'} {abs(c) if abs(c) != 1 else ''}{axis}"
                     for axis, c in PLANARITY[frozenset(plane.axes)].items())
    return terms.removeprefix("+ ") + " = 0"


def iter_nodes(max_i: int) -> Iterator[Node]:
    """All valid nodes with position at most ``max_i``, column by column.

    Within a column the rising-diagonal index k ascends, so the unbalance
    descends from i to its minimum.
    """
    for i in range(max_i + 1):
        for k in range(i // 2 + 1):
            yield Node(i, i - 2 * k, i - k, k)
