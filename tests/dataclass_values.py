"""Reference definitions for ``test_values.py``: the five value classes as
frozen dataclasses, as ``coords``, ``dynamics`` and ``identities`` defined
them before they became ``__slots__`` classes.  Not collected as tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from dyck4d.coords import AXES, MAX_COORD
from dyck4d.dynamics import _check_count_digits
from dyck4d.errors import NotANode


@dataclass(frozen=True)
class Node:
    """A lattice node in canonical four-coordinate form."""

    i: int
    j: int
    n: int
    k: int

    def __post_init__(self):
        i, j, n, k = self.i, self.j, self.n, self.k
        # Fast path for valid nodes (n, i >= 0 follow); the loop words rejections.
        if type(i) is type(j) is type(n) is type(k) is int and 0 <= k and 0 <= j:
            if i <= MAX_COORD and i == n + k and j == n - k:
                return
        for name in AXES:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise NotANode(f"coordinate {name} must be an integer, got {value!r}")
            if value < 0:
                raise NotANode(f"coordinate {name} must be nonnegative, got {value}")
        if self.i > MAX_COORD:
            raise NotANode(f"position {self.i} exceeds the coordinate limit {MAX_COORD}")
        if self.i != self.n + self.k or self.j != self.n - self.k:
            raise NotANode(
                f"({self.i}, {self.j}, {self.n}, {self.k}) "
                "violates i = n + k, j = n - k"
            )


@dataclass(frozen=True)
class Plane:
    """An ordered selection of two or three distinct coordinate axes."""

    axes: tuple[str, ...]

    def __post_init__(self):
        if len(self.axes) not in (2, 3):
            raise ValueError(f"a plane selects 2 or 3 axes, got {self.axes!r}")
        if len(set(self.axes)) != len(self.axes):
            raise ValueError(f"plane axes must be distinct, got {self.axes!r}")
        for axis in self.axes:
            if axis not in AXES:
                raise ValueError(f"unknown axis {axis!r}, expected one of {AXES}")

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


@dataclass(frozen=True)
class Isoline:
    """The family of nodes sharing one fixed coordinate value."""

    family: str
    index: int

    def __post_init__(self):
        if self.family not in AXES:
            raise ValueError(f"unknown isoline family {self.family!r}")
        if self.index < 0:
            raise ValueError(f"isoline index must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class DynamicsTable:
    """Immutable map from every reachable node with i <= max_i to its count."""

    max_i: int
    _cols: tuple[tuple[int, ...], ...] = field(repr=False)


@dataclass(frozen=True)
class Decomposition:
    """Squares decomposition of one column: the squared terms sum to a
    Catalan number."""

    v: int
    terms: tuple[int, ...]

    @property
    def sum_of_squares(self) -> int:
        return sum(t * t for t in self.terms)

    def to_json_dict(self) -> dict:
        total = self.sum_of_squares
        _check_count_digits(total)
        return {
            "v": self.v,
            "terms": [str(t) for t in self.terms],
            "catalan": str(total),
        }
