"""Reference definitions for ``test_values.py``: the eleven value classes as
frozen dataclasses, as ``coords``, ``dynamics``, ``identities``, ``paths``,
``render`` and ``verify`` defined them before they became ``__slots__``
classes.  Not collected as tests."""

from __future__ import annotations

from dataclasses import dataclass, field

from dyck4d.coords import AXES, MAX_COORD, Node, Plane
from dyck4d.dynamics import _check_count_digits
from dyck4d.errors import DomainError, InvalidCharacter, NotANode, PrefixViolation
from dyck4d.paths import _HEIGHT_CHANGE


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
            raise DomainError(f"a plane selects 2 or 3 axes, got {self.axes!r}")
        if len(set(self.axes)) != len(self.axes):
            raise DomainError(f"plane axes must be distinct, got {self.axes!r}")
        for axis in self.axes:
            if axis not in AXES:
                raise DomainError(f"unknown axis {axis!r}, expected one of {AXES}")

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


@dataclass(frozen=True)
class DyckWord:
    """A sequence of upsteps and downsteps whose every prefix has at least
    as many U as D; a complete word has equally many of each."""

    steps: str = ""

    def __post_init__(self):
        # Fast path: a str of U and D whose running height never drops below zero.
        # Anything else goes through the loop below, which words the rejection.
        if type(self.steps) is str:
            height = 0
            try:
                for step in self.steps:
                    height += _HEIGHT_CHANGE[step]
                    if height < 0:
                        break
                else:
                    return
            except KeyError:
                pass
        height = 0
        for position, step in enumerate(self.steps, start=1):
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

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def unbalance(self) -> int:
        return self.steps.count("U") - self.steps.count("D")

    @property
    def is_complete(self) -> bool:
        return self.unbalance == 0


@dataclass(frozen=True)
class PathTrace:
    """Node-by-node positions of a word, starting from the origin."""

    word: DyckWord
    nodes: tuple[Node, ...]


@dataclass(frozen=True)
class ProjectedPath:
    """A trace flattened onto a two-axis plane."""

    plane: Plane
    points: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class DiagramSpec:
    """What to draw: a plane, a position bound, the isoline families, an
    optional word's path, and the format."""

    plane: Plane
    max_i: int
    isolines: str = "ijnk"  # any iterable of families, stored as one string in AXES order
    word: DyckWord | None = None
    fmt: str = "text"

    def __post_init__(self):
        if self.max_i < 0:
            raise DomainError(f"max_i must be nonnegative, got {self.max_i}")
        families = set(self.isolines)
        unknown = families - set("ijnk")
        if unknown:
            raise DomainError(f"unknown isoline families: {sorted(unknown)}")
        object.__setattr__(self, "isolines", "".join(f for f in "ijnk" if f in families))
        if self.fmt not in ("text", "svg"):
            raise DomainError(f"format must be 'text' or 'svg', got {self.fmt!r}")
        if self.word is not None and len(self.word) > self.max_i:
            raise DomainError(
                f"word of {len(self.word)} steps does not fit within max_i = {self.max_i}"
            )


@dataclass(frozen=True)
class PlacedNode:
    node: Node
    x: int
    y: int
    label: str


@dataclass(frozen=True)
class Diagram:
    """A laid-out diagram, ready to serialize."""

    spec: DiagramSpec
    plane: Plane  # the two-axis plane actually drawn
    note: str | None  # set when a three-axis plane was flattened
    nodes: tuple[PlacedNode, ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    # Wall time of the check alone; the shared table's build is in no check.
    seconds: float = field(default=0.0, compare=False)
