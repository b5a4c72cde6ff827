"""Words over {U, D}, their node traces, projections, and brute-force counters.

The enumeration and counting functions here are deliberately naive: they
scan raw step sequences and keep the ones whose every prefix stays at or
above ground level.  They share no logic with the recurrence tables they
exist to cross-check.  The counter still visits every one of the 2**i raw
sequences, once each, tallying every final height in that one pass; it reads
each sequence seven steps at a time from a fixed table of 7-step chunks.
Enumeration walks an explicit stack of prefixes and yields text blocks: each
prefix followed by every completion of its height, one parenthesis line per
word, with the completions formatted once per call.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from .coords import _GETTERS, Node, Plane, _Value
from .errors import DomainError, InvalidCharacter, PrefixViolation, ResourceLimit

# Hard caps, deliberately not configurable: the scanners exist to validate
# tables at test scale, not for production counting.
ENUMERATION_CAP = 16
COUNT_SCAN_CAP = 14

_HEIGHT_CHANGE = {"U": 1, "D": -1}


class DyckWord(_Value):
    """A sequence of upsteps and downsteps whose every prefix has at least
    as many U as D; a complete word has equally many of each."""

    __slots__ = ("steps",)

    def __init__(self, steps: str = ""):
        object.__setattr__(self, "steps", steps)
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


def parse_word(text: str) -> DyckWord:
    """Read a word from parenthesis text: '(' is an upstep, ')' a downstep."""
    bad = len(text) - len(text.lstrip("()"))  # index of the first other character
    if bad < len(text):
        raise InvalidCharacter(f"position {bad + 1}: expected '(' or ')', got {text[bad]!r}")
    return DyckWord(text.replace("(", "U").replace(")", "D"))


def format_word(word: DyckWord) -> str:
    """Parenthesis text of a word."""
    return word.steps.replace("U", "(").replace("D", ")")


class PathTrace(_Value):
    """Node-by-node positions of a word, starting from the origin."""

    __slots__ = ("word", "nodes")

    def __init__(self, word: DyckWord, nodes: tuple[Node, ...]):
        self._set(word, nodes)


def trace(word: DyckWord) -> PathTrace:
    """Walk the word from the origin.

    An upstep raises the height and advances the falling-diagonal index; a
    downstep lowers the height and advances the rising-diagonal index.  A
    complete word of semilength m therefore ends at (2m, 0, m, m).
    """
    i = j = n = k = 0
    nodes = [Node(0, 0, 0, 0)]
    for step in word.steps:
        i += 1
        if step == "U":
            j += 1
            n += 1
        else:
            j -= 1
            k += 1
        nodes.append(Node(i, j, n, k))
    return PathTrace(word, tuple(nodes))


class ProjectedPath(_Value):
    """A trace flattened onto a two-axis plane."""

    __slots__ = ("plane", "points")

    def __init__(self, plane: Plane, points: tuple[tuple[int, int], ...]):
        self._set(plane, points)


def project_path(path: PathTrace, plane: Plane) -> ProjectedPath:
    """Project a trace onto a two-axis plane, one point per node.

    A move that does not advance the horizontal axis shows up as a vertical
    break in the drawn polyline, and on the j-first planes (ji, jn, jk) a
    downstep runs back to the left; which steps do that depends on the plane.
    """
    if plane.is_spatial:
        raise DomainError(f"project_path needs a two-axis plane, got {plane.name!r}")
    return ProjectedPath(plane, tuple(map(_GETTERS[plane.axes], path.nodes)))


def enumerate_words(m: int) -> Iterator[DyckWord]:
    """All complete words of semilength m, lexicographic with U before D."""
    blocks, to_steps = _word_blocks(m), str.maketrans("()", "UD")
    return map(DyckWord, chain.from_iterable(block.translate(to_steps).splitlines()
                                             for block in blocks))


def _word_blocks(m: int) -> Iterator[str]:
    """The parenthesis text of :func:`enumerate_words`, one line per word, in blocks of
    whole lines; the semilength is refused here, before the first block."""
    if m < 0:
        raise DomainError(f"semilength must be nonnegative, got {m}")
    if m > ENUMERATION_CAP:
        raise ResourceLimit(
            f"semilength {m} exceeds the enumeration cap of {ENUMERATION_CAP}"
        )
    return _generate(m)


_TAIL = 12  # completions of 12 steps, from every height: 924 strings


def _completions(length: int) -> dict[int, list[str]]:
    """For each height h, every way to take ``length`` more steps from height h to
    height 0 without going below it, as parenthesis text in lexicographic order."""
    finish = {0: [""]}
    for r in range(1, length + 1):
        finish = {
            h: ["(" + s for s in finish.get(h + 1, ())] + [")" + s for s in finish.get(h - 1, ())]
            for h in range(r % 2, r + 1, 2)
        }
    return finish


def _generate(m: int) -> Iterator[str]:
    # Depth-first over (prefix, ups, downs); ")" is pushed before "(" so that the "("
    # branch pops first and words come out in lexicographic order.  A prefix with _TAIL
    # steps left yields one block: the prefix joined with each completion of its height.
    length = 2 * m
    tail = min(length, _TAIL)
    finish = _completions(tail)
    stack = [("", 0, 0)]
    while stack:
        steps, ups, downs = stack.pop()
        if ups + downs == length - tail:
            yield steps + ("\n" + steps).join(finish[ups - downs]) + "\n"
            continue
        if downs < ups:
            stack.append((steps + ")", ups, downs + 1))
        if ups < m:
            stack.append((steps + "(", ups + 1, downs))


def _chunk(bits: int) -> tuple[int, int]:
    """(net height, lowest prefix height) of 7 steps; bit b set means step b is an upstep."""
    height = low = 0
    for b in range(7):
        height += 1 if (bits >> b) & 1 else -1
        low = min(low, height)
    return height, low


# Entry c describes chunk c.  The last 2**w entries are the w-step chunks, each padded
# with 7 - w upsteps past its end: they add 7 - w to its net height and lower no prefix.
_CHUNKS = tuple(map(_chunk, range(128)))


def count_paths_by_height(i: int) -> tuple[int, ...]:
    """Count valid step sequences of length i by final height 0..i, in one
    scan of all 2**i raw sequences filtered on the prefix condition.

    This is the independent oracle: no recurrence, no tables, no closed
    forms.  Bit b of a sequence set means step b is an upstep; steps 0-6
    and steps 7-13 are each read as one entry of the chunk table.
    """
    if i < 0:
        raise DomainError(f"position must be nonnegative, got {i}")
    if i > COUNT_SCAN_CAP:
        raise ResourceLimit(f"position {i} exceeds the scan cap of {COUNT_SCAN_CAP}")
    # Two chunks cover the scan cap; padded, the final height reads 14 - i too high.
    lows = _CHUNKS[-(1 << min(i, 7)):]
    counts = [0] * 15
    for high_net, high_low in _CHUNKS[-(1 << max(i - 7, 0)):]:
        for low_net, low_low in lows:
            if low_low >= 0 and low_net + high_low >= 0:
                counts[low_net + high_net] += 1
    return tuple(counts[14 - i:])


def count_paths_to(i: int, j: int) -> int:
    """Count valid step sequences of length i ending at height j: one entry
    of :func:`count_paths_by_height`, zero for j outside 0..i."""
    counts = count_paths_by_height(i)
    return counts[j] if 0 <= j <= i else 0
