"""Command-line front end: every library capability behind one executable.

Exit codes: 0 success, 1 domain or validation error or output that cannot be written,
2 resource limit, 130 interrupted by Ctrl-C (which prints nothing more).  Every deliberate
failure, a usage error too, is a ``DyckError``: ``run`` catches no bare ``ValueError``.
All numeric output is exact decimal; a count past the int/str digit limit is refused
before the first byte.  ``table``, ``enumerate`` and ``render`` write their documents in
pieces, as they are made.  A closed pipe (``| head``) ends a command quietly; any other
write error prints one ``error: cannot write output`` line.

Paths, rendering, verification and ``json`` load only where used: a point query
(catalan, dynamics, decompose) loads none, nor ``csv``; no command loads ``dataclasses``,
``inspect`` or ``typing``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from contextlib import redirect_stdout
from io import TextIOBase

from .coords import AXES, PLANES_2D, PLANES_3D, Plane, is_reachable, node_from
from .dynamics import DEFAULT_POSITION_CAP, _FORMATS, _check_count_digits, catalan, stream_table
from .errors import DomainError, DyckError, ResourceLimit
from .identities import decompose_catalan, square_term


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _int(text: str) -> int:
    """An integer argument in ASCII digits: int() alone also reads '١٢' or '３'."""
    if text.isascii():
        try:
            return int(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")  # argparse's own text


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="dyck4d",
        description="Exact path-count tables, Catalan identities, and diagrams "
        "over the four-coordinate lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalan", help="print the N-th Catalan number")
    p.add_argument("n", type=_int)
    p.set_defaults(run=_cmd_catalan)

    p = sub.add_parser("table", help="export the count table")
    p.add_argument("--max-i", type=_int, required=True, dest="max_i")
    p.add_argument("--format", choices=tuple(_FORMATS), default="csv")
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("dynamics", help="print the count at (I, J) and the full node")
    p.add_argument("i", type=_int)
    p.add_argument("j", type=_int)
    p.set_defaults(run=_cmd_dynamics)

    p = sub.add_parser("decompose", help="squares decomposition of column V")
    p.add_argument("v", type=_int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--max-i", type=_int, required=True, dest="max_i")
    p.add_argument("--json", action="store_true",
                   help="one record per check: name, passed, detail, seconds")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("project", help="project a word's path onto a plane")
    p.add_argument("--plane", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(run=_cmd_project)

    p = sub.add_parser("enumerate", help="list all complete words of semilength M")
    p.add_argument("m", type=_int)
    p.set_defaults(run=_cmd_enumerate)

    p = sub.add_parser("render", help="draw a diagram of a planar view")
    p.add_argument("--plane", required=True)
    p.add_argument("--max-i", type=_int, required=True, dest="max_i")
    p.add_argument("--word")
    p.add_argument("--svg", metavar="PATH", help="write SVG here instead of text to stdout")
    p.add_argument("--isolines", default="".join(AXES), help="families to draw, e.g. 'nk'")
    p.set_defaults(run=_cmd_render)

    return parser


def _parse_plane(text: str, planes: tuple[Plane, ...]) -> Plane:
    names = {plane.name: plane for plane in planes}
    if (name := text.strip().lower()) not in names:
        raise DomainError(f"unknown plane {text!r}; expected one of {', '.join(names)}")
    return names[name]


def _cmd_catalan(args, out: TextIOBase) -> int:
    value = catalan(args.n)
    _check_count_digits(value)
    print(value, file=out)
    return 0


def _cmd_table(args, out: TextIOBase) -> int:
    out.writelines(stream_table(args.max_i, args.format))
    return 0


def _cmd_dynamics(args, out: TextIOBase) -> int:
    i, j = args.i, args.j
    if i > DEFAULT_POSITION_CAP and 0 <= j <= i and (i + j) % 2 == 0:  # even past MAX_COORD
        raise ResourceLimit(f"position {i} exceeds the position cap of {DEFAULT_POSITION_CAP}")
    if not is_reachable(i, j):
        print("0 (unreachable)", file=out)
        return 0
    node = node_from(PLANES_2D[0], i, j)
    value = square_term(node.i, node.k)
    _check_count_digits(value)
    print(f"{value} (i={node.i}, j={node.j}, n={node.n}, k={node.k})", file=out)
    return 0


def _cmd_decompose(args, out: TextIOBase) -> int:
    # The squared sum, Cat(v), is the largest count printed: check it before the recurrence.
    if 0 <= args.v <= DEFAULT_POSITION_CAP // 2:
        _check_count_digits(catalan(args.v))
    dec = decompose_catalan(args.v)  # raises unless the squares sum to catalan(v)
    terms, total = [str(t) for t in dec.terms], str(dec.sum_of_squares)
    if args.json:
        import json
        out.write(json.dumps({"v": dec.v, "terms": terms, "catalan": total}, indent=2) + "\n")
        return 0
    print("terms: " + ",".join(terms), file=out)
    print(f"sum-of-squares: {total}", file=out)
    print("status: OK", file=out)
    return 0


def _cmd_verify(args, out: TextIOBase) -> int:
    from .verify import run_checks

    results = run_checks(args.max_i)
    passed = sum(result.passed for result in results)
    if args.json:
        import json
        records = [{name: getattr(result, name) for name in result.__slots__} for result in results]
        out.write(json.dumps(records, indent=2) + "\n")
    else:
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}", file=out)
        print(f"{passed}/{len(results)} checks passed", file=out)
    return 0 if passed == len(results) else 1


# The name of each move a step makes on a paper plane, by its (dx, dy).
_MOVE_NAMES = {(1, 1): "up-right", (1, -1): "down-right", (1, 0): "right",
               (0, 1): "up", (0, -1): "down"}


def _cmd_project(args, out: TextIOBase) -> int:
    from .paths import parse_word, project_path, trace

    plane = _parse_plane(args.plane, PLANES_2D)
    word = parse_word(args.word)
    points = project_path(trace(word), plane).points
    print(f"plane: {plane.name}", file=out)
    x, y = points[0]
    print(f"start: ({x},{y})", file=out)
    for step, (x0, y0), (x, y) in zip(word.steps, points, points[1:]):
        dx, dy = x - x0, y - y0
        print(f"{step} {_MOVE_NAMES[dx, dy]} ({dx:+d},{dy:+d}) -> ({x},{y})", file=out)
    return 0


def _cmd_enumerate(args, out: TextIOBase) -> int:
    from .paths import _word_blocks

    out.writelines(_word_blocks(args.m))
    return 0


def _cmd_render(args, out: TextIOBase) -> int:
    from .paths import parse_word
    from .render import DiagramSpec, _pieces, layout

    if args.svg == "":
        raise DomainError("--svg needs a file path, got an empty one")
    spec = DiagramSpec(
        plane=_parse_plane(args.plane, PLANES_2D + PLANES_3D),
        max_i=args.max_i,
        isolines=args.isolines.lower(),
        word=parse_word(args.word) if args.word else None,
        fmt="svg" if args.svg else "text",
    )
    pieces = _pieces(layout(spec))  # every refusal is raised before a file is opened
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise DomainError(f"cannot write {args.svg}: {exc.strerror or exc}") from exc
        except ValueError as exc:  # a NUL in the path, shown escaped; no strerror
            raise DomainError(f"cannot write {args.svg!r}: {exc}") from exc
    else:
        out.writelines(pieces)
    return 0


def run(argv: Sequence[str] | None = None, *, stdout: TextIOBase | None = None,
        stderr: TextIOBase | None = None) -> int:
    """Parse arguments, run one command, and return the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(out):  # --help
            args = _build_parser().parse_args(argv)
        code = args.run(args, out)
        out.flush()  # a write error in buffered output surfaces here, not at exit
        return code
    except BrokenPipeError:  # the reader went away, e.g. `| head`: nothing to report
        return 1
    except KeyboardInterrupt:  # Ctrl-C: the user knows, so nothing more to say
        return 130
    except OSError as exc:  # the commands open no file but --svg, which reports its own
        print(f"error: cannot write output: {exc.strerror or exc}", file=err)
        return 1
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=err)
        return 2
    except DyckError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
