"""The CLI contract corpus, ``tests/data/cli_golden.json``: its runner and generator.

Each case holds an argv, an optional ``env`` override, and the pinned exit code,
stdout and stderr.  A text is pinned verbatim, or as its UTF-8 SHA-256 and length
when it is over ``VERBATIM_BYTES``.  A case marked ``argparse`` prints text whose
wording argparse owns and varies across Python versions, so only its shape is
pinned: the leading ``usage: `` or ``error: ``, and for stderr the line count.

    python tests/cli_golden.py --command dyck4d   # check every case against an installed dyck4d
    python tests/cli_golden.py --python PATH      # ... against src/ under another interpreter
    python tests/cli_golden.py --generate         # rewrite pins from src/, naming changed cases

The tier-1 test (``tests/test_cli.py``) and ``--generate`` run a case through
``cli.run`` in this process, or through ``main`` in a child where it sets ``env``.
``--command`` runs each case as a child of that executable, except an argv that no
process can receive (one with a NUL): that case runs src/'s dyck4d, through
``python -c`` under the runner's own interpreter, whatever ``--command`` names.
``--python`` runs every case, that one too, as src/'s dyck4d through ``python -c``
under the interpreter it names.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

CORPUS = Path(__file__).parent / "data" / "cli_golden.json"
SRC = Path(__file__).resolve().parent.parent / "src"
VERBATIM_BYTES = 4096
PINNED = ("exit", "stdout", "stderr")
_MAIN = "import json, sys; from dyck4d.cli import main; sys.argv[1:] = json.loads(sys.argv[1]); main()"


def load() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def case_id(case: dict) -> str:
    env = [f"{name}={value}" for name, value in case.get("env", {}).items()]
    return shlex.join(env + case["argv"]) or "(none)"


def run_case(case: dict, command: str | None = None,
             python: str | None = None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case: from ``cli.run`` in this process, or
    from a child that runs ``command`` (default, and for an argv with a NUL: ``main`` of
    the dyck4d in src/ under ``python``, else this interpreter)."""
    argv, env = case["argv"], case.get("env")
    if command is None and python is None and env is None:
        from dyck4d.cli import run

        out, err = io.StringIO(), io.StringIO()
        code = run(argv, stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()
    # The child writes UTF-8, which is how its output is decoded, whatever its locale.
    child_env = {**os.environ, **(env or {}), "PYTHONIOENCODING": "utf-8"}
    if command is None or any("\0" in arg for arg in argv):
        path = [str(SRC), os.environ.get("PYTHONPATH")]
        child_env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
        args = [python or sys.executable, "-c", _MAIN, json.dumps(argv)]
    else:
        args = [command, *argv]
    proc = subprocess.run(args, capture_output=True, env=child_env, timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def _pin(text: str, loose: bool, count_lines: bool) -> str | dict:
    if loose and text:
        head, sep, _ = text.partition(": ")
        if not sep:
            raise ValueError(f"no leading word to pin in {text[:80]!r}")
        return {"startswith": head + sep, **({"lines": text.count("\n")} if count_lines else {})}
    data = text.encode()
    if len(data) > VERBATIM_BYTES:
        return {"sha256": hashlib.sha256(data).hexdigest(), "length": len(data)}
    return text


def pins(case: dict, code: int, out: str, err: str) -> dict:
    """The pinned fields for one run of ``case``, in the corpus's own form."""
    loose = case.get("argparse", False)
    return {"exit": code, "stdout": _pin(out, loose, False), "stderr": _pin(err, loose, True)}


def expected(case: dict) -> dict:
    return {field: case[field] for field in PINNED}


def generate() -> None:
    """Run every case against src/, rewrite its pinned fields, and print the id of each
    case whose pinned fields changed, a new case included, then their count."""
    sys.path.insert(0, str(SRC))
    cases, changed = [], 0
    for old in load():
        case = {**{k: v for k, v in old.items() if k not in PINNED}, **pins(old, *run_case(old))}
        if any(old.get(field) != case[field] for field in PINNED):
            changed += 1
            print(case_id(case))
        cases.append(case)
    lines = ",\n".join(json.dumps(case, ensure_ascii=False) for case in cases)
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")  # one case a line
    print(f"{changed} of {len(cases)} CLI cases changed")


def check(command: str | None, python: str | None = None) -> int:
    """Run every case as ``command``, or as src/'s dyck4d under ``python``, and print
    each one whose pinned fields differ; 1 if any does."""
    cases = load()
    failed = 0
    for case in cases:
        got = pins(case, *run_case(case, command, python))
        if got != expected(case):
            failed += 1
            print(f"FAIL {case_id(case)}\n  expected {expected(case)}\n  got      {got}")
    print(f"{len(cases) - failed}/{len(cases)} CLI cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--command", help="check each case run as this executable, e.g. dyck4d")
    mode.add_argument("--python", help="check each case run as src/'s dyck4d under this "
                      "interpreter, e.g. python3.12")
    mode.add_argument("--generate", action="store_true", help="rewrite the pinned fields")
    options = parser.parse_args()
    if options.generate:
        generate()
    else:
        sys.exit(check(options.command, options.python))
