"""Runs one in-process workload (library_session or bulk_tables) in a fresh
interpreter, so that neither its memory peak nor dyck4d's module-level
Catalan cache carries over from another workload.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE TINY [--setup-only]

Prints ``ready`` once dyck4d is imported and warmed up; the parent times
set-up up to that line.  Unless ``--setup-only`` is given it then runs the
workload's closed loop for SECONDS and prints one JSON line of results.
An operation is one call into dyck4d, except that a node query (node_from,
project, planarity_residual) and a path query (parse_word, trace,
project_path) are one operation each.  A job of several operations (a
table's build, exports and imports) passes each result on to the next.
Each operation is timed alone; checking its output against the reference
happens outside that time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path
from typing import Callable, Generator

import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent

# A job yields (function, arguments, checker) for each of its calls and is
# sent each call's result; the checker returns None or why the result is wrong.
Job = Generator[tuple[Callable, tuple, Callable], object, None]


class LibrarySession:
    """Direct calls into the public API after a warm-up that fills the Catalan cache."""

    def __init__(self, dyck4d, size: dict):
        self.d = dyck4d
        self.size = size
        self.planes = {name: dyck4d.Plane.parse(name)
                       for name in workloads.PLANES_2D + workloads.PLANES_3D}

    def warm_up(self) -> None:
        self.d.catalan(self.size["lib_catalan"])

    def prepare(self) -> None:
        pass

    def job(self, kind: str, args: tuple) -> Job:
        d, planes = self.d, self.planes
        if kind == "decompose":
            yield d.decompose_catalan, args, partial(reference.check_decomposition, *args)
        elif kind == "node":
            plane2, a, b, i, j, plane, plane3 = args
            yield self.node_query, (planes[plane2], a, b, planes[plane], planes[plane3]), partial(
                reference.check_node_query, i, j, plane)
        elif kind == "path":
            text, plane = args
            yield self.path_query, (text, planes[plane]), partial(
                reference.check_path_query, text, plane)
        else:
            expected = reference.library_expected(kind, args)
            yield getattr(d, kind), args, reference.check_value(expected)

    def node_query(self, plane2, a: int, b: int, plane, plane3) -> tuple:
        node = self.d.node_from(plane2, a, b)
        return node, self.d.project(node, plane), self.d.planarity_residual(node, plane3)

    def path_query(self, text: str, plane) -> tuple:
        word = self.d.parse_word(text)
        path = self.d.trace(word)
        return word, path, self.d.project_path(path, plane)

    @staticmethod
    def size_of(kind: str, args: tuple) -> int:
        return len(args[0]) if kind == "path" else args[3] if kind == "node" else args[0]


class BulkSession:
    """Whole-table jobs: build, export and re-import; layout and emit; verify."""

    def __init__(self, dyck4d, size: dict):
        self.d = dyck4d
        self.size = size
        self.ref: list[list[int]] = []

    def warm_up(self) -> None:
        self.ref = reference.table(4)
        for kind, args in (("table", (4,)), ("render", ("ij", 4, "text")),
                           ("render", ("ijn", 4, "svg"))):
            failures = run_job(self.job(kind, args))
            if failures:
                raise RuntimeError(f"warm-up {kind} failed: {failures[0]}")

    def prepare(self) -> None:
        self.ref = reference.table(max(self.size["table_hi"], self.size["render_hi"]))

    def job(self, kind: str, args: tuple) -> Job:
        d, ref = self.d, self.ref
        if kind == "table":
            m = args[0]
            check_table = partial(reference.check_table, ref, m)
            table = yield d.build_table, (m,), check_table
            # One export text alive at a time, so the worker's peak memory
            # is the program's, not two documents held by the benchmark.
            text = yield d.table_to_csv, (table,), partial(reference.check_csv, ref, m)
            yield d.table_from_csv, (text,), check_table
            del text
            text = yield d.table_to_json, (table,), partial(reference.check_json, ref, m)
            yield d.table_from_json, (text,), check_table
        elif kind == "render":
            plane, max_i, fmt = args
            spec = d.DiagramSpec(plane=d.Plane.parse(plane), max_i=max_i, fmt=fmt)
            diagram = yield d.layout, (spec,), partial(reference.check_diagram, ref, plane, max_i)
            yield d.emit, (diagram,), partial(reference.check_document, ref, plane, max_i, fmt)
        else:
            yield d.run_checks, args, reference.check_checks

    @staticmethod
    def size_of(kind: str, args: tuple) -> int:
        return args[1] if kind == "render" else args[0]


def run_job(job: Job, on_call=None) -> list[str]:
    """Run each call of a job; return the reasons any call failed.

    ``on_call(seconds)`` is told the time of each call, which covers the
    call alone; checking its output comes after.  A call that raises ends
    its job.
    """
    failures = []
    result = None
    while True:
        try:
            fn, args, check = job.send(result)
        except StopIteration:
            return failures
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a failed operation
            if on_call is not None:
                on_call(time.perf_counter() - start)
            failures.append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return failures
        if on_call is not None:
            on_call(time.perf_counter() - start)
        reason = check(result)
        if reason is not None:
            failures.append(f"{fn.__name__}: {reason}")


SESSIONS = {"library_session": (LibrarySession, workloads.library_calls),
            "bulk_tables": (BulkSession, workloads.bulk_jobs)}


def main(argv: list[str]) -> int:
    workload, seed, seconds, traced, tiny = argv[:5]
    traced, tiny = traced == "1", tiny == "1"
    session_class, inputs = SESSIONS[workload]
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    sys.path.insert(0, str(ROOT / "src"))
    import dyck4d
    if tracer is not None:
        tracer.install()
    session = session_class(dyck4d, workloads.sizes(tiny))
    session.warm_up()
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    session.prepare()
    jobs = inputs(int(seed), tiny)
    latencies: list[float] = []
    failures: list[str] = []
    kinds: Counter = Counter()
    busy: Counter = Counter()
    largest: dict[str, int] = {}

    def on_call(seconds: float) -> None:
        latencies.append(seconds)
        busy[kind] += seconds
        if tracer is not None:
            tracer.run_probes()
            tracer.op = len(latencies)

    if tracer is not None:
        tracer.op = 0
    deadline = time.perf_counter() + float(seconds)
    while time.perf_counter() < deadline:
        kind, args = next(jobs)
        kinds[kind] += 1
        largest[kind] = max(largest.get(kind, 0), session.size_of(kind, args))
        failures += [f"{kind} {args}: {reason}"[:200]
                     for reason in run_job(session.job(kind, args), on_call)]
    print(json.dumps({
        "latencies": latencies,
        "failures": failures,
        "kinds": kinds,
        "largest": largest,
        "busy": busy,
        "spans": tracer.spans if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
