"""Spans around calls into dyck4d's public functions, for the traced run.

The tracer wraps each public function named in ``TRACED`` wherever it is
reachable by name from outside its own module: in the ``dyck4d`` package
namespace (the benchmark's own calls) and in every other dyck4d module that
imported it by name (so a CLI process shows which layers it reached).  Calls
inside one module, and calls through a module attribute such as
``dynamics.build_table`` inside ``verify``, are not spanned; spans inside
the package itself are left to instrumentation in ``src``.

A span is ``[id, name, start, end, parent, op, error, extra]``.  Spans stay
in memory and are written out when the run ends.  Table builds and
serializations that the benchmark or the CLI makes are sampled for peak
memory: a call is replayed under ``tracemalloc`` when its table is larger
than any this process has already replayed for that function and its bound
``max_i`` is at most ``PROBE_MAX_I`` (a replay runs about ten times slower
than the call).  Only the largest peak is reported, so smaller replays would
add nothing.  ``run_probes`` replays once the operation's time has been
taken, so neither a span nor an operation is ever timed under ``tracemalloc``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc

LAYERS = ("cli", "coords", "dynamics", "identities", "paths", "render", "verify")

TRACED = {
    "coords": ("iter_nodes", "node_from", "project", "planarity_residual"),
    "dynamics": ("build_table", "catalan", "table_to_csv", "table_to_json",
                 "table_from_csv", "table_from_json"),
    "identities": ("binomial", "square_term", "square_term_special", "convolution",
                   "decompose_catalan"),
    "paths": ("parse_word", "trace", "project_path"),
    "render": ("layout", "emit"),
    "verify": ("run_checks",),
}

# render calls coords.project once per placed node; a span each would cost
# more than the layout it measures.
UNTRACED_IMPORTS = {("dyck4d.render", "project")}

SERIALIZERS = ("dynamics.table_to_csv", "dynamics.table_to_json", "dynamics.table_from_csv",
               "dynamics.table_from_json")
PROBED = ("dynamics.build_table",) + SERIALIZERS
PROBE_MAX_I = 1024

_GENERATOR = 0x20  # CO_GENERATOR


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._probed: dict[str, int] = {}  # largest table replayed, per function
        self._pending: list[tuple] = []

    def install(self) -> None:
        """Replace traced functions by spanning wrappers (dyck4d must be importable)."""
        modules = [importlib.import_module(name)
                   for name in ["dyck4d"] + [f"dyck4d.{layer}" for layer in LAYERS]]
        for layer, names in TRACED.items():
            home = sys.modules[f"dyck4d.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    if module is home or (module.__name__, name) in UNTRACED_IMPORTS:
                        continue
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)

    def _open(self, name: str) -> list:
        record = [len(self.spans), name, 0.0, 0.0,
                  self._stack[-1] if self._stack else None, self.op, False, None]
        self.spans.append(record)
        return record

    def wrap(self, name: str, fn):
        if fn.__code__.co_flags & _GENERATOR:
            return self._wrap_generator(name, fn)
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            self._stack.append(record[0])
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                record[6] = exc.code not in (0, None)
                raise
            except BaseException:
                record[6] = True
                raise
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                record[7] = observe(args, result)
            if name in PROBED:
                self._queue_probe(record, fn, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Span whose duration is the time spent inside the generator only."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            record[2] = time.perf_counter()
            busy = 0.0
            items = 0
            gen = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(record[0])
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        break
                    finally:
                        busy += time.perf_counter() - start
                        self._stack.pop()
                    items += 1
                    yield item
            finally:
                record[3] = record[2] + busy
                record[7] = {"items": items}

        return wrapper

    def _queue_probe(self, record: list, fn, args, kwargs, result) -> None:
        parent = record[4]
        if parent is not None and self.spans[parent][1] != "cli.main":
            return
        table = next((x for x in (result, *args) if hasattr(x, "max_i")), None)
        if table is None or table.max_i > PROBE_MAX_I:
            return
        if table.max_i > self._probed.get(record[1], -1):
            self._probed[record[1]] = table.max_i
            self._pending.append((record, fn, args, kwargs))

    def run_probes(self) -> None:
        """Replay the sampled calls under tracemalloc and record their peaks.

        Spans the replays open (an export's node iterator) are dropped.
        """
        spans, self.spans = self.spans, []
        try:
            for record, fn, args, kwargs in self._pending:
                tracemalloc.start()
                try:
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                record[7] = dict(record[7] or {}, peak_bytes=peak)
        finally:
            self.spans = spans
            self._pending.clear()


def _table_extra(args, table) -> dict:
    last = table.max_i
    bits = max(table.count(last, last - 2 * k).bit_length() for k in range(last // 2 + 1))
    return {"entries": len(table), "bits": bits}


OBSERVERS = {
    "dynamics.build_table": _table_extra,
    "dynamics.table_to_csv": lambda args, text: {"bytes": len(text)},
    "dynamics.table_to_json": lambda args, text: {"bytes": len(text)},
    "render.emit": lambda args, text: {"bytes": len(text)},
    "verify.run_checks": lambda args, results: {"passed": sum(r.passed for r in results)},
}


# ------------------------------------------------------------ per-layer view

def rows(spans: list[list]) -> list[tuple[str, float, float, bool, dict]]:
    """(name, duration, self time, error, extra) for each span of one process."""
    covered = {}
    for span in spans:
        if span[4] is not None:
            covered[span[4]] = covered.get(span[4], 0.0) + (span[3] - span[2])
    return [(s[1], s[3] - s[2], s[3] - s[2] - covered.get(s[0], 0.0), s[6], s[7] or {})
            for s in spans]


TIMED = (
    "dynamics.build_table", "dynamics.catalan", "dynamics.table_to_csv",
    "dynamics.table_to_json", "dynamics.table_from_csv", "dynamics.table_from_json",
    "coords.iter_nodes", "coords.node_from", "identities.binomial",
    "identities.square_term", "identities.convolution", "identities.decompose_catalan",
    "paths.parse_word", "paths.trace", "paths.project_path", "render.layout",
    "render.emit", "verify.run_checks",
)

# Metric name for each timed function, where it differs from the function's.
_SHORT = {
    "dynamics.table_to_csv": "dynamics.to_csv", "dynamics.table_to_json": "dynamics.to_json",
    "dynamics.table_from_csv": "dynamics.from_csv",
    "dynamics.table_from_json": "dynamics.from_json",
    "identities.decompose_catalan": "identities.decompose",
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in report order."""
    names = []
    for layer in LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s"),
                  (f"{layer}.errors", "count")]
    names += [("cli.startup_s", "s"), ("cli.startup_p50_s", "s"), ("cli.run_s", "s"),
              ("cli.run_p50_s", "s"), ("cli.stdout_bytes", "bytes")]
    for fn in TIMED:
        short = _SHORT.get(fn, fn)
        names += [(f"{short}_s", "s"), (f"{short}_p50_s", "s")]
    names += [("dynamics.table_entries", "count"), ("dynamics.max_count_bits", "bits"),
              ("dynamics.build_table_peak_mb", "MB"), ("dynamics.bytes_written", "bytes"),
              ("dynamics.serialize_peak_mb", "MB"), ("coords.nodes_per_s", "1/s"),
              ("render.bytes", "bytes"), ("verify.checks_passed", "count"),
              ("trace.spans", "count")]
    return names


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(span_rows: list[tuple], cli_processes: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span rows of every traced process.

    ``cli_processes`` holds one ``{"startup", "run", "stdout_bytes"}`` record
    per CLI process of the traced phase.
    """
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [r for r in span_rows if r[0].split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.busy_s"] = sum(r[2] for r in mine)
        out[f"{layer}.errors"] = sum(1 for r in mine if r[3])
    startup = [p["startup"] for p in cli_processes]
    run = [p["run"] for p in cli_processes]
    out["cli.startup_s"] = sum(startup)
    out["cli.startup_p50_s"] = _median(startup)
    out["cli.run_s"] = sum(run)
    out["cli.run_p50_s"] = _median(run)
    out["cli.stdout_bytes"] = sum(p["stdout_bytes"] for p in cli_processes)
    by_name: dict[str, list[tuple]] = {}
    for r in span_rows:
        by_name.setdefault(r[0], []).append(r)
    for fn in TIMED:
        short = _SHORT.get(fn, fn)
        durations = [r[1] for r in by_name.get(fn, [])]
        out[f"{short}_s"] = sum(durations)
        out[f"{short}_p50_s"] = _median(durations)

    def extras(names, key):
        return [r[4][key] for name in names for r in by_name.get(name, []) if key in r[4]]

    out["dynamics.table_entries"] = sum(extras(["dynamics.build_table"], "entries"))
    out["dynamics.max_count_bits"] = max(extras(["dynamics.build_table"], "bits"), default=0)
    out["dynamics.build_table_peak_mb"] = max(
        extras(["dynamics.build_table"], "peak_bytes"), default=0) / 2**20
    out["dynamics.bytes_written"] = sum(
        extras(["dynamics.table_to_csv", "dynamics.table_to_json"], "bytes"))
    out["dynamics.serialize_peak_mb"] = max(extras(SERIALIZERS, "peak_bytes"), default=0) / 2**20
    nodes = sum(extras(["coords.iter_nodes"], "items"))
    node_time = out["coords.iter_nodes_s"]
    out["coords.nodes_per_s"] = nodes / node_time if node_time else 0.0
    out["render.bytes"] = sum(extras(["render.emit"], "bytes"))
    out["verify.checks_passed"] = sum(extras(["verify.run_checks"], "passed"))
    out["trace.spans"] = len(span_rows)
    return out
