"""dyck4d benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the directory holding ``src/dyck4d``).  See
``bench/README.md`` for the workloads and metrics.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The benchmark is a single client: at most one
child process runs at a time and no threads are started.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import reference
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("cli_queries", "library_session", "bulk_tables")
# Set-ups per run, half before and half after the timed phase.
SETUP_REPEATS = 6
# Tail percentiles, highest first: 99.9 to 99.1 by tenths, then 99 to 50 by
# ones, so the one chosen moves in small steps as the sample count changes.
TAIL_LADDER = tuple(x / 10 for x in range(999, 990, -1)) + tuple(range(99, 49, -1))

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
         "peak_rss_mb": "MB", "failed_ratio": "ratio"}
# failed_ratio is 0 on a correct run, so it is printed and implied by the
# result's failed/attempted fields rather than reported as a bounded metric.
REPORTED = ("setup_s", "ops_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb")

class BenchError(Exception):
    pass


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest ladder percentile with
    at least ten samples beyond it, or the median when there are too few."""
    n = len(latencies)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10 or p == TAIL_LADDER[-1]:
            value = percentile(latencies, p)
            return p, value, sum(1 for x in latencies if x > value)
    raise AssertionError("unreachable")


def end_to_end(setups: list[float], latencies: list[float], failed: int,
               peak_rss_mb: float) -> tuple[dict[str, float], str]:
    p, value, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": failed / len(latencies),
    }
    return metrics, f"p{p:g} of {len(latencies)} samples, {beyond} beyond"


# ------------------------------------------------------------------ children

def _reap(proc: subprocess.Popen):
    """Wait for a child and return (exit code, its own resource usage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn_cli(argv: list[str], traced: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if traced:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), *argv]
    else:
        # The package has no __main__; this is what the console script runs.
        cmd = [sys.executable, "-c", "from dyck4d.cli import main; main()", *argv]
    start = time.perf_counter()
    env["DYCK4D_BENCH_SPAWN"] = repr(time.monotonic())
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        code, usage = _reap(proc)
    latency = time.perf_counter() - start
    record = {"latency": latency, "code": code, "stdout": stdout.decode(),
              "rss_mb": usage.ru_maxrss / 1024, "trace": None}
    if traced:
        lines = [x for x in stderr.decode().splitlines() if x.startswith("DYCK4D-BENCH ")]
        if lines:
            record["trace"] = json.loads(lines[-1].split(" ", 1)[1])
    return record


def run_cli_phase(seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    def setup() -> float:
        return spawn_cli(["catalan", "0"], traced)["latency"]

    setups = [setup() for _ in range(SETUP_REPEATS // 2)]
    queries = workloads.cli_queries(seed, tiny)
    latencies, failures, processes, spans = [], [], [], []
    kinds, busy, largest, rss = Counter(), Counter(), {}, {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        argv = next(queries)
        expected = reference.cli_expected(argv)
        kind = "over-cap" if expected is None else argv[0]
        kinds[kind] += 1
        if kind != "over-cap":
            largest[kind] = max(largest.get(kind, 0), int(argv[1]))
        index = len(latencies)
        result = spawn_cli(argv, traced)
        latencies.append(result["latency"])
        busy[kind] += result["latency"]
        rss[kind] = max(rss.get(kind, 0.0), result["rss_mb"])
        reason = reference.check_cli(expected, result["code"], result["stdout"])
        if reason is not None:
            failures.append(f"{' '.join(argv)}: {reason}")
        if traced and result["trace"] is not None:
            child = result["trace"]
            for span in child["spans"]:
                span[5] = index
            spans.append(child["spans"])
            processes.append({"startup": child["startup"],
                              "run": result["latency"] - child["startup"],
                              "stdout_bytes": len(result["stdout"].encode())})
        elif traced:
            failures.append(f"{' '.join(argv)}: traced child wrote no spans")
    setups += [setup() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    return {"setups": setups, "latencies": latencies, "failures": failures,
            "peak_rss_mb": max(rss.values(), default=0.0), "rss_by_kind": rss,
            "kinds": kinds, "busy": busy, "largest": largest, "spans": spans,
            "cli_processes": processes}


def run_worker_phase(workload: str, seed: int, seconds: float, traced: bool,
                     tiny: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), repr(seconds),
           str(int(traced)), str(int(tiny))]

    def worker(setup_only: bool) -> tuple[float, bytes, object]:
        """Start a worker; return (set-up seconds, rest of its stdout, its rusage)."""
        start = time.perf_counter()
        with subprocess.Popen(cmd + (["--setup-only"] if setup_only else []),
                              stdout=subprocess.PIPE, cwd=ROOT) as proc:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            code, usage = _reap(proc)
        if ready != b"ready\n" or code != 0:
            raise BenchError(f"{workload} worker failed (exit {code})")
        return setup, rest, usage

    setups = [worker(True)[0] for _ in range(SETUP_REPEATS // 2 - 1)]
    setup, rest, usage = worker(False)
    setups.append(setup)
    setups += [worker(True)[0] for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    result = json.loads(rest.decode().splitlines()[-1])
    return {"setups": setups, "latencies": result["latencies"], "failures": result["failures"],
            "peak_rss_mb": usage.ru_maxrss / 1024, "rss_by_kind": {},
            "kinds": Counter(result["kinds"]),
            "busy": result["busy"], "largest": result["largest"],
            "spans": [result["spans"]] if traced else [], "cli_processes": []}


def run_phase(workload: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    if workload == "cli_queries":
        phase = run_cli_phase(seed, seconds, traced, tiny)
    else:
        phase = run_worker_phase(workload, seed, seconds, traced, tiny)
    if not phase["latencies"]:
        raise BenchError(f"{workload}: no operation completed in {seconds} s")
    phase["metrics"], phase["tail"] = end_to_end(
        phase["setups"], phase["latencies"], len(phase["failures"]), phase["peak_rss_mb"])
    return phase


# ------------------------------------------------------------------ reporting

def print_phase(workload: str, label: str, phase: dict, tiny: bool) -> None:
    kinds = ", ".join(f"{k} {n} at {1000 * phase['busy'][k] / n:.3g} ms"
                      for k, n in sorted(phase["kinds"].items()))
    largest = ", ".join(f"{k} {n}" for k, n in sorted(phase["largest"].items()))
    print(f"{workload} [{label}]")
    print(f"  inputs: {workloads.describe(workload, tiny)}")
    print(f"  operations: {len(phase['latencies'])} calls; jobs: {kinds}; largest: {largest}")
    for name, value in phase["metrics"].items():
        note = f"  ({phase['tail']})" if name == "latency_tail_s" else ""
        print(f"  {name:<15} {value:.6g} {UNITS[name]}{note}")
    for failure in phase["failures"][:5]:
        print(f"  FAILED {failure}")


# Peak RSS of the CLI processes of each command; tracemalloc replays skip
# tables beyond tracer.PROBE_MAX_I, which the largest queries build.
CLI_COMMANDS = ("catalan", "dynamics", "decompose")


def per_layer_units() -> list[tuple[str, str]]:
    """(metric, unit) of every metric reported with --trace 1."""
    overhead = [(f"overhead.{name}", unit) for name, unit in UNITS.items()]
    return tracer.per_layer_names() + [(f"cli.{c}_rss_mb", "MB") for c in CLI_COMMANDS] + overhead


def write_trace(workload: str, seed: int, phase: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    fields = ["id", "name", "start", "end", "parent", "op", "error", "extra"]
    with path.open("w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "span_fields": fields,
                   "processes": phase["spans"]}, handle)
    return path


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 tiny: bool) -> tuple[dict, int, int]:
    """Run one workload; return (metrics, attempted, failed) for the result line."""
    if not traced:
        phase = run_phase(workload, seed, seconds, False, tiny)
        print_phase(workload, "untraced", phase, tiny)
        metrics = {name: (phase["metrics"][name], UNITS[name]) for name in REPORTED}
        return metrics, len(phase["latencies"]), len(phase["failures"])

    # Equal halves with tracing off and on; the difference is the overhead.
    plain = run_phase(workload, seed, seconds / 2, False, tiny)
    print_phase(workload, "untraced half", plain, tiny)
    traced_phase = run_phase(workload, seed, seconds / 2, True, tiny)
    print_phase(workload, "traced half", traced_phase, tiny)
    span_rows = [row for spans in traced_phase["spans"] for row in tracer.rows(spans)]
    values = tracer.per_layer(span_rows, traced_phase["cli_processes"])
    for command in CLI_COMMANDS:
        # From the untraced half, so neither the tracer nor a replay is counted.
        values[f"cli.{command}_rss_mb"] = plain["rss_by_kind"].get(command, 0.0)
    for name in UNITS:
        values[f"overhead.{name}"] = traced_phase["metrics"][name] - plain["metrics"][name]
    path = write_trace(workload, seed, traced_phase)
    print(f"  spans written to {path.relative_to(ROOT)}")
    metrics = {}
    for name, unit in per_layer_units():
        metrics[name] = (values[name], unit)
        print(f"  {name:<32} {values[name]:.6g} {unit}")
    attempted = len(plain["latencies"]) + len(traced_phase["latencies"])
    failed = len(plain["failures"]) + len(traced_phase["failures"])
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dyck4d" / "__init__.py").is_file():
        print(f"error: no dyck4d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, n, bad = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       args.tiny)
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in got.items()})
            attempted += n
            failed += bad
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
