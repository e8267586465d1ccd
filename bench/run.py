"""Benchmark of loopspec: sweeps through ``loopspec.sweep.sweep`` and cold
``loopspec`` command-line calls, each output checked against a
computation made apart from the program.

    python3 bench/run.py --workload census-n4 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with nothing
wrapped; with ``--trace 1`` they are the per-layer ones from a traced run
of a fixed amount of work.  Each run also writes a record to
``bench/out/runs/`` and, when traced, its spans to ``bench/out/spans/``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and every child it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
IMPORT_PROBES = 5
MIN_ROUNDS = 2


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter that starts, imports, makes the
    inputs and warms up, as the measured process does before its first
    timed operation."""
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", workload, "--seed", str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def cli_import_ms() -> tuple[float, float]:
    """Median import time of ``loopspec.cli`` and of ``jsonschema`` inside
    it, each from a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import loopspec.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    totals, schema = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              check=True, capture_output=True, text=True)
        totals.append(float(proc.stdout.strip().splitlines()[-1]))
        found = re.search(r"\|\s*(\d+)\s*\|\s*jsonschema$", proc.stderr, re.M)
        schema.append(int(found.group(1)) / 1e3 if found else 0.0)
    return statistics.median(totals), statistics.median(schema)


def timed_run(wl, seconds: float) -> dict:
    """Whole rounds of operations until ``seconds`` have passed."""
    latencies, graphs, failed, index = [], 0, 0, 0
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        for _ in range(wl.round_ops):
            t0 = time.perf_counter()
            try:
                graphs += wl.run_op(index)
            except Exception:
                failed += 1
                traceback.print_exc()
            latencies.append(time.perf_counter() - t0)
            index += 1
        rounds += 1
    return {"latencies": latencies, "graphs": graphs, "failed": failed}


def traced_run(wl) -> tuple[dict, object]:
    """A fixed number of operations under the tracer, so counts repeat
    exactly for a given seed."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    op = getattr(wl, "run_in_process", wl.run_op)
    graphs, failed = 0, 0
    for index in range(wl.trace_ops):
        try:
            graphs += op(index)
        except Exception:
            failed += 1
            traceback.print_exc()
    return {"graphs": graphs, "failed": failed}, tracer


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def write_record(args, result: dict, stamp: str) -> None:
    import numpy

    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, git_sha=git_sha(), python=platform.python_version(),
                  numpy=numpy.__version__, nproc=os.cpu_count(), finished=stamp)
    path = OUT_DIR / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "loopspec" / "__init__.py").is_file():
        fail(f"no loopspec sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_only:
        try:
            wl.setup()
        finally:
            wl.close()
        return

    try:
        if args.trace:
            import tracing

            import_ms, schema_ms = cli_import_ms()
            wl.setup()
            run, tracer = traced_run(wl)
            metrics = tracing.layer_metrics(tracer, run["graphs"], wl.trace_ops)
            metrics["cli.import_ms"] = (import_ms, "ms")
            metrics["cli.jsonschema_import_ms"] = (schema_ms, "ms")
            attempted = wl.trace_ops
        else:
            setup_times = [setup_probe_seconds(args.workload, args.seed)
                           for _ in range(SETUP_PROBES)]
            wl.setup()
            run = timed_run(wl, args.seconds)
            busy = sum(run["latencies"])
            metrics = {
                "graphs_per_s": (run["graphs"] / busy, "graphs/s"),
                "latency_ms_p50": (statistics.median(run["latencies"]) * 1e3, "ms"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (wl.peak_rss_kb() / 1024, "MB"),
            }
            attempted = len(run["latencies"])
        problems = wl.problems()
    finally:
        wl.close()

    for problem in problems[:50]:
        print(f"bench: incorrect output: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    if args.trace:
        dump_spans(tracer, args, stamp)
    write_record(args, result, stamp)
    print(json.dumps(result))


def dump_spans(tracer, args, stamp: str) -> None:
    import numpy

    path = OUT_DIR / "spans" / f"{args.workload}-s{args.seed}-{stamp}.npz"
    path.parent.mkdir(parents=True, exist_ok=True)
    numpy.savez_compressed(path, **tracer.arrays())


if __name__ == "__main__":
    main()
