"""qschub benchmark: one workload, one seed, one run of about --seconds.

    python3 perfbench/run.py --workload {suites,rank6,session} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its ``src``.
Every job runs in a fresh interpreter (worker.py), single-threaded, and jobs
are repeated until the next one would end after --seconds (at least one).
The n-th job of every run gets the same string-hash seed (see run_job).
Outputs are checked after each job's timed region.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it alternates untraced and traced jobs and reports the
per-layer metrics, including trace.overhead_frac; each traced job's spans are
written to perfbench/out/.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is 0 only
when every step ran; an output that fails its check still exits 0, with
correct false.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracer import moves

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("suites", "rank6", "session")
SETUP_LAUNCHES = 11
# tail percentile: the highest of these with at least TAIL_BEYOND items of one
# job above it; with fewer items the tail is the slowest item
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
JOB_TIMEOUT_S = 170


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def child_env(hash_seed: int | None) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(argv: list[str], hash_seed: int | None = None) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(hash_seed), capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:]} timed out after {JOB_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter importing qschub, per launch.

    One untimed launch first, so bytecode compilation is not counted."""
    argv = [sys.executable, "-c", "import qschub"]
    run_child(argv)
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        run_child(argv)
        times.append(time.perf_counter() - t0)
    return times


def run_job(workload: str, seed: int, index: int, trace_out: str | None) -> dict:
    """Job number ``index`` of a run.  Its interpreter's string-hash seed is
    ``index + 1``: dict and set layouts, and so the timings of small items,
    vary with that seed, and every run must average over the same layouts."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed)]
    if trace_out:
        argv += ["--trace-out", trace_out]
    proc = run_child(argv, hash_seed=index + 1)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {proc.stdout[-500:]!r}") from exc


def item_latencies_ms(jobs: list) -> list:
    """Each item's latency, sorted: its median over the jobs of the run.

    Every job serves the same items in the same order from a cold start, so
    the median over jobs discounts a stall that hit one job only."""
    columns = zip(*(j["latencies_ns"] for j in jobs))
    return sorted(statistics.median(col) / 1e6 for col in columns)


def job_seconds(jobs: list) -> float:
    """A job's wall time, assembled from the run's jobs item by item: each
    item's median over the jobs, plus the median over the jobs of the time
    outside items.  Like item_latencies_ms, this discounts a stall that hit
    one job in one place, which a median of whole-job times cannot when
    stalls hit most jobs somewhere."""
    items = sum(statistics.median(col) for col in zip(*(j["latencies_ns"] for j in jobs)))
    outside = statistics.median(j["job_s"] - sum(j["latencies_ns"]) / 1e9 for j in jobs)
    return items / 1e9 + outside


def tail_percentile(items_per_job: int) -> float:
    for p in TAIL_LADDER:
        if items_per_job * (1 - p / 100) >= TAIL_BEYOND:
            return p
    return 100.0


def nearest_rank(sorted_values: list, p: float):
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Return (the result object, the human-readable lines before it)."""
    setup = measure_setup()
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        index = len(untraced)
        untraced.append(run_job(workload, seed, index, None))
        if trace:
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{workload}-seed{seed}-{index}.json")
            traced.append(run_job(workload, seed, index, path))
        step = time.perf_counter() - t0
        if time.perf_counter() - t_start + step > seconds:
            break

    jobs = untraced + traced
    attempted = sum(j["items"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    first = untraced[0]
    lines = [
        f"# qschub benchmark: workload={workload} seed={seed} seconds={seconds:g} "
        f"trace={int(trace)}",
        "# env: " + " ".join(f"{k}={v!r}" for k, v in first["stamp"].items()),
        f"# jobs: {len(untraced)} untraced + {len(traced)} traced, "
        f"each in a fresh interpreter; {first['items']} items per job",
        "# whole-job wall times (s): " + " ".join(f"{j['job_s']:.3f}" for j in untraced),
    ]
    for j in jobs:
        for i, reason in j["reasons"]:
            lines.append(f"# FAILED item {i}: {reason}")

    metrics: dict[str, dict] = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        lines.append(f"{name:40s} {shown} {unit:6s} {note}")

    if not trace:
        items = item_latencies_ms(untraced)
        p = tail_percentile(len(items))
        label = "max" if p == 100.0 else f"p{p:g}"
        put("job_s", job_seconds(untraced), "s",
            f"per-item medians over {len(untraced)} jobs, summed")
        put("item_p50_ms", statistics.median(items), "ms",
            f"median of {len(items)} items, each its median over {len(untraced)} jobs")
        put("item_tail_ms", nearest_rank(items, p), "ms", f"{label} of the same {len(items)} items")
        put("rss_peak_mb", statistics.median(j["rss_peak_mib"] for j in untraced), "MiB",
            "median over jobs")
        put("setup_s", statistics.median(setup), "s", f"median of {len(setup)} launches")
    else:
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_frac":
                value = job_seconds(traced) / job_seconds(untraced) - 1
            elif unit == "s":
                value = statistics.median(j["layers"][name] for j in traced)
            else:
                # counts and ratios repeat exactly for a fixed seed
                value = traced[0]["layers"][name]
                if any(j["layers"][name] != value for j in traced):
                    lines.append(f"# {name} differs between traced jobs")
            put(name, value, unit, f"moves {moves(name)}")
        for target in traced[0]["absent"]:
            lines.append(f"# absent: {target}")
    lines.append(f"{'fail_frac':40s} {failed / attempted:>16.6g} {'1':6s} "
                 f"{failed} failed of {attempted} items")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    ap = argparse.ArgumentParser(description="qschub benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
