"""Run one job of one workload in this interpreter and print its result as JSON.

run.py starts this file in a fresh interpreter for every job, with
PYTHONPATH naming the checkout's ``src``, so the library's caches start cold.

    python3 perfbench/worker.py --workload rank6 --seed 1 [--trace-out FILE]

With ``--trace-out`` the library's public functions are wrapped in spans
before the job starts and unwrapped before the checks; the spans and the
per-layer figures go to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MAX_REASONS = 20


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", HERE, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return proc.stdout.strip() if proc.returncode == 0 else "n/a"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "n/a"


def stamp(qschub) -> dict:
    """What a result must be labelled with to be compared with another."""
    return {
        "git": git_sha(),
        "python": platform.python_version(),
        "kernel": getattr(qschub, "KERNEL", "n/a"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("suites", "rank6", "session"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-out", help="write spans and per-layer figures here")
    args = ap.parse_args()

    import qschub

    where = os.path.dirname(os.path.abspath(qschub.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        print(f"qschub was imported from {where}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads as wl

    suites = args.workload == "suites"
    reqs = None if suites else wl.inputs(args.workload, args.seed)
    golden = wl.load_golden(f"{args.workload}.json")
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if suites:
        lat, results, job_s, outcome = wl.run_suites()
    else:
        lat, results, job_s = wl.run_requests(reqs)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
    if suites:
        reasons = wl.check_suites(results, outcome, golden)
    else:
        reasons = wl.check_requests(reqs, results, golden)
    failed = [(i, r) for i, r in enumerate(reasons) if r is not None]

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "stamp": stamp(qschub),
        "job_s": job_s,
        "items": len(reasons),
        "latencies_ns": lat,
        "failed": len(failed),
        "reasons": failed[:MAX_REASONS],
        "rss_peak_mib": rss_mib,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent + sorted(f"counters of {layer}" for layer in tracer.uncountable)
        tracer.dump(args.trace_out, {k: v for k, v in out.items() if k != "latencies_ns"})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
