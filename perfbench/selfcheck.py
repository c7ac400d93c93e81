"""Anti-vacuity check of the benchmark's output checks.

    PYTHONPATH=src python3 perfbench/selfcheck.py

Corrupts e~_2(X_2) (x1*x2 + q1 becomes x1*x2 - q1) through
quantum.set_elementary_override before anything is computed, runs a short
job of every workload in this interpreter and requires each to report
fail_frac > 0.  Exits 1 when some workload's checks let the corruption pass.
"""

from __future__ import annotations

import sys

import workloads as wl
from qschub import parse, quantum

SHORT = {"rank6": 24, "session": 400}


def main() -> int:
    corrupted = parse("x1*x2 - q1")
    quantum.set_elementary_override(lambda k, r: corrupted if (k, r) == (2, 2) else None)
    vacuous = []
    for workload in ("rank6", "session", "suites"):
        if workload == "suites":
            _, results, _, outcome = wl.run_suites()
            reasons = wl.check_suites(results, outcome, wl.load_golden("suites.json"))
        else:
            reqs = wl.inputs(workload, wl.DEFAULT_SEED)[: SHORT[workload]]
            _, results, _ = wl.run_requests(reqs)
            reasons = wl.check_requests(reqs, results, wl.load_golden(f"{workload}.json"))
        failed = sum(r is not None for r in reasons)
        print(f"{workload:8s} fail_frac {failed}/{len(reasons)} = {failed / len(reasons):.3f}")
        if not failed:
            vacuous.append(workload)
    if vacuous:
        print(f"checks passed a corrupted e~ on: {', '.join(vacuous)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
