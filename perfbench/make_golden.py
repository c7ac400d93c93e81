"""Write the golden digests the benchmark checks its outputs against.

    PYTHONPATH=src python3 perfbench/make_golden.py

Run it only on a commit whose answers are trusted: every digest is the
sha256 of the canonical text the library prints today.  Each answer must also
pass its independent check before it is written.

- golden/rank6.json: q_schubert(w) for all 720 w in S_6, so any rank6 seed
  can be checked.
- golden/session.json: every distinct request of the default session seed.
- golden/suites.json: the conjecture scan's findings in run_all(5).
"""

from __future__ import annotations

import itertools
import json
import os
import sys

import workloads as wl


def _write(name: str, obj) -> None:
    with open(os.path.join(wl.GOLDEN_DIR, name), "w") as fh:
        json.dump(obj, fh, indent=0, sort_keys=True)
        fh.write("\n")


def _digests(reqs: list) -> dict:
    _, results, _ = wl.run_requests(reqs)
    reasons = wl.check_requests(reqs, results, {})
    bad = [(req, r) for req, r in zip(reqs, reasons) if r is not None]
    if bad:
        raise SystemExit(f"refusing to write golden digests: {bad[:5]}")
    return {wl.request_key(q): wl.digest(wl.canonical(q, res)) for q, res in zip(reqs, results)}


def main() -> int:
    os.makedirs(wl.GOLDEN_DIR, exist_ok=True)
    reports = wl.verify.run_all(5)
    if not wl.verify.exit_ok(reports):
        raise SystemExit("refusing to write golden findings: run_all(5) fails")
    findings = [f["case"] for r in reports if r.suite == "conjectures" for f in r.failures]
    _write("suites.json", {"conjecture_findings": findings})
    _write("session.json", _digests(wl.session_inputs(wl.DEFAULT_SEED)))
    _write("rank6.json", _digests([("rank6", w) for w in itertools.permutations(range(1, 7))]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
