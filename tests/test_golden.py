"""Golden outputs recorded from the flat-tuple kernel, before the packed-int one.

``data/golden_s5.json`` holds the sha256 of the canonical ``text()`` of
``q_schubert(w)`` and ``q_double_schubert(w)`` for every w in S_1..S_5, and the
``run_all(5)`` reports as JSON without ``elapsed_ms``.  Any change of the
monomial encoding must reproduce it exactly; it is not regenerated.

``data/golden_s6.json`` holds the sha256 of ``json.dumps`` of the rank-6
identity suite reports, again without ``elapsed_ms``, recorded before the
determinant was changed to accumulate its minors in place.  Checking them
takes about 35 s on a 2-vCPU VM, so that test is marked slow.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from qschub import perms, quantum, verify

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_s5.json").read_text())


def _digest(p) -> str:
    return hashlib.sha256(p.text().encode()).hexdigest()


@pytest.mark.parametrize("fn", ["q_schubert", "q_double_schubert"])
def test_golden_polynomials(fn):
    want = GOLDEN[fn]
    assert len(want) == 1 + 2 + 6 + 24 + 120
    compute = getattr(quantum, fn)
    bad = [w for w, h in want.items() if _digest(compute(perms.from_text(w))) != h]
    assert not bad, f"{fn} differs from the golden text for w in {bad}"


def test_golden_run_all():
    got = []
    for rep in verify.run_all(5):
        obj = rep.as_json_obj()
        del obj["elapsed_ms"]
        got.append(obj)
    want = GOLDEN["run_all_5"]
    assert [r["suite"] for r in got] == [r["suite"] for r in want]
    bad = [f"{i}:{w['suite']}" for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not bad, f"run_all(5) reports differ from the golden ones in suites {bad}"


@pytest.mark.slow
def test_golden_rank6_suites():
    want = json.loads((DATA / "golden_s6.json").read_text())
    bad = []
    for name, digest in want.items():
        obj = getattr(verify, name)(6).as_json_obj()
        del obj["elapsed_ms"]
        if hashlib.sha256(json.dumps(obj).encode()).hexdigest() != digest:
            bad.append(name)
    assert not bad, f"rank-6 reports differ from the golden ones in {bad}"
