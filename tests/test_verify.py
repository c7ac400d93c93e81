"""The identity suites: outcomes, report schema, and mutation sensitivity."""

from __future__ import annotations

from collections import Counter

from qschub import perms, quantum, verify
from qschub.poly import Minors, jacobi_trudi, parse


def test_report_schema():
    rep = verify.suite_counterexamples()
    obj = rep.as_json_obj()
    assert list(obj) == ["suite", "cases", "failures", "elapsed_ms"]
    assert obj["suite"] == "counterexamples"
    assert obj["cases"] == 4
    assert obj["failures"] == []
    assert isinstance(obj["elapsed_ms"], int)
    assert rep.ok
    assert "4 cases, ok" in rep.text()


def test_failure_entries_carry_replay_data():
    rep = verify.Report("demo")
    rep.check("case-a", parse("x1"), parse("x2"))
    assert not rep.ok
    f = rep.failures[0]
    assert f["case"] == "case-a"
    assert f["expected"] == "x2"
    assert f["actual"] == "x1"
    assert "FAIL case-a" in rep.text()


def test_identity_suites_pass_at_rank_four():
    for name in ("cauchy", "schur", "vexillary", "grassmannian", "factorization"):
        rep = verify.SUITES[name](4)
        assert rep.ok, rep.text()
        assert rep.cases > 0


def test_counterexample_suite_passes():
    assert verify.suite_counterexamples().ok


def test_conjecture_findings_are_exact():
    rep = verify.suite_conjectures(4)
    # the single-alphabet expansion holds everywhere scanned
    assert not [f for f in rep.failures if f["case"].startswith("skew-single")]
    # the double-alphabet expansion fails only on the two disconnected shapes
    bad_b = sorted(
        f["case"].split("w=")[1] for f in rep.failures if f["case"].startswith("skew-double-B")
    )
    assert bad_b == ["2143", "3142"]
    # the flag-truncation hypothesis has no rank-4 counterexamples
    assert not [f for f in rep.failures if f["case"].startswith("flag-truncation")]


def test_conjecture_exercise_fails_at_rank_five():
    rep = verify.suite_conjectures(5)
    bad = sorted(
        f["case"].split("w=")[1].split()[0]
        for f in rep.failures
        if f["case"].startswith("flag-truncation")
    )
    assert bad == ["35142", "35214", "35241", "35421"]


def test_run_all_and_exit_policy():
    reports = verify.run_all(4)
    names = [r.suite for r in reports]
    assert names == [
        "cauchy",
        "cauchy",
        "cauchy",
        "schur",
        "vexillary",
        "grassmannian",
        "factorization",
        "counterexamples",
        "conjectures",
    ]
    assert verify.exit_ok(reports)
    # conjecture findings never flip the aggregate outcome
    conj = [r for r in reports if r.suite == "conjectures"][0]
    assert not conj.ok
    # a fabricated failure in an identity suite does
    reports[0].failures.append({"case": "x", "expected": "1", "actual": "0"})
    assert not verify.exit_ok(reports)


def test_mutation_sensitivity():
    corrupted = parse("x1*x2 - q1")
    quantum.set_elementary_override(lambda k, r: corrupted if (k, r) == (2, 2) else None)
    try:
        rep = verify.suite_cauchy(3)
        assert not rep.ok
        assert any(f["case"] == "anchor e~_2(X_2)" for f in rep.failures)
    finally:
        quantum.set_elementary_override(None)
    assert verify.suite_cauchy(3).ok


def test_dominant_double_keeps_its_power_past_the_flagged_memo(monkeypatch):
    # flag_theta reads the nearest later position with a larger code entry
    # instead of the furthest; with the flagged memo serving dominant-double
    # from rv-double, the suite still fails exactly the four rv-double cases
    # whose flag this reading changes, and no other case
    def nearest(w):
        c = perms.code(w)
        out = []
        for i, ci in enumerate(c):
            if ci:
                larger = [j for j in range(i + 1, len(c)) if c[j] > ci]
                out.append(larger[0] + 1 if larger else i + 1)
        return tuple(sorted(out))

    monkeypatch.setattr(perms, "flag_theta", nearest)
    rep = verify.suite_vexillary(5)
    assert sorted(f["case"] for f in rep.failures) == [
        f"rv-double w={w}" for w in ("41523", "41532", "51423", "51432")
    ]


def test_h_table_minors_are_the_h_determinants():
    # suite_schur's h-determinants at one n' are the minors of one table,
    # M[d][j] = h~_{d+j}(X_{n'-j}) on the rows d = lam_i - i (lam padded to n'
    # parts); each must equal the determinant built alone
    def table(np_):
        return Minors(lambda d: [quantum.q_complete(d + j, np_ - j) for j in range(np_)])

    def rows(lam, np_):
        return [p - i for i, p in enumerate(lam + (0,) * (np_ - len(lam)))]

    def alone(lam, np_):
        return jacobi_trudi(lambda d, i, j: quantum.q_complete(d, np_ - j), lam, size=np_)

    for np_ in (1, 2, 3):
        t = table(np_)
        for lam in perms.partitions_in_box(np_, 4):
            assert t.minor(rows(lam, np_)) == alone(lam, np_), (lam, np_)
    t = table(4)
    handful = {(1,), (2, 1), (3, 1, 1), (2, 2, 2, 1), (4, 3, 1), (4, 4, 4, 4)}
    for lam in perms.partitions_in_box(4, 4):
        got = t.minor(rows(lam, 4))
        if lam in handful:
            assert got == alone(lam, 4), lam
    # the memory policy: only proper sub-minors are kept, each once, over the
    # 8 rows d = -3..4, so at most C(8, w) of width w and none of width 4
    widths = Counter(len(keys) for keys in t._memo)
    assert widths[0] == 1 and widths[4] == 0 and max(widths) == 3
    assert widths[1] <= 8 and widths[2] <= 28 and widths[3] <= 56
