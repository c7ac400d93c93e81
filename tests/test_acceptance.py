"""Acceptance gate: fourteen end-to-end criteria, each with an enforced wall-
clock budget and exact integer equality throughout.  Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

from qschub import classical, perms, quantum, verify
from qschub.poly import A, ONE, Poly, Q, X, Y, determinant, parse, q, x, y


@contextmanager
def budget(seconds: float, label: str):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"criterion {label}: PASS in {dt:.2f}s (budget {seconds:.0f}s)")
    assert dt < seconds, f"criterion {label} exceeded its {seconds}s budget ({dt:.2f}s)"


# the worked rank-5 value: S~_13524 = s_21(X_3) + q1(x1+x2) + q2(x2+x3) - q3(x1+x2)
W13524 = parse(
    "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2 + 2*x1*x2*x3"
    " + q1*(x1 + x2) + q2*(x2 + x3) - q3*(x1 + x2)"
)

# what the all-X_3 complete-function determinant evaluates to instead
W13524_HDET = parse(
    "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2 + 2*x1*x2*x3"
    " + q1*(x1 + x2) + q2*(x2 + x3) + q3*(x3 + x4)"
)

# the rank-4 factorial worked value (second alphabet rendered with y here)
P_FACTORIAL_22 = parse(
    "q1^2 + q1*q2 - q2*x1^2 + 2*q1*x1*x2 + x1^2*x2^2"
    " + q1*x1*y1 - q2*x1*y1 + q1*x2*y1 + x1^2*x2*y1 + x1*x2^2*y1"
    " + q1*y1^2 + x1*x2*y1^2 + q1*x1*y2 - q2*x1*y2 + q1*x2*y2"
    " + x1^2*x2*y2 + x1*x2^2*y2 - q2*y1*y2 + x1^2*y1*y2 + 2*x1*x2*y1*y2"
    " + x2^2*y1*y2 + x1*y1^2*y2 + x2*y1^2*y2 + q1*y2^2 + x1*x2*y2^2"
    " + x1*y1*y2^2 + x2*y1*y2^2 + y1^2*y2^2"
)


def test_criterion_01_worked_rank5_schubert():
    """The quantum Schubert polynomial of 13524 equals the worked value."""
    with budget(1, "1"):
        assert quantum.q_schubert((1, 3, 5, 2, 4)) == W13524


def test_criterion_02_single_alphabet_hdet_differs():
    """The all-X_3 h~-determinant misses 13524 by exactly q3*(x1+x2+x3+x4)."""
    with budget(1, "2"):
        det = quantum.q_complete(2, 3) * quantum.q_complete(1, 3) - quantum.q_complete(3, 3)
        assert det == W13524_HDET
        assert det - W13524 == q(3) * (x(1) + x(2) + x(3) + x(4))
        assert det != W13524


def test_criterion_03_cauchy_expansions():
    """Both Cauchy-type expansions hold at ranks 2-5; the orthogonality form
    holds for every permutation in S_4."""
    with budget(10, "3a (ranks 2-4 plus S_4 orthogonality)"):
        for n in (2, 3, 4):
            rep = verify.suite_cauchy(n)
            assert rep.ok, rep.text()
    with budget(300, "3b (rank 5)"):
        n = 5
        w0 = perms.longest(n)
        top = quantum.q_w0_double(n)
        acc = Poly()
        for w in perms.permutations(n):
            f = quantum.q_schubert(w)
            g = classical.schubert(perms.compose(w, w0)).rename_family(X, Y)
            acc = acc + f * g
        assert acc == top
        acc = Poly()
        for w in perms.permutations(n):
            f = quantum.q_double_schubert(w, n).rename_family(Y, A)
            g = classical.double_schubert(perms.compose(w, w0))
            g = g.rename_family(Y, A).negate_family(A).rename_family(X, Y)
            acc = acc + f * g
        assert acc == top


def test_criterion_04_quantization_of_schur():
    """quantize(s_lam(X_r)) equals the e~-determinant for every shape in every
    box with 1 <= r < n <= 5."""
    with budget(120, "4"):
        for n in range(2, 6):
            for r in range(1, n):
                for lam in perms.partitions_in_box(r, n - r):
                    if not lam:
                        continue
                    assert quantum.quantize(classical.schur(lam, r), n) == quantum.q_schur(
                        lam, r, n
                    )


def test_criterion_05_counterexample_block():
    """The four worked non-identity corrections hold exactly."""
    with budget(5, "5"):
        rep = verify.suite_counterexamples()
        assert rep.ok, rep.text()
        # and explicitly: the derivative identity
        assert quantum.q_schubert((4, 2, 5, 1, 3)).q_partial(3) == -quantum.q_schubert(
            (4, 2, 1, 3, 5)
        )


def test_criterion_06_class_counts():
    """Restricted-vexillary counts 21 and 79; both avoidance classes are
    Catalan through rank 7."""
    with budget(5, "6"):
        assert len(perms.enumerate_class(4, "rv")) == 21
        assert len(perms.enumerate_class(5, "rv")) == 79
        for n in range(1, 8):
            cat = math.comb(2 * n, n) // (n + 1)
            assert len(perms.enumerate_class(n, "321-avoiding")) == cat
            assert len(perms.enumerate_class(n, "132-avoiding")) == cat


def test_criterion_07_straightening_and_hdeterminant():
    """The e~/h~ straightening kernel vanishes for 1 <= n <= 5, 0 <= m <= 5,
    and the h~-determinant route agrees with the e~ one for all shapes with
    at most 4 rows and columns."""
    with budget(30, "7"):
        for n in range(1, 6):
            for m in range(0, 6):
                s = Poly()
                for j in range(m + 1):
                    t = quantum.q_elementary(m - j, n + m - 1) * quantum.q_complete(j, n)
                    s = s + (t if j % 2 == 0 else -t)
                assert s == (ONE if m == 0 else Poly())
        for n in range(1, 5):
            for lam in perms.partitions_in_box(n, 4):
                if not lam:
                    continue
                lamp = lam + (0,) * n
                det = determinant(
                    [
                        [
                            quantum.q_complete(lamp[i] - i + j, n - j)
                            if lamp[i] - i + j >= 0
                            else Poly()
                            for j in range(n)
                        ]
                        for i in range(n)
                    ]
                )
                assert det == quantum.q_schur(lam, n, n + lam[0])


def test_criterion_08_classical_degeneration():
    """Setting q = 0 recovers the classical counterpart of every quantum
    object for all permutations through rank 5."""
    with budget(120, "8"):

        def at_q0(p):
            return p.drop_vars(lambda fam, idx: fam == Q)

        for r in range(0, 6):
            for k in range(0, 7):
                assert at_q0(quantum.q_elementary(k, r)) == classical.elem_sym(k, r)
                assert at_q0(quantum.q_complete(k, r)) == classical.complete_sym(k, r)
        for n in range(1, 6):
            for w in perms.permutations(n):
                assert at_q0(quantum.q_schubert(w)) == classical.schubert(w)
                assert at_q0(quantum.q_double_schubert(w, n)) == classical.double_schubert(w)
        for n in range(2, 6):
            for r in range(1, n):
                for lam in perms.partitions_in_box(r, n - r):
                    if not lam:
                        continue
                    assert at_q0(quantum.q_schur(lam, r, n)) == classical.schur(lam, r)


def test_criterion_09_factorial_worked_example():
    """The rank-4 factorial Schur value is reproduced by both double
    determinants."""
    with budget(1, "9"):
        w = (3, 4, 1, 2)
        via_rows = quantum.q_rv_double(w)
        via_columns = quantum.q_grassmannian_double(w)
        assert via_rows == P_FACTORIAL_22
        assert via_columns == P_FACTORIAL_22
        assert quantum.q_factorial_schur((2, 2), 2, 4) == P_FACTORIAL_22


def test_criterion_10_grassmannian_and_factorizations():
    """The column-flagged double determinant matches the divided-difference
    oracle for every Grassmannian permutation through rank 5, and both product
    formulas hold over their full rank-5 ranges."""
    with budget(180, "10"):
        for n in range(2, 6):
            for w in perms.permutations(n):
                if not perms.is_grassmannian(w) or not perms.shape(w):
                    continue
                assert quantum.q_grassmannian_double(w, n) == quantum.q_double_schubert(w, n)
        rep = verify.suite_factorization(5)
        assert rep.ok, rep.text()


def test_criterion_11_conjecture_scan(capsys):
    """The worked skew double determinant for 2413 holds exactly; the
    conjecture scan over 321-avoiding permutations in S_4 completes and
    reports its findings (these are hypotheses: no truth assertion)."""
    with budget(60, "11"):
        det = determinant(
            [
                [quantum.q_xy_complete(1, 1, 1), quantum.q_xy_complete(3, 1, 3)],
                [Poly.const(1), quantum.q_xy_complete(2, 2, 3)],
            ]
        )
        assert det == quantum.q_double_schubert((2, 4, 1, 3), 4)
        rep = verify.suite_conjectures(4)
        assert rep.cases > 0
        holds = rep.cases - len(rep.failures)
        print(f"conjecture scan: {holds}/{rep.cases} cases hold")
        for f in rep.failures:
            print(f"  fails: {f['case']}")


def test_criterion_12_compatible_sequence_expansion():
    """The reduced-word/compatible-sequence expansion agrees with the divided
    difference construction for every permutation in S_4."""
    with budget(30, "12"):
        for w in perms.permutations(4):
            assert quantum.q_bjs(w) == quantum.q_schubert(w)


def test_criterion_13_stable_approximants():
    """The order-m approximant for 321 equals the two-row h~-determinant for
    m <= 4, and low-index coefficients stop changing between m = 3 and 4."""
    with budget(10, "13"):
        for m in range(0, 5):
            det = quantum.q_complete(2, m + 1) * quantum.q_complete(
                1, m + 2
            ) - quantum.q_complete(3, m + 1)
            assert quantum.stable_approx((3, 2, 1), m) == det
        w3 = quantum.coeff_window(quantum.stable_approx((3, 2, 1), 3), 3, 3)
        w4 = quantum.coeff_window(quantum.stable_approx((3, 2, 1), 4), 3, 3)
        assert w3 == w4
        assert w3 == parse(
            "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2"
            " + q1*x1 + q1*x2 + q2*x2 + q2*x3 + q3*x3"
        )


def test_criterion_14_mutation_sensitivity():
    """Flipping one sign inside e~_2(X_2) makes the rank-3 Cauchy suite fail:
    the suite cannot pass vacuously."""
    with budget(5, "14"):
        corrupted = parse("x1*x2 - q1")
        quantum.set_elementary_override(
            lambda k, r: corrupted if (k, r) == (2, 2) else None
        )
        try:
            rep = verify.suite_cauchy(3)
            assert not rep.ok
        finally:
            quantum.set_elementary_override(None)
        assert verify.suite_cauchy(3).ok
