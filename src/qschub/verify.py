"""Identity suites: every determinantal identity, factorization, counterexample,
and conjecture instance the library implements, checked exhaustively at desk
scale and reported as structured pass/fail data.

Each suite returns a Report whose failures list carries (case, expected,
actual) triples rendered in canonical text, enough to replay the case by hand
or through the CLI.  Conjecture misses are data, never errors: run_all's
aggregate exit status ignores the conjecture suite.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from . import classical, perms, quantum
from .poly import A, Poly, X, Y, determinant, jacobi_trudi, parse, q, x

__all__ = [
    "Report",
    "SUITES",
    "exit_ok",
    "run_all",
    "suite_cauchy",
    "suite_conjectures",
    "suite_counterexamples",
    "suite_factorization",
    "suite_grassmannian",
    "suite_schur",
    "suite_vexillary",
]


@dataclass
class Report:
    """Outcome of one identity suite."""

    suite: str
    cases: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, case: str, actual, expected) -> bool:
        """Record one case; polynomials are compared exactly."""
        self.cases += 1
        if actual == expected:
            return True
        self.failures.append(
            {
                "case": case,
                "expected": expected.text() if isinstance(expected, Poly) else str(expected),
                "actual": actual.text() if isinstance(actual, Poly) else str(actual),
            }
        )
        return False

    def as_json_obj(self) -> dict:
        return asdict(self)

    def text(self) -> str:
        head = f"suite {self.suite}: {self.cases} cases, " + (
            "ok" if self.ok else f"{len(self.failures)} FAILED"
        ) + f" ({self.elapsed_ms} ms)"
        lines = [head]
        for f in self.failures:
            lines.append(f"  FAIL {f['case']}")
            lines.append(f"    expected: {f['expected']}")
            lines.append(f"    actual:   {f['actual']}")
        return "\n".join(lines)


class _Timer:
    def __init__(self, rep: Report):
        self.rep = rep

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self.rep

    def __exit__(self, *exc):
        self.rep.elapsed_ms = int((time.perf_counter() - self.t0) * 1000)
        return False


# -- cauchy ----------------------------------------------------------------------


def _double_in_a(w: perms.Perm, n: int) -> Poly:
    """S~_w(x, a): the quantum double polynomial at rank n with y->a."""
    return quantum.q_double_schubert(w, n).rename_family(Y, A)


def _double_in_y_minus_a(w: perms.Perm) -> Poly:
    """S_w(y, -a): the classical double polynomial with x->y and y->-a."""
    g = classical.double_schubert(w)
    return g.rename_family(Y, A).negate_family(A).rename_family(X, Y)


def suite_cauchy(n: int) -> Report:
    """Frozen anchors for the generating factors, then the three Cauchy-type
    expansions.  The anchors are what give the suite its mutation sensitivity:
    the expansion identities hold formally for any family in the e~ slots, so
    only a comparison against absolute worked values can catch a corrupted
    core."""
    rep = Report("cauchy")
    with _Timer(rep):
        rep.check("anchor e~_1(X_1)", quantum.q_elementary(1, 1), parse("x1"))
        rep.check("anchor e~_2(X_2)", quantum.q_elementary(2, 2), parse("x1*x2 + q1"))
        rep.check(
            "anchor e~_3(X_3)",
            quantum.q_elementary(3, 3),
            parse("x1*x2*x3 + q1*x3 + q2*x1"),
        )
        rep.check(
            "anchor h~_2(X_2)",
            quantum.q_complete(2, 2),
            parse("x1^2 + x1*x2 + x2^2 - q1 - q2"),
        )

        w0 = perms.longest(n)
        top = quantum.q_w0_double(n)

        acc = Poly.sum(
            quantum.q_schubert(w) * classical.schubert_in_y(perms.compose(w, w0))
            for w in perms.permutations(n)
        )
        rep.check(f"single-expansion n={n}", acc, top)

        acc = Poly.sum(
            _double_in_a(w, n) * _double_in_y_minus_a(perms.compose(w, w0))
            for w in perms.permutations(n)
        )
        rep.check(f"double-expansion n={n}", acc, top)

        for w in perms.permutations(n):
            winv = perms.inverse(w)
            lw = perms.length(w)
            pairs = ((u, perms.compose(u, winv)) for u in perms.permutations(n))
            acc = Poly.sum(
                _double_in_a(u, n) * _double_in_y_minus_a(v)
                for u, v in pairs
                if perms.length(u) + perms.length(v) == lw
            )
            rep.check(f"orthogonality n={n} w={perms.as_text(w)}", acc, quantum.q_double_schubert(w, n))
    return rep


# -- schur-type determinants ------------------------------------------------------


def suite_schur(n: int) -> Report:
    """Quantization vs. determinants: the quantization of a Schur polynomial,
    the complete/monomial special cases, the straightening kernel, and the
    dual determinant pair."""
    rep = Report("schur")
    with _Timer(rep):
        # quantize(s_lam(X_r)) == e~-determinant, lam inside the (n'-r) x r box
        for np_ in range(2, n + 1):
            for r in range(1, np_):
                for lam in perms.partitions_in_box(r, np_ - r):
                    if not lam:
                        continue
                    det = quantum.q_schur(lam, r, np_)
                    qz = quantum.quantize(classical.schur(lam, r), np_)
                    rep.check(f"schur-quantization lam={lam} r={r} n={np_}", qz, det)

        # h~_k(X_r) == s~_(k)(X_r) == quantize(h_k(X_r))
        for r in range(1, n):
            for k in range(1, n - r + 1):
                hk = quantum.q_complete(k, r)
                rep.check(
                    f"complete-vs-schur k={k} r={r}", quantum.q_schur((k,), r, r + k), hk
                )
                rep.check(
                    f"complete-vs-quantize k={k} r={r}",
                    quantum.quantize(classical.complete_sym(k, r), r + k),
                    hk,
                )

        # dominant w: S~_w == x~^{code(w)}
        for m in range(2, n + 1):
            for w in perms.permutations(m):
                if not perms.is_dominant(w) or not perms.shape(w):
                    continue
                rep.check(
                    f"dominant-monomial w={perms.as_text(w)}",
                    quantum.q_monomial(perms.code(w), m),
                    quantum.q_schubert(w),
                )

        # x~^alpha == quantize(x^alpha) for alpha under the staircase
        for m in range(2, n + 1):
            for alpha in _staircase_compositions(m):
                mono = Poly.const(1)
                for i, e in enumerate(alpha):
                    if e:
                        mono = mono * x(i + 1) ** e
                rep.check(
                    f"monomial-quantize alpha={alpha} n={m}",
                    quantum.q_monomial(alpha, m),
                    quantum.quantize(mono, m),
                )

        # reduced-word/compatible-sequence expansion
        for w in perms.permutations(min(n, 4)):
            rep.check(f"bjs w={perms.as_text(w)}", quantum.q_bjs(w), quantum.q_schubert(w))

        # straightening kernel: sum_j (-1)^j e~_{m-j}(X_{n'+m-1}) h~_j(X_n') == [m=0]
        for np_ in range(1, n + 1):
            for m in range(0, 6):
                s = Poly.sum(
                    (-1) ** j
                    * quantum.q_elementary(m - j, np_ + m - 1)
                    * quantum.q_complete(j, np_)
                    for j in range(m + 1)
                )
                rep.check(
                    f"straightening n={np_} m={m}", s, Poly.const(1 if m == 0 else 0)
                )

        # s~_lam(X_n') as an h~-determinant with column alphabets X_{n'+1-j}
        for np_ in range(1, min(n, 4) + 1):
            for lam in perms.partitions_in_box(np_, 4):
                if not lam:
                    continue
                det = jacobi_trudi(lambda d, i, j: quantum.q_complete(d, np_ - j), lam, size=np_)
                rep.check(
                    f"h-determinant lam={lam} n={np_}",
                    det,
                    quantum.q_schur(lam, np_, np_ + lam[0]),
                )

        # dual determinant pair over the 3x3 box
        for lam in perms.partitions_in_box(3, 3):
            if not lam:
                continue
            lhs, rhs = _dual_determinants(lam)
            rep.check(f"dual-determinants lam={lam}", lhs, rhs)
    return rep


def _staircase_compositions(m: int):
    """All exponent vectors alpha with alpha_i <= m - i (the rank-m staircase)."""
    out = [()]
    for i in range(1, m):
        out = [a + (e,) for a in out for e in range(m - i + 1)]
    return out


def _dual_determinants(lam) -> tuple[Poly, Poly]:
    """The e~/h~ determinant pair for a partition lam of length r: the e~-side
    runs over the conjugate shape with row alphabets X_{r-1+j} - Y_{r-lam'_i+i},
    the h~-side over lam itself with X_{r-j+1} - Y_{gamma(i)},
    gamma(j) = r + lam_j - lam'_{lam_j}."""
    lam = perms.check_partition(lam)
    r = len(lam)
    lamc = perms.conjugate(lam)
    lhs = jacobi_trudi(
        lambda d, i, j: quantum.q_xy_elementary(d, r + j, r + 1 + i - lamc[i]), lamc
    )
    rhs = jacobi_trudi(
        lambda d, i, j: quantum.q_xy_complete(d, r - j, r + lam[i] - lamc[lam[i] - 1]), lam
    )
    return lhs, rhs


# -- vexillary / flagged ----------------------------------------------------------


def suite_vexillary(n: int) -> Report:
    """Row-flagged determinants for restricted vexillary permutations, their
    double version, the dominant special case, and the worked counterexample
    block."""
    rep = Report("vexillary")
    with _Timer(rep):
        for m in range(2, n + 1):
            for w in perms.permutations(m):
                if not perms.shape(w):
                    continue
                if perms.is_restricted_vexillary(w):
                    lam = perms.shape(w)
                    theta = perms.flag_theta(w)
                    rep.check(
                        f"rv-flagged w={perms.as_text(w)}",
                        quantum.q_flagged(lam, xflags=theta),
                        quantum.q_schubert(w),
                    )
                    rep.check(
                        f"rv-double w={perms.as_text(w)}",
                        quantum.q_rv_double(w),
                        quantum.q_double_schubert(w, m),
                    )
                if perms.is_dominant(w):
                    rep.check(
                        f"dominant-double w={perms.as_text(w)}",
                        quantum.q_dominant_double(w),
                        quantum.q_double_schubert(w, m),
                    )
        for case, actual, expected in _counterexample_cases(n):
            rep.check(case, actual, expected)
    return rep


def _counterexample_cases(n: int):
    """The worked non-identities: what the flagged determinant misses for the
    first vexillary permutations outside the restricted class."""
    if n >= 4:
        det = quantum.q_flagged((2, 1, 1), xflags=(2, 2, 3))
        yield (
            "counterexample 2431",
            quantum.q_schubert((2, 4, 3, 1)),
            det - q(2) * q(3),
        )
        det = quantum.q_flagged((2, 1), xflags=(2, 2))
        yield (
            "counterexample 2413",
            quantum.q_schubert((2, 4, 1, 3)),
            det - q(2) * (x(1) + x(2) + x(3)),
        )
    if n >= 5:
        det = quantum.q_flagged((3, 2, 1), xflags=(1, 3, 3))
        rhs = (
            quantum.q_schubert((4, 2, 5, 1, 3))
            + q(3) * quantum.q_schubert((4, 1, 2, 3, 5)) * quantum.q_schubert((1, 2, 3, 5, 4))
            - q(3) * quantum.q_schubert((5, 1, 2, 3, 4))
        )
        yield ("counterexample 42513", det, rhs)
        yield (
            "counterexample dS~_42513/dq3",
            quantum.q_schubert((4, 2, 5, 1, 3)).q_partial(3),
            quantum.q_schubert((4, 2, 1, 3, 5)) * -1,
        )


def suite_counterexamples() -> Report:
    """The counterexample block alone, at its native ranks."""
    rep = Report("counterexamples")
    with _Timer(rep):
        for case, actual, expected in _counterexample_cases(5):
            rep.check(case, actual, expected)
    return rep


# -- grassmannian ------------------------------------------------------------------


def suite_grassmannian(n: int) -> Report:
    """Double determinants for Grassmannian permutations, the top-cell Cauchy
    convolution over a rectangle, and the one-descent block determinant."""
    rep = Report("grassmannian")
    with _Timer(rep):
        for m in range(2, n + 1):
            for w in perms.permutations(m):
                if not perms.is_grassmannian(w) or not perms.shape(w):
                    continue
                rep.check(
                    f"grassmannian-double w={perms.as_text(w)}",
                    quantum.q_grassmannian_double(w, m),
                    quantum.q_double_schubert(w, m),
                )
        # the factorial-Schur convolution identity
        for np_ in range(2, n + 1):
            for r in range(1, np_):
                s = np_ - r
                v = tuple(range(s + 1, np_ + 1)) + tuple(range(1, s + 1))
                acc = Poly.sum(
                    _double_in_a(perms.grassmannian_perm(lam, r, np_), np_)
                    * _double_in_y_minus_a(_dual_grassmannian(lam, r, s, np_))
                    for lam in perms.partitions_in_box(r, s)
                )
                rep.check(
                    f"factorial-cauchy n={np_} r={r}", acc, quantum.q_double_schubert(v, np_)
                )
        # block determinant for v = (s+1, ..., n', 1, ..., s)
        for np_ in range(2, n + 1):
            for s in range(1, np_):
                r = np_ - s
                v = tuple(range(s + 1, np_ + 1)) + tuple(range(1, s + 1))
                rect = jacobi_trudi(
                    lambda d, i, j: quantum.q_xy_elementary(d, r + j, i + 1), (r,) * s
                )
                rep.check(
                    f"rectangle-determinant n={np_} s={s}",
                    rect,
                    quantum.q_double_schubert(v, np_),
                )
        # the worked rank-4 double as a frozen value
        if n >= 4:
            rep.check(
                "worked 3412 double",
                quantum.q_double_schubert((3, 4, 1, 2), 4),
                _WORKED_3412,
            )
    return rep


def _dual_grassmannian(lam, r: int, s: int, n: int) -> perms.Perm:
    """The Grassmannian permutation (descent at s, rank n) whose shape is the
    conjugate of lam's complement in the r x s box."""
    lamhat = tuple(s - (lam[r - 1 - i] if r - 1 - i < len(lam) else 0) for i in range(r))
    lamhat = tuple(e for e in lamhat if e)
    if not lamhat:
        return perms.identity(n)
    return perms.grassmannian_perm(perms.conjugate(lamhat), s, n)


_WORKED_3412 = parse(
    "q1^2 + q1*q2 - q2*x1^2 + 2*q1*x1*x2 + x1^2*x2^2 + q1*x1*y1 - q2*x1*y1 + q1*x2*y1"
    " + x1^2*x2*y1 + x1*x2^2*y1 + q1*y1^2 + x1*x2*y1^2 + q1*x1*y2 - q2*x1*y2 + q1*x2*y2"
    " + x1^2*x2*y2 + x1*x2^2*y2 - q2*y1*y2 + x1^2*y1*y2 + 2*x1*x2*y1*y2 + x2^2*y1*y2"
    " + x1*y1^2*y2 + x2*y1^2*y2 + q1*y2^2 + x1*x2*y2^2 + x1*y1*y2^2 + x2*y1*y2^2"
    " + y1^2*y2^2"
)


# -- factorization ------------------------------------------------------------------


def suite_factorization(n: int) -> Report:
    """Product formulas: the cross embedding and the last-column descent."""
    rep = Report("factorization")
    with _Timer(rep):
        for a_ in range(1, n):
            for b_ in range(1, n - a_ + 1):
                for u in perms.permutations(a_):
                    for v in perms.permutations(b_):
                        w = perms.cross_embed(u, v)
                        rep.check(
                            f"cross u={perms.as_text(u)} v={perms.as_text(v)}",
                            quantum.q_schubert(w),
                            quantum.q_schubert(u)
                            * quantum.q_schubert(perms.cross_embed(perms.identity(a_), v)),
                        )
        for m in range(2, n + 1):
            for w in perms.permutations(m):
                if w[-1] != 1:
                    continue
                u = tuple(wi - 1 for wi in w[:-1]) + (m,)
                rep.check(
                    f"last-one w={perms.as_text(w)}",
                    quantum.q_schubert(w),
                    quantum.q_schubert(u) * quantum.q_elementary(m - 1, m - 1),
                )
    return rep


# -- conjectures and the exercise ----------------------------------------------------


def _skew_flagged_double(w: perms.Perm, reading: str) -> Poly:
    """The double skew flagged determinant with y-column flags indexed by row
    lengths: reading "A" uses the rows of the inverse's diagram (the stated
    rule), reading "B" the rows of w's own diagram (the rule that matches the
    worked example)."""
    outer, inner, ph = perms.skew_data(w)
    oi, ii, phin = perms.skew_data(perms.inverse(w))
    k = len(outer)
    innp = inner + (0,) * k
    if reading == "A":
        rls = [
            (oi[j] - (ii[j] if j < len(ii) else 0)) if j < len(oi) else 0
            for j in range(k)
        ]
    else:
        rls = [outer[j] - innp[j] for j in range(k)]
    yf = [phin[rl - 1] if 1 <= rl <= len(phin) else 0 for rl in rls]
    return jacobi_trudi(lambda d, i, j: quantum.q_xy_complete(d, ph[i], yf[j]), outer, inner)


def suite_conjectures(n: int) -> Report:
    """Hypotheses scanned for counterexamples: the skew flagged expansion for
    321-avoiding permutations (single and double alphabet, the double in both
    candidate readings) and the flagged-truncation exercise for vexillary
    permutations.  Failures here are findings, not errors; run_all ignores
    this suite when computing its exit status."""
    rep = Report("conjectures")
    with _Timer(rep):
        for m in range(2, n + 1):
            for w in perms.permutations(m):
                if perms.is_321_avoiding(w) and perms.shape(w):
                    outer, inner, ph = perms.skew_data(w)
                    rep.check(
                        f"skew-single w={perms.as_text(w)}",
                        quantum.q_flagged(outer, inner, xflags=ph),
                        quantum.q_schubert(w),
                    )
                    dd = quantum.q_double_schubert(w, m)
                    for reading in ("A", "B"):
                        rep.check(
                            f"skew-double-{reading} w={perms.as_text(w)}",
                            _skew_flagged_double(w, reading),
                            dd,
                        )
                if perms.is_vexillary(w) and perms.shape(w):
                    c = perms.code(w)
                    mx = max(j + 1 for j, cj in enumerate(c) if cj)
                    det = quantum.q_flagged(perms.shape(w), xflags=perms.flag_theta(w))
                    rep.check(
                        f"flag-truncation w={perms.as_text(w)} q>={mx}",
                        quantum.coeff_window(det, m, mx - 1),
                        quantum.coeff_window(quantum.q_schubert(w), m, mx - 1),
                    )
        # the worked double determinant (reading-independent, held exactly)
        if n >= 4:
            det = determinant(
                [
                    [quantum.q_xy_complete(1, 1, 1), quantum.q_xy_complete(3, 1, 3)],
                    [Poly.const(1), quantum.q_xy_complete(2, 2, 3)],
                ]
            )
            rep.check(
                "worked 2413 double determinant",
                det,
                quantum.q_double_schubert((2, 4, 1, 3), 4),
            )
    return rep


# -- aggregation ---------------------------------------------------------------------


SUITES = {
    "cauchy": suite_cauchy,
    "schur": suite_schur,
    "vexillary": suite_vexillary,
    "grassmannian": suite_grassmannian,
    "factorization": suite_factorization,
    "counterexamples": lambda n: suite_counterexamples(),
    "conjectures": suite_conjectures,
}

_EXIT_EXEMPT = {"conjectures"}


def run_all(max_n: int = 5, slow: bool = False) -> list[Report]:
    """Run every suite at its default rank caps.  Identity suites sweep up to
    min(max_n, 5); the Cauchy suite runs n = 2..4, plus n = 5 when slow=True;
    the conjecture scan stops at rank 4 by default."""
    cap = min(max_n, 5)
    reports = []
    for n in range(2, (5 if slow else 4) + 1):
        if n > max_n:
            break
        reports.append(suite_cauchy(n))
    reports.append(suite_schur(cap))
    reports.append(suite_vexillary(cap))
    reports.append(suite_grassmannian(cap))
    reports.append(suite_factorization(cap))
    reports.append(suite_counterexamples())
    reports.append(suite_conjectures(min(max_n, 4)))
    return reports


def exit_ok(reports: list[Report]) -> bool:
    """Aggregate pass/fail: every suite must pass except the conjecture scan."""
    return all(r.ok for r in reports if r.suite not in _EXIT_EXEMPT)
