"""Quantum polynomials: generating factors, worked values, degenerations,
determinants, quantization, and stable approximants."""

from __future__ import annotations

import time
from functools import cache

import pytest

from qschub import classical, perms, quantum, verify
from qschub.errors import (
    BadFlag,
    CompositionOutOfBox,
    ForeignVariables,
    NotDominant,
    RankMismatch,
    RankTooLarge,
    ShapeOutOfBox,
)
from qschub.poly import (
    ONE,
    Poly,
    Q,
    X,
    Y,
    ZERO,
    _family_mask,
    _join,
    _names,
    determinant,
    jacobi_trudi,
    monomial,
    parse,
    q,
    x,
    y,
)


def _at_q0(p: Poly) -> Poly:
    return p.drop_vars(lambda fam, idx: fam == Q)


def test_generating_factors():
    assert quantum.q_elementary(0, 3) == ONE
    assert quantum.q_elementary(1, 1) == x(1)
    assert quantum.q_elementary(2, 2) == parse("x1*x2 + q1")
    assert quantum.q_elementary(3, 3) == parse("x1*x2*x3 + q1*x3 + q2*x1")
    assert quantum.q_elementary(4, 3) == ZERO
    assert quantum.q_elementary(1, 0) == ZERO
    assert quantum.q_complete(0, 0) == ONE
    assert quantum.q_complete(1, 0) == ZERO
    assert quantum.q_complete(1, 2) == x(1) + x(2)
    assert quantum.q_complete(2, 2) == parse("x1^2 + x1*x2 + x2^2 - q1 - q2")
    # delta factors: Delta_k(t | X_k) = sum_i e~_i(X_k) t^{k-i}
    t = y(1)
    assert quantum.delta(2, t) == parse("x1*x2 + q1 + (x1 + x2)*y1 + y1^2")


def test_elementary_is_the_tridiagonal_determinant():
    # FGP's definition: det(t I + G_r) = sum_k e~_k(X_r) t^{r-k}, with x_1..x_r
    # on the diagonal of G_r, q_1..q_{r-1} above it and -1 below it; the
    # determinant writes every q itself, where e~ takes them from its
    # recurrence.  t = y1 occurs in no entry of G_r
    t = y(1)
    for r in range(9):
        rows = [
            [
                x(i + 1) + t if j == i else q(i + 1) if j == i + 1 else -ONE if j == i - 1 else ZERO
                for j in range(r)
            ]
            for i in range(r)
        ]
        assert determinant(rows) == quantum.delta(r, t), r


def test_elementary_of_a_long_alphabet():
    # the e~ memo fills bottom-up, so x_1020 (a valid variable) needs no deep
    # recursion; e~_1 has no q term
    assert quantum.q_elementary(1, 1020) == Poly.sum(x(i) for i in range(1, 1021))


def test_degeneration_to_classical_factors():
    for r in range(0, 5):
        for k in range(0, 6):
            assert _at_q0(quantum.q_elementary(k, r)) == classical.elem_sym(k, r)
            assert _at_q0(quantum.q_complete(k, r)) == classical.complete_sym(k, r)


S3_QUANTUM = {
    (1, 2, 3): "1",
    (1, 3, 2): "x1 + x2",
    (2, 1, 3): "x1",
    (2, 3, 1): "x1*x2 + q1",
    (3, 1, 2): "x1^2 - q1",
    (3, 2, 1): "x1^2*x2 + q1*x1",
}

# the worked rank-5 example: S~ for w = 13524
W13524 = (
    "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2 + 2*x1*x2*x3"
    " + q1*(x1 + x2) + q2*(x2 + x3) - q3*(x1 + x2)"
)


def test_s3_quantum_table():
    for w, s in S3_QUANTUM.items():
        assert quantum.q_schubert(w) == parse(s)


def test_worked_rank5_value():
    assert quantum.q_schubert((1, 3, 5, 2, 4)) == parse(W13524)


def test_top_cell_product():
    # S~_{w_0} is the product of the e~_i(X_i)
    for n in (2, 3, 4):
        prod = ONE
        for i in range(1, n):
            prod = prod * quantum.q_elementary(i, i)
        assert quantum.q_schubert(perms.longest(n)) == prod


def test_top_cell_slices_make_up_the_product():
    # each y^a of prod Delta_i picks one term of every factor, so its
    # coefficient P_a is the outer factors e~_{i-a_{n-i}}(X_i), i >= 4, times
    # the inner product of the three factors below X_4; a rank below 4 takes
    # e~_0 = 1 at the alphabets it lacks.  The inner memo has one entry per
    # exponent triple, whatever the rank
    for n in range(2, 6):
        pad = (3, 2)[: max(4 - n, 0)]
        rebuilt = {}
        for u in perms.permutations(n):
            a = perms.code(u)[:-1]
            outer = Poly.const(1)
            for i in range(4, n):
                outer = outer * quantum.q_elementary(i - a[n - 1 - i], i)
            rebuilt[a] = outer * quantum._inner((pad + a)[-3:])
        assert rebuilt == _top_cell_by_y(n), n
    assert quantum._inner.cache_info().currsize == 24


def test_rank_embedding_consistency():
    # S~_w and S~_w(x, y) are stable: trailing fixed points change neither, and
    # the padded permutation is the same memo entry
    memos = quantum._q_schubert, quantum._q_double_schubert
    for n in range(1, 6):
        for w in perms.permutations(n):
            single, double = quantum.q_schubert(w), quantum.q_double_schubert(w)
            sizes = [memo.cache_info().currsize for memo in memos]
            for extra in (1, 2):
                big = perms.cross_embed(w, perms.identity(extra))
                assert quantum.q_schubert(big, n + extra) == single, big
                assert quantum.q_double_schubert(big, n + extra) == double, big
            assert [memo.cache_info().currsize for memo in memos] == sizes, w
    with pytest.raises(RankMismatch):
        quantum.q_schubert((2, 3, 1), 2)


def test_classical_degeneration_s4():
    for w in perms.permutations(4):
        assert _at_q0(quantum.q_schubert(w)) == classical.schubert(w)
        assert _at_q0(quantum.q_double_schubert(w, 4)) == classical.double_schubert(w)


# -- y chains: a second construction of the doubles ---------------------------


def _y_chain(f, v):
    """d^y_v f: with i a descent of v, d^y_v = d^y_{v s_i} after d^y_i."""
    d = perms.descents(v)
    return _y_chain(f.divided_diff(d[0], Y), perms.times_s(v, d[0])) if d else f


def _y_monomial(a):
    return monomial([(Y, j, e) for j, e in enumerate(a, 1)])


@cache
def _top_cell_by_y(n):
    """The terms of S~_{w_0}(x, y) grouped by their y-part: {a: P_a} for each
    y^a, a = (a_1, ..., a_{n-1}).  Built from the whole product, not from the
    nested sums quantum._q_schubert evaluates."""
    groups: dict = {}
    for m, k in quantum.q_w0_double(n).terms.items():
        c = m & _family_mask(Y, m)
        groups.setdefault(c, {})[m - c] = k
    return {
        (Poly({c: 1}).exponent_terms(Y)[0][0] + (0,) * n)[: n - 1]: Poly(t)
        for c, t in groups.items()
    }


def _q_double_by_chains(w):
    # S~_w(x, y) = d^y_v S~_{w0}(x, y), v = w w0, run on each y^a of the
    # grouped top cell: sum_a d^y_v(y^a) P_a over the y^a of degree >= l(v)
    n = len(w)
    v = perms.compose(w, perms.longest(n))
    return Poly.sum(
        _y_chain(_y_monomial(a), v) * p
        for a, p in _top_cell_by_y(n).items()
        if sum(a) >= perms.length(v)
    )


def test_q_double_matches_y_chains():
    for n in range(1, 6):
        for w in perms.permutations(n):
            assert quantum.q_double_schubert(w) == _q_double_by_chains(w), w


def test_double_matches_y_chains():
    # S_w(x, y) = d^y_v prod_{i+j<=n} (x_i + y_j), v = w w0
    for n in range(1, 6):
        top = ONE
        for i in range(1, n):
            for j in range(1, n + 1 - i):
                top = top * (x(i) + y(j))
        for w in perms.permutations(n):
            v = perms.compose(w, perms.longest(n))
            assert classical.double_schubert(w) == _y_chain(top, v), w


@pytest.mark.slow
def test_q_double_matches_y_chains_s6():
    # every 4th permutation, w0 among them: all 720 take about 33 s
    for w in list(perms.permutations(6))[3::4]:
        assert quantum.q_double_schubert(w) == _q_double_by_chains(w), w


def test_q_schubert_matches_slices():
    # y = 0 keeps the y-degree-l(v) slice of the grouped top cell:
    # S~_w = sum_a k_a P_a, k_a the coefficient of S_v in y^a, v = w w0
    for n in range(1, 7):
        for w in perms.permutations(n):
            v = perms.compose(w, perms.longest(n))
            pairs = classical._monomial_expansions(n, perms.length(v))[perms.trim(v)]
            slice_sum = Poly.combination((k, _top_cell_by_y(n)[a]) for a, k in pairs)
            assert quantum.q_schubert(w) == slice_sum, w


def test_q_schur_box_guard():
    with pytest.raises(ShapeOutOfBox):
        quantum.q_schur((3,), 2, 4)
    assert quantum.q_schur((2, 2), 2, 4) == parse(
        "x1^2*x2^2 - q2*x1^2 + 2*q1*x1*x2 + q1^2 + q1*q2"
    )
    assert quantum.q_schur((), 2, 4) == ONE
    # no shape fits a box with a negative side, the empty one included
    with pytest.raises(ShapeOutOfBox):
        quantum.q_schur((), 3, 2)
    with pytest.raises(ShapeOutOfBox):
        quantum.q_factorial_schur((), 3, 2)
    assert not perms.fits_box((), 3, -1) and not perms.fits_box((), -1, 3)


def test_determinant_memos():
    quantum.q_schur((2, 1), 2, 4)
    hits = quantum._q_schur.cache_info().hits
    # a partition with trailing zeros is the same key
    assert quantum.q_schur((2, 1, 0), 2, 4) is quantum.q_schur((2, 1), 2, 4)
    assert quantum._q_schur.cache_info().hits == hits + 2
    quantum.q_monomial((1,), 3)
    hits = quantum._q_monomial.cache_info().hits
    assert quantum.q_monomial((1, 0, 0), 3) is quantum.q_monomial((1,), 3)
    assert quantum._q_monomial.cache_info().hits == hits + 2
    # above the desk-scale rank the result is built afresh and not kept
    n = quantum.DEFAULT_MAX_N + 1
    lam = (2, 1)
    size = quantum._q_schur.cache_info().currsize
    got = quantum.q_schur(lam, n - lam[0], n)
    assert quantum._q_schur.cache_info().currsize == size
    # the suites' h-determinant construction, column alphabets X_{r+1-j}
    r = n - lam[0]
    assert got == jacobi_trudi(lambda d, i, j: quantum.q_complete(d, r - j), lam, size=r)
    # a refused input never enters the memo
    with pytest.raises(ShapeOutOfBox):
        quantum.q_schur((3,), 2, 4)
    assert quantum._q_schur.cache_info().currsize == size
    # every memo of the module is cleared by the e~ override
    memos = {f for f in vars(quantum).values() if hasattr(f, "cache_clear")}
    assert memos == set(quantum._E_MEMOS)


def test_column_reduced_e_determinants():
    # the e~ determinants are evaluated with column j at X_{r+ceil(j/2)};
    # the written form, column j at X_{r+j}, is the second construction
    def direct_schur(lam, r, n):
        lamc = perms.conjugate(lam)
        return jacobi_trudi(lambda d, i, j: quantum.q_elementary(d, r + j), lamc, size=n - r)

    # sizes up to 5 (the second pass), one of size 6, and the sweep's rank-8 shapes
    cases = [
        (lam, r, n)
        for n in range(7)
        for r in range(n + 1)
        for lam in perms.partitions_in_box(r, n - r)
    ]
    cases += [(lam, 1, 7) for lam in perms.partitions_in_box(1, 6)]
    cases += [(lam, 4, 8) for lam in ((4, 4, 4), (4, 4, 4, 4), (4, 3, 2, 1), (3, 3, 2))]
    for lam, r, n in cases:
        assert quantum.q_schur(lam, r, n) == direct_schur(lam, r, n), (lam, r, n)

    for m in range(1, 6):
        for w in perms.permutations(m):
            if not perms.is_grassmannian(w):
                continue
            r = perms.grassmannian_descent(w)
            lamc = perms.conjugate(perms.shape(w))
            rowflags = perms.flag_theta(perms.inverse(w)) + (0,) * (m - r)
            direct = jacobi_trudi(
                lambda d, i, j: quantum.q_xy_elementary(d, r + j, rowflags[i]), lamc, size=m - r
            )
            assert quantum.q_grassmannian_double(w) == direct, w

    for lam in perms.partitions_in_box(3, 3):
        r, lamc = len(lam), perms.conjugate(lam)
        direct = jacobi_trudi(
            lambda d, i, j: quantum.q_xy_elementary(d, r + j, r + 1 + i - lamc[i]), lamc
        )
        assert verify._dual_determinants(lam)[0] == direct, lam

    # suite_grassmannian's rectangle determinants, e~_k(X_{r+j} - Y_{i+1})
    for np_ in range(2, 7):
        for s in range(1, np_):
            r = np_ - s
            direct = jacobi_trudi(
                lambda d, i, j: quantum.q_xy_elementary(d, r + j, i + 1), (r,) * s
            )
            reduced = quantum.e_jacobi_trudi(
                lambda d, i, m: quantum.q_xy_elementary(d, m, i + 1), (r,) * s, r
            )
            assert reduced == direct, (np_, s)


def test_q_monomial():
    assert quantum.q_monomial((1,), 2) == x(1)
    assert quantum.q_monomial((2, 0), 3) == parse("x1^2 - q1")
    assert quantum.q_monomial((0, 0), 3) == ONE
    with pytest.raises(CompositionOutOfBox):
        quantum.q_monomial((3,), 3)
    with pytest.raises(CompositionOutOfBox):
        quantum.q_monomial((0, 0, 0, 1), 3)


def test_quantize():
    assert quantum.quantize(parse("x1^2"), 3) == parse("x1^2 - q1")
    assert quantum.quantize(ONE, 3) == ONE
    assert quantum.quantize(ZERO, 3) == ZERO
    # additivity
    f, g = parse("x1*x2"), parse("x1^2")
    assert quantum.quantize(f + g, 3) == quantum.quantize(f, 3) + quantum.quantize(g, 3)
    with pytest.raises(ForeignVariables):
        quantum.quantize(parse("y1"), 3)


def test_quantize_rank_guard():
    # x1^7 implies S_8: refused before any quantum Schubert polynomial is built
    t0 = time.perf_counter()
    with pytest.raises(RankTooLarge, match="rank 8"):
        quantum.quantize(parse("x1^7"))
    assert time.perf_counter() - t0 < 0.5  # unguarded, it takes about 2 s
    with pytest.raises(RankTooLarge):
        quantum.quantize(parse("x1^2"), 3, max_n=2)
    assert quantum.quantize(parse("x1^2"), 3) == parse("x1^2 - q1")
    assert quantum.quantize(parse("x1^2"), 3, max_n=3) == parse("x1^2 - q1")


def test_quantize_of_schubert_is_quantum_schubert():
    for w in perms.permutations(4):
        assert quantum.quantize(classical.schubert(w), 4) == quantum.q_schubert(w)


def test_q_partial_counterexample_pair():
    f = quantum.q_schubert((4, 2, 5, 1, 3))
    assert f.q_partial(3) == -quantum.q_schubert((4, 2, 1, 3, 5))


def test_stable_approx():
    for w in ((2, 1), (1, 3, 2), (3, 2, 1)):
        assert quantum.stable_approx(w, 0) == quantum.q_schubert(w)
    # the two-row determinant for w = 321 at every order m <= 4
    for m in range(0, 5):
        det = quantum.q_complete(2, m + 1) * quantum.q_complete(1, m + 2) - quantum.q_complete(
            3, m + 1
        )
        assert quantum.stable_approx((3, 2, 1), m) == det


STABLE_321_WINDOW = (
    "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2"
    " + q1*x1 + q1*x2 + q2*x2 + q2*x3 + q3*x3"
)


def test_stable_window_stabilizes():
    w3 = quantum.coeff_window(quantum.stable_approx((3, 2, 1), 3), 3, 3)
    w4 = quantum.coeff_window(quantum.stable_approx((3, 2, 1), 4), 3, 3)
    assert w3 == w4 == parse(STABLE_321_WINDOW)


def test_coeff_window():
    p = parse("x1*x4 + q1*x1 + q5 + x2")
    assert quantum.coeff_window(p, 3, 3) == parse("q1*x1 + x2")
    assert quantum.coeff_window(p, 4, 4) == parse("x1*x4 + q1*x1 + x2")


def test_q_factorial_schur_degenerations():
    p = quantum.q_factorial_schur((2, 2), 2, 4)
    # y = 0 gives the quantum Schur polynomial
    assert p.drop_vars(lambda fam, idx: fam == Y) == quantum.q_schur((2, 2), 2, 4)
    # q = 0 and y = 0 gives the classical Schur polynomial
    assert p.drop_vars(lambda fam, idx: fam in (Q, Y)) == classical.schur((2, 2), 2)


def test_elementary_override_hook():
    corrupted = parse("x1*x2 - q1")

    def hook(k, r):
        if (k, r) == (2, 2):
            return corrupted
        return None

    # memoized before the hook goes in: installing it must invalidate them
    assert quantum.q_elementary(2, 2) == parse("x1*x2 + q1")
    assert quantum.q_schubert((2, 3, 1)) == parse("x1*x2 + q1")
    xy_e, xy_h = quantum.q_xy_elementary(2, 2, 1), quantum.q_xy_complete(2, 2, 1)
    schur, mono = quantum.q_schur((1, 1), 2, 4), quantum.q_monomial((1, 1), 3)
    quantum.set_elementary_override(hook)
    try:
        assert quantum.q_elementary(2, 2) == corrupted
        # the corruption propagates into everything built from the factors
        assert quantum.q_schubert((2, 3, 1)) == parse("x1*x2 - q1")
        assert quantum.q_xy_elementary(2, 2, 1) == xy_e - 2 * q(1)
        assert quantum.q_xy_complete(2, 2, 1) == xy_h + 2 * q(1)
        # s~_11(X_2) = e~_2(X_2); x~_1 x~_2 = h~_1(X_1) h~_1(X_2) - h~_2(X_1)
        assert quantum.q_schur((1, 1), 2, 4) == corrupted
        assert quantum.q_monomial((1, 1), 3) == mono - 2 * q(1)
    finally:
        quantum.set_elementary_override(None)
    assert quantum.q_elementary(2, 2) == parse("x1*x2 + q1")
    assert quantum.q_schubert((2, 3, 1)) == parse("x1*x2 + q1")
    assert quantum.q_xy_elementary(2, 2, 1) == xy_e
    assert quantum.q_xy_complete(2, 2, 1) == xy_h
    assert quantum.q_schur((1, 1), 2, 4) == schur == parse("x1*x2 + q1")
    assert quantum.q_monomial((1, 1), 3) == mono


def test_rank6_matches_whole_slice_chain():
    # the construction before y-monomial grouping: the chain runs on the whole
    # y-degree-l(v) slice of prod_i Delta_i(y_{n-i}|X_i), v = w w0
    n = 6
    slices = {0: ONE}
    for i in range(1, n):
        nxt: dict = {}
        for j, p in slices.items():
            for k in range(i + 1):
                d = i - k
                nxt[j + d] = nxt.get(j + d, ZERO) + p * quantum.q_elementary(k, i) * y(n - i) ** d
        slices = nxt
    picked: dict = {}
    for w in perms.permutations(n):
        picked.setdefault(perms.length(w), w)
    assert sorted(picked) == list(range(16))
    for w in picked.values():
        v = perms.compose(w, perms.longest(n))
        old = _y_chain(slices[perms.length(v)], v)
        assert quantum.q_schubert(w) == old, w


def test_flagged_determinants():
    # a row-flagged determinant with full flags equals the quantum Schur
    assert quantum.q_flagged((2, 1), xflags=(3, 3)) == parse(
        "x1^2*x2 + x1*x2^2 + x1^2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2 + 2*x1*x2*x3"
        " + q1*(x1 + x2) + q2*(x2 + x3) + q3*(x3 + x4)"
    )
    # skew shapes divide out correctly: outer == inner gives 1
    assert quantum.q_flagged((1,), (1,), xflags=(2,)) == ONE
    # an inner shape longer than the outer one is refused, not truncated
    with pytest.raises(ShapeOutOfBox):
        quantum.q_flagged((2, 1), mu=(1, 1, 1), xflags=(2, 2))


def test_flagged_y_flags():
    lam, xflags = (3, 1, 1), (2, 3, 4)
    # Y_0 is the empty alphabet, so zero y flags change nothing
    assert quantum.q_flagged(lam, xflags=xflags, yflags=(0, 0, 0)) == quantum.q_flagged(
        lam, xflags=xflags
    )
    # one y flag per row: the dominant double determinant, row by row
    w = (3, 2, 1)
    lam = perms.shape(w)
    assert quantum.q_flagged(lam, xflags=(1, 2), yflags=lam) == quantum.q_double_schubert(w)
    with pytest.raises(ShapeOutOfBox):
        quantum.q_flagged(lam, xflags=(1, 2), yflags=(1,))
    with pytest.raises(BadFlag):
        quantum.q_flagged(lam, xflags=(1, 2), yflags=(1, -1))


def test_flagged_memo_serves_dominant_double_from_rv_double():
    # for a dominant w the rv-double determinant is the dominant one:
    # flag_theta(w) = (1..l) and the y flags are lam; the one-entry memo serves
    # the second call
    info = quantum._q_flagged.cache_info
    for n in range(2, 6):
        for w in perms.permutations(n):
            if not perms.is_dominant(w) or not perms.shape(w):
                continue
            rv = quantum.q_rv_double(w)
            hits = info().hits
            assert quantum.q_dominant_double(w) == rv, w
            assert info().hits == hits + 1, w
            assert info().currsize <= quantum._FLAGGED_MEMO_SIZE
    # a wrong flag is another key: built afresh, not served the rv-double one
    w = (3, 2, 1)
    rv = quantum.q_rv_double(w)
    misses = info().misses
    assert quantum.q_flagged((2, 1), xflags=(1, 3), yflags=(2, 1)) != rv
    assert info().misses == misses + 1
    # a refused input never enters the memo: the last accepted one stays
    last = quantum.q_flagged((2, 1), xflags=(2, 2))
    for lam, mu, xflags, yflags, err in (
        ((2, 1), (), (1,), None, BadFlag),
        ((2, 1), (), (0, 2), None, BadFlag),
        ((2, 1), (), (1, 2), (1,), ShapeOutOfBox),
        ((2, 1), (), (1, 2), (1, -1), BadFlag),
        ((2, 1), (1, 1, 1), (2, 2), None, ShapeOutOfBox),
    ):
        with pytest.raises(err):
            quantum.q_flagged(lam, mu, xflags, yflags)
        assert info().currsize == quantum._FLAGGED_MEMO_SIZE
    hits = info().hits
    assert quantum.q_flagged((2, 1), xflags=(2, 2)) is last
    assert info().hits == hits + 1


def test_dominant_double_refuses_other_permutations():
    for w in perms.permutations(4):
        if perms.is_dominant(w):
            assert quantum.q_dominant_double(w) == quantum.q_double_schubert(w)
    # 132 is not dominant: the determinant would give x1 + y1, not S~_132
    with pytest.raises(NotDominant):
        quantum.q_dominant_double((1, 3, 2))


def test_xy_factors_degenerate():
    # Y with zero variables is the plain factor
    assert quantum.q_xy_elementary(2, 2, 0) == quantum.q_elementary(2, 2)
    assert quantum.q_xy_complete(2, 2, 0) == quantum.q_complete(2, 2)


def test_memoized_polys_render_every_alphabet():
    # text() keeps its default render on the Poly; a render with other letters
    # is built afresh, so the order of renders never changes what is printed
    def fresh(r, letters=None):
        return _join(r.factored_terms(), _names(letters))

    p = quantum.q_schubert((1, 3, 5, 2, 4))
    d = quantum.q_double_schubert((2, 3, 1), 3)
    for r, letters in ((p, {X: "z", Q: "t"}), (d, {Y: "a"})):
        assert r.text() == fresh(r)
        assert r.text(letters) == fresh(r, letters) != fresh(r)
        assert r.text() == fresh(r)
        assert str(r) == fresh(r)
    assert quantum.q_schubert((1, 3, 5, 2, 4)).text() == fresh(p)
