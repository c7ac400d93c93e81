"""Classical Schubert polynomials, double versions, and symmetric functions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub import classical, perms
from qschub.poly import ONE, Poly, X, Y, ZERO, monomial, parse, x, y


S3_TABLE = {
    (1, 2, 3): "1",
    (1, 3, 2): "x1 + x2",
    (2, 1, 3): "x1",
    (2, 3, 1): "x1*x2",
    (3, 1, 2): "x1^2",
    (3, 2, 1): "x1^2*x2",
}


def test_s3_table():
    for w, s in S3_TABLE.items():
        assert classical.schubert(w) == parse(s)


def test_staircase_and_top_cell():
    assert classical.staircase(4) == x(1) ** 3 * x(2) ** 2 * x(3)
    assert classical.schubert(perms.longest(4)) == classical.staircase(4)
    assert classical.schubert(perms.identity(5)) == ONE


def test_divided_difference_recurrence():
    # S_{w s_i} = d_i S_w whenever position i is a descent of w
    for n in (3, 4):
        for w in perms.permutations(n):
            f = classical.schubert(w)
            for i in range(1, n):
                if w[i - 1] > w[i]:
                    assert f.divided_diff(i) == classical.schubert(perms.times_s(w, i))
                else:
                    assert f.divided_diff(i) == ZERO


def test_stability():
    for w in perms.permutations(4):
        assert classical.schubert(perms.cross_embed(w, perms.identity(6))) == classical.schubert(w)


def test_double_schubert():
    w0 = perms.longest(3)
    prod = (x(1) + y(1)) * (x(1) + y(2)) * (x(2) + y(1))
    assert classical.double_schubert(w0) == prod
    # y = 0 recovers the single polynomial
    for w in perms.permutations(4):
        d = classical.double_schubert(w)
        assert d.drop_vars(lambda fam, idx: fam == Y) == classical.schubert(w)


def test_monomial_positivity():
    for w in perms.permutations(4):
        assert all(c > 0 for c in classical.schubert(w).terms.values())


def test_symmetric_functions():
    assert classical.elem_sym(0, 3) == ONE
    assert classical.elem_sym(1, 3) == x(1) + x(2) + x(3)
    assert classical.elem_sym(2, 2) == x(1) * x(2)
    assert classical.elem_sym(3, 2) == ZERO
    assert classical.complete_sym(2, 2) == x(1) ** 2 + x(1) * x(2) + x(2) ** 2
    assert classical.complete_sym(0, 1) == ONE
    assert classical.complete_sym(1, 0) == ZERO
    assert classical.elem_sym(1, 2, family=Y) == y(1) + y(2)
    # the e/h convolution kernel vanishes in positive degree
    for m in range(1, 5):
        s = Poly()
        for j in range(m + 1):
            t = classical.elem_sym(m - j, 3) * classical.complete_sym(j, 3)
            s = s + (t if (m - j) % 2 == 0 else -t)
        assert s == ZERO


def test_schur():
    assert classical.schur((2, 1), 3) == parse(
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 2*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2"
    )
    assert classical.schur((1, 1), 2) == x(1) * x(2)
    assert classical.schur((), 3) == ONE
    # Grassmannian Schuberts are Schur polynomials
    for lam in perms.partitions_in_box(2, 2):
        if not lam:
            continue
        w = perms.grassmannian_perm(lam, 2, 4)
        assert classical.schubert(w) == classical.schur(lam, 2)


def test_schubert_expand():
    f = classical.schubert((2, 3, 1)) + 3 * classical.schubert((1, 3, 2))
    assert classical.schubert_expand(f) == {(2, 3, 1): 1, (1, 3, 2): 3}
    assert classical.schubert_expand(ZERO) == {}
    g = (x(1) + x(2)) ** 2
    exp = classical.schubert_expand(g)
    back = Poly()
    for w, c in exp.items():
        back = back + c * classical.schubert(w)
    assert back == g
    with pytest.raises(Exception):
        classical.schubert_expand(x(1) + y(1))
    # each S_w expands to itself, keyed by w at its minimal rank
    for n in range(1, 6):
        for w in perms.permutations(n):
            assert classical.schubert_expand(classical.schubert(w)) == {perms.trim(w): 1}
    # a fixed integer combination over S_4 and S_5 comes back exactly
    combo = {(4, 1, 3, 2): 2, (2, 4, 1, 3): -5, (3, 5, 1, 4, 2): 7, (1, 2, 5, 4, 3): -1}
    f = Poly.sum(c * classical.schubert(w) for w, c in combo.items())
    assert classical.schubert_expand(f) == combo
    assert classical.schubert_expand(Poly.const(-4)) == {(1,): -4}
    assert classical.schubert_expand(x(2)) == {(2, 1): -1, (1, 3, 2): 1}
    # x1^12 = S_w for the dominant w of code (12): rank 13
    assert classical.schubert_expand(x(1) ** 12) == {(13,) + tuple(range(1, 13)): 1}


def test_schubert_expand_hands_out_no_memo():
    # each monomial's expansion is memoized; a caller that mutates its answer
    # must not change the next caller's
    f = parse("x1^2*x2 + 3*x3")
    want = dict(classical.schubert_expand(f))
    got = classical.schubert_expand(f)
    got.clear()
    got[(2, 1)] = 99
    assert classical.schubert_expand(f) == want
    one = classical.schubert_expand(x(2))
    one[(2, 1)] += 5
    assert classical.schubert_expand(x(2)) == {(2, 1): -1, (1, 3, 2): 1}


def _code_monomial(w, family=X):
    return monomial([(family, i, e) for i, e in enumerate(perms.code(w), 1)])


def test_schubert_leaders_are_the_codes():
    # S_w leads with x^code(w), coefficient 1: n! distinct leaders in S_n
    for n in range(1, 7):
        leaders = set()
        for w in perms.permutations(n):
            m, c = classical.schubert(w).leading_term()
            assert (m, c) == (_code_monomial(w).leading_term()[0], 1), w
            leaders.add(m)
        assert len(leaders) == math.factorial(n)


def test_monomial_expansions_match_the_walk():
    # the triangular table and the weak-order walk of schubert_expand agree on
    # every monomial under the staircase of S_<=5, and the sums rebuild it
    for n in range(1, 6):
        for length in range(n * (n - 1) // 2 + 1):
            table = classical._monomial_expansions(n, length)
            layer = [u for u in perms.permutations(n) if perms.length(u) == length]
            assert len(table) == len(layer)
            for u in layer:
                got = table[_code_monomial(u, Y).leading_term()[0]]
                xa = _code_monomial(u)
                assert all(perms.length(w) == length for w in got)
                assert {perms.trim(w): c for w, c in got.items()} == classical.schubert_expand(xa)
                assert Poly.sum(c * classical.schubert(w) for w, c in got.items()) == xa
    key = y(2).leading_term()[0]
    assert classical._monomial_expansions(3, 1)[key] == {(1, 3, 2): 1, (2, 1, 3): -1}


# the exponent vectors under the rank-5 staircase are the codes of S_5
_S5_CODES = sorted(perms.code(w) for w in perms.permutations(5))


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_S5_CODES),
        st.integers(-9, 9).filter(bool),
        min_size=1,
        max_size=8,
    )
)
def test_schubert_expand_of_a_combination(terms):
    # linearity over the memoized monomials: the expansion of a multi-term f
    # under the staircase rebuilds f and is the sum of its terms' table rows
    f = Poly.sum(monomial([(X, i, e) for i, e in enumerate(a, 1)], c) for a, c in terms.items())
    got = classical.schubert_expand(f)
    assert Poly.sum(c * classical.schubert(w) for w, c in got.items()) == f
    want: dict = {}
    for a, c in terms.items():
        key = monomial([(Y, i, e) for i, e in enumerate(a, 1)]).leading_term()[0]
        for w, k in classical._monomial_expansions(5, sum(a))[key].items():
            w = perms.trim(w)
            want[w] = want.get(w, 0) + c * k
    assert got == {w: c for w, c in want.items() if c}


def test_implied_rank():
    assert classical.implied_rank(Poly.const(3)) == 0
    assert classical.implied_rank(x(2)) == 3
    assert classical.implied_rank(x(1) ** 12) == 13
    assert classical.implied_rank(parse("x1^2*x2 + x3")) == 4
