"""Classical Schubert polynomials, double versions, and symmetric functions."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub import classical, perms
from qschub.errors import BadPermutation, QschubError
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
    assert classical.staircase(3, Y) == y(1) ** 2 * y(2)


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


def test_singles_in_y_are_the_renamed_singles_in_x():
    # S_w(y) runs its own chain of y-divided differences, not a renaming
    for n in range(1, 6):
        for w in perms.permutations(n):
            assert classical.schubert_in_y(w) == classical.schubert(w).rename_family(X, Y)


def test_rank20_singles_build_only_their_chain():
    # a cold rank-20 single walks up to w_0 of S_20 and back, nothing more:
    # C(20, 2) - 1 steps plus w_0 enter the memo
    top = tuple(range(1, 18))
    size = len(classical._SINGLES[X])
    assert classical.schubert(top + (18, 20, 19)) == classical.elem_sym(1, 19)
    assert len(classical._SINGLES[X]) - size <= 190
    assert classical.schubert(top + (19, 20, 18)) == classical.elem_sym(2, 19)
    assert classical.schubert(top + (20, 18, 19)) == classical.complete_sym(2, 18)
    w = (2, 1) + tuple(range(3, 19)) + (20, 19)
    assert classical.schubert(w) == x(1) * classical.elem_sym(1, 19)


def test_refused_input_never_enters_the_singles_memo():
    for family, single in ((X, classical.schubert), (Y, classical.schubert_in_y)):
        memo = classical._SINGLES[family]
        size = len(memo)
        with pytest.raises(BadPermutation):
            single((1, 1))
        assert len(memo) == size and (1, 1) not in memo


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


@pytest.mark.parametrize(
    "build",
    [
        lambda: classical.elem_sym(1, -1),
        lambda: classical.complete_sym(2, -1),
        lambda: classical.schur((1,), -2),
    ],
    ids=["elem_sym", "complete_sym", "schur"],
)
def test_negative_alphabet_is_refused(build):
    # a negative alphabet size is a typed error, raised before any memo
    sizes = classical._elem_sym.cache_info().currsize, classical._complete_sym.cache_info().currsize
    with pytest.raises(QschubError):
        build()
    assert (classical._elem_sym.cache_info().currsize, classical._complete_sym.cache_info().currsize) == sizes


def test_symmetric_functions_of_a_long_alphabet():
    # the memos fill bottom-up, so x_1020 (a valid variable) needs no deep
    # recursion
    total = Poly.sum(x(i) for i in range(1, 1021))
    assert classical.elem_sym(1, 1020) == total
    assert classical.complete_sym(1, 1020) == total


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


def _code_monomial(w):
    return monomial([(X, i, e) for i, e in enumerate(perms.code(w), 1)])


def _walk(f):
    """{w: c} with f = sum c S_w by the definition: c_w is the constant term
    of d_w f.  Walks up the weak order of S_N, N = implied_rank(f), keyed by
    w^-1 (s_i w is longer when value i sits left of value i+1), and prunes
    zero images."""
    n = max(classical.implied_rank(f), 1)
    out, layer = {}, {perms.identity(n): f}
    while layer:
        nxt = {}
        for pos, g in layer.items():
            if c := g.terms.get(0):
                out[perms.trim(perms.inverse(pos))] = c
            for i in range(1, n):
                v = perms.times_s(pos, i)
                if pos[i - 1] < pos[i] and v not in nxt and (h := g.divided_diff(i)):
                    nxt[v] = h
        layer = nxt
    return out


def test_schubert_leaders_are_the_codes():
    # S_w leads with x^code(w), coefficient 1, in the order where the highest
    # index decides (x2 > x1^5): n! distinct leaders in S_n
    for n in range(1, 7):
        leaders = set()
        for w in perms.permutations(n):
            terms = classical.schubert(w).exponent_terms(X)
            a, c = max(terms, key=lambda t: (t[0] + (0,) * n)[n - 1 :: -1])
            assert (a + (0,) * n)[:n] == perms.code(w) and c == 1, w
            leaders.add(a)
        assert len(leaders) == math.factorial(n)


def _table_rows(n, length):
    """classical._monomial_expansions(n, length) read by monomial: {a: {w: c}}."""
    rows: dict = {}
    for w, pairs in classical._monomial_expansions(n, length).items():
        assert [a for a, _ in pairs] == sorted(a for a, _ in pairs), w
        for a, c in pairs:
            rows.setdefault(a, {})[w] = c
    return rows


def test_monomial_expansions_match_the_walk():
    # Monk's rule and the divided-difference walk agree on every monomial
    # under the staircase of S_<=5, and the sums rebuild it; the table is
    # keyed by the trimmed w, and lists the exponents (a code less its last
    # 0) in increasing order
    for n in range(1, 6):
        for length in range(n * (n - 1) // 2 + 1):
            rows = _table_rows(n, length)
            layer = [u for u in perms.permutations(n) if perms.length(u) == length]
            assert len(rows) == len(layer)
            for u in layer:
                got = rows[perms.code(u)[:-1]]
                xa = _code_monomial(u)
                assert all(perms.length(w) == length for w in got)
                assert got == _walk(xa)
                assert Poly.sum(c * classical.schubert(w) for w, c in got.items()) == xa
    # x1 = S_21 and x2 = S_132 - S_21
    assert classical._monomial_expansions(3, 1) == {
        (1, 3, 2): [((0, 1), 1)],
        (2, 1): [((0, 1), -1), ((1, 0), 1)],
    }


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.dictionaries(st.integers(1, 8), st.integers(1, 8), min_size=1, max_size=3))
def test_expand_exponents_matches_the_walk(exps):
    # random monomials of implied rank <= 9, not only those under a staircase
    f = monomial([(X, i, min(e, 9 - i)) for i, e in exps.items()])
    ((a, _),) = f.exponent_terms(X)
    assert classical._expand_exponents(a) == _walk(f)


def test_schubert_expand_of_powers():
    # x^a = S_w for the dominant w of code a (a partition): one term, with no
    # walk through the weak order.  x1^127 ... x8^127 has degree 1,016 and w
    # is in S_135; the chain of a's prefixes is walked in a loop, with no
    # frame per degree
    for a in ((40,), (127,), (127,) * 8):
        f = monomial([(X, i, e) for i, e in enumerate(a, 1)])
        w = perms.from_code(a + (0,) * a[0])
        assert classical.schubert_expand(f) == {w: 1}
    assert len(w) == 135 and perms.length(w) == 1016


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
        for w, k in _table_rows(5, sum(a))[a[:-1]].items():
            want[w] = want.get(w, 0) + c * k
    assert got == {w: c for w, c in want.items() if c}


def test_implied_rank():
    assert classical.implied_rank(Poly.const(3)) == 0
    assert classical.implied_rank(x(2)) == 3
    assert classical.implied_rank(x(1) ** 12) == 13
    assert classical.implied_rank(parse("x1^2*x2 + x3")) == 4
    assert classical.implied_rank(x(1) ** 127) == 128
