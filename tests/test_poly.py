"""Ring arithmetic, canonical text, parsing, and calculus on Poly."""

from __future__ import annotations

import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qschub.poly as poly_module
from qschub.classical import complete_sym
from qschub.errors import (
    CompositionOutOfBox,
    ExponentOverflow,
    NonSquare,
    ParseError,
    ShapeOutOfBox,
    VariableOutOfRange,
)
from qschub.poly import (
    A,
    MAX_INDEX,
    MAX_NESTING,
    MAX_POWER_BITS,
    ONE,
    Minors,
    Poly,
    Q,
    X,
    Y,
    ZERO,
    a,
    determinant,
    jacobi_trudi,
    monomial,
    parse,
    q,
    vcode,
    vsplit,
    x,
    y,
)
from qschub.quantum import q_complete, q_schubert


@st.composite
def polys(draw):
    gens = [x(1), x(2), x(3), y(1), y(2), q(1), q(2), a(1)]
    p = Poly()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        t = Poly.const(draw(st.integers(min_value=-4, max_value=4)))
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            t = t * draw(st.sampled_from(gens))
        p = p + t
    return p


def test_constants_and_identities():
    assert ZERO == Poly()
    assert ONE == Poly.const(1)
    assert ZERO.text() == "0"
    assert ONE.text() == "1"
    assert (x(1) + ZERO) == x(1)
    assert (x(1) * ONE) == x(1)


def test_small_arithmetic():
    p = (x(1) + x(2)) ** 2
    assert p == x(1) ** 2 + 2 * x(1) * x(2) + x(2) ** 2
    assert p - p == ZERO
    assert -p == p * -1
    assert (x(1) - y(1)) * (x(1) + y(1)) == x(1) ** 2 - y(1) ** 2


def test_codes_roundtrip():
    for fam in (X, Y, Q, A):
        for idx in (1, 2, 57):
            assert vsplit(vcode(fam, idx)) == (fam, idx)
    # variable (f, i) owns byte 4*(i-1)+f of a monomial
    assert (q(1) * x(2) ** 3).terms == {(1 << 8 * 2) + (3 << 8 * 4): 1}


def test_exponent_cap():
    assert (x(1) ** 127).text() == "x1^127"
    for big in (lambda: x(1) ** 128, lambda: x(1) ** 64 * (x(1) ** 64 + y(2))):
        with pytest.raises(ExponentOverflow):
            big()
    with pytest.raises(ExponentOverflow):
        parse("x1^200")
    # a literal exponent is capped whatever its base
    assert parse("2^127") == Poly.const(2**127)
    for text in ("2^128", "(x1 + 1)^128", "3**20000"):
        with pytest.raises(ExponentOverflow):
            parse(text)
    with pytest.raises(ExponentOverflow):
        monomial([(X, 1, 100), (X, 1, 28)])
    # a negative exponent is refused as q_monomial refuses it
    with pytest.raises(CompositionOutOfBox):
        monomial([(X, 1, 2), (X, 2, -1)])
    # a power whose coefficients could pass MAX_POWER_BITS fails before it is built
    assert len(parse("(x1 + 1)^127")) == 128
    assert parse("(2^127)^32") == Poly.const(2 ** (127 * 32))
    for text in ("(2^127)^127", "((2^127)^127)^127", "(2^127)^127*x1", "(x1 + 2^64)^127"):
        with pytest.raises(ExponentOverflow):
            parse(text)
    # products share the power's budget: 32 factors of 2^127 fit, 33 do not
    assert parse("*".join(["2^127"] * 32) + "*x1") == Poly.const(2 ** (127 * 32)) * x(1)
    long_product = "*".join(["2^127"] * 120) + "*x1"
    for text in (long_product, "(2^127)^32 2^127", "(2^64 + x1)^63*(2^64 + x1)^2"):
        with pytest.raises(ExponentOverflow):
            parse(text)
    assert len(str(2**MAX_POWER_BITS)) < 4300  # CPython's str(int) digit limit


def test_index_bound_no_aliasing():
    # a wide index never spills into the neighbouring family's field
    assert parse(f"x{MAX_INDEX}") != parse("y1")
    assert vsplit(vcode(A, MAX_INDEX)) == (A, MAX_INDEX)
    for text in ("x1048577", f"y{MAX_INDEX + 1}", "q" + "9" * 4000):
        with pytest.raises(VariableOutOfRange):
            parse(text)
    with pytest.raises(VariableOutOfRange):
        x(1).divided_diff(MAX_INDEX)
    with pytest.raises(VariableOutOfRange):
        Poly.variable(4, 1)  # would be x2's byte


def test_text_ordering_and_weights():
    # q carries weight two, so q1 and x1^2 share a degree block; x sorts first.
    assert (x(1) ** 2 - q(1)).text() == "x1^2 - q1"
    assert (q(1) + x(1) ** 2).text() == "x1^2 + q1"
    # display order within a monomial is q, x, y, a
    m = q(2) * x(1) * y(3) * a(1) * 5
    assert m.text() == "5*q2*x1*y3*a1"
    # higher total weight prints first
    assert (x(1) + x(1) ** 2).text() == "x1^2 + x1"


def test_text_letters_override():
    p = x(1) * y(2) + y(1)
    assert p.text({Y: "a"}) == "x1*a2 + a1"


@settings(max_examples=150, deadline=None)
@given(polys())
def test_parse_roundtrip(p):
    assert parse(p.text()) == p


@settings(max_examples=100, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f - g == f + (-g)


def test_parse_grammar():
    assert parse("0") == ZERO
    assert parse("7") == Poly.const(7)
    assert parse("-x1") == -x(1)
    assert parse("x1*x1") == x(1) ** 2
    assert parse("x1**2") == x(1) ** 2
    assert parse("2*(x1 + y2)^2 - q1") == 2 * (x(1) + y(2)) ** 2 - q(1)
    assert parse("x2 - x2") == ZERO
    assert parse("2 x1 y1") == 2 * x(1) * y(1)  # juxtaposition multiplies
    # a unary minus applies to its atom before the power; a long chain of them is
    # one sign, and parentheses nest up to MAX_NESTING deep
    assert parse("x2*-x1^2") == x(2) * x(1) ** 2
    assert parse("x2*" + "-" * 1000 + "x1") == x(2) * x(1)
    assert parse("-" * 999 + "x1") == -x(1)
    assert parse("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING) == x(1)
    for deep in (MAX_NESTING + 1, 300, 5000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse("(" * deep + "x1" + ")" * deep)
    # a digit int() refuses and a literal past CPython's digit limit included
    for bad in ("x", "x0", "1 +", "x1^x2", "(x1", "z1", "x1)", "x1\u00b2", "9" * 5000):
        with pytest.raises(ParseError):
            parse(bad)


def test_subs_and_families():
    p = x(1) ** 2 + q(1) * x(2) + y(1)
    assert p.drop_vars(lambda fam, idx: fam == Q and idx == 1) == x(1) ** 2 + y(1)
    assert p.rename_family(Y, A) == x(1) ** 2 + q(1) * x(2) + a(1)
    assert (x(1) + y(1)).negate_family(Y) == x(1) - y(1)
    assert (y(1) ** 2).negate_family(Y) == y(1) ** 2


def test_rename_family_conflict():
    with pytest.raises(ValueError):
        (x(1) + y(1)).rename_family(X, Y)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.integers(min_value=1, max_value=3))
def test_q_partial_is_a_derivation(f, g, i):
    lhs = (f * g).q_partial(i)
    rhs = f.q_partial(i) * g + f * g.q_partial(i)
    assert lhs == rhs


def test_q_partial_values():
    assert (q(1) ** 3).q_partial(1) == 3 * q(1) ** 2
    assert (q(1) * x(1)).q_partial(2) == ZERO
    assert (q(2) * q(1)).q_partial(2) == q(1)


def test_determinant():
    m = [[x(1), y(1)], [q(1), x(2)]]
    assert determinant(m) == x(1) * x(2) - y(1) * q(1)
    assert determinant([[x(1)]]) == x(1)
    assert determinant([]) == ONE
    three = [
        [Poly.const(1), x(1), x(1) ** 2],
        [Poly.const(1), x(2), x(2) ** 2],
        [Poly.const(1), x(3), x(3) ** 2],
    ]
    vandermonde = (x(2) - x(1)) * (x(3) - x(1)) * (x(3) - x(2))
    assert determinant(three) == vandermonde
    with pytest.raises(NonSquare):
        determinant([[x(1), x(2)]])


def test_jacobi_trudi_matches_written_matrix():
    # entry depends on the index k, the row i and the column j
    def entry(k, i, j):
        return Poly.const(k) + x(i + 1) * y(j + 1)

    # lam = (3, 1) padded to size 3, mu = (1,) padded to (1, 0, 0)
    written = [
        [entry(2, 0, 0), entry(4, 0, 1), entry(5, 0, 2)],
        [entry(-1, 1, 0), entry(1, 1, 1), entry(2, 1, 2)],
        [entry(-3, 2, 0), entry(-1, 2, 1), entry(0, 2, 2)],
    ]
    assert jacobi_trudi(entry, (3, 1), (1,), size=3) == determinant(written)
    # the default size is len(lam), and mu defaults to empty
    assert jacobi_trudi(entry, (2, 2)) == determinant(
        [[entry(2, 0, 0), entry(3, 0, 1)], [entry(1, 1, 0), entry(2, 1, 1)]]
    )
    assert jacobi_trudi(entry, ()) == ONE
    # trailing zero parts are padding; a nonzero part past size is refused
    assert jacobi_trudi(entry, (2, 2, 0), (1, 0, 0), size=2) == jacobi_trudi(entry, (2, 2), (1,))
    with pytest.raises(ShapeOutOfBox):
        jacobi_trudi(lambda k, i, j: complete_sym(k, 3), (2, 1, 1), size=2)
    with pytest.raises(ShapeOutOfBox):
        jacobi_trudi(entry, (2, 1), (1, 1, 1))


def _cofactor(m) -> Poly:
    """Plain cofactor expansion along the first row."""
    if not m:
        return ONE
    return Poly.sum(
        (-1) ** j * e * _cofactor([r[:j] + r[j + 1 :] for r in m[1:]])
        for j, e in enumerate(m[0])
    )


def test_determinant_matches_cofactor_expansion(monkeypatch):
    rng = random.Random(8)
    gens = [x(1), x(2), x(3), y(1), y(2), q(1), q(2)]

    def entry() -> Poly:
        if rng.random() < 0.25:
            return Poly()
        terms = []
        for _ in range(rng.randint(1, 4)):
            t = Poly.const(rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 2)):
                t = t * rng.choice(gens)
            terms.append(t)
        return Poly.sum(terms)

    # every 1x1 minor is the shared constant 1, which is the second factor of
    # the very first multiplication; its first factors form the bottom row
    calls = []
    real = poly_module.pmul

    def spy(p1, p2, acc=None, c=1):
        calls.append((p1, p2))
        return real(p1, p2, acc, c)

    flips = set()
    for n in [1, 2] * 5 + [3, 4, 5] * 20:
        m = [[entry() for _ in range(n)] for _ in range(n)]
        want = _cofactor(m)
        calls.clear()
        monkeypatch.setattr(poly_module, "pmul", spy)
        assert determinant(m) == want
        monkeypatch.undo()
        if not calls:
            continue
        one = calls[0][1]
        bottom = [p1 for p1, p2 in calls if p2 is one]
        # the rule: expand the anti-transpose when the last column is heavier
        # than the first row; the expanded matrix's bottom row is then the
        # first column, else the last row
        flipped = sum(len(r[-1]) for r in m) > sum(len(e) for e in m[0])
        last_row = [e._terms for e in m[-1]]
        first_col = [r[0]._terms for r in m]
        line, other = (first_col, last_row) if flipped else (last_row, first_col)
        assert all(any(p is t for t in line) for p in bottom)
        if n > 1 and not all(any(p is t for t in other) for p in bottom):
            flips.add(flipped)
    assert flips == {False, True}


def test_determinant_overflow():
    # products inside a minor are checked as they are accumulated
    half = x(1) ** 64
    for m in ([[half, ZERO], [ZERO, half]], [[half, ONE], [y(1), half]]):
        with pytest.raises(ExponentOverflow):
            determinant(m)
    assert determinant([[x(1) ** 63, ONE], [ONE, x(1) ** 64]]) == x(1) ** 127 - 1


def test_determinant_frees_its_memo():
    # the memo of partial minors must go with the call, not wait for a gc pass
    m = [[q_complete(2 - i + j, i + 1) for j in range(4)] for i in range(4)]
    gc.disable()
    try:
        gc.collect()
        assert determinant(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_minors_give_the_leibniz_terms():
    # 16 distinct variables: the determinant is the 24 signed Leibniz terms,
    # through determinant and through a table whose keys come unsorted
    m = [[x(4 * i + j + 1) for j in range(4)] for i in range(4)]

    def leibniz(rows) -> Poly:
        total = Poly()
        for s in itertools.permutations(range(len(rows))):
            t = Poly.const(-1 if sum(a > b for a, b in itertools.combinations(s, 2)) % 2 else 1)
            for i, j in enumerate(s):
                t = t * rows[i][j]
            total = total + t
        return total

    want = leibniz(m)
    assert len(want) == 24 and sorted(want.terms.values()) == [-1] * 12 + [1] * 12
    assert determinant(m) == want
    table = Minors(lambda key: m["abcd".index(key)])
    # rows c, a, d, b: an odd permutation of the written order
    assert table.minor("cadb") == leibniz([m[2], m[0], m[3], m[1]]) == -want
    assert table.minor("abcd") == want
    # fewer keys take as many leading columns
    assert table.minor("ba") == leibniz([m[1][:2], m[0][:2]])
    assert table.minor("") == ONE


def test_parse_frees_its_state():
    gc.disable()
    try:
        gc.collect()
        assert parse("x1^2*x2 + 3*(x1 - q1)^2") == x(1) ** 2 * x(2) + 3 * (x(1) - q(1)) ** 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exponent_terms():
    # x alone: one tuple per term, no trailing zeros
    assert parse("x1^2*x3 - 3*x2").exponent_terms(X) == [((2, 0, 1), 1), ((0, 1), -3)]
    # mixed families: each term keeps only the asked family's exponents
    p = parse("x1^2*x3 + 4*y5*x1 - q2^3")
    assert sorted(p.exponent_terms(X)) == [((), -1), ((1,), 4), ((2, 0, 1), 1)]
    assert sorted(p.exponent_terms(Y)) == [((), -1), ((), 1), ((0, 0, 0, 0, 1), 4)]
    assert p.exponent_terms(Q) == [((), 1), ((), 4), ((0, 3), -1)]
    assert (x(MAX_INDEX) * a(2)).exponent_terms(X) == [((0,) * (MAX_INDEX - 1) + (1,), 1)]
    assert (x(1) ** 127).exponent_terms(X) == [((127,), 1)]
    # a constant and zero
    assert Poly.const(-5).exponent_terms(X) == [((), -5)]
    assert ONE.exponent_terms(A) == [((), 1)]
    assert ZERO.exponent_terms(X) == []


def test_combination():
    assert Poly.combination([(2, x(1)), (-1, x(1) + y(1)), (3, ONE)]) == parse("x1 - y1 + 3")
    assert Poly.combination([(1, x(1)), (-1, x(1))]) == ZERO
    assert Poly.combination([]) == ZERO


def test_divided_difference_and_division():
    f = x(1) ** 2 * x(2)
    assert f.divided_diff(1) == x(1) * x(2)
    assert f.divided_diff(1).divided_diff(1) == ZERO
    g = y(1) ** 2
    assert g.divided_diff(1, family=Y) == y(1) + y(2)


def test_json_form():
    p = x(1) ** 2 - q(1)
    obj = p.as_json_obj()
    assert obj["text"] == "x1^2 - q1"
    assert obj["terms"] == [[[["x", 1, 2]], 1], [[["q", 1, 1]], -1]]


def test_memoized_results_are_read_only():
    # q_schubert hands every caller the same memoized Poly, so writing into
    # one would change the answer for all later callers
    w = (2, 3, 1)
    p = q_schubert(w)
    with pytest.raises(TypeError):
        p.terms[0] = 1
    with pytest.raises(AttributeError):
        p.terms.clear()
    with pytest.raises(AttributeError):
        p.terms = {}
    assert q_schubert(w) == parse("x1*x2 + q1")
