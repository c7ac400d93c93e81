"""Algebra checks for the packed-exponent polynomial kernel.

Polynomials are built through the Poly API, so the monomials are the packed
ints the library itself produces; the kernel functions then run on copies of
their term dicts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub import _kernels, poly
from qschub._kernels import padd, pdivdiff, pmul, pswap
from qschub.errors import ExponentOverflow
from qschub.poly import A, Q, X, Y, Poly, monomial, vcode, x

U, V = vcode(X, 1), vcode(X, 2)


@st.composite
def monomial_triples(draw):
    """(family, index, exponent) triples over x1..x4 and q1..q3."""
    names = draw(
        st.lists(
            st.sampled_from([(0, i) for i in range(1, 5)] + [(2, i) for i in range(1, 4)]),
            unique=True,
            max_size=4,
        )
    )
    return [(f, i, draw(st.integers(min_value=1, max_value=3))) for f, i in names]


@st.composite
def polys(draw):
    p = Poly.sum(
        monomial(draw(monomial_triples()), draw(st.integers(min_value=-6, max_value=6)))
        for _ in range(draw(st.integers(min_value=0, max_value=5)))
    )
    return dict(p.terms)


@settings(max_examples=60, deadline=None)
@given(monomial_triples(), monomial_triples())
def test_mono_mul_parity_and_form(t1, t2):
    # the packed product of two monomials is the monomial of the summed
    # exponents, and it decodes to positive exponents in print order
    (m1,), (m2,) = monomial(t1).terms, monomial(t2).terms
    prod = monomial(t1 + t2)
    assert prod.terms == {m1 + m2: 1} == pmul({m1: 1}, {m2: 1})
    ((factors, c),) = prod.factored_terms()
    assert c == 1
    assert all(e > 0 for _, _, e in factors)
    assert factors == sorted(factors, key=lambda t: ((Q, X, Y, A).index(t[0]), t[1]))


@settings(max_examples=80, deadline=None)
@given(polys(), polys())
def test_ring_laws(p1, p2):
    assert padd(dict(p1), p2) == padd(dict(p2), p1)
    assert padd(padd(dict(p1), p2), p2, -1) == p1
    assert padd(dict(p1), p1, -1) == {}
    assert pmul(p1, p2) == pmul(p2, p1)
    assert padd({}, p1, 3) == padd(padd(dict(p1), p1), p1)


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.integers(min_value=-3, max_value=3))
def test_padd_accumulates_in_place(p1, p2, c):
    acc, before = dict(p1), dict(p2)
    got = padd(acc, p2, c)
    # the accumulator is the result, and only it changes
    assert got is acc
    assert p2 == before
    assert acc == {m: k for m in p1.keys() | p2.keys() if (k := p1.get(m, 0) + c * p2.get(m, 0))}
    # cancelled monomials are deleted, never kept with coefficient 0
    assert 0 not in acc.values()


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), polys(), st.integers(min_value=-3, max_value=3))
def test_pmul_accumulates_in_place(acc0, p1, p2, c):
    acc, before1, before2 = dict(acc0), dict(p1), dict(p2)
    got = pmul(p1, p2, acc, c)
    assert got is acc
    assert (p1, p2) == (before1, before2)
    want = dict(acc0)
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            want[m1 + m2] = want.get(m1 + m2, 0) + c * c1 * c2
    assert acc == {m: k for m, k in want.items() if k}
    # cancelled monomials are deleted, never kept with coefficient 0
    assert 0 not in acc.values()
    # without an accumulator the product goes into a new dict
    assert pmul(p1, p2, None, c) == pmul(p1, p2, {}, c) == padd({}, pmul(p1, p2), c)


def test_pmul_cancels_into_the_accumulator():
    sq = dict((x(1) * x(2)).terms)
    acc = {**sq, 1: 5}
    assert pmul(dict(x(1).terms), dict(x(2).terms), acc, -1) is acc
    assert acc == {1: 5}


def test_pmul_overflow_survives_accumulation():
    half = dict((x(1) ** 64).terms)
    for acc in (None, {}, {0: 1}, dict(half)):
        with pytest.raises(ExponentOverflow):
            pmul(half, half, acc)


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_padd_zero_scale_is_a_no_op(p1, p2):
    acc = dict(p1)
    assert padd(acc, p2, 0) is acc
    assert acc == p1
    assert padd({}, p2, 0) == {}


@settings(max_examples=80, deadline=None)
@given(polys())
def test_swap_involution_and_divdiff(p):
    assert pswap(pswap(p, U, V), U, V) == p
    d = pdivdiff(p, U, V)
    # f - swap(f) == (x_u - x_v) * divdiff(f)
    lhs = padd(dict(p), pswap(p, U, V), -1)
    assert pmul(dict((x(1) - x(2)).terms), d) == lhs
    # divided differences square to zero
    assert pdivdiff(d, U, V) == {}


def test_kernel_ops():
    # padd is the one linear op; pswap stays as the reference for the
    # divided-difference identity above
    ops = {name for name, obj in vars(_kernels).items() if callable(obj) and name.startswith("p")}
    assert ops == {"padd", "pmul", "pswap", "pdivdiff"}


def test_poly_uses_selected_kernel():
    # Poly's ring operations go through the kernel's functions by name, so a
    # wrapper bound in their place sees every call
    for name in ("padd", "pmul", "pdivdiff"):
        assert getattr(poly, name) is getattr(_kernels, name)
    p = Poly.const(1)
    assert p * p == p
