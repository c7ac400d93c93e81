"""Polynomial kernel over packed exponent vectors.

A polynomial is a dict mapping monomials to nonzero int coefficients.  A
monomial is one non-negative int, a packed exponent vector in the manner of
Monagan and Pearce ("Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): variable code s owns the byte at bits
[8s, 8s + 8), which holds its exponent.  The constant monomial is 0.  Which
variable has which code is the caller's business (see poly.py).  padd and
pmul write into a dict they are given (an accumulator); pswap and pdivdiff
return a new dict.

The top bit of every byte is a guard bit, so exponents run from 0 to
MAX_EXP = 127.  Two guard-free monomials multiply by int addition without
any byte carrying into the next, and a product's exponent past MAX_EXP shows
as a set guard bit, which pmul turns into ExponentOverflow.  No other
operation here raises an exponent.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import ExponentOverflow

WIDTH = 8
FIELD = (1 << WIDTH) - 1
MAX_EXP = FIELD >> 1
# codes allowed per monomial: 4 KiB of bytes, so GUARD covers every monomial
MAX_CODES = 4096
GUARD = int.from_bytes(bytes([MAX_EXP + 1]) * MAX_CODES, "little")


def padd(acc: dict, p: dict, c: int = 1) -> dict:
    """Add c * p into acc in place and return acc; p itself is left alone.

    The one linear op: every sum, difference and scalar multiple is built by
    accumulating into a dict the caller owns.  p must not be acc.
    """
    if not c or not p:
        return acc
    if not acc:
        # an empty accumulator takes a copy at C speed
        acc.update(p if c == 1 else {m: c * k for m, k in p.items()})
        return acc
    get = acc.get
    for m, k in p.items():
        s = get(m, 0) + c * k
        if s:
            acc[m] = s
        else:
            del acc[m]
    return acc


def pmul(p1: dict, p2: dict, acc: dict | None = None, c: int = 1) -> dict:
    """Add c * p1 * p2 into acc in place and return acc (a new dict when acc
    is None); ExponentOverflow past MAX_EXP.

    The one multiply loop: each product term goes straight into the
    accumulator, so no temporary product is built and walked again.  Neither
    p1 nor p2 may be acc.
    """
    if acc is None:
        acc = {}
    if not c or not p1 or not p2:
        return acc
    if len(p1) > len(p2):
        p1, p2 = p2, p1
    get = acc.get
    items2 = p2.items()
    for m1, c1 in p1.items():
        c1 *= c
        for m2, c2 in items2:
            m = m1 + m2
            s = get(m, 0) + c1 * c2
            if s:
                acc[m] = s
            else:
                del acc[m]
    # acc came in guard-free, so a guard bit can only be this call's doing
    if reduce(or_, acc, 0) & GUARD:
        raise ExponentOverflow(f"a product has an exponent above {MAX_EXP}")
    return acc


def pswap(p: dict, u: int, v: int) -> dict:
    """Exchange the variables with codes u and v throughout p."""
    su, sv = WIDTH * u, WIDTH * v
    step = (1 << su) - (1 << sv)
    return {m + (((m >> sv) & FIELD) - ((m >> su) & FIELD)) * step: c for m, c in p.items()}


def pdivdiff(p: dict, u: int, v: int) -> dict:
    """(p - pswap(p, u, v)) / (u - v), computed monomial by monomial.

    For a monomial u^a v^b r the quotient telescopes to
    sign * sum_t u^t v^(a+b-1-t) r over t in [min(a,b), max(a,b)), so no
    division happens and the result is exact.  Consecutive terms differ by
    one u over one v, i.e. by the int step (1 << 8u) - (1 << 8v).
    """
    su, sv = WIDTH * u, WIDTH * v
    bu, bv = 1 << su, 1 << sv
    step = bu - bv
    out: dict = {}
    get = out.get
    for m, c in p.items():
        a = (m >> su) & FIELD
        b = (m >> sv) & FIELD
        if a > b:
            # the first term is u^b v^(a-1) r
            n, s = a - b, c
            mm = m - n * bu + (n - 1) * bv
        elif a < b:
            # the first term is u^a v^(b-1) r
            n, s = b - a, -c
            mm = m - bv
        else:
            continue
        while True:
            k = get(mm, 0) + s
            if k:
                out[mm] = k
            else:
                del out[mm]
            n -= 1
            if not n:
                break
            mm += step
    return out
