"""Classical Schubert polynomials, divided differences and Schur bases.

Conventions: divided differences act as d_i f = (f - s_i f)/(v_i - v_{i+1});
for a reduced word w = s_{a_1} ... s_{a_p} the operator d_w applies d_{a_p}
first.  Single Schubert polynomials come from d-chains on the staircase
monomial, doubles from chains on prod_{i+j<=n} (x_i + y_j) acting on the y
alphabet (so d_i^(y) S_w = S_{s_i w}).  Both are stable under adding trailing
fixed points, and are computed at the minimal rank of w.
"""

from __future__ import annotations

from functools import cache

from . import perms
from .errors import ForeignVariables
from .poly import Poly, Q, X, Y, determinant, monomial, x, y

Perm = perms.Perm


def apply_word(f: Poly, word, family: int = X) -> Poly:
    """Apply d_{a_1} o ... o d_{a_p} (rightmost letter first)."""
    for i in reversed(tuple(word)):
        f = f.divided_diff(i, family)
    return f


def staircase(n: int) -> Poly:
    """x^delta = x1^(n-1) x2^(n-2) ... x_{n-1}."""
    return monomial([(X, i, n - i) for i in range(1, n)])


def double_staircase(n: int) -> Poly:
    """prod_{i+j<=n} (x_i + y_j), the top double Schubert polynomial."""
    out = Poly.const(1)
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            out = out * (x(i) + y(j))
    return out


@cache
def _single_table(n: int) -> dict:
    """S_w for every w in S_n, by peeling right descents from w_0."""
    w0 = perms.longest(n)
    table = {w0: staircase(n)}
    layer = [w0]
    while layer:
        nxt = []
        for w in layer:
            f = table[w]
            for i in perms.descents(w):
                v = perms.times_s(w, i)
                if v not in table:
                    table[v] = f.divided_diff(i, X)
                    nxt.append(v)
        layer = nxt
    return table


@cache
def _double_table(n: int) -> dict:
    """S_w(x,y) for every w in S_n; left descents peel via y-differences."""
    w0 = perms.longest(n)
    table = {w0: double_staircase(n)}
    layer = [w0]
    while layer:
        nxt = []
        for w in layer:
            f = table[w]
            for i in perms.descents(perms.inverse(w)):
                v = perms.compose(_s(n, i), w)
                if v not in table:
                    table[v] = f.divided_diff(i, Y)
                    nxt.append(v)
        layer = nxt
    return table


def _s(n: int, i: int) -> Perm:
    return perms.times_s(perms.identity(n), i)


def schubert(w: Perm) -> Poly:
    """The (classical, single) Schubert polynomial of w."""
    w = perms.check_perm(w)
    w = perms.trim(w)
    return _single_table(len(w))[w]


def double_schubert(w: Perm) -> Poly:
    """The double Schubert polynomial S_w(x, y)."""
    w = perms.check_perm(w)
    w = perms.trim(w)
    return _double_table(len(w))[w]


# -- symmetric function bases -------------------------------------------------


@cache
def elem_sym(k: int, r: int, family: int = X) -> Poly:
    """e_k of the first r variables of a family."""
    if k < 0 or k > r:
        return Poly()
    if k == 0:
        return Poly.const(1)
    return elem_sym(k, r - 1, family) + Poly.variable(family, r) * elem_sym(
        k - 1, r - 1, family
    )


@cache
def complete_sym(k: int, r: int, family: int = X) -> Poly:
    """h_k of the first r variables of a family."""
    if k < 0 or (r == 0 and k > 0):
        return Poly()
    if k == 0:
        return Poly.const(1)
    return complete_sym(k, r - 1, family) + Poly.variable(family, r) * complete_sym(
        k - 1, r, family
    )


def schur(lam, r: int) -> Poly:
    """Schur polynomial s_lam(x_1..x_r) via the h-determinant."""
    lam = perms.check_partition(lam)
    m = len(lam)
    return determinant(
        [[complete_sym(lam[i] - i + j, r) for j in range(m)] for i in range(m)]
    )


def flagged_schur(lam, flags, mu=None) -> Poly:
    """Row-flagged (skew) Schur polynomial det(h_{lam_i - mu_j - i + j}(X_{f_i}))."""
    lam = perms.check_partition(lam)
    perms.check_flags(lam, flags)
    m = len(lam)
    mu = tuple(mu or ()) + (0,) * (m - len(mu or ()))
    return determinant(
        [
            [complete_sym(lam[i] - mu[j] - i + j, flags[i]) for j in range(m)]
            for i in range(m)
        ]
    )


# -- expansion in the Schubert basis ------------------------------------------


def implied_rank(f: Poly) -> int:
    """The smallest N whose S_N Schubert polynomials span f: the largest
    i + e over the factors x_i^e of its terms (0 for a constant)."""
    # an index that does not occur adds i + 0, below the largest index's
    # own i + e, so it never gives the maximum
    return max((i + f.degree_in(X, i) for i in range(1, f.max_index(X) + 1)), default=0)


def schubert_expand(f: Poly) -> dict:
    """Coefficients c_w of f = sum c_w S_w (finite; exact integers).

    Only x variables are allowed.  c_w is the constant term of d_w f; the
    walk shares prefixes across the weak order and prunes zero images.

    The walk runs in S_N for N = implied_rank(f).  Every exponent vector a
    of f has a_i <= N - i, and those monomials span the same space as the
    S_w with w in S_N, so d_w f = 0 for every w outside S_N; each d_i keeps
    that span.  A node w is keyed by w^-1, the positions of its values: the
    step to s_i w goes up exactly when value i sits left of value i+1, and
    it swaps those two entries of w^-1, one lookup and one swap per step.
    """
    bad = [(fam, idx) for fam, idx in f.variables() if fam != X]
    if bad:
        raise ForeignVariables(f"Schubert expansion needs x variables only, found {bad}")
    if not f:
        return {}
    out = {}
    layer = {perms.identity(max(implied_rank(f), 1)): f}
    while layer:
        nxt: dict = {}
        for pos, g in layer.items():
            c = g.constant_term()
            if c:
                out[perms.trim(perms.inverse(pos))] = c
            # g stays in the span of S_N, so its variables stop short of x_N
            for i in range(1, g.max_index(X) + 1):
                if pos[i - 1] > pos[i]:  # value i right of i+1: s_i w is shorter
                    continue
                v = perms.times_s(pos, i)
                if v in nxt:
                    continue
                h = g.divided_diff(i, X)
                if h:
                    nxt[v] = h
        layer = nxt
    return out
