"""Classical Schubert polynomials, divided differences and Schur bases.

Conventions: divided differences act as d_i f = (f - s_i f)/(v_i - v_{i+1}).
Single Schubert polynomials are peeled from the staircase monomial by d_i
in x, one length at a time.  Doubles are the Cauchy sums
S_w(x, y) = sum S_u(x) S_v(y) over the pairs of perms.weak_factorizations(w)
(v = u w^-1, l(u) + l(v) = l(w)), which equal the y-divided differences of
prod_{i+j<=n} (x_i + y_j) with d_i^(y) S_w = S_{s_i w}.  Both are stable
under adding trailing fixed points, and are computed at the minimal rank of w.
"""

from __future__ import annotations

from functools import cache

from . import perms
from ._kernels import padd, pdivdiff
from .errors import ForeignVariables
from .poly import Poly, X, Y, jacobi_trudi, monomial, vcode

Perm = perms.Perm


def staircase(n: int) -> Poly:
    """x^delta = x1^(n-1) x2^(n-2) ... x_{n-1}."""
    return monomial([(X, i, n - i) for i in range(1, n)])


@cache
def _single_layer(n: int, length: int) -> dict:
    """S_w for every w in S_n of the given length, by peeling right descents
    from the layer above; the top layer is w_0 alone."""
    if length == n * (n - 1) // 2:
        return {perms.longest(n): staircase(n)}
    layer = {}
    for w, f in _single_layer(n, length + 1).items():
        for i in perms.descents(w):
            v = perms.times_s(w, i)
            if v not in layer:
                layer[v] = f.divided_diff(i, X)
    return layer


@cache
def _monomial_expansions(n: int, length: int) -> dict:
    """Every monomial under the rank-n staircase of degree `length` in the
    Schubert basis, keyed by its exponents a = (a_1, ..., a_{n-1}):
    {a: {w: c}} with x^a = sum c S_w over the w in S_n of that length.

    The leader of S_w (Poly.leading_term) is x^code(w) with coefficient 1
    (Macdonald, Notes on Schubert Polynomials, 1991), and the codes of S_n
    less their last 0 are the exponents under the staircase, so each
    expansion is one triangular reduction with no divided differences.
    """
    layer = _single_layer(n, length)
    lead = {f.leading_term()[0]: (w, f) for w, f in layer.items()}
    out = {}
    for u in layer:
        a = perms.code(u)[:-1]
        out[a] = monomial([(X, i, e) for i, e in enumerate(a, 1)]).triangular_expand(lead)
    return out


def schubert(w: Perm) -> Poly:
    """The (classical, single) Schubert polynomial of w."""
    w = perms.check_perm(w)
    w = perms.trim(w)
    return _single_layer(len(w), perms.length(w))[w]


@cache
def schubert_in_y(w: Perm) -> Poly:
    """S_w(y): the Schubert polynomial of w in the y alphabet."""
    return schubert(w).rename_family(X, Y)


def double_schubert(w: Perm) -> Poly:
    """The double Schubert polynomial S_w(x, y)."""
    return _double_schubert(perms.trim(perms.check_perm(w)))


@cache
def _double_schubert(w: Perm) -> Poly:
    return Poly.sum(schubert(u) * schubert_in_y(v) for u, v in perms.weak_factorizations(w))


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
    return jacobi_trudi(lambda k, i, j: complete_sym(k, r), perms.check_partition(lam))


# -- expansion in the Schubert basis ------------------------------------------


def implied_rank(f: Poly) -> int:
    """The smallest N whose S_N Schubert polynomials span f: the largest
    i + e over the factors x_i^e of its terms (0 for a constant)."""
    # an index that does not occur adds i + 0, below the largest index's
    # own i + e, so it never gives the maximum
    return max((i + f.degree_in(X, i) for i in range(1, f.max_index(X) + 1)), default=0)


def schubert_expand(f: Poly) -> dict:
    """Coefficients c_w of f = sum c_w S_w (finite; exact integers).

    Only x variables are allowed.  The expansion is linear, so it is the sum
    of c times the expansion of x^m over the terms c x^m of f.  Each monomial
    is expanded once per process (_expand_monomial) and summed into a fresh
    dict, so the caller owns what it gets and the memo is never handed out.
    """
    bad = [(fam, idx) for fam, idx in f.variables() if fam != X]
    if bad:
        raise ForeignVariables(f"Schubert expansion needs x variables only, found {bad}")
    out: dict = {}
    for m, c in f.terms.items():
        padd(out, _expand_monomial(m), c)
    return out


@cache
def _expand_monomial(m: int) -> dict:
    """{w: c} with x^m = sum c S_w, for the packed x-monomial m; shared, so
    never mutate or return it.

    c_w is the constant term of d_w x^m; the walk shares prefixes across the
    weak order and prunes zero images.  It runs in S_N for N the monomial's
    implied_rank: its exponent vector a has a_i <= N - i, those monomials
    span the same space as the S_w with w in S_N, so d_w x^m = 0 for every w
    outside S_N, and each d_i keeps that span.  A node w is keyed by w^-1,
    the positions of its values: the step to s_i w goes up exactly when value
    i sits left of value i+1, and it swaps those two entries of w^-1, one
    lookup and one swap per step.  Nodes are kernel dicts, with the variable
    codes of x_1..x_N looked up once.
    """
    n = max(implied_rank(Poly({m: 1})), 1)
    codes = [vcode(X, i) for i in range(1, n + 1)]
    out = {}
    layer = {perms.identity(n): {m: 1}}
    while layer:
        nxt: dict = {}
        for pos, g in layer.items():
            c = g.get(0)
            if c:
                out[perms.trim(perms.inverse(pos))] = c
            for i in range(1, n):
                if pos[i - 1] > pos[i]:  # value i right of i+1: s_i w is shorter
                    continue
                v = pos[: i - 1] + (pos[i], pos[i - 1]) + pos[i + 1 :]
                if v in nxt:
                    continue
                h = pdivdiff(g, codes[i - 1], codes[i])
                if h:
                    nxt[v] = h
        layer = nxt
    return out
