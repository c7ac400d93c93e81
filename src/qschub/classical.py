"""Classical Schubert polynomials, divided differences and Schur bases.

Conventions: divided differences act as d_i f = (f - s_i f)/(v_i - v_{i+1}).
Single Schubert polynomials, in x or in y, descend from the staircase S_{w_0}
by S_w = d_i S_{w s_i} for the first ascent i of w, each along its own chain.
Doubles are the Cauchy sums S_w(x, y) = sum S_u(x) S_v(y) over the pairs of
perms.weak_factorizations(w) (v = u w^-1, l(u) + l(v) = l(w)), which equal
the y-divided differences of prod_{i+j<=n} (x_i + y_j) with d_i^(y) S_w =
S_{s_i w}.  Both are stable under adding trailing fixed points, and are
computed at the minimal rank of w.

Expansion in the Schubert basis uses no polynomial arithmetic: x^a is built
one factor x_i at a time from 1 = S_id, and Monk's rule (_monk) multiplies a
combination of S_w by x_i in the basis itself.  The one routine
(_expand_exponents) serves both schubert_expand and the table of staircase
monomials that quantum._q_schubert reads.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from . import perms
from ._kernels import padd
from .errors import ForeignVariables
from .poly import Poly, X, Y, jacobi_trudi, monomial

Perm = perms.Perm


def staircase(n: int, family: int = X) -> Poly:
    """x^delta = x1^(n-1) x2^(n-2) ... x_{n-1}, or its copy in another family."""
    return monomial([(family, i, n - i) for i in range(1, n)])


_SINGLES: dict = {X: {}, Y: {}}  # _schubert's memo: {family: {trimmed w: S_w}}


def _schubert(w: Perm, family: int) -> Poly:
    """S_w in one family for a trimmed w: the staircase if w is w_0, else
    d_i S_{w s_i} for the first ascent i of w (w s_i is trimmed too).  The chain
    is walked up in a loop to the first memoized w and built back down."""
    memo = _SINGLES[family]
    chain = []
    while w not in memo:
        if i := next((i for i in range(1, len(w)) if w[i - 1] < w[i]), 0):
            chain.append((w, i))
            w = perms.times_s(w, i)
        else:
            memo[w] = staircase(len(w), family)
    f = memo[w]
    for w, i in reversed(chain):
        memo[w] = f = f.divided_diff(i, family)
    return f


@cache
def _monomial_expansions(n: int, length: int) -> dict:
    """Every monomial under the rank-n staircase of degree `length` in the
    Schubert basis, read by Schubert polynomial: {w: [(a, c)]} with c the
    coefficient of S_w in x^a, each w trimmed and each list in increasing
    order of a.  The exponents a = (a_1, ..., a_{n-1}) are a code of S_n less
    its last 0 (_expand_exponents gives each x^a; the lists are shared, so
    never mutate them)."""
    out: dict = {}
    for a in product(*(range(n - i + 1) for i in range(1, n))):
        if sum(a) == length:
            for w, c in _expand_exponents(_trim_zeros(a)).items():
                out.setdefault(w, []).append((a, c))
    return out


def schubert(w: Perm) -> Poly:
    """The (classical, single) Schubert polynomial of w."""
    return _schubert(perms.trim(perms.check_perm(w)), X)


def schubert_in_y(w: Perm) -> Poly:
    """S_w(y): the Schubert polynomial of w in the y alphabet."""
    return _schubert(perms.trim(perms.check_perm(w)), Y)


def double_schubert(w: Perm) -> Poly:
    """The double Schubert polynomial S_w(x, y)."""
    return _double_schubert(perms.trim(perms.check_perm(w)))


@cache
def _double_schubert(w: Perm) -> Poly:
    return Poly.sum(schubert(u) * schubert_in_y(v) for u, v in perms.weak_factorizations(w))


# -- symmetric function bases -------------------------------------------------


def elem_sym(k: int, r: int, family: int = X) -> Poly:
    """e_k of the first r variables of a family; QschubError for a negative r."""
    return _elem_sym(k, perms.check_rank(r), family)


def complete_sym(k: int, r: int, family: int = X) -> Poly:
    """h_k of the first r variables of a family; QschubError for a negative r."""
    return _complete_sym(k, perms.check_rank(r), family)


# Both memos are filled bottom-up: a miss first asks for its k at every
# smaller alphabet, in increasing order, so its recurrence finds them memoized
# and recurses in k only, never once per variable of the alphabet.


@cache
def _elem_sym(k: int, r: int, family: int) -> Poly:
    if k < 0 or k > r:
        return Poly()
    if k == 0:
        return Poly.const(1)
    for s in range(k, r):
        _elem_sym(k, s, family)
    return _elem_sym(k, r - 1, family) + Poly.variable(family, r) * _elem_sym(
        k - 1, r - 1, family
    )


@cache
def _complete_sym(k: int, r: int, family: int) -> Poly:
    if k < 0 or (r == 0 and k > 0):
        return Poly()
    if k == 0:
        return Poly.const(1)
    for s in range(1, r):
        _complete_sym(k, s, family)
    return _complete_sym(k, r - 1, family) + Poly.variable(family, r) * _complete_sym(
        k - 1, r, family
    )


def schur(lam, r: int) -> Poly:
    """Schur polynomial s_lam(x_1..x_r) via the h-determinant; QschubError for
    a negative r."""
    perms.check_rank(r)
    return jacobi_trudi(lambda k, i, j: complete_sym(k, r), perms.check_partition(lam))


# -- expansion in the Schubert basis ------------------------------------------


def implied_rank(f: Poly) -> int:
    """The smallest N whose S_N Schubert polynomials span f: the largest
    i + e over the factors x_i^e of its terms (0 for a constant)."""
    # an index that does not occur adds i + 0, below the last index's i + e
    return max((i + e for a, _ in f.exponent_terms(X) for i, e in enumerate(a, 1)), default=0)


def schubert_expand(f: Poly) -> dict:
    """Coefficients c_w of f = sum c_w S_w (finite; exact integers).

    Only x variables are allowed.  The expansion is linear, so it is the sum
    of c times the expansion of x^a over the terms c x^a of f.  Each monomial
    is expanded once per process (_expand_exponents) and summed into a fresh
    dict, so the caller owns what it gets and the memo is never handed out.
    """
    bad = [(fam, idx) for fam, idx in f.variables() if fam != X]
    if bad:
        raise ForeignVariables(f"Schubert expansion needs x variables only, found {bad}")
    out: dict = {}
    for a, c in f.exponent_terms(X):
        padd(out, _expand_exponents(a), c)
    return out


def _trim_zeros(a: tuple[int, ...]) -> tuple[int, ...]:
    while a and not a[-1]:
        a = a[:-1]
    return a


# _expand_exponents' memo: {a: {w: c}}, seeded with x^() = 1 = S_id
_EXPANSIONS: dict = {(): {(1,): 1}}


def _expand_exponents(a: tuple[int, ...]) -> dict:
    """{w: c} with x^a = sum c S_w, each w trimmed, for exponents a with no
    trailing zero; shared, so never mutate or return it.

    x^a = x_i x^b for i = len(a) and b = a with a_i lowered by one, so Monk's
    rule (_monk) carries the expansion of x^b to that of x^a, and the memo
    shares the prefixes of every monomial it has seen.  The chain of such b
    is walked down in a loop to the first one memoized and built back up, so
    a monomial of any degree takes no recursion.
    """
    chain = []
    while a not in _EXPANSIONS:
        chain.append(a)
        a = _trim_zeros(a[:-1] + (a[-1] - 1,))
    got = _EXPANSIONS[a]
    for a in reversed(chain):
        out: dict = {}
        for w, c in got.items():
            _monk(w, len(a), c, out)
        _EXPANSIONS[a] = got = out
    return got


def _monk(w: Perm, i: int, c: int, out: dict) -> None:
    """Add c * x_i * S_w into out, a {trimmed w: coefficient} dict, by Monk's
    rule: x_i S_w = sum_{k>i} S_{w t_ik} - sum_{j<i} S_{w t_ji} over the
    transpositions that raise the length by exactly one, those whose two
    positions hold no value between theirs in between.  w is first padded
    with fixed points to rank max(len(w), i) + 1: a swap of position i with a
    position past that rank would jump over the value at its end.
    """
    n = max(len(w), i) + 1
    w = w + tuple(range(len(w) + 1, n + 1))
    u = w[i - 1]
    swaps = []
    # scanning away from position i, a swap is a cover while its value is the
    # closest to u (on its side) seen so far
    top = n + 1
    for k in range(i, n):
        if u < w[k] < top:
            top = w[k]
            swaps.append((k, c))
    bottom = 0
    for j in range(i - 2, -1, -1):
        if bottom < w[j] < u:
            bottom = w[j]
            swaps.append((j, -c))
    for k, s in swaps:
        v = list(w)
        v[i - 1], v[k] = v[k], u
        v = perms.trim(tuple(v))
        s += out.get(v, 0)
        if s:
            out[v] = s
        else:
            del out[v]
