"""Quantum Schubert polynomials, quantum Schur-type functions, quantization.

The quantum elementary polynomials follow the three-term recurrence
e~_k(X_r) = e~_k(X_{r-1}) + x_r e~_{k-1}(X_{r-1}) + q_{r-1} e~_{k-2}(X_{r-2}),
i.e. they are the expansion coefficients of the tridiagonal determinant
Delta_k(t|X_k) = sum_i e~_i(X_k) t^{k-i}.  The top double polynomial is
prod_{i=1}^{n-1} Delta_i(y_{n-i}|X_i); S~_w(x, y) is its image under the
y divided difference d^y_v, v = w w_0, and the single polynomials set y = 0.

The y divided differences never touch x or q, so with the top polynomial
written as sum_a y^a P_a(x, q) (grouped by y-monomial) S~_w(x) =
sum_a d^y_v(y^a) P_a over the y^a of degree exactly l(v), where each
d^y_v(y^a) is an integer: the coefficient of S_v in the monomial y^a, read
from a table of classical expansions built by Monk's rule
(classical._monomial_expansions, which lists the pairs (a, k_a) of each v)
with no chain at all.  Each factor has a y variable of its own, so y^a picks
one term of every factor and P_a = prod_i e~_{i-a_{n-i}}(X_i), for the
exponents a = (a_1, ..., a_{n-1}), a Lehmer code of S_n less its last 0.

Both families are stable, since e~_k(X_r) does not depend on the rank
(Fomin, Gelfand and Postnikov): trailing fixed points of w change neither, so
each is memoized at w without them (perms.trim), as in the classical layer.
The singles are evaluated at rank n = max(len(w), 4), so the three innermost
factors below are always there.

No P_a is built: the sum is evaluated by the distributive law, from X_{n-1}
inward.  The pairs that share a_1 share the factor e~_{n-1-a_1}(X_{n-1}), so
S~_w = sum_d e~_{n-1-d}(X_{n-1}) * (the sum over the pairs with a_1 = d of
k_a prod_{i<n-1} e~_{i-a_{n-i}}(X_i)), and that sum is grouped on a_2 at
X_{n-2} the same way, down to X_4.  Below it the three innermost factors
prod_{i<=3} e~_{i-a_{n-i}}(X_i) come from a memo of 24 entries that serves
every rank (_inner), and each level multiplies into one accumulator
(poly.nested_sum).  Grouping on a_{n-1} at X_1 first took 1.7 times as long
over S_6, and the smaller leaf at X_2 ran the median permutation of S_6 about
a tenth slower.

The doubles come from the singles by the Cauchy formula
S~_w(x, y) = sum S~_u(x) S_v(y) over the pairs of perms.weak_factorizations(w)
(v = u w^-1, l(u) + l(v) = l(w)), Kirillov and Maeno's definition
("Quantum double Schubert polynomials, quantum Schubert polynomials and
Vafa-Intriligator formula", q-alg/9610022); at q = 0 it gives the classical
double, built the same way in classical.double_schubert.

Every determinantal family here is poly.jacobi_trudi with its own entry.
The e~ determinants whose column j is written at the alphabet X_{r+j}
(q_schur, q_grassmannian_double) are evaluated at X_{r+ceil(j/2)} instead,
through e_jacobi_trudi: column operations by the recurrence above move every
column down to the smallest alphabet they can reach, so the value is the same
and the entries are smaller.  The h~ table q_complete stays on the direct form
(see there).

Memo policy.  Every memo here descends from e~ and is defined under _e_memo,
which wraps it in functools.lru_cache and lists it in _E_MEMOS for
set_elementary_override to clear.  Each is keyed on normalized arguments after
every check, so a refused input never enters it, and holds read-only values (a
memoized Poly also keeps its default text(), so a repeated request skips the
render).  q_schur and q_monomial keep results only up to the desk-scale rank
DEFAULT_MAX_N: the default identity sweep calls q_schur at ranks 7-8 with no
repeats.  q_flagged keeps only its last determinant (_FLAGGED_MEMO_SIZE).
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Sequence

from . import classical, perms
from .errors import (
    BadFlag,
    CompositionOutOfBox,
    NotDominant,
    NotGrassmannian,
    NotRestrictedVexillary,
    RankTooLarge,
    ShapeOutOfBox,
)
from .poly import Poly, Q, X, Y, jacobi_trudi, nested_sum, q, x, y

Perm = perms.Perm

# the desk-scale rank: quantize refuses a polynomial that implies more, and the
# CLI's --max-n defaults to it
DEFAULT_MAX_N = 6

# overridable elementary polynomials: the verification suites use this hook to
# inject a corrupted e~ and prove the identity checks actually bite
_override: Callable[[int, int], Poly | None] | None = None

# every memo in this module, all descending from e~: cleared whenever the
# override changes
_E_MEMOS: list = []


def _e_memo(fn: Callable, maxsize: int | None = None):
    """fn under functools.lru_cache(maxsize), listed in _E_MEMOS."""
    _E_MEMOS.append(memo := lru_cache(maxsize)(fn))
    return memo


@_e_memo
def q_elementary(k: int, r: int) -> Poly:
    """The quantum elementary polynomial e~_k(X_r)."""
    if k < 0 or k > r:
        return Poly()
    if k == 0:
        return Poly.const(1)
    if _override is not None:
        forced = _override(k, r)
        if forced is not None:
            return forced
    # the memo is filled bottom-up: e~_k of every smaller alphabet first, in
    # increasing order, so the recurrence below finds them memoized and
    # recurses in k only, never once per variable of the alphabet
    for s in range(k, r):
        q_elementary(k, s)
    got = q_elementary(k, r - 1) + x(r) * q_elementary(k - 1, r - 1)
    if k >= 2 and r >= 2:
        got = got + q(r - 1) * q_elementary(k - 2, r - 2)
    return got


def delta(k: int, t: Poly) -> Poly:
    """Delta_k(t|X_k) = sum_{i=0}^{k} e~_i(X_k) t^{k-i}."""
    return Poly.sum(q_elementary(i, k) * t ** (k - i) for i in range(k + 1))


def e_jacobi_trudi(
    entry: Callable[[int, int, int], Poly], lam: Sequence[int], r: int, size: int | None = None
) -> Poly:
    """det(entry(lam_i - i + j, i, r + j)), evaluated as
    det(entry(lam_i - i + j, i, r + ceil(j/2))), 0 <= i, j < size.

    entry(k, i, m) is a degree-k e~ of the alphabet X_m, with whatever row i
    adds (e~_k(X_m) itself, or e~_k(X_m - Y) for a Y fixed along the row), so
    by the recurrence
    entry(k, i, m) - x_m entry(k-1, i, m-1) - q_{m-1} entry(k-2, i, m-2)
    = entry(k, i, m-1).
    In the written matrix column j - 1 and column j - 2 hold degrees one and
    two lower at X_{r+j-1} and X_{r+j-2}, so subtracting x_{r+j} times column
    j - 1 and q_{r+j-1} times column j - 2 from column j turns it into the same
    column at X_{r+j-1}, and leaves the determinant unchanged.  Passes from
    right to left over j >= 2, then j >= 4, then j >= 6, ... each lower every
    column they touch by one; a pass stops where the two columns to its left
    are no longer at consecutive alphabets, which leaves column j at
    X_{r+ceil(j/2)}.  Only ranks m >= r + 2 use the recurrence, so with r >= 1
    an e~ overridden at rank 2 or below (set_elementary_override) gives the
    two forms the same value.
    """
    return jacobi_trudi(lambda d, i, j: entry(d, i, r + (j + 1) // 2), lam, size=size)


@_e_memo
def q_complete(k: int, r: int) -> Poly:
    """The quantum complete polynomial h~_k(X_r), as an e~ determinant."""
    if k < 0:
        return Poly()
    if k == 0:
        return Poly.const(1)
    # the direct X_{r+j} columns, not e_jacobi_trudi: h~ feeds both sides of
    # the h-determinant and dual identities, and the larger alphabets keep a
    # corrupted high e~ visible there (one term's sign flipped in e~_4(X_5) or
    # e~_5(X_5) failed 67 and 62 cases of the default sweep with the reduced
    # form, 237 and 215 with this one); the 39 h~ the sweep asks for cost
    # about 20 ms
    return jacobi_trudi(lambda d, i, j: q_elementary(d, r + j), (1,) * k)


@_e_memo
def q_xy_elementary(m: int, k: int, l: int) -> Poly:
    """e~_m(X_k - Y_l) = sum_j e~_{m-j}(X_k) h_j(Y_l)."""
    return Poly.sum(
        q_elementary(m - j, k) * hj
        for j in range(m + 1)
        if (hj := classical.complete_sym(j, l, Y))
    )


@_e_memo
def q_xy_complete(m: int, k: int, l: int) -> Poly:
    """h~_m(X_k - Y_l) = sum_j h~_{m-j}(X_k) e_j(Y_l)."""
    return Poly.sum(
        q_complete(m - j, k) * classical.elem_sym(j, l, Y) for j in range(min(m, l) + 1)
    )


# -- the top cell and its nested sums ------------------------------------------


@_e_memo
def q_w0_double(n: int) -> Poly:
    """S~_{w_0}(x, y) = prod_{i=1}^{n-1} Delta_i(y_{n-i} | X_i)."""
    got = Poly.const(1)
    for i in range(1, n):
        got = got * delta(i, y(n - i))
    return got


@_e_memo
def _inner(d: tuple[int, int, int]) -> Poly:
    """prod_{i<=3} e~_{i-d_i}(X_i) for d = (d_3, d_2, d_1): the three innermost
    factors of a product P_a, at the exponents of the y's they carry."""
    d3, d2, d1 = d
    return q_elementary(3 - d3, 3) * q_elementary(2 - d2, 2) * q_elementary(1 - d1, 1)


def _embed(w: Perm, n: int | None) -> Perm:
    return perms.trim(perms.check_fits(perms.check_perm(w), n))


def q_double_schubert(w: Perm, n: int | None = None) -> Poly:
    """S~_w(x, y); n only checks that w fits."""
    return _q_double_schubert(_embed(w, n))


@_e_memo
def _q_double_schubert(w: Perm) -> Poly:
    return Poly.sum(
        _q_schubert(perms.trim(u)) * classical.schubert_in_y(v)
        for u, v in perms.weak_factorizations(w)
    )


def q_schubert(w: Perm, n: int | None = None) -> Poly:
    """The quantum Schubert polynomial S~_w(x); n only checks that w fits."""
    return _q_schubert(_embed(w, n))


@_e_memo
def _q_schubert(w: Perm) -> Poly:
    # y = 0 keeps only the y-degree-l(v) part of the top cell, sum_a k_a P_a
    # with k_a = d^y_v(y^a) the coefficient of S_v in y^a; evaluated at rank
    # n >= 4, so that the three innermost factors of every P_a are _inner's
    n = max(len(w), 4)
    w = w + tuple(range(len(w) + 1, n + 1))
    v = perms.trim(perms.compose(w, perms.longest(n)))
    pairs = classical._monomial_expansions(n, perms.length(v))[v]
    # a_{j+1} (a[j]) is the exponent of the y that X_{n-1-j}'s factor carries
    return nested_sum(pairs, lambda j, d: q_elementary(n - 1 - j - d, n - 1 - j), _inner, n - 4)


def quantize(f: Poly, n: int | None = None, max_n: int = DEFAULT_MAX_N) -> Poly:
    """Quantization: expand in Schubert polynomials, substitute the quantum
    ones, then project to the rank-n ring (x_{>n} and q_{>=n} vanish).

    The default n is the largest minimal rank among the support permutations,
    which leaves every deformation term the expansion produces alive.
    RankTooLarge, before any work, when f implies a rank above max_n
    (classical.implied_rank): the quantum Schubert polynomials of its
    expansion run at ranks up to that one, whatever n is, and their cost grows
    fast with the rank.  A negative n is refused (perms.check_rank).
    """
    if n is not None:
        perms.check_rank(n)
    rank = classical.implied_rank(f)
    if rank > max_n:
        raise RankTooLarge(f"rank {rank} implied by the polynomial exceeds max_n {max_n}")
    expansion = classical.schubert_expand(f)
    if not expansion:
        return Poly()
    if n is None:
        n = max(len(w) for w in expansion)
    total = Poly.combination((c, q_schubert(w)) for w, c in expansion.items())
    return coeff_window(total, n, n - 1)


# -- determinantal families ----------------------------------------------------


def q_schur(lam, r: int, n: int) -> Poly:
    """Quantum Schur function s~_lam(X_r) inside rank n (lam in an r x (n-r) box):
    det(e~_{lam'_i - i + j}(X_{r+j})) over 0 <= i, j < n - r, evaluated with
    column j at X_{r+ceil(j/2)} (e_jacobi_trudi; the same value)."""
    lam = perms.check_partition(lam)
    if not perms.fits_box(lam, r, n - r):
        raise ShapeOutOfBox(f"{lam} does not fit in a {r}x{n - r} box")
    return (_q_schur if n <= DEFAULT_MAX_N else _q_schur.__wrapped__)(lam, r, n)


@_e_memo
def _q_schur(lam: perms.Partition, r: int, n: int) -> Poly:
    return e_jacobi_trudi(lambda d, i, m: q_elementary(d, m), perms.conjugate(lam), r, n - r)


def q_monomial(alpha: Sequence[int], n: int) -> Poly:
    """Quantization x~^alpha of the monomial x^alpha, alpha under the staircase."""
    perms.check_rank(n)
    alpha = tuple(alpha)
    if any(e < 0 for e in alpha):
        raise CompositionOutOfBox(f"{alpha} has a negative exponent")
    if len(alpha) > max(n - 1, 0) and any(alpha[n - 1 :]):
        raise CompositionOutOfBox(f"{alpha} has entries at or past position {n}")
    alpha = (alpha + (0,) * n)[: n - 1]
    if any(alpha[i] > n - 1 - i for i in range(n - 1)):
        raise CompositionOutOfBox(f"{alpha} is not bounded by the staircase of rank {n}")
    return (_q_monomial if n <= DEFAULT_MAX_N else _q_monomial.__wrapped__)(alpha, n)


@_e_memo
def _q_monomial(alpha: tuple[int, ...], n: int) -> Poly:
    return jacobi_trudi(lambda d, i, j: q_complete(d, i + 1), alpha, size=n - 1)


def q_flagged(lam, mu=(), xflags=(), yflags=None) -> Poly:
    """Flagged (skew) quantum Schur determinant
    det(h~_{lam_i - mu_j - i + j}(X_{xflags_i} - Y_{yflags_i})).

    Row i takes the difference alphabet X_{xflags_i} - Y_{yflags_i}; with
    yflags None every row takes X_{xflags_i} alone.
    """
    lam = perms.check_partition(lam)
    mu = perms.check_partition(mu)
    perms.check_flags(lam, xflags)
    if yflags is not None:
        if len(yflags) != len(lam):
            raise ShapeOutOfBox(f"{len(lam)} y flags required, got {len(yflags)}")
        if any(f < 0 for f in yflags):
            raise BadFlag("y flags must be nonnegative")
        yflags = tuple(yflags)
    return _q_flagged(lam, mu, tuple(xflags), yflags)


# suite_vexillary checks rv-flagged, rv-double and dominant-double for each w
# in turn, and for a dominant w the last two are the same determinant, so one
# entry serves the third case from the second; the memo depends on that order.
# Keeping every result raised the default sweep's peak memory by about 1.5 MiB.
_FLAGGED_MEMO_SIZE = 1


@partial(_e_memo, maxsize=_FLAGGED_MEMO_SIZE)
def _q_flagged(lam, mu, xflags, yflags) -> Poly:
    if yflags is None:
        return jacobi_trudi(lambda d, i, j: q_complete(d, xflags[i]), lam, mu)
    return jacobi_trudi(lambda d, i, j: q_xy_complete(d, xflags[i], yflags[i]), lam, mu)


def set_elementary_override(fn: Callable[[int, int], Poly | None] | None) -> None:
    """Install (or remove, with None) an e~ override.

    Every memo derived from e~ (e~, h~, their difference-alphabet forms, the
    top cell and its inner products, single and double quantum Schubert
    polynomials, quantum Schur functions, quantized monomials and the last
    flagged determinant) is cleared, so later calls see the override and,
    once it is removed, the true e~ again.  The classical Schubert tables do not depend on e~ and stay.
    """
    global _override
    _override = fn
    for memo in _E_MEMOS:
        memo.cache_clear()


def q_bjs(w: Perm) -> Poly:
    """Billey-Jockusch-Stanley-style sum of quantized monomials over all
    reduced words and their compatible sequences."""
    w = perms.check_perm(w)
    n = len(w)
    # a compatible sequence b contributes x~^alpha, alpha_i = #{k : b_k = i}
    return Poly.sum(
        q_monomial(tuple(b.count(i) for i in range(1, n + 1)), n)
        for word in perms.reduced_words(w)
        for b in perms.compatible_sequences(word)
    )


def q_rv_double(w: Perm) -> Poly:
    """Determinant formula for S~_w(x,y), w restricted vexillary: row i
    carries the difference alphabet X_{theta_i} - Y_{thetainv_{lam_i}}."""
    w = perms.check_perm(w)
    if not perms.is_restricted_vexillary(w):
        raise NotRestrictedVexillary(f"{w} contains one of 2143, 2413, 2431")
    lam = perms.shape(w)
    thetainv = perms.flag_theta(perms.inverse(w))
    return q_flagged(lam, xflags=perms.flag_theta(w), yflags=[thetainv[k - 1] for k in lam])


def q_dominant_double(w: Perm) -> Poly:
    """det(h~_{lam_i - i + j}(X_i - Y_{lam_i})) for dominant w (shape lam)."""
    w = perms.check_perm(w)
    if not perms.is_dominant(w):
        raise NotDominant(f"{w} contains 132")
    lam = perms.shape(w)
    return q_flagged(lam, xflags=range(1, len(lam) + 1), yflags=lam)


def q_grassmannian_double(w: Perm, n: int | None = None) -> Poly:
    """det(e~_{lam'_i - i + j}(X_{r-1+j} - Y_{thetainv_i})) for Grassmannian w
    (columns counted from 1 here), evaluated with column j at X_{r+floor(j/2)}
    (e_jacobi_trudi: each row keeps its own Y, so the value is the same)."""
    w = perms.check_perm(w)
    if not perms.is_grassmannian(w):
        raise NotGrassmannian(f"{w} has more than one descent")
    perms.check_fits(w, n)
    n = len(w) if n is None else n
    r = perms.grassmannian_descent(w)
    lamc = perms.conjugate(perms.shape(w))
    rowflags = perms.flag_theta(perms.inverse(w)) + (0,) * (n - r)
    return e_jacobi_trudi(lambda d, i, m: q_xy_elementary(d, m, rowflags[i]), lamc, r, n - r)


def q_factorial_schur(lam, r: int, n: int) -> Poly:
    """Quantum factorial Schur s~_lam(X_r || a): the double quantum Schubert
    polynomial of the Grassmannian permutation of shape lam (second alphabet
    kept in the y slots; relabel for display)."""
    lam = perms.check_partition(lam)
    if not perms.fits_box(lam, r, n - r):
        raise ShapeOutOfBox(f"{lam} does not fit in a {r}x{n - r} box")
    return q_double_schubert(perms.grassmannian_perm(lam, r, n), n)


def stable_approx(w: Perm, m: int) -> Poly:
    """S~_{1^m x w}, w shifted past m fixed points (the stable approximation)."""
    w = perms.check_perm(w)
    return q_schubert(perms.cross_embed(perms.identity(perms.check_rank(m)), w))


def coeff_window(p: Poly, x_max: int, q_max: int) -> Poly:
    """Terms supported on x_1..x_{x_max} and q_1..q_{q_max} only."""
    return p.drop_vars(
        lambda fam, idx: (fam == X and idx > x_max) or (fam == Q and idx > q_max)
    )
