"""Permutations, Lehmer codes, shapes, flags and pattern classes.

A permutation is a plain tuple of 1..n in one-line notation; the tuple length
is the ambient rank, so trailing fixed points are meaningful and preserved
((1,3,2) and (1,3,2,4) are different objects living in S_3 and S_4).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import (
    BadFlag,
    InvalidCode,
    Not321Avoiding,
    NotGrassmannian,
    QschubError,
    RankMismatch,
    RankTooLarge,
    ShapeOutOfBox,
)

Perm = tuple[int, ...]
Partition = tuple[int, ...]

ENUMERATION_CAP = 7


def check_perm(w: Sequence[int]) -> Perm:
    """Validate one-line notation and return it as a tuple."""
    t = tuple(w)
    if sorted(t) != list(range(1, len(t) + 1)):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t}")
    return t


def as_text(w: Perm) -> str:
    """One-line notation: digits run together up to rank 9, commas beyond."""
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def from_text(s: str) -> Perm:
    """Parse one-line notation as printed by as_text."""
    s = s.strip()
    if "," in s:
        return check_perm([int(p) for p in s.split(",")])
    if not s.isdigit():
        raise ValueError(f"not a permutation: {s!r}")
    return check_perm([int(ch) for ch in s])


def check_rank(n: int) -> int:
    """QschubError for a negative rank; n otherwise."""
    if n < 0:
        raise QschubError(f"rank {n} is negative")
    return n


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """The longest element w_0 = (n, n-1, ..., 1)."""
    check_rank(n)
    return tuple(range(n, 0, -1))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def compose(u: Perm, v: Perm) -> Perm:
    """(u o v)(i) = u(v(i)); both factors must have the same rank."""
    if len(u) != len(v):
        raise RankMismatch(f"cannot compose ranks {len(u)} and {len(v)}")
    return tuple(u[j - 1] for j in v)


def times_s(w: Perm, i: int) -> Perm:
    """w * s_i: exchange the entries in positions i, i+1 (1-based)."""
    if not 1 <= i < len(w):
        raise ValueError(f"transposition index {i} out of range for rank {len(w)}")
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def length(w: Perm) -> int:
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def descents(w: Perm) -> list[int]:
    """Right descent positions: i with w(i) > w(i+1)."""
    return [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]]


def code(w: Perm) -> tuple[int, ...]:
    """Lehmer code: c_i = #{j > i : w(j) < w(i)}."""
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


def from_code(c: Sequence[int]) -> Perm:
    """Inverse of code(); the rank is len(c)."""
    n = len(c)
    pool = list(range(1, n + 1))
    out = []
    for i, ci in enumerate(c):
        if not 0 <= ci <= n - i - 1:
            raise InvalidCode(f"code entry {ci} at position {i + 1} exceeds {n - i - 1}")
        out.append(pool.pop(ci))
    return tuple(out)


def shape(w: Perm) -> Partition:
    """The code sorted decreasingly, trailing zeros dropped."""
    return tuple(sorted((c for c in code(w) if c), reverse=True))


def min_rank(w: Perm) -> int:
    """Smallest rank containing w, i.e. len(w) minus trailing fixed points."""
    n = len(w)
    while n > 1 and w[n - 1] == n:
        n -= 1
    return n


def trim(w: Perm) -> Perm:
    return w[: min_rank(w)]


def cross_embed(u: Perm, v: Perm) -> Perm:
    """u x v = (u_1, ..., u_m, v_1+m, ..., v_n+m)."""
    m = len(u)
    return u + tuple(vi + m for vi in v)


def permutations(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, check_rank(n) + 1))


# -- pattern avoidance and classes -------------------------------------------


def avoids(w: Perm, pattern: Sequence[int]) -> bool:
    k = len(pattern)
    rel = tuple(pattern)
    for sub in itertools.combinations(w, k):
        ranks = tuple(sorted(sub).index(v) + 1 for v in sub)
        if ranks == rel:
            return False
    return True


def is_dominant(w: Perm) -> bool:
    c = code(w)
    return all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def is_grassmannian(w: Perm) -> bool:
    return len(descents(w)) <= 1


def is_vexillary(w: Perm) -> bool:
    return avoids(w, (2, 1, 4, 3))


def is_restricted_vexillary(w: Perm) -> bool:
    return (
        avoids(w, (2, 1, 4, 3))
        and avoids(w, (2, 4, 1, 3))
        and avoids(w, (2, 4, 3, 1))
    )


def is_321_avoiding(w: Perm) -> bool:
    return avoids(w, (3, 2, 1))


def is_smooth(w: Perm) -> bool:
    return avoids(w, (2, 1, 4, 3)) and avoids(w, (1, 3, 2, 4))


CLASS_TESTS = {
    "dominant": is_dominant,
    "grassmannian": is_grassmannian,
    "vexillary": is_vexillary,
    "rv": is_restricted_vexillary,
    "321-avoiding": is_321_avoiding,
    "132-avoiding": lambda w: avoids(w, (1, 3, 2)),
    "smooth": is_smooth,
}


def enumerate_class(n: int, cls: str) -> list[Perm]:
    """All members of a class in S_n, lexicographic order."""
    if cls not in CLASS_TESTS:
        raise ValueError(f"unknown class {cls!r}; choose from {sorted(CLASS_TESTS)}")
    if check_rank(n) > ENUMERATION_CAP:
        raise RankTooLarge(f"rank {n} exceeds the enumeration cap {ENUMERATION_CAP}")
    test = CLASS_TESTS[cls]
    return [w for w in permutations(n) if test(w)]


# -- flags --------------------------------------------------------------------


def grassmannian_descent(w: Perm) -> int:
    """The unique descent of a Grassmannian permutation (0 for the identity)."""
    d = descents(w)
    if len(d) > 1:
        raise NotGrassmannian(f"{w} has descents at {d}")
    return d[0] if d else 0


def flag_theta(w: Perm) -> tuple[int, ...]:
    """The flag attached to the shape of w, sorted increasingly.

    For each position i with c_i != 0: g_i = i when every later code entry is
    <= c_i; otherwise g_i is the furthest later position with a larger code
    entry.  The furthest reading is the one under which every vexillary
    flagged-determinant identity checks out on full rank sweeps (the nearest
    later position fails on 24513-type permutations).
    """
    c = code(w)
    n = len(c)
    out = []
    for i in range(n):
        if not c[i]:
            continue
        larger = [j for j in range(i + 1, n) if c[j] > c[i]]
        out.append(larger[-1] + 1 if larger else i + 1)
    return tuple(sorted(out))


def phi_hat(w: Perm) -> tuple[int, ...]:
    """Positions of the nonzero code entries, increasing."""
    return tuple(i + 1 for i, ci in enumerate(code(w)) if ci)


def skew_data(w: Perm) -> tuple[Partition, Partition, tuple[int, ...]]:
    """Skew shape (outer, inner) and row flags attached to a 321-avoiding w.

    Row k of the diagram occupies c_{f_k} cells ending at column k - f_k
    (f = phi_hat positions); the whole picture is translated so the inner
    shape is componentwise minimal and nonnegative.
    """
    if not is_321_avoiding(w):
        raise Not321Avoiding(f"{w} contains a 321 pattern")
    c = code(w)
    f = phi_hat(w)
    ends = []
    starts = []
    for k, pos in enumerate(f, start=1):
        b = k - pos
        ends.append(b)
        starts.append(b - c[pos - 1] + 1)
    if not f:
        return (), (), ()
    t = 1 - min(starts)
    outer = tuple(b + t for b in ends)
    inner = tuple(s + t - 1 for s in starts)
    if any(outer[i] < outer[i + 1] for i in range(len(outer) - 1)) or any(
        inner[i] < inner[i + 1] for i in range(len(inner) - 1)
    ):
        raise Not321Avoiding(f"skew rows of {w} do not nest")
    return outer, inner, f


# -- reduced words -------------------------------------------------------------


def reduced_words(w: Perm) -> list[tuple[int, ...]]:
    """All reduced words of w, sorted lexicographically."""
    return sorted(_words_ending(w, {}))


def _words_ending(v: Perm, memo: dict) -> list[tuple[int, ...]]:
    """The reduced words of v, memoized in `memo` across the weak order below it."""
    got = memo.get(v)
    if got is None:
        d = descents(v)
        # without descents v is the identity, whose one reduced word is empty
        got = [word + (i,) for i in d for word in _words_ending(times_s(v, i), memo)] or [()]
        memo[v] = got
    return got


def weak_factorizations(w: Perm) -> list[tuple[Perm, Perm]]:
    """The pairs (u, v) with v = u w^-1 and l(u) + l(v) = l(w), so that
    w = v^-1 u with lengths adding.

    The u are the lower interval of w in the left weak order, listed in
    breadth-first order from w down: u steps to s_i u, one shorter, when
    value i+1 sits left of value i, and the step swaps those two values.
    """
    winv = inverse(w)
    out = []
    layer = {w: None}
    while layer:
        # every u of a layer has the same length, so a repeat can only come
        # from the layer being built
        nxt: dict = {}
        for u in layer:
            out.append((u, compose(u, winv)))
            pos = inverse(u)
            for i in range(1, len(u)):
                if pos[i - 1] > pos[i]:
                    s = list(u)
                    s[pos[i - 1] - 1], s[pos[i] - 1] = i + 1, i
                    nxt[tuple(s)] = None
        layer = nxt
    return out


def compatible_sequences(word: Sequence[int]) -> list[tuple[int, ...]]:
    """Weakly increasing b with b_k <= a_k and b_k < b_{k+1} when a_k < a_{k+1}."""
    a = tuple(word)
    seqs: list[tuple[int, ...]] = [()]
    for k, ak in enumerate(a):
        rise = 1 if k and a[k - 1] < ak else 0
        seqs = [b + (c,) for b in seqs for c in range(b[-1] + rise if b else 1, ak + 1)]
    return seqs


# -- partitions ----------------------------------------------------------------


def check_partition(lam: Sequence[int]) -> Partition:
    t = tuple(lam)
    if any(p < 0 for p in t) or any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"not a partition: {t}")
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def conjugate(lam: Sequence[int]) -> Partition:
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def fits_box(lam: Sequence[int], rows: int, cols: int) -> bool:
    lam = check_partition(lam)
    return len(lam) <= rows and (not lam or lam[0] <= cols)


def partitions_in_box(rows: int, cols: int) -> list[Partition]:
    """All partitions inside a rows x cols box, shortlex order."""
    out: list[Partition] = [()]
    layer: list[Partition] = [()]
    for _ in range(rows):
        # the partitions one row longer: append a part no larger than the last
        layer = [lam + (p,) for lam in layer for p in range(1, (lam[-1] if lam else cols) + 1)]
        out += layer
    return sorted(out, key=lambda t: (len(t), tuple(-p for p in t)))


def grassmannian_perm(lam: Sequence[int], r: int, n: int | None = None) -> Perm:
    """The Grassmannian permutation with descent at r and shape lam.

    w_i = i + lam_{r+1-i} for i <= r, the remaining values ascending.  The
    default rank is the minimal one, r + lam_1.
    """
    lam = check_partition(lam)
    if len(lam) > r:
        raise ShapeOutOfBox(f"{lam} has more than r={r} rows")
    width = lam[0] if lam else 0
    if n is None:
        n = r + width if lam else max(r, 1)
    if n < r + width:
        raise ShapeOutOfBox(f"{lam} needs rank >= {r + width}, got {n}")
    padded = (0,) * (r - len(lam)) + tuple(reversed(lam))
    head = [i + 1 + padded[i] for i in range(r)]
    rest = sorted(set(range(1, n + 1)) - set(head))
    return tuple(head + rest)


def check_flags(lam: Sequence[int], flags: Sequence[int]) -> None:
    lam = check_partition(lam)
    if len(flags) != len(lam):
        raise BadFlag(f"{len(flags)} flags for {len(lam)} rows")
    if any(f < 1 for f in flags):
        raise BadFlag("flags must be positive")


__all__ = [
    "CLASS_TESTS",
    "ENUMERATION_CAP",
    "Partition",
    "Perm",
    "as_text",
    "avoids",
    "check_partition",
    "check_perm",
    "check_rank",
    "check_flags",
    "code",
    "compatible_sequences",
    "compose",
    "conjugate",
    "cross_embed",
    "descents",
    "enumerate_class",
    "fits_box",
    "flag_theta",
    "from_code",
    "from_text",
    "grassmannian_descent",
    "grassmannian_perm",
    "identity",
    "inverse",
    "is_321_avoiding",
    "is_dominant",
    "is_grassmannian",
    "is_restricted_vexillary",
    "is_smooth",
    "is_vexillary",
    "length",
    "longest",
    "min_rank",
    "partitions_in_box",
    "permutations",
    "phi_hat",
    "reduced_words",
    "shape",
    "skew_data",
    "times_s",
    "trim",
    "weak_factorizations",
]
