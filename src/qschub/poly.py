"""Exact multivariate polynomials over the integers.

Variables come in indexed families: x1, x2, ... (the main alphabet),
y1, y2, ... (the second alphabet), q1, q2, ... (the deformation parameters)
and a1, a2, ... (an auxiliary alphabet used by some identities and by the
``--alphabet`` display option).  Degrees are weighted: x, y and a count 1,
each q counts 2, so the quantum elementary polynomials stay homogeneous.

Internally a polynomial is a dict from monomials to nonzero ints, with the
dict work delegated to the kernel (see _kernels).  A Poly owns its dict and
never changes it: ``terms`` is a read-only view, and every sum is built by
accumulating into a fresh dict (Poly.sum).  Because a Poly never changes,
its text() with the default letters is rendered once and kept on it (a
render with other letters is built afresh each time).

A monomial is one int, a packed exponent vector with one byte per variable;
this module is the only one that knows which variable sits in which byte:
family f, index i has code 4*(i-1) + f, so byte k of a monomial's
little-endian bytes is the exponent of family k % 4, index k // 4 + 1, and
the constant monomial is 0.  Exponents are capped at 127 (ExponentOverflow)
and indices at MAX_INDEX (VariableOutOfRange).
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, groupby
from operator import or_
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence, Union

from ._kernels import FIELD, MAX_CODES, MAX_EXP, WIDTH, padd, pdivdiff, pmul
from .errors import (
    CompositionOutOfBox,
    ExponentOverflow,
    NonSquare,
    ParseError,
    ShapeOutOfBox,
    VariableOutOfRange,
)

X, Y, Q, A = 0, 1, 2, 3
_LETTERS = "xyqa"
_FAMILY_OF = {letter: fam for fam, letter in enumerate(_LETTERS)}
_NFAM = len(_LETTERS)

# the largest variable index: a bound on the width of every monomial
MAX_INDEX = MAX_CODES // _NFAM

# factors inside a printed monomial lead with the deformation parameters,
# matching the usual way these polynomials are written (q1*x1, not x1*q1)
_PRINT_ORDER = (Q, X, Y, A)


def vcode(family: int, index: int) -> int:
    """The kernel code of a (family, index) variable: its byte in a monomial."""
    if not 0 <= family < _NFAM:
        raise VariableOutOfRange(f"unknown variable family {family}")
    if not 1 <= index <= MAX_INDEX:
        raise VariableOutOfRange(f"variable index must be in 1..{MAX_INDEX}, got {index}")
    return _NFAM * (index - 1) + family


def vsplit(code: int) -> tuple[int, int]:
    return code % _NFAM, code // _NFAM + 1


def _bytes(m: int, n: int | None = None) -> bytes:
    """The exponents of monomial m, one byte per code (n bytes if given)."""
    return m.to_bytes((m.bit_length() + 7) >> 3 if n is None else n, "little")


def _codes(m: int) -> list[int]:
    """The codes of the variables occurring in monomial m."""
    return [k for k, e in enumerate(_bytes(m)) if e]


def _family_mask(family: int, m: int) -> int:
    """The bytes of every variable of the family, up to monomial m's width."""
    pattern = bytes(FIELD if f == family else 0 for f in range(_NFAM))
    return int.from_bytes(pattern * ((m.bit_length() >> 5) + 1), "little")


def _terms_of(v: Union["Poly", int]) -> dict:
    if isinstance(v, Poly):
        return v._terms
    return {0: v} if v else {}


class Poly:
    """A read-only polynomial: it owns a kernel dict that nothing writes into.

    Nothing changes that dict after construction, which is what makes the
    memo of the default text() safe: a Poly renders once with the default
    letters and keeps the string in _text.
    """

    __slots__ = ("_terms", "_text")

    def __init__(self, terms: dict | None = None):
        self._terms = terms or {}
        self._text: str | None = None

    @property
    def terms(self) -> Mapping[int, int]:
        """Read-only view of the monomial -> coefficient dict."""
        return MappingProxyType(self._terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(c: int) -> "Poly":
        return Poly({0: c} if c else {})

    @staticmethod
    def variable(family: int, index: int) -> "Poly":
        return Poly({1 << WIDTH * vcode(family, index): 1})

    @staticmethod
    def sum(parts: Iterable["Poly"]) -> "Poly":
        """The sum of the parts, each added in place into one accumulator as
        it arrives."""
        return Poly.combination((1, p) for p in parts)

    @staticmethod
    def combination(pairs: Iterable[tuple[int, "Poly"]]) -> "Poly":
        """The sum of c * p over the (c, p) pairs, each multiple added in
        place into one accumulator as it arrives."""
        acc: dict = {}
        for c, p in pairs:
            padd(acc, p._terms, c)
        # cancellations leave deleted slots in acc; the copy compacts them
        return Poly(dict(acc))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Union["Poly", int]) -> "Poly":
        return Poly(padd(dict(self._terms), _terms_of(other)))

    __radd__ = __add__

    def __sub__(self, other: Union["Poly", int]) -> "Poly":
        return Poly(padd(dict(self._terms), _terms_of(other), -1))

    def __rsub__(self, other: int) -> "Poly":
        return Poly(padd(_terms_of(other), self._terms, -1))

    def __neg__(self) -> "Poly":
        return Poly(padd({}, self._terms, -1))

    def __mul__(self, other: Union["Poly", int]) -> "Poly":
        if isinstance(other, int):
            return Poly(padd({}, self._terms, other))
        return Poly(pmul(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Poly, int)):
            return self._terms == _terms_of(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- inspection --------------------------------------------------------

    def variables(self) -> list[tuple[int, int]]:
        """Sorted list of (family, index) pairs occurring in the polynomial."""
        return sorted(vsplit(k) for k in _codes(reduce(or_, self._terms, 0)))

    def exponent_terms(self, family: int) -> list[tuple[tuple[int, ...], int]]:
        """(a, c) per term: a = (a_1, a_2, ...) holds the exponents of the
        family's variables in the term, without trailing zeros (() when none
        occurs), and c is its coefficient.  Other families are left out."""
        return [
            (tuple(_bytes(m)[family::_NFAM].rstrip(b"\0")), c) for m, c in self._terms.items()
        ]

    # -- specialization ----------------------------------------------------

    def drop_vars(self, pred: Callable[[int, int], bool]) -> "Poly":
        """Set to zero every variable with pred(family, index) true.

        Terms containing such a variable are dropped wholesale.
        """
        dead = 0
        for k in _codes(reduce(or_, self._terms, 0)):
            if pred(*vsplit(k)):
                dead |= FIELD << WIDTH * k
        return Poly({m: c for m, c in self._terms.items() if not m & dead})

    def rename_family(self, src: int, dst: int) -> "Poly":
        """Relabel every src-family variable as the dst-family variable of the
        same index; the dst family must not already occur."""
        width = reduce(or_, self._terms, 0)
        if width & _family_mask(dst, width):
            raise ValueError("rename target family already present")
        moved = _family_mask(src, width)
        shift = WIDTH * (dst - src)
        out = {}
        for m, c in self._terms.items():
            part = m & moved
            out[m - part + (part << shift if shift >= 0 else part >> -shift)] = c
        return Poly(out)

    def negate_family(self, family: int) -> "Poly":
        """Substitute v -> -v for every variable of the given family."""
        return Poly(
            {m: -c if sum(_bytes(m)[family::_NFAM]) & 1 else c for m, c in self._terms.items()}
        )

    # -- operators ---------------------------------------------------------

    def divided_diff(self, i: int, family: int = X) -> "Poly":
        """(f - s_i f) / (v_i - v_{i+1}) acting on the given family."""
        return Poly(pdivdiff(self._terms, vcode(family, i), vcode(family, i + 1)))

    def q_partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to q_i."""
        shift = WIDTH * vcode(Q, i)
        one = 1 << shift
        out = {}
        for m, c in self._terms.items():
            e = (m >> shift) & FIELD
            if e:
                out[m - one] = c * e
        return Poly(out)

    # -- rendering ---------------------------------------------------------

    def factored_terms(self) -> list[tuple[list[tuple[int, int, int]], int]]:
        """(factors, coefficient) per term in display order: weighted degree
        descending, then lex on the exponents by family x, y, q, a and index.
        Factors are (family, index, exponent) triples ordered q, x, y, a."""
        if not self._terms:
            return []
        n = _NFAM * ((max(self._terms).bit_length() >> 5) + 1)
        rows = []
        for m, c in self._terms.items():
            b = _bytes(m, n)
            # the exponents family by family, one byte per index
            fams = b[X::_NFAM], b[Y::_NFAM], b[Q::_NFAM], b[A::_NFAM]
            rows.append((sum(b) + sum(fams[Q]), b"".join(fams), c, fams))
        rows.sort(reverse=True)
        return [
            (
                [(f, i, e) for f in _PRINT_ORDER for i, e in enumerate(fams[f], 1) if e],
                c,
            )
            for _, _, c, fams in rows
        ]

    def text(self, letters: Mapping[int, str] | None = None) -> str:
        """Canonical textual form, e.g. ``3*x1^2*x2 - q1*x1 + 7``.

        The default render is memoized on the Poly; one with letters is not.
        """
        if letters is not None:
            return _join(self.factored_terms(), _names(letters))
        if self._text is None:
            self._text = _join(self.factored_terms(), _names(None))
        return self._text

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Poly({self.text()})"

    def as_json_obj(self, letters: Mapping[int, str] | None = None) -> dict:
        """JSON-friendly form: canonical text plus an explicit term list."""
        names = _names(letters)
        rows = self.factored_terms()
        terms = [[[[names[f], i, e] for f, i, e in factors], c] for factors, c in rows]
        return {"text": _join(rows, names), "terms": terms}


def _names(letters: Mapping[int, str] | None) -> list[str]:
    names = list(_LETTERS)
    for fam, letter in (letters or {}).items():
        names[fam] = letter
    return names


def _join(rows, names: list[str]) -> str:
    if not rows:
        return "0"
    chunks: list[str] = []
    for factors, c in rows:
        body = "*".join(
            f"{names[f]}{i}" if e == 1 else f"{names[f]}{i}^{e}" for f, i, e in factors
        )
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)


ZERO = Poly()
ONE = Poly.const(1)


def x(i: int) -> Poly:
    return Poly.variable(X, i)


def y(i: int) -> Poly:
    return Poly.variable(Y, i)


def q(i: int) -> Poly:
    return Poly.variable(Q, i)


def a(i: int) -> Poly:
    return Poly.variable(A, i)


def monomial(pairs: Iterable[tuple[int, int, int]], c: int = 1) -> Poly:
    """Build c * prod v_{family,index}^exp from (family, index, exp) triples."""
    m = 0
    for fam, idx, e in pairs:
        if e < 0:
            raise CompositionOutOfBox(f"negative exponent {e}")
        shift = WIDTH * vcode(fam, idx)
        if ((m >> shift) & FIELD) + e > MAX_EXP:
            raise ExponentOverflow(f"exponent of {_LETTERS[fam]}{idx} above {MAX_EXP}")
        m += e << shift
    return Poly({m: c} if c else {})


# -- determinants ------------------------------------------------------------


def determinant(rows: Sequence[Sequence[Poly]]) -> Poly:
    """Determinant of a square matrix of polynomials (empty matrix: 1).

    A one-shot Minors table over the matrix's own rows (see there): Laplace
    expansion along the last column, each sub-minor built once.  The last
    column multiplies the largest minors and the earlier columns build them,
    so the heavier line should be expanded at the top.  When the first row
    has at least as many terms as the last column, the anti-transpose
    B[i][j] = A[n-1-j][n-1-i] is expanded instead: B = J A^T J with J the
    reversal, so det B = det A, and B's last column is A's first row.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise NonSquare(f"matrix is not square: {n} rows, {[len(r) for r in rows]} columns")
    if n and sum(len(e) for e in rows[0]) >= sum(len(r[-1]) for r in rows):
        rows = [[rows[n - 1 - j][n - 1 - i] for j in range(n)] for i in range(n)]
    return Minors(rows.__getitem__).minor(range(n))


class Minors:
    """The minors of one matrix whose rows are named by hashable keys.

    row(key) is the row named key: the callable row is called once per key,
    the first time a minor uses that row.  minor(keys) is the determinant of
    the named rows, in the order given, against the first len(keys) columns,
    by Laplace expansion along the last column: the sub-minor of entry (i, c)
    is the minor of the other keys, kept in order, against the first c
    columns.  Every such proper sub-minor is memoized on the table, so
    minors that share rows share their sub-minors; the whole minor is not
    kept.  Each minor is one accumulator: every entry times its sub-minor is
    multiplied into it in place (pmul), with no temporary product.  Exact,
    since everything stays in Z[x,y,q].
    """

    __slots__ = ("_build", "_rows", "_memo")

    def __init__(self, row: Callable[[Hashable], Sequence[Poly]]):
        self._build = row
        self._rows: dict = {}
        # {keys: kernel dict of the minor}, the empty minor is 1
        self._memo: dict[tuple, dict] = {(): {0: 1}}

    def minor(self, keys: Iterable[Hashable]) -> Poly:
        keys = tuple(keys)
        rows = self._rows
        for key in keys:
            if key not in rows:
                rows[key] = self._build(key)
        got = self._memo.get(keys)
        # the copy compacts the slots that cancellations left in the accumulator
        return Poly(dict(self._expand(keys) if got is None else got))

    def _expand(self, keys: tuple) -> dict:
        rows, memo = self._rows, self._memo
        c = len(keys) - 1
        acc: dict = {}
        sign = -1 if c & 1 else 1
        for i, key in enumerate(keys):
            entry = rows[key][c]._terms
            if entry:
                rest = keys[:i] + keys[i + 1 :]
                sub = memo.get(rest)
                if sub is None:
                    sub = memo[rest] = self._expand(rest)
                if sub:
                    pmul(entry, sub, acc, sign)
            sign = -sign
        return acc


def jacobi_trudi(
    entry: Callable[[int, int, int], Poly],
    lam: Sequence[int],
    mu: Sequence[int] = (),
    size: int | None = None,
) -> Poly:
    """det(entry(lam_i - mu_j - i + j, i, j)) over 0 <= i, j < size.

    The shape of every determinantal formula here: entry(k, i, j) is the
    degree-k function of row i's and column j's alphabets.  size defaults to
    len(lam); lam and mu are padded with zeros up to it, and ShapeOutOfBox
    when either has a nonzero part past it.
    """
    m = len(lam) if size is None else size
    if any(lam[m:]) or any(mu[m:]):
        raise ShapeOutOfBox(f"{tuple(lam)} / {tuple(mu)} has parts past the {m} rows")
    lam = tuple(lam) + (0,) * (m - len(lam))
    mu = tuple(mu) + (0,) * (m - len(mu))
    return determinant([[entry(lam[i] - mu[j] - i + j, i, j) for j in range(m)] for i in range(m)])


# -- nested sums of products -------------------------------------------------


def nested_sum(
    pairs: Iterable[tuple[tuple[int, ...], int]],
    factor: Callable[[int, int], Poly],
    leaf: Callable[[tuple[int, ...]], Poly],
    depth: int,
) -> Poly:
    """The sum of k * factor(0, a_0) * ... * factor(depth - 1, a_{depth-1}) *
    leaf(a[depth:]) over the (a, k) pairs.

    By the distributive law: the pairs that share a_0 share factor(0, a_0),
    which multiplies the sum of the rest of their products once, and that sum
    is grouped on a_1 the same way, down to the leaves.  Each level multiplies
    in place into one accumulator (pmul).  Only adjacent pairs are grouped, so
    the pairs should come in increasing order of a; any order gives the same
    sum, with more products.
    """
    # the copy compacts the slots that cancellations left in the accumulator
    return Poly(dict(_nested(pairs, 0, factor, leaf, depth)))


def _nested(pairs, j: int, factor, leaf, depth: int) -> dict:
    acc: dict = {}
    if j == depth:
        for a, k in pairs:
            padd(acc, leaf(a[j:])._terms, k)
        return acc
    for d, group in groupby(pairs, lambda pair: pair[0][j]):
        pmul(factor(j, d)._terms, _nested(group, j + 1, factor, leaf, depth), acc)
    return acc


# -- parsing -----------------------------------------------------------------

# a product or power in parsed input may not risk a coefficient above this
# many bits: 4096 bits is 1234 decimal digits, well inside the 4300 that
# str(int) prints
MAX_POWER_BITS = 4096

# how deep parse lets parentheses nest, well inside the recursion limit
MAX_NESTING = 100


def _norm_bits(p: Poly) -> int:
    """Bits of the sum of |coefficients|.  That sum bounds every coefficient
    and is submultiplicative, so a coefficient of p*f needs at most
    _norm_bits(p) + _norm_bits(f) bits and one of p^e at most e times p's."""
    return (sum(abs(c) for c in p._terms.values()) - 1).bit_length()


def _check_bits(bits: int) -> None:
    if bits > MAX_POWER_BITS:
        raise ExponentOverflow(
            f"a product's or power's coefficients could pass {MAX_POWER_BITS} bits"
        )


def _literal(s: str, i: int, j: int) -> int:
    try:
        return int(s[i:j])
    except ValueError:  # a digit int() refuses ('²'), or past CPython's digit limit
        raise ParseError(f"{s[i:j][:20]!r} at position {i} is not a usable integer") from None


def _tokenize(s: str) -> list:
    toks: list = []
    i, n = 0, len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(("num", _literal(s, i, j)))
            i = j
        elif ch in _FAMILY_OF:
            j = i + 1
            while j < n and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable letter {ch!r} needs an index (position {i})")
            idx = _literal(s, i + 1, j)
            toks.append(("var", (_FAMILY_OF[ch], idx)))
            i = j
        elif ch == "*":
            if i + 1 < n and s[i + 1] == "*":
                toks.append(("^", None))
                i += 2
            else:
                toks.append(("*", None))
                i += 1
        elif ch in "+-^()":
            toks.append((ch, None))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return toks


def parse(s: str) -> Poly:
    """Parse the canonical polynomial grammar.

    Terms are integer-coefficient products of x<k>, y<k>, q<k>, a<k> joined
    by ``*``, exponents via ``^`` (or ``**``, a literal of at most MAX_EXP),
    combined with ``+``/``-``, in parentheses at most MAX_NESTING deep.
    Round-trips with Poly.text().  A product or power whose coefficients could
    pass MAX_POWER_BITS bits raises ExponentOverflow before it is computed.
    """
    toks = _tokenize(s)
    if s.count("(") > MAX_NESTING:
        if max(accumulate({"(": 1, ")": -1}.get(t, 0) for t, _ in toks)) > MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {MAX_NESTING}")
    return _Parser(toks).parse()


class _Parser:
    """Recursive descent over a token list, with the cursor as state."""

    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0

    def parse(self) -> Poly:
        out = self.expr()
        if self.pos != len(self.toks):
            raise ParseError(f"trailing input from token {self.pos}")
        return out

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def atom(self) -> Poly:
        kind = self.peek()
        if kind == "num":
            return Poly.const(self.take()[1])
        if kind == "var":
            fam, idx = self.take()[1]
            if idx < 1:
                raise ParseError("variable indices start at 1")
            return Poly.variable(fam, idx)
        if kind == "(":
            self.take()
            p = self.expr()
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis")
            self.take()
            return p
        if kind == "-":
            # a chain of unary minuses is one sign, read in a loop: the atom
            # after it starts with no minus, so this recursion is one level
            negate = False
            while self.peek() == "-":
                self.take()
                negate = not negate
            return -self.atom() if negate else self.atom()
        raise ParseError("expected a number, variable or parenthesized expression")

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek() != "^":
            return p
        self.take()
        if self.peek() != "num":
            raise ParseError("exponent must be a literal integer")
        e = self.take()[1]
        # capped whatever the base, so a constant like 2^N cannot build an N-bit int
        if e > MAX_EXP:
            raise ExponentOverflow(f"literal exponent above {MAX_EXP}: {e}")
        _check_bits(e * _norm_bits(p))
        return p**e

    def term(self) -> Poly:
        p = self.factor()
        # "*" or an implicit product, e.g. "3x1" or "2 q1"
        while self.peek() in ("*", "var", "num", "("):
            if self.peek() == "*":
                self.take()
            f = self.factor()
            _check_bits(_norm_bits(p) + _norm_bits(f))
            p = p * f
        return p

    def expr(self) -> Poly:
        acc: dict = {}
        op = self.take()[0] if self.peek() == "-" else "+"
        while True:
            padd(acc, self.term()._terms, 1 if op == "+" else -1)
            if self.peek() not in ("+", "-"):
                return Poly(acc)
            op = self.take()[0]


__all__ = [
    "A",
    "MAX_INDEX",
    "MAX_POWER_BITS",
    "Minors",
    "ONE",
    "Poly",
    "Q",
    "X",
    "Y",
    "ZERO",
    "a",
    "determinant",
    "jacobi_trudi",
    "monomial",
    "parse",
    "q",
    "vcode",
    "vsplit",
    "x",
    "y",
]
