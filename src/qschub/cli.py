"""Command-line interface.

Verbs:
  compute    evaluate one polynomial (quantum or classical) and print it
  verify     run an identity suite and exit 0/1 on its outcome
  enumerate  list or count a permutation class
  conjecture run the conjecture scan and print its findings (always exit 0)

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 internal error (a fault of qschub itself, reported as "internal error:"
with its traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from functools import cache

from . import classical, perms, quantum, verify
from .errors import QschubError, RankTooLarge
from .poly import Y, Poly, parse
from .quantum import DEFAULT_MAX_N


def _ints(s: str) -> tuple[int, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(int(p) for p in s.split(","))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parse_args keeps
    no state in it."""
    ap = argparse.ArgumentParser(
        prog="qschub",
        description="Quantum Schubert polynomials, Schur-type determinants, "
        "and the identity suites that keep them honest.",
    )
    ap.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    ap.add_argument(
        "--alphabet",
        choices=("y", "a"),
        default="y",
        help="letter used for the second alphabet on output",
    )
    ap.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help="rank guard for explicit and implied dimensions (default 6)",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    c = sub.add_parser("compute", help="evaluate one polynomial")
    c.add_argument(
        "what",
        choices=(
            "schubert",
            "qschubert",
            "qdouble",
            "qschur",
            "qfactorial",
            "quantize",
            "qmonomial",
            "stable",
        ),
    )
    c.add_argument("--w", help="permutation in one-line notation, e.g. 13524")
    c.add_argument("--n", type=int, help="rank (number of strands)")
    c.add_argument("--r", type=int, help="number of x-variables")
    c.add_argument("--lam", help="partition as comma-separated parts, e.g. 2,1")
    c.add_argument("--alpha", help="exponent vector as comma-separated entries")
    c.add_argument("--poly", help="polynomial to quantize, canonical grammar")
    c.add_argument("--m", type=int, help="approximation order for stable")

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument(
        "--suite",
        required=True,
        choices=tuple(verify.SUITES) + ("all",),
    )
    v.add_argument("--n", type=int, help="rank cap for the suite")
    v.add_argument(
        "--slow",
        action="store_true",
        help="with --suite all: include the rank-5 Cauchy expansions",
    )

    e = sub.add_parser("enumerate", help="list or count a permutation class")
    e.add_argument("--class", dest="cls", required=True, choices=tuple(perms.CLASS_TESTS))
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--count", action="store_true", help="print only the count")

    j = sub.add_parser("conjecture", help="scan the conjectural identities")
    j.add_argument("--n", type=int, help="rank cap for the scan (default 4)")

    return ap


def _guard(args, *dims: int | None) -> None:
    for d in dims:
        if d is not None and perms.check_rank(d) > args.max_n:
            raise QschubError(
                f"rank {d} exceeds the guard --max-n {args.max_n}; raise it "
                "explicitly if you accept the runtime"
            )


def _emit_poly(args, p: Poly, **meta) -> int:
    letters = {Y: "a"} if args.alphabet == "a" else None
    if args.format == "json":
        obj = dict(meta)
        obj["poly"] = p.as_json_obj(letters)
        print(json.dumps(obj, sort_keys=False))
    else:
        print(p.text(letters))
    return 0


def _cmd_compute(args) -> int:
    what = args.what

    def need(flag: str, val):
        if val is None:
            raise QschubError(f"compute {what} requires --{flag}")
        return val

    if what in ("schubert", "qschubert", "qdouble", "stable"):
        w = perms.from_text(need("w", args.w))
        n = args.n
        _guard(args, len(w), n)
        if what == "schubert":
            return _emit_poly(args, classical.schubert(w), op=what, w=perms.as_text(w))
        if what == "qschubert":
            p = quantum.q_schubert(w, n)
        elif what == "qdouble":
            p = quantum.q_double_schubert(w, n)
        else:
            m = need("m", args.m)
            # stable_approx runs at rank m + len(w)
            _guard(args, m, m + len(w))
            p = quantum.stable_approx(w, m)
            return _emit_poly(args, p, op=what, w=perms.as_text(w), m=m)
        return _emit_poly(args, p, op=what, w=perms.as_text(w), n=n if n else len(w))

    if what in ("qschur", "qfactorial"):
        lam = perms.check_partition(_ints(need("lam", args.lam)))
        r = need("r", args.r)
        n = args.n if args.n is not None else r + (lam[0] if lam else 0)
        _guard(args, r, n)
        fn = quantum.q_schur if what == "qschur" else quantum.q_factorial_schur
        return _emit_poly(args, fn(lam, r, n), op=what, lam=list(lam), r=r, n=n)

    if what == "quantize":
        f = parse(need("poly", args.poly))
        n = need("n", args.n)
        _guard(args, n)
        try:
            p = quantum.quantize(f, n, args.max_n)
        except RankTooLarge as exc:
            raise QschubError(f"{exc}: raise --max-n explicitly if you accept the runtime")
        return _emit_poly(args, p, op=what, n=n)

    if what == "qmonomial":
        alpha = _ints(need("alpha", args.alpha))
        n = need("n", args.n)
        _guard(args, n)
        return _emit_poly(args, quantum.q_monomial(alpha, n), op=what, alpha=list(alpha), n=n)

    raise QschubError(f"unknown compute target {what}")  # pragma: no cover


def _emit_reports(args, reports: list[verify.Report]) -> None:
    if args.format == "json":
        print(json.dumps([r.as_json_obj() for r in reports], sort_keys=False))
    else:
        for r in reports:
            print(r.text())


def _cmd_verify(args) -> int:
    if args.suite == "all":
        n = args.n if args.n is not None else 5
        _guard(args, n)
        reports = verify.run_all(n, slow=args.slow)
        _emit_reports(args, reports)
        ok = verify.exit_ok(reports)
        if args.format == "text":
            print("overall:", "ok" if ok else "FAIL")
        return 0 if ok else 1
    n = args.n if args.n is not None else (4 if args.suite in ("cauchy", "conjectures") else 5)
    _guard(args, n)
    rep = verify.SUITES[args.suite](n)
    _emit_reports(args, [rep])
    if args.suite == "conjectures":
        return 0
    return 0 if rep.ok else 1


def _cmd_enumerate(args) -> int:
    _guard(args, args.n)
    members = perms.enumerate_class(args.n, args.cls)
    if args.format == "json":
        obj = {"class": args.cls, "n": args.n}
        if args.count:
            obj["count"] = len(members)
        else:
            obj["perms"] = [perms.as_text(w) for w in members]
        print(json.dumps(obj, sort_keys=False))
    elif args.count:
        print(len(members))
    else:
        for w in members:
            print(perms.as_text(w))
    return 0


def _cmd_conjecture(args) -> int:
    n = args.n if args.n is not None else 4
    _guard(args, n)
    rep = verify.suite_conjectures(n)
    _emit_reports(args, [rep])
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.max_n > DEFAULT_MAX_N:
        print(
            f"warning: --max-n {args.max_n} is above the desk-scale default "
            f"{DEFAULT_MAX_N}; large ranks can take very long",
            file=sys.stderr,
        )
    try:
        if args.verb == "compute":
            return _cmd_compute(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "enumerate":
            return _cmd_enumerate(args)
        if args.verb == "conjecture":
            return _cmd_conjecture(args)
    except (QschubError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
