"""The benchmark's workloads: seeded inputs, the timed job and the output checks.

Inputs depend only on the seed.  A job runs in a fresh interpreter (see
worker.py), so every library cache starts cold.  Checks run after the timed
region and never feed back into it.

- ``suites``: ``verify.run_all(5)``, what ``qschub verify --suite all`` runs.
  An item is one identity case (one ``Report.check``).  The inputs are fixed;
  the seed changes nothing.
- ``rank6``: ``q_schubert(w)`` for a seeded sample of S_6 holding a quarter of
  the permutations of every length, in seeded order.  An item is one
  permutation.
- ``session``: one closed-loop client with one request in flight, sending a
  seeded stream of small requests at ranks 3-5.  An item is one request.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time

import qschub
from qschub import cli, perms, verify

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(HERE, "golden")

DEFAULT_SEED = 1

# rank6 samples ceil(|S_6 of length l| / RANK6_SHARE) permutations of each
# length l, so every length appears and the mix of cheap and costly chains is
# the same for every seed.
RANK6_SHARE = 4

SESSION_REQUESTS = 4000
# Request mix of the session workload, by weight.
SESSION_MIX = (
    ("qschubert", 40),
    ("quantize", 12),
    ("expand", 14),
    ("qschur", 12),
    ("qmonomial", 12),
    ("cli", 10),
)
# q_schubert requests draw w from S_5 with Zipf weights 1/rank^ZIPF_S over a
# seeded ranking.  A steeper law lets the few head permutations, whose
# polynomial sizes vary by seed, set the median latency.
ZIPF_S = 0.6

# run_all(5) calls these suites in this order.
SUITE_ORDER = (
    "cauchy", "cauchy", "cauchy", "schur", "vexillary", "grassmannian",
    "factorization", "counterexamples", "conjectures",
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return json.load(fh)


def q_zero(p):
    """p with every q set to 0: the window keeps x_1..x_99 (all of them at
    these ranks) and no q."""
    return qschub.coeff_window(p, 99, 0)


# -- inputs --------------------------------------------------------------------


def rank6_inputs(seed: int) -> list:
    rng = random.Random(seed)
    by_len: dict[int, list] = {}
    for w in itertools.permutations(range(1, 7)):
        by_len.setdefault(perms.length(w), []).append(w)
    sample = []
    for length in sorted(by_len):
        pool = by_len[length]
        sample += rng.sample(pool, -(-len(pool) // RANK6_SHARE))
    rng.shuffle(sample)
    return [("rank6", w) for w in sample]


def _poly_text(rng: random.Random, n: int) -> str:
    """1-3 monomials under the rank-n staircase in x_1..x_{n-1}: the exponent
    of x_i is at most n - i, so the Schubert support lies in S_n."""
    chunks = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice((1, 1, 1, 2, 3)) * rng.choice((1, -1))
        factors = []
        for i in range(1, n):
            e = rng.randint(0, n - i)
            if e:
                factors.append(f"x{i}" if e == 1 else f"x{i}^{e}")
        body = "*".join(factors)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if c < 0 else "+"
        chunks.append(f"{'-' if c < 0 else ''}{body}" if not chunks else f" {sign} {body}")
    return "".join(chunks)


def _partition_in_box(rng: random.Random, rows: int, cols: int, nonempty: bool) -> tuple:
    while True:
        parts = sorted((rng.randint(0, cols) for _ in range(rows)), reverse=True)
        lam = tuple(p for p in parts if p)
        if lam or not nonempty:
            return lam


def _staircase_alpha(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randint(0, n - 1 - i) for i in range(n - 1))


def _csv(t) -> str:
    return ",".join(map(str, t))


def session_inputs(seed: int) -> list:
    """Exactly SESSION_MIX's share of each request kind, a third of each at
    rank 3, 4 and 5, in seeded order; only the operands are drawn at random."""
    rng = random.Random(seed)
    s5 = list(itertools.permutations(range(1, 6)))
    rng.shuffle(s5)
    zipf = list(itertools.accumulate(1 / (k + 1) ** ZIPF_S for k in range(len(s5))))
    total = sum(wt for _, wt in SESSION_MIX)
    slots = [
        (kind, 3 + j % 3)
        for kind, wt in SESSION_MIX
        for j in range(SESSION_REQUESTS * wt // total)
    ]
    rng.shuffle(slots)
    out = []
    for kind, n in slots:
        if kind == "qschubert":
            out.append(("qschubert", rng.choices(s5, cum_weights=zipf)[0]))
        elif kind == "quantize":
            out.append(("quantize", _poly_text(rng, n), n))
        elif kind == "expand":
            out.append(("expand", _poly_text(rng, n)))
        elif kind == "qschur":
            r = rng.randint(1, n - 1)
            out.append(("qschur", _partition_in_box(rng, r, n - r, False), r, n))
        elif kind == "qmonomial":
            out.append(("qmonomial", _staircase_alpha(rng, n), n))
        else:
            what = rng.choice(("qschubert", "quantize", "qschur", "qmonomial", "schubert"))
            if what in ("qschubert", "schubert"):
                opts = {"w": perms.as_text(rng.sample(range(1, n + 1), n))}
                if what == "qschubert":
                    opts["n"] = n
            elif what == "quantize":
                opts = {"poly": _poly_text(rng, n), "n": n}
            elif what == "qschur":
                r = rng.randint(1, n - 1)
                opts = {"lam": _csv(_partition_in_box(rng, r, n - r, True)), "r": r, "n": n}
            else:
                opts = {"alpha": _csv(_staircase_alpha(rng, n)), "n": n}
            argv = ["compute", what] + [f"--{k}={v}" for k, v in opts.items()]
            out.append(("cli", tuple(argv)))
    return out


def inputs(workload: str, seed: int) -> list:
    """The requests of a rank6 or session job."""
    if workload == "rank6":
        return rank6_inputs(seed)
    if workload == "session":
        return session_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


# -- the timed job ---------------------------------------------------------------


def _cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code
    return rc, buf.getvalue()


def execute(req):
    """Serve one rank6 or session request; the result is what a caller keeps."""
    kind = req[0]
    if kind == "rank6":
        return qschub.q_schubert(req[1])
    if kind == "qschubert":
        return qschub.q_schubert(req[1]).text()
    if kind == "quantize":
        return qschub.quantize(qschub.parse(req[1]), req[2]).text()
    if kind == "expand":
        return qschub.schubert_expand(qschub.parse(req[1]))
    if kind == "qschur":
        return qschub.q_schur(req[1], req[2], req[3]).text()
    if kind == "qmonomial":
        return qschub.q_monomial(req[1], req[2]).text()
    if kind == "cli":
        return _cli(req[1])
    raise ValueError(f"unknown request {kind!r}")


def run_requests(reqs: list):
    """Time each request; return (latencies in ns, results, job seconds).

    A request that raises keeps its exception as its result."""
    lat, results = [], []
    clock = time.perf_counter_ns
    t_job = clock()
    for req in reqs:
        t0 = clock()
        try:
            res = execute(req)
        except Exception as exc:  # counted as a failed item by the checks
            res = exc
        lat.append(clock() - t0)
        results.append(res)
    return lat, results, (clock() - t_job) / 1e9


def run_suites():
    """Time verify.run_all(5), one item per identity case.

    An item is the work of one ``Report.check`` call: from the previous check
    of the same suite (or from the suite's start) to the end of this one, so
    it covers building both sides of the identity and comparing them.  The
    suite functions and ``Report.check`` are looked up when called, so timers
    bound in their places see every case in order.  Returns (latencies in ns,
    cases as (suite call index, suite, case label, passed), job seconds,
    run_all's reports or the exception it raised)."""
    clock = time.perf_counter_ns
    lat, cases = [], []
    mark = [0]
    calls = [-1]
    originals = {k: v for k, v in vars(verify).items() if k.startswith("suite_") and callable(v)}
    check = verify.Report.check

    def timed(fn):
        def call(*args, **kwargs):
            calls[0] += 1
            mark[0] = clock()
            return fn(*args, **kwargs)
        return call

    def timed_check(rep, case, actual, expected):
        passed = check(rep, case, actual, expected)
        now = clock()
        lat.append(now - mark[0])
        cases.append((calls[0], rep.suite, case, passed))
        mark[0] = now
        return passed

    for k, fn in originals.items():
        setattr(verify, k, timed(fn))
    verify.Report.check = timed_check
    t_job = clock()
    try:
        reports = verify.run_all(5)
    except Exception as exc:
        reports = exc
    finally:
        job_s = (clock() - t_job) / 1e9
        verify.Report.check = check
        for k, fn in originals.items():
            setattr(verify, k, fn)
    return lat, cases, job_s, reports


# -- checks ------------------------------------------------------------------------


def canonical(req, res) -> str:
    """The text a request's result is digested as."""
    if req[0] == "expand":
        return " + ".join(f"{c}*S{perms.as_text(w)}" for w, c in sorted(res.items()))
    if req[0] == "cli":
        return f"rc={res[0]}\n{res[1]}"
    if req[0] == "rank6":
        return res.text()
    return res


def request_key(req) -> str:
    return json.dumps(req)


def _library_result(argv):
    """What the library returns for a `compute` command line."""
    what = argv[1]
    opts = dict(arg[2:].split("=", 1) for arg in argv[2:])
    n = int(opts["n"]) if "n" in opts else None

    def ints(text):
        return tuple(int(p) for p in text.split(","))

    if what == "qschubert":
        return qschub.q_schubert(qschub.from_text(opts["w"]), n)
    if what == "schubert":
        return qschub.schubert(qschub.from_text(opts["w"]))
    if what == "quantize":
        return qschub.quantize(qschub.parse(opts["poly"]), n)
    if what == "qschur":
        return qschub.q_schur(ints(opts["lam"]), int(opts["r"]), n)
    if what == "qmonomial":
        return qschub.q_monomial(ints(opts["alpha"]), n)
    raise ValueError(f"no library twin for {what!r}")


def _monomial_text(alpha) -> str:
    return "*".join(f"x{i + 1}^{e}" for i, e in enumerate(alpha) if e) or "1"


def independent_check(req, res) -> str | None:
    """A second construction of the same answer; the reason on mismatch."""
    kind = req[0]
    parse = qschub.parse
    if kind == "rank6":
        if q_zero(res) != qschub.schubert(req[1]):
            return "q=0 specialisation differs from the classical Schubert polynomial"
    elif kind == "qschubert":
        if q_zero(parse(res)) != qschub.schubert(req[1]):
            return "q=0 specialisation differs from the classical Schubert polynomial"
    elif kind == "quantize":
        if q_zero(parse(res)) != parse(req[1]):
            return "q=0 specialisation of quantize(f) differs from f"
    elif kind == "expand":
        total = qschub.ZERO
        for w, c in res.items():
            total = total + c * qschub.schubert(w)
        if total != parse(req[1]):
            return "Schubert expansion does not recombine to f"
    elif kind == "qschur":
        if q_zero(parse(res)) != qschub.schur(req[1], req[2]):
            return "q=0 specialisation differs from the Schur polynomial"
    elif kind == "qmonomial":
        if q_zero(parse(res)) != parse(_monomial_text(req[1])):
            return "q=0 specialisation differs from x^alpha"
    elif kind == "cli":
        rc, out = res
        if rc != 0:
            return f"exit code {rc}"
        if parse(out.strip()) != _library_result(req[1]):
            return "CLI output does not re-parse to the library result"
    return None


def check_requests(reqs: list, results: list, golden: dict) -> list:
    """One entry per item: None when it passed, else the reason it failed.

    The first answer to a request must match its golden digest when there is
    one, and its independent construction always; a repeat must return the
    same answer and shares its verdict."""
    first: dict[str, tuple[str, str | None]] = {}
    out = []
    for req, res in zip(reqs, results):
        if isinstance(res, Exception):
            out.append(f"raised {type(res).__name__}: {res}")
            continue
        key = request_key(req)
        text = canonical(req, res)
        if key in first:
            text0, reason0 = first[key]
            out.append(reason0 if text == text0 else "repeat returned a different answer")
            continue
        want = golden.get(key)
        if want is not None and digest(text) != want:
            reason = "golden digest mismatch"
        else:
            try:
                reason = independent_check(req, res)
            except Exception as exc:  # a check that cannot run is a failed item
                reason = f"check raised {type(exc).__name__}: {exc}"
        first[key] = (text, reason)
        out.append(reason)
    return out


def check_suites(cases: list, outcome, golden: dict) -> list:
    """Per identity case: it must pass, except in the conjecture scan, whose
    failing cases must be exactly its known findings.  A fault of the whole
    sweep (run_all raised, the suites ran in another order, a Report's case
    count disagrees with the checks seen, exit_ok is false) fails every case."""
    if isinstance(outcome, Exception):
        return [f"run_all raised {type(outcome).__name__}: {outcome}"] * max(1, len(cases))
    if not cases:
        return ["no identity case was checked"]
    names = tuple(rep.suite for rep in outcome)
    seen = [0] * max(len(outcome), 1 + max(i for i, *_ in cases))
    for i, *_ in cases:
        seen[i] += 1
    if names != SUITE_ORDER:
        whole = f"suites ran as {names}"
    elif seen != [rep.cases for rep in outcome]:
        whole = "Report.cases disagrees with the checks seen"
    elif not verify.exit_ok(outcome) and all(ok for _, name, _, ok in cases if name != "conjectures"):
        whole = "exit_ok is false"
    else:
        whole = None
    findings = [f["case"] for rep in outcome if rep.suite == "conjectures" for f in rep.failures]
    findings_ok = findings == golden["conjecture_findings"]
    out = []
    for _, name, case, ok in cases:
        if whole:
            out.append(whole)
        elif name == "conjectures":
            out.append(None if findings_ok else "conjecture findings changed")
        else:
            out.append(None if ok else f"identity case {case!r} failed")
    return out
