"""Command-line interface: verbs, formats, exit codes, and round-trips."""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qschub import cli, perms, quantum
from qschub.poly import Y, parse


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_identity_rank_one(capsys):
    code, out, _ = run(capsys, "compute", "qschubert", "--w", "1", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_compute_quantize(capsys):
    code, out, _ = run(capsys, "compute", "quantize", "--poly", "x1^2", "--n", "3")
    assert code == 0
    assert out.strip() == "x1^2 - q1"


def test_compute_worked_example(capsys):
    code, out, _ = run(capsys, "compute", "qschubert", "--w", "13524", "--n", "5")
    assert code == 0
    assert parse(out.strip()) == quantum.q_schubert((1, 3, 5, 2, 4))


def test_compute_schubert_and_qdouble(capsys):
    code, out, _ = run(capsys, "compute", "schubert", "--w", "321")
    assert code == 0
    assert out.strip() == "x1^2*x2"
    code, out, _ = run(capsys, "compute", "qdouble", "--w", "21", "--n", "2")
    assert code == 0
    assert out.strip() == "x1 + y1"


def test_compute_qschur_and_qfactorial(capsys):
    code, out, _ = run(capsys, "compute", "qschur", "--lam", "2,2", "--r", "2", "--n", "4")
    assert code == 0
    assert parse(out.strip()) == quantum.q_schur((2, 2), 2, 4)
    code, out, _ = run(
        capsys, "compute", "qfactorial", "--lam", "2,2", "--r", "2", "--n", "4"
    )
    assert parse(out.strip()) == quantum.q_factorial_schur((2, 2), 2, 4)


def test_compute_qmonomial_and_stable(capsys):
    code, out, _ = run(capsys, "compute", "qmonomial", "--alpha", "2,0", "--n", "3")
    assert code == 0
    assert out.strip() == "x1^2 - q1"
    code, out, _ = run(capsys, "compute", "stable", "--w", "321", "--m", "2")
    assert code == 0
    assert parse(out.strip()) == quantum.stable_approx((3, 2, 1), 2)


def test_alphabet_rendering(capsys):
    code, out, _ = run(
        capsys, "--alphabet", "a", "compute", "qdouble", "--w", "21", "--n", "2"
    )
    assert code == 0
    assert out.strip() == "x1 + a1"
    # and the rendered form still parses (to the a-family)
    assert parse(out.strip()) == quantum.q_double_schubert((2, 1), 2).rename_family(Y, 3)


def test_alphabet_after_a_default_render(capsys):
    # the memoized S~_w keeps its default text; --alphabet output in the same
    # process is not read from it
    _, plain, _ = run(capsys, "compute", "qdouble", "--w", "231", "--n", "3")
    _, lettered, _ = run(capsys, "--alphabet", "a", "compute", "qdouble", "--w", "231", "--n", "3")
    _, again, _ = run(capsys, "compute", "qdouble", "--w", "231", "--n", "3")
    p = quantum.q_double_schubert((2, 3, 1), 3)
    assert plain == again and plain.strip() == p.text()
    assert "y" not in lettered and parse(lettered.strip()) == p.rename_family(Y, 3)


def test_json_format(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "compute", "quantize", "--poly", "x1^2", "--n", "3"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["op"] == "quantize"
    assert obj["n"] == 3
    assert obj["poly"]["text"] == "x1^2 - q1"


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "cauchy", "--n", "4")
    assert code == 0
    assert "suite cauchy" in out
    code, out, _ = run(capsys, "verify", "--suite", "counterexamples")
    assert code == 0
    code, out, _ = run(capsys, "verify", "--suite", "conjectures", "--n", "3")
    assert code == 0  # findings, not failures


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--suite", "factorization", "--n", "3"
    )
    assert code == 0
    reports = json.loads(out)
    assert isinstance(reports, list) and reports[0]["suite"] == "factorization"
    assert reports[0]["failures"] == []


def test_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--class", "rv", "--n", "4", "--count")
    assert (code, out.strip()) == (0, "21")
    code, out, _ = run(capsys, "enumerate", "--class", "rv", "--n", "5", "--count")
    assert (code, out.strip()) == (0, "79")
    code, out, _ = run(capsys, "enumerate", "--class", "dominant", "--n", "2")
    assert (code, out.split()) == (0, ["12", "21"])
    code, out, _ = run(
        capsys, "--format", "json", "enumerate", "--class", "dominant", "--n", "3"
    )
    obj = json.loads(out)
    assert obj["perms"] == [
        perms.as_text(w) for w in perms.enumerate_class(3, "dominant")
    ]


def test_conjecture_verb(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "3")
    assert code == 0
    assert "suite conjectures" in out


def test_rank_guard(capsys):
    code, _, err = run(capsys, "compute", "qschubert", "--w", "7654321")
    assert code == 2
    assert "exceeds" in err
    code, _, err = run(
        capsys, "--max-n", "7", "compute", "qschubert", "--w", "2134567"
    )
    assert code == 0
    assert "warning" in err
    code, _, err = run(capsys, "--max-n", "3", "compute", "qschubert", "--w", "4321")
    assert code == 2
    assert "--max-n 3" in err
    # quantize works at the rank its polynomial implies: x1^e needs S_{1+e}
    code, _, err = run(capsys, "compute", "quantize", "--poly", "x1^12", "--n", "3")
    assert code == 2
    assert "rank 13" in err and "--max-n" in err
    code, out, _ = run(
        capsys, "--max-n", "7", "compute", "quantize", "--poly", "x1^6", "--n", "3"
    )
    assert code == 0
    assert out.startswith("x1^6 - 5*q1*x1^4")
    # enumerate's rank passes the same guard
    count_rv = ("enumerate", "--class", "rv", "--count", "--n")
    code, out, err = run(capsys, "--max-n", "3", *count_rv, "7")
    assert (code, out) == (2, "")
    assert "--max-n 3" in err
    # past the guard, the library's enumeration cap still bounds enumerate
    code, _, err = run(capsys, "--max-n", "8", *count_rv, "8")
    assert code == 2
    assert f"enumeration cap {perms.ENUMERATION_CAP}" in err
    # a negative rank is refused, not read as an empty sweep
    for argv in (
        ("verify", "--suite", "schur", "--n", "-1"),
        count_rv + ("-1",),
        ("compute", "qschubert", "--w", "21", "--n", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "rank -1 is negative" in err
    # stable_approx runs at rank m + len(w), and the guard reads that rank
    code, out, err = run(capsys, "compute", "stable", "--w", "321", "--m", "4")
    assert (code, out) == (2, "")
    assert "rank 7" in err
    code, out, _ = run(capsys, "--max-n", "7", "compute", "stable", "--w", "321", "--m", "4")
    assert code == 0 and out.strip()
    # the above-default warning prints once per command, however many ranks
    code, _, err = run(capsys, "--max-n", "7", "compute", "stable", "--w", "321", "--m", "1")
    assert code == 0
    assert err.count("warning") == 1


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "compute", "quantize", "--poly", "x1^^2", "--n", "3")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "compute", "qschubert", "--w", "1325")
    assert code == 2
    # --n bounds the rank of a classical S_w as it does a quantum one
    for what in ("schubert", "qschubert"):
        code, out, err = run(capsys, "compute", what, "--w", "21", "--n", "1")
        assert (code, out) == (2, "")
        assert "does not fit in rank 1" in err
    # a negative exponent is out of the staircase, not a zero row
    code, out, err = run(capsys, "compute", "qmonomial", "--alpha", "1,-1", "--n", "3")
    assert (code, out) == (2, "")
    assert "negative exponent" in err
    # r = 3 rows do not fit in rank 2, even for the empty shape
    for what in ("qschur", "qfactorial"):
        code, out, err = run(capsys, "compute", what, "--lam", "", "--r", "3", "--n", "2")
        assert (code, out) == (2, "")
        assert "does not fit" in err
    # a negative guard is refused up front, not reported against some rank
    code, out, err = run(capsys, "--max-n", "-1", "compute", "qschubert", "--w", "132")
    assert (code, out) == (2, "")
    assert "--max-n -1 is negative" in err
    # an empty entry in a list of integers names the text it came from
    code, out, err = run(capsys, "compute", "qmonomial", "--alpha", "1,,2", "--n", "4")
    assert (code, out) == (2, "")
    assert "'1,,2' is not a comma-separated list of integers" in err
    # past the packed encoding's bounds: a typed error, never a wrapped value
    code, _, err = run(capsys, "compute", "quantize", "--poly", "x1^200", "--n", "3")
    assert code == 2
    assert "exponent above 127" in err
    code, _, err = run(capsys, "compute", "quantize", "--poly", "2^20000*x1", "--n", "3")
    assert code == 2
    assert "exponent above 127" in err
    code, _, err = run(capsys, "compute", "quantize", "--poly", "x1048577", "--n", "3")
    assert code == 2
    assert "variable index must be in 1..1024" in err
    # nested constant powers fail before building a huge int
    code, _, err = run(capsys, "compute", "quantize", "--poly", "(2^127)^127*x1", "--n", "3")
    assert code == 2
    assert "4096 bits" in err
    # and so do long products, whose coefficient text() could not print
    long_product = "*".join(["2^127"] * 120) + "*x1"
    code, _, err = run(capsys, "compute", "quantize", "--poly", long_product, "--n", "3")
    assert code == 2
    assert "4096 bits" in err
    # deep input never reaches the recursion limit: a long chain of unary
    # minuses computes, and deeply nested parentheses are refused
    minuses = "x2*" + "-" * 1000 + "x1"
    code, out, _ = run(capsys, "compute", "quantize", "--poly", minuses, "--n", "3")
    assert (code, out) == (0, "x1*x2 + q1\n")
    for deep in (101, 300):
        nested = "(" * deep + "x1" + ")" * deep
        code, out, err = run(capsys, "compute", "quantize", "--poly", nested, "--n", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: parentheses nested deeper than 100")


def test_internal_error_exit(capsys, monkeypatch):
    # a fault of the program itself is neither a usage error (2) nor a failed
    # verification (1)
    def broken(w, n=None):
        raise AssertionError("y chain left y variables behind")

    monkeypatch.setattr(quantum, "q_schubert", broken)
    code, out, err = run(capsys, "compute", "qschubert", "--w", "231")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: AssertionError: y chain left")
    assert "Traceback" in err

    # a ValueError is internal too: only a QschubError is a refused input
    def misused(w, n=None):
        return perms.times_s(w, 9)

    monkeypatch.setattr(quantum, "q_schubert", misused)
    code, out, err = run(capsys, "compute", "qschubert", "--w", "231")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: ValueError: transposition index 9")


def test_cached_parser_keeps_no_state(capsys):
    """The parser is built once per process; no call leaks into the next."""
    code, out, _ = run(capsys, "--format", "json", "compute", "schubert", "--w", "132")
    assert code == 0
    assert json.loads(out)["poly"]["text"] == "x1 + x2"
    code, out, _ = run(capsys, "compute", "schubert", "--w", "132")
    assert code == 0
    assert out == "x1 + x2\n"
    code, _, err = run(capsys, "--max-n", "3", "compute", "qschubert", "--w", "4321")
    assert code == 2
    assert "--max-n 3" in err
    code, out, _ = run(capsys, "compute", "qschubert", "--w", "4321")
    assert code == 0
    assert parse(out.strip()) == quantum.q_schubert((4, 3, 2, 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(["compute", "qschubert", "--w", "132", "--n", "three"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "compute", "qschubert", "--w", "132", "--n", "3")
    assert code == 0
    assert out == "x1 + x2\n"
    assert cli.build_parser() is cli.build_parser()


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "compute", "qschubert")
    assert code == 2
    assert "--w" in err


# odd option values (negative, empty, repeated commas, huge, deeply nested)
# and a few that compute, for the integer options and for the others
_INTS = ("-1", "0", "2", "3", "5", "", "9" * 40)
_TEXTS = _INTS + (
    ",",
    "1,,2",
    "2,-1",
    "321",
    "13524",
    "2,1",
    "x1^2 + q1",
    "x1^200",
    "-(x1",
    # deep enough to pass the recursion limit hypothesis raises while it runs
    "(" * 2000 + "x1" + ")" * 2000,
    "x2*" + "-" * 5000 + "x1",
)


@st.composite
def _argvs(draw):
    """A command line under --max-n 5: verb, targets and choices drawn from the
    parser itself, every other option value from _INTS or _TEXTS or left out,
    and verify and conjecture always at --n <= 3 (--slow is never drawn), so a
    run stays cheap."""
    argv, verb = ["--max-n", "5"], None
    parser = cli.build_parser()
    while parser is not None:
        actions, parser = parser._actions, None
        for act in actions:
            if isinstance(act.choices, dict):  # the verbs: descend into one
                verb = draw(st.sampled_from(sorted(act.choices)))
                argv.append(verb)
                parser = act.choices[verb]
            elif act.dest in ("help", "max_n", "slow"):
                continue
            elif not act.option_strings:
                argv.append(draw(st.sampled_from(act.choices)))
            elif act.dest == "n" and verb in ("verify", "conjecture"):
                argv.append(f"--n={draw(st.sampled_from(('-1', '0', '1', '2', '3')))}")
            elif act.nargs == 0:
                argv += [act.option_strings[0]] * draw(st.booleans())
            elif act.required or draw(st.booleans()):
                values = act.choices or (_INTS if act.type is int else _TEXTS)
                argv.append(f"{act.option_strings[0]}={draw(st.sampled_from(values))}")
    return argv


@settings(max_examples=100, deadline=None)
@given(_argvs())
@example(["--max-n", "5", "compute", "quantize", "--n=3", "--poly=" + _TEXTS[-2]])
@example(["--max-n", "5", "compute", "quantize", "--n=3", "--poly=" + _TEXTS[-1]])
@example(["--max-n", "5", "compute", "qschubert", "--w=321", "--n="])
def test_exit_code_contract(argv):
    # whatever the input: exit 0, 1 or 2, never a traceback, and exit 2
    # exactly when stderr starts with "error:"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert (code == 2) == err.getvalue().startswith("error:"), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_printed_polynomials_reparse(wl):
    w = tuple(wl)
    p = quantum.q_schubert(w)
    assert parse(p.text()) == p
