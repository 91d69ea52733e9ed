import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wscalc.cli import main

from references import clear_engine_caches, mutant


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_eval_normalization(capsys):
    code, doc = run_json(capsys, "eval", "--n", "2", "--m", "1", "--f", "0,0", "--d", "0")
    assert code == 0
    assert doc["schema"] == 1
    assert doc["value"] == "1"
    assert "wall_time_s" in doc


def test_eval_rank_one_closed_form(capsys):
    code, doc = run_json(capsys, "eval", "--n", "1", "--m", "0", "--f", "2")
    assert code == 0
    assert doc["value"] == (
        "1*v^4*x1^-2 + 1*v^4*x1^-1 + 1*v^4 + 1*v^4*x1^1 + 1*v^4*x1^2"
    )


def test_eval_non_dominant_is_structured_error(capsys):
    code, doc = run_json(capsys, "eval", "--n", "2", "--m", "1", "--f", "0,1")
    assert code == 1
    assert "not dominant" in doc["error"]["message"]


def test_eval_numeric_mode(capsys):
    code, doc = run_json(
        capsys, "eval", "--n", "2", "--m", "1", "--f", "1,0", "--mode", "numeric",
        "--q", "3", "--seed", "5",
    )
    assert code == 0
    assert "point" in doc and isinstance(doc["value"], list)


def test_eval_numeric_pole_exits_1(capsys, monkeypatch):
    """At v = i the reduced denominator 1 + v^2 of L((1), (1,1)) vanishes:
    a PoleError, reported with exit 1."""
    from wscalc import wsformula

    monkeypatch.setattr(
        wsformula, "sample_points", lambda ctx, count, seed, q: [(1j, 0.7, 0.7j, -0.7)]
    )
    code, doc = run_json(
        capsys, "eval", "--n", "2", "--m", "1", "--f", "1,1", "--d", "1", "--mode", "numeric"
    )
    assert code == 1
    assert doc["error"]["type"] == "PoleError"


def test_rank_constraint_rejected_at_parse(capsys):
    code, doc = run_json(capsys, "eval", "--n", "1", "--m", "1", "--f", "0")
    assert code == 2
    assert "rank" in doc["error"]["message"]


def test_verify_constant(capsys):
    code, doc = run_json(capsys, "verify", "constant", "--n", "2", "--m", "1")
    assert code == 0
    assert doc["pass"] is True
    assert doc["report"]["constant"] == "1 + 1*v^2"
    assert doc["report"]["b_terms"] == 16


def test_verify_shintani_small(capsys):
    code, doc = run_json(capsys, "verify", "shintani", "--n", "2", "--m", "1", "--K", "4")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["report"]["coefficients"]) == 5
    assert doc["report"]["failing"] == []


def test_verify_gamma(capsys):
    code, doc = run_json(capsys, "verify", "gamma", "--n", "2", "--m", "1")
    assert code == 0 and doc["pass"]


def test_verify_cone(capsys):
    code, doc = run_json(
        capsys, "verify", "cone", "--n", "3", "--m", "2", "--bound", "2",
        "--count", "50",
    )
    assert code == 0
    rep = doc["report"]
    assert rep["sum_conserved"] == rep["random_triples"] == 50
    assert rep["minimal"] == rep["exhaustive_triples"] > 0


def test_reduce_trace(capsys):
    code, doc = run_json(
        capsys, "reduce", "--n", "2", "--m", "1", "--d", "0", "--a", "0", "--r", "1"
    )
    assert code == 0
    assert doc["normal_form"] == {"d": [1], "a": [0], "r": [0]}
    assert len(doc["trace"]) == 3
    assert sum(1 for step in doc["trace"] if step["effective"]) == 1


def test_reduce_already_normal(capsys):
    code, doc = run_json(
        capsys, "reduce", "--n", "2", "--m", "1", "--d", "2", "--a", "3", "--r", "1"
    )
    assert code == 0
    assert all(not step["effective"] for step in doc["trace"])


def test_reduce_invalid_triple(capsys):
    code, doc = run_json(
        capsys, "reduce", "--n", "2", "--m", "1", "--d", "0", "--a", "0", "--r", "-1"
    )
    assert code == 1
    assert "error" in doc


def test_series_exact(capsys):
    code, doc = run_json(capsys, "series", "--n", "2", "--m", "1", "--K", "4")
    assert code == 0
    assert doc["pass"] is True
    assert len(doc["rows"]) == 5
    assert all(row["diff"] == "0" for row in doc["rows"])


def test_series_k0(capsys):
    code, out = run(capsys, "series", "--n", "2", "--m", "1", "--K", "0", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,lhs,rhs,diff"
    assert lines[1] == '0,"1","1","0"'


def test_series_numeric(capsys):
    code, doc = run_json(
        capsys, "series", "--n", "2", "--m", "1", "--K", "3", "--mode", "numeric",
        "--q", "3",
    )
    assert code == 0
    assert all(row["diff"] < 1e-9 for row in doc["rows"])


def test_series_rank_guard(capsys):
    """The series identity is decided at every n >= m+1: (3,1) computes and
    passes; a negative truncation is still a config error."""
    code, doc = run_json(capsys, "series", "--n", "3", "--m", "1", "--K", "2")
    assert code == 0 and doc["pass"] is True
    assert [row["diff"] for row in doc["rows"]] == ["0"] * 3
    code, doc = run_json(capsys, "series", "--n", "3", "--m", "1", "--K=-1")
    assert code == 2 and doc["error"]["type"] == "config"


def test_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(
            ["eval", "--n", "2", "--m", "1", "--d", "0", "--f", "1,0",
             "--mode", "numeric", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_exit_code_contract_on_failure(capsys, monkeypatch):
    # force a failing check by comparing against a corrupted closed form
    import wscalc.cli as cli_mod

    def bad_verify(cfg, ctx):
        return False, {"witness": "forced failure", "pass": False}

    monkeypatch.setitem(cli_mod._VERIFIERS, "constant", bad_verify)
    code, doc = run_json(capsys, "verify", "constant", "--n", "2", "--m", "1")
    assert code == 1
    assert doc["pass"] is False
    assert doc["report"]["witness"] == "forced failure"


def test_verify_reports_a_pole_error(capsys, monkeypatch):
    """A PoleError raised by a check is its result, exit 1, as a ValueError
    is; the command line imports PoleError only when an exception arrives."""
    import wscalc.cli as cli_mod
    from wscalc.ratfun import PoleError

    def pole(cfg, ctx):
        raise PoleError("forced pole")

    monkeypatch.setitem(cli_mod._VERIFIERS, "gamma", pole)
    code, doc = run_json(capsys, "verify", "gamma", "--n", "2", "--m", "1")
    assert code == 1
    assert doc["error"] == {"type": "PoleError", "message": "forced pole"}


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_subprocess(*argv, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "wscalc.cli"] + list(argv),
        capture_output=True, text=True, timeout=timeout, env=env,
    )


@pytest.mark.parametrize("q", ["1", "4", "6", "x"])
def test_verify_padic_rejects_non_prime_q(q):
    """q = 1 used to hang in random_rational and q = 4 passed as a
    mathematical FAIL; both are config errors, as is a q that is not an integer."""
    proc = _run_subprocess(
        "verify", "padic", "--n", "2", "--m", "1", "--samples", "2", "--q", q
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "2", "--m", "1", "--f", "1,0"],
        ["series", "--n", "2", "--m", "1", "--K", "1"],
    ],
)
def test_numeric_mode_refuses_q_below_2(capsys, argv):
    code, doc = run_json(capsys, *argv, "--mode", "numeric", "--q", "1")
    assert code == 2
    assert doc["error"] == {"type": "config",
                            "message": "numeric mode requires a concrete q >= 2"}


@pytest.mark.parametrize(
    "argv",
    [
        ["padic", "--samples", "0"],
        ["cone", "--count", "0", "--bound", "-1"],
        ["cone", "--count", "-1"],
    ],
)
def test_zero_work_verify_is_config_error(argv):
    """A run that would check nothing used to report pass: true, and a
    negative cone count a mathematical FAIL; both are config errors."""
    proc = _run_subprocess("verify", *argv, "--n", "2", "--m", "1")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "config"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--f", "1,0,0,0,0,0,0", "--mode", "numeric"],
        ["eval", "--f", "1,0,0,0,0,0,0", "--mode", "exact"],
        ["series", "--K", "1"],
        ["verify", "constant"],
        ["verify", "invariance"],
        ["verify", "shintani", "--K", "1"],
    ],
)
def test_b_expansion_beyond_rank_4_is_config_error(argv):
    """At (7,6) both modes used to start expanding b and never finish; the
    rank is refused before any expansion starts."""
    proc = _run_subprocess(*argv, "--n", "7", "--m", "6", timeout=10)
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "config" and "n = 7" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--d", "0", "--a", "0", "--r", "1"],
        ["verify", "constant"],
        ["verify", "gamma"],
        ["verify", "invariance"],
        ["verify", "shintani"],
        ["verify", "cone"],
        ["verify", "padic"],
        ["verify", "gauss"],
    ],
)
def test_numeric_mode_without_numeric_path_is_config_error(argv):
    """These commands have no numeric path; they used to accept --mode
    numeric and run exactly.  Only eval and series declare --mode."""
    ranks = [] if argv == ["verify", "gauss"] else ["--n", "2", "--m", "1"]
    proc = _run_subprocess(*argv, *ranks, "--mode", "numeric")
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    name = "reduce" if argv[0] == "reduce" else " ".join(argv)
    assert error == {"type": "config", "message": name + " does not read --mode"}


@pytest.mark.parametrize(
    "which", ["constant", "gamma", "invariance", "shintani", "cone", "gauss"]
)
@pytest.mark.parametrize("option", [["--q", "4"], ["--samples", "0"]])
def test_verify_option_it_does_not_read_is_config_error(capsys, which, option):
    """Only verify padic reads --q and --samples; verify gauss used to accept
    --q 4 --samples 0 and pass."""
    ranks = [] if which == "gauss" else ["--n", "2", "--m", "1"]
    code, doc = run_json(capsys, "verify", which, *ranks, *option)
    assert code == 2
    assert doc["error"]["type"] == "config"
    assert "does not read " + option[0] in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "2", "--m", "1", "--f", "1,0", "--q", "4"],
        ["eval", "--n", "2", "--m", "1", "--f", "1,0", "--mode", "exact", "--q", "3"],
        ["reduce", "--n", "3", "--m", "2", "--d", "0,0", "--a", "0", "--r", "1,0", "--q", "1"],
        ["series", "--n", "2", "--m", "1", "--K", "2", "--q", "0"],
    ],
)
def test_q_where_nothing_reads_it_is_config_error(capsys, argv):
    """Exact eval and series, and reduce, used to accept --q and ignore it;
    only numeric mode and verify padic read it."""
    code, doc = run_json(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "config"
    assert "does not read --q" in doc["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--n", "2", "--m", "1", "--f", "1,0"],
        ["series", "--n", "2", "--m", "1", "--K", "2"],
        ["reduce", "--n", "3", "--m", "2", "--d", "0,0", "--a", "0", "--r", "1,0"],
        ["verify", "constant", "--n", "2", "--m", "1"],
        ["verify", "gamma", "--n", "2", "--m", "1"],
        ["verify", "invariance", "--n", "2", "--m", "1"],
        ["verify", "gauss"],
    ],
)
def test_seed_where_nothing_reads_it_is_config_error(capsys, argv):
    """Commands that draw nothing used to accept --seed and echo it;
    `verify constant --seed 9` exited 0."""
    code, doc = run_json(capsys, *argv, "--seed", "9")
    assert code == 2
    assert doc["error"]["type"] == "config"
    assert "does not read --seed" in doc["error"]["message"]


CHECKS = ("constant", "gamma", "invariance", "shintani", "cone", "padic", "gauss")
# the options that only some checks of verify read, each with a valid value,
# and the checks that read them; every other check refuses them
CHECK_OPTIONS = {"--K": "2", "--count": "5", "--bound": "1", "--d": "0", "--f": "0,0",
                 "--samples": "2", "--q": "5", "--seed": "9"}
CHECK_READS = {
    "invariance": ("--d", "--f"),
    "shintani": ("--K", "--seed"),
    "cone": ("--count", "--bound", "--seed"),
    "padic": ("--q", "--samples", "--seed"),
}


@pytest.mark.parametrize(
    "which,option",
    [(w, o) for w in CHECKS for o in CHECK_OPTIONS if o not in CHECK_READS.get(w, ())],
)
def test_verify_refuses_the_options_of_other_checks(capsys, which, option):
    """Each check parses only its own options; verify gamma used to accept
    and ignore --K, --count, --bound, --d and --f, and exit 0."""
    ranks = [] if which == "gauss" else ["--n", "2", "--m", "1"]
    code, doc = run_json(capsys, "verify", which, *ranks, option, CHECK_OPTIONS[option])
    assert code == 2
    assert doc["error"] == {
        "type": "config", "message": "verify %s does not read %s" % (which, option)
    }


@pytest.mark.parametrize("ranks", [["--n", "1", "--m", "0"], ["--m", "2"], ["--n=3"]])
def test_verify_gauss_takes_no_ranks(capsys, ranks):
    """verify gauss checks the same 162 cases at every rank; it used to
    accept --n and --m, validate them and ignore them."""
    code, doc = run_json(capsys, "verify", "gauss", *ranks)
    assert code == 2
    assert doc["error"] == {
        "type": "config", "message": "verify gauss does not read " + ranks[0].split("=")[0]
    }


def test_verify_gamma_with_the_options_of_other_checks_is_config_error(capsys):
    code, doc = run_json(
        capsys, "verify", "gamma", "--n", "2", "--m", "1", "--K", "-3", "--count", "5",
        "--bound", "9", "--d", "7", "--f", "1,2,3",
    )
    assert code == 2
    assert doc["error"] == {"type": "config", "message": "verify gamma does not read --K"}


def _readme_command_lines():
    path = os.path.join(os.path.dirname(SRC), "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("wscalc ")]


def test_readme_command_lines_parse_with_nothing_left_over():
    """Every wscalc line of the README's command-line block parses with no
    option its command refuses; an option of another check is left over."""
    from wscalc.cli import build_parser

    lines = _readme_command_lines()
    assert len(lines) >= 10
    for argv in lines:
        assert build_parser().parse_known_args(argv)[1] == [], argv
    gamma_with_k = ["verify", "gamma", "--n", "3", "--m", "2", "--K", "8"]
    assert build_parser().parse_known_args(gamma_with_k)[1] == ["--K", "8"]


def _with_one_minus_x1(gamma_big):
    from wscalc.ratfun import Poly, RatFun

    def mutated(ctx):
        x1 = Poly.monomial(ctx, (0, 1) + (0,) * (ctx.size - 2))
        return gamma_big(ctx) * RatFun.from_poly(Poly.constant(ctx, 1) - x1)

    return mutated


def test_verify_invariance_fails_on_a_wrong_gamma(capsys, monkeypatch):
    """Gamma (1 - x1) used to pass: Gamma was divided straight back out."""
    from wscalc import wsformula

    monkeypatch.setattr(wsformula, "gamma_big", _with_one_minus_x1(wsformula.gamma_big))
    code, doc = run_json(capsys, "verify", "invariance", "--n", "2", "--m", "1")
    assert code == 1 and doc["pass"] is False
    assert [g["root"] for g in doc["report"]["generators"] if not g["pass"]] == ["e1-e2"]


def test_verify_gamma_fails_on_an_inverted_gamma_factor(capsys, monkeypatch):
    """gamma_alpha of the long root with zeta(chi_n + 1)/zeta(-chi_n + 1)
    inverted."""
    from wscalc import zetafactors
    from wscalc.ratfun import zeta_of

    gamma_alpha = zetafactors.gamma_alpha

    def inverted(ctx, alpha):
        out = gamma_alpha(ctx, alpha)
        if 2 not in alpha:
            return out
        q1 = ctx.v(2)
        ratio = zeta_of(ctx.x(ctx.n) * q1) / zeta_of(ctx.x(ctx.n, -1) * q1)
        return out / (ratio * ratio)

    monkeypatch.setattr(zetafactors, "gamma_alpha", inverted)
    zetafactors.reflection_factors.cache_clear()
    try:
        code, doc = run_json(capsys, "verify", "gamma", "--n", "2", "--m", "1")
    finally:
        zetafactors.reflection_factors.cache_clear()
    assert code == 1 and doc["pass"] is False
    assert [g["root"] for g in doc["report"]["generators"] if not g["pass"]] == ["2e2"]


def test_verify_gamma_fails_on_a_long_reflection_that_flips_coordinate_1(capsys, monkeypatch):
    """s_alpha of a long root 2e_k that flips coordinate 1 instead of k: the
    two long roots fail, and only they."""
    from wscalc import weyl, zetafactors

    def flips_first(alpha):
        if 2 not in alpha:
            return weyl.reflection(alpha)
        k = len(alpha)
        return weyl.SignedPerm(range(1, k + 1), (-1,) + (1,) * (k - 1))

    monkeypatch.setattr(zetafactors, "reflection", flips_first)
    zetafactors.reflection_factors.cache_clear()
    try:
        code, doc = run_json(capsys, "verify", "gamma", "--n", "3", "--m", "2")
    finally:
        zetafactors.reflection_factors.cache_clear()
    assert code == 1 and doc["pass"] is False
    failing = [(g["group"], g["root"]) for g in doc["report"]["generators"] if not g["pass"]]
    assert failing == [("G", "2e3"), ("M", "2e2")]


def test_verify_gauss_names_failing_case(monkeypatch):
    import wscalc.cli as cli_mod
    from wscalc import padic

    closed = padic.gauss_shell

    def sign_flipped(i, j, q):
        value = closed(i, j, q)
        return -value if j == i + 1 else value

    monkeypatch.setattr(padic, "gauss_shell", sign_flipped)
    ok, report = cli_mod._verify_gauss(None, None)
    assert not ok and not report["pass"]
    assert report["failures"] == [
        {
            "q": q, "i": i, "j": i + 1,
            "oracle": str(-Fraction(q) ** -(i + 2)),
            "closed": str(Fraction(q) ** -(i + 2)),
        }
        for q in (3, 5) for i in range(-4, 4)
    ]


GAUSS_CASES = [(q, i, j) for q in (3, 5) for i in range(-4, 5) for j in range(-4, 5)]

# (old, new, the cases of verify gauss that the mutant must fail)
GAUSS_MUTATIONS = {
    "top block dropped": (
        "top = vec[(p - 1) * b:]", "top = bytes(b)", lambda q, i, j: j > i,
    ),
    "residue 0 a unit": (
        "    if k <= 0:\n",
        "    units = b\"\\1\" + units[1:]\n    if k <= 0:\n",
        lambda q, i, j: True,
    ),
}


@pytest.mark.parametrize("mutation", sorted(GAUSS_MUTATIONS))
def test_verify_gauss_fails_on_a_broken_oracle(capsys, monkeypatch, mutation):
    """A reduction that drops the top block instead of subtracting it fails
    every case with j > i; counting residue 0 as a unit fails all 162.  Each
    failure names its case, with the oracle's value and the closed form."""
    from wscalc import padic

    old, new, fails = GAUSS_MUTATIONS[mutation]
    monkeypatch.setattr(padic, "gauss_shell_sum", mutant(padic, old, new).gauss_shell_sum)
    code, doc = run_json(capsys, "verify", "gauss")
    assert code == 1 and doc["pass"] is False
    failures = doc["report"]["failures"]
    assert [(w["q"], w["i"], w["j"]) for w in failures] == [c for c in GAUSS_CASES if fails(*c)]
    assert all(w["oracle"] != w["closed"] for w in failures)
    if mutation == "top block dropped":
        assert {
            "q": 3, "i": 0, "j": 1,
            "oracle": "1/9*(+1*z^1), z = exp(2*pi*i/3)", "closed": "-1/9",
        } in failures


@pytest.mark.parametrize(
    "argv,option,value",
    [
        (["eval", "--n", "2", "--m", "1"], "--f", "-1,0"),
        (["eval", "--n", "3", "--m", "2", "--f", "1,0,0"], "--d", "-1,0"),
        (["reduce", "--n", "3", "--m", "2", "--a", "0", "--r", "1,0"], "--d", "-1,0"),
        (["reduce", "--n", "3", "--m", "1", "--d", "0", "--r", "1"], "--a", "-1,0"),
        (["reduce", "--n", "3", "--m", "2", "--d", "0,0", "--a", "0"], "--r", "-1,0"),
        (["verify", "invariance", "--n", "2", "--m", "1"], "--f", "-1,0"),
    ],
)
def test_negative_vector_after_a_space(capsys, argv, option, value):
    """--f -1,0 used to be refused as "argument --f: expected one argument"
    (exit 2); every vector option now reads it as --f=-1,0 does and reaches
    the dominance check (exit 1, a ValueError document)."""
    code, doc = run_json(capsys, *argv, option, value)
    glued_code, glued_doc = run_json(capsys, *argv, option + "=" + value)
    for d in (doc, glued_doc):
        d.pop("wall_time_s", None)
    assert code == glued_code == 1
    assert doc == glued_doc and doc["error"]["type"] == "ValueError"


def test_verify_padic_fails_on_a_wrong_minor_index(capsys, monkeypatch):
    """beta_l omits column n-m; a beta_l that keeps it must make verify
    padic report FAIL, or the verifier shows nothing."""
    from wscalc import padic

    def beta_keeping_column_n_minus_m(g, l, m):
        size = g.n - m + l - 1
        N = 2 * g.n
        return padic.minor(g, tuple(range(N + 1 - size, N + 1)), tuple(range(1, size + 1)))

    monkeypatch.setattr(padic, "beta_l", beta_keeping_column_n_minus_m)
    code, doc = run_json(capsys, "verify", "padic", "--n", "3", "--m", "2", "--samples", "3")
    assert code == 1 and doc["pass"] is False
    report = doc["report"]
    assert report["valuations_recovered"] < report["trials"] == 3


def test_verify_padic_fails_on_a_shifted_delta_half(capsys, monkeypatch):
    """verify padic takes its expected kernel exponent from the modulus
    characters of L(d, f); shifting the exponent n-i+1 of delta_half_G to
    n-i+2 must fail the kernel check and nothing else."""
    from wscalc import zetafactors

    delta_half_G = zetafactors.delta_half_G

    def shifted(ctx, f):
        return delta_half_G(ctx, f) + 2 * sum(f)

    # verify padic imports delta_half_G from zetafactors where it runs
    monkeypatch.setattr(zetafactors, "delta_half_G", shifted)
    code, doc = run_json(capsys, "verify", "padic", "--n", "3", "--m", "2", "--samples", "5")
    assert code == 1 and doc["pass"] is False
    report = doc["report"]
    assert report["kernel_matches"] < report["trials"] == 5
    assert report["valuations_recovered"] == report["minor_invariances"] == 5


def test_verify_cone_fails_on_a_wrong_operation(capsys, monkeypatch):
    """An Operation 1 that pushes one unit too many from r into d keeps d + r
    and the triple valid, but its normal form is no longer minimal: verify
    cone must report FAIL."""
    from wscalc import cone

    op1 = cone.op1

    def one_unit_too_many(t):
        out = op1(t)
        if out == t or out.r[0] == 0:
            return out
        return out.replace(d=(out.d[0] + 1,) + out.d[1:], r=(out.r[0] - 1,) + out.r[1:])

    monkeypatch.setattr(cone, "op1", one_unit_too_many)
    code, doc = run_json(
        capsys, "verify", "cone", "--n", "3", "--m", "2", "--bound", "2", "--count", "50"
    )
    assert code == 1 and doc["pass"] is False
    assert doc["report"]["minimal"] < doc["report"]["exhaustive_triples"]


def test_verify_cone_fails_when_an_operation_leaves_the_cone(capsys, monkeypatch):
    """An Operation (3,i) that pulls one unit too many from r drives some r_j
    below 0.  Every triple that an operation returns is validated, so verify
    cone must stop on that triple with exit 1, not pass."""
    from wscalc import cone

    op3 = cone.op3

    def one_unit_too_many(t, i):
        out = op3(t, i)
        if out == t:
            return out
        j = next(k for k in range(t.m) if out.d[k] != t.d[k])
        bump = tuple(int(k == j) for k in range(t.m))
        return out.replace(
            d=tuple(x + y for x, y in zip(out.d, bump)),
            r=tuple(x - y for x, y in zip(out.r, bump)),
        )

    monkeypatch.setattr(cone, "op3", one_unit_too_many)
    code, doc = run_json(
        capsys, "verify", "cone", "--n", "3", "--m", "2", "--bound", "2", "--count", "50"
    )
    assert code == 1 and "pass" not in doc
    assert doc["error"] == {"type": "ValueError", "message": "d and r must be nonnegative"}


def _refuse(*args, **kwargs):
    raise AssertionError("a path that must not run did")


def test_verify_invariance_fails_on_a_character_missing_a_weight(capsys, monkeypatch):
    """chi^B_(1,0) of SO(5) with one non-dominant weight dropped, through the
    name the check reads (the check keeps no cache of its own): verify
    invariance must fail at exactly the reflections of G that move that
    weight, s_(e1-e2) and s_(2e2) for (0, 1) and (0, -1), and s_(e1-e2)
    alone for (-1, 0), which s_(2e2) fixes."""
    from wscalc import weyl, wsformula

    moved_by = {(0, 1): ["e1-e2", "2e2"], (0, -1): ["e1-e2", "2e2"], (-1, 0): ["e1-e2"]}
    for weight, roots in moved_by.items():

        def dropped(lam, group, weight=weight):
            chi = weyl.character(lam, group)
            if (lam, group) != ((1, 0), "so"):
                return chi
            return tuple((e, c) for e, c in chi if e != weight)

        monkeypatch.setattr(wsformula, "character", dropped)
        code, doc = run_json(capsys, "verify", "invariance", "--n", "2", "--m", "1", "--f", "1,0")
        assert code == 1 and doc["pass"] is False
        failing = [(g["group"], g["root"]) for g in doc["report"]["generators"] if not g["pass"]]
        assert failing == [("G", root) for root in roots]


def test_verify_invariance_builds_no_rational_function_of_s(capsys, monkeypatch):
    """verify invariance reads S's characters, not S: it passes at (3,2) with
    the expansion of character forms refused."""
    from wscalc import wsformula

    monkeypatch.setattr(wsformula, "_expand", _refuse)
    for vectors in ([], ["--d", "1,0", "--f", "2,1,0"]):
        code, doc = run_json(capsys, "verify", "invariance", "--n", "3", "--m", "2", *vectors)
        assert code == 0 and doc["pass"] is True


def test_verify_constant_decides_in_integers(capsys, monkeypatch):
    """verify constant's verdict compares integer coefficients in the
    character basis: it holds with RatFun equality refused."""
    from wscalc.ratfun import RatFun

    monkeypatch.setattr(RatFun, "__eq__", _refuse)
    for n, m in ((1, 0), (2, 1), (3, 2)):
        code, doc = run_json(capsys, "verify", "constant", "--n", str(n), "--m", str(m))
        assert code == 0 and doc["pass"] is True


def test_verify_constant_fails_on_an_extra_character(capsys, monkeypatch):
    """The form at d = 0, f = 0 with chi^B_(1,0) added must fail verify
    constant."""
    from wscalc import wsformula

    character_form = wsformula._character_form

    def with_extra(ctx, d, f):
        extra = (((1,) + (0,) * (ctx.n - 1), (0,) * ctx.m), ((0, 1),))
        return tuple(sorted(character_form(ctx, d, f) + (extra,)))

    monkeypatch.setattr(wsformula, "_character_form", with_extra)
    code, doc = run_json(capsys, "verify", "constant", "--n", "2", "--m", "1")
    assert code == 1 and doc["pass"] is False


def test_numeric_paths_evaluate_no_rational_function(capsys, monkeypatch):
    """eval and series in numeric mode evaluate LValues: they pass with
    RatFun.eval_at refused."""
    from wscalc.ratfun import RatFun

    monkeypatch.setattr(RatFun, "eval_at", _refuse)
    code, doc = run_json(capsys, "eval", "--n", "3", "--m", "2", "--d", "1,0", "--f", "2,1,0",
                         "--mode", "numeric")
    assert code == 0 and isinstance(doc["value"], list)
    code, doc = run_json(capsys, "series", "--n", "2", "--m", "1", "--K", "5", "--mode", "numeric")
    assert code == 0 and doc["pass"] is True


@pytest.fixture
def fresh_b_caches():
    """Clear the engine's caches before and after a test that corrupts b or
    its straightening, so that no corrupted form outlives it."""
    clear_engine_caches()
    yield
    clear_engine_caches()


def _only_shintani_fails(n, m):
    """verify constant and verify invariance (d = (1,0,..), f = (2,1,0,..))
    exit 0 at (n, m), and verify shintani --K 4 exits 1."""
    ranks = ["--n", str(n), "--m", str(m)]
    d = ",".join(["1"] + ["0"] * (m - 1))
    f = ",".join(["2", "1"] + ["0"] * (n - 2))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "constant", *ranks]) == 0
        assert main(["verify", "invariance", *ranks, "--d", d, "--f", f]) == 0
        assert main(["verify", "shintani", *ranks, "--K", "4"]) == 1


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_what_each_verifier_sees_of_b_without_its_odd_v_terms(monkeypatch, fresh_b_caches, n, m):
    """Dropping every term of b with an odd power of v leaves the form at
    d = 0, f = 0 and the characters of every form as they were, so verify
    constant and verify invariance pass; the series identity fails.  Pinned
    so that a change in what either verifier sees shows up."""
    from wscalc import wsformula
    from wscalc.ratfun import Poly

    b_factor_poly = wsformula.b_factor_poly

    def even_v_only(ctx):
        b = b_factor_poly(ctx)
        return Poly(b.vars, {e: c for e, c in b.terms.items() if e[0] % 2 == 0})

    monkeypatch.setattr(wsformula, "b_factor_poly", even_v_only)
    _only_shintani_fails(n, m)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_what_each_verifier_sees_of_a_straightening_without_its_signs(
        monkeypatch, fresh_b_caches, n, m):
    """A straightening that returns sign 1 for every weight, of both sides,
    leaves the form at d = 0, f = 0 and the characters of every form as they
    were, so verify constant and verify invariance pass; the series identity
    fails.  Pinned so that a change in what either verifier sees shows up."""
    from wscalc import wsformula

    straighten_weight = wsformula.straighten_weight

    def unsigned(lam, group):
        st = straighten_weight(lam, group)
        return st and (1, st[1])

    monkeypatch.setattr(wsformula, "straighten_weight", unsigned)
    _only_shintani_fails(n, m)


def test_verify_constant_fails_on_a_wrong_b_factor(capsys, monkeypatch, fresh_b_caches):
    """b with its last factor 1 - q^-(chi_n + xi_m + 1/2) replaced by
    1 - q^-(chi_n + xi_m + 3/2), through the name that the grouped b reads,
    must fail verify constant."""
    from wscalc import wsformula, zetafactors
    from wscalc.ratfun import RatFun, zeta_inv_of

    def one_factor_replaced(ctx):
        ms = zetafactors.b_monomials(ctx)
        ms[-1] = ms[-1] * ctx.v(2)
        return prod((zeta_inv_of(m) for m in ms), start=RatFun.one(ctx)).numerator_poly()

    monkeypatch.setattr(wsformula, "b_factor_poly", one_factor_replaced)
    code, doc = run_json(capsys, "verify", "constant", "--n", "2", "--m", "1")
    assert code == 1 and doc["pass"] is False
    assert doc["report"]["constant"] != doc["report"]["closed_form"]


def _run_fresh(body):
    """Run ``body`` in a fresh interpreter; return the value it leaves in
    ``result`` and the modules the process loaded after start-up."""
    child = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "result = None\n"
        + body
        + "print(json.dumps([result, sorted(set(sys.modules) - before)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    result, loaded = json.loads(proc.stdout)
    return result, set(loaded)


def _loaded_by(argv):
    """The exit code of a fresh ``wscalc argv``, then of importing
    wscalc.padic, and the modules the process loaded after start-up."""
    return _run_fresh(
        "from wscalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    result = main(%r)\n"
        "import wscalc.padic\n" % (argv,)
    )


def test_verify_padic_loads_only_what_it_runs():
    """The package imports no submodule and the command line imports each
    command's modules where it runs them, so a fresh verify padic, and then
    the p-adic module itself, load neither the Weyl-sum engine, the series,
    the cone nor dataclasses; and a fresh verify gauss, which builds no
    Context, loads no module of the package but the command line and padic.
    Modules loaded at interpreter start-up do not count."""
    rc, loaded = _loaded_by(["verify", "padic", "--n", "3", "--m", "2", "--samples", "2"])
    assert rc == 0 and {"wscalc.cli", "wscalc.padic"} <= loaded
    unwanted = {"wscalc.wsformula", "wscalc.charform", "wscalc.cone", "dataclasses"}
    assert not unwanted & loaded
    rc, loaded = _loaded_by(["verify", "gauss"])
    assert rc == 0
    assert {name for name in loaded if name.startswith("wscalc")} == {
        "wscalc", "wscalc.cli", "wscalc.padic"}
    assert "dataclasses" not in loaded


def test_weyl_loads_no_rational_functions():
    """The characters are built in integers, so a fresh import of
    wscalc.weyl loads no other module of the package, wscalc.ratfun least
    of all.  Modules loaded at interpreter start-up do not count."""
    _, loaded = _run_fresh("import wscalc.weyl\n")
    assert "wscalc.ratfun" not in loaded
    assert {name for name in loaded if name.startswith("wscalc")} == {"wscalc", "wscalc.weyl"}


# -- the eval contract ----------------------------------------------------------

MALFORMED = ("a", "1,,2", "1.5", "1;2", "x,0", "1,", ",")
# the exit code of each kind of eval input; "none" is drawn twice as often
FAULTS = {"none": 0, "order": 1, "sign": 1, "length": 2, "malformed": 2, "rank": 2, "big": 2}


@st.composite
def eval_argv(draw):
    """An eval command line over small ranks, with dominant --f and --d or
    one fault: an entry out of order or negative, a wrong length, malformed
    text, a rank outside n >= m+1 >= 1, or n >= 5.  Returns the argv and the
    exit code that the contract demands of it."""
    fault = draw(st.sampled_from(("none",) + tuple(FAULTS)))
    n = draw(st.integers(5, 7) if fault == "big" else st.integers(1 + (fault == "order"), 3))
    m = draw(st.sampled_from((-1, n, n + 1)) if fault == "rank" else st.integers(0, n - 1))

    def dominant(k):
        return sorted(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), reverse=True)

    vecs = {"f": dominant(n), "d": dominant(max(m, 0))}
    need = {"order": 2, "sign": 1}.get(fault, 0)
    which = draw(st.sampled_from([k for k in ("f", "d") if len(vecs[k]) >= need]))
    vec = vecs[which]
    if fault == "order":
        vec[-1] = vec[0] + 1
    elif fault == "sign":
        vec[draw(st.integers(0, len(vec) - 1))] = -draw(st.integers(1, 2))
    elif fault == "length":
        vec[:] = vec[:-1] if vec and draw(st.booleans()) else vec + [0]
    text = {k: ",".join(map(str, v)) for k, v in vecs.items()}
    if fault == "malformed":
        text[which] = draw(st.sampled_from(MALFORMED))
    argv = ["eval", "--n=%d" % n, "--m=%d" % m, "--f=" + text["f"],
            "--mode=" + draw(st.sampled_from(("exact", "numeric")))]
    if which == "d" and fault != "none" or draw(st.booleans()):
        argv.append("--d=" + text["d"])
    return argv, FAULTS[fault]


@pytest.fixture(scope="module")
def warm_ranks():
    """One eval per rank of the contract, so that the deadline below times
    the per-weight work and not the one-off set-up of a rank."""
    for n in (1, 2, 3):
        for m in range(n):
            with contextlib.redirect_stdout(io.StringIO()):
                main(["eval", "--n=%d" % n, "--m=%d" % m, "--f=" + ",".join("0" * n)])


# -- the contract of verify, series and reduce ----------------------------------

# options with a valid value, and which of them each command reads; it
# refuses the others
OPTIONS = {"--q": "5", "--samples": "2", "--seed": "9", "--mode": "numeric",
           "--K": "2", "--count": "5", "--bound": "1", "--d": "0", "--f": "0"}
READS = {
    "reduce": ("--d",),
    "series": ("--mode", "--K"),
    "verify invariance": ("--d", "--f"),
    "verify padic": ("--q", "--samples", "--seed"),
    "verify cone": ("--seed", "--count", "--bound"),
    "verify shintani": ("--seed", "--K"),
}
# the faults of each command besides a bad rank and an option it does not
# read; those in FIXED_FAULTS are one option below its range
OWN_FAULTS = {
    "reduce": ("weight", "length", "malformed"),
    "verify invariance": ("weight", "length", "malformed"),
    "series": ("K",),
    "verify shintani": ("K",),
    "verify cone": ("count",),
    "verify padic": ("samples", "prime"),
}
FIXED_FAULTS = {"K": "--K=-1", "count": "--count=-1", "samples": "--samples=0", "prime": "--q=4"}


@st.composite
def command_argv(draw):
    """A verify, series or reduce command line over small ranks, valid or with
    one fault: a bad rank, an option the command does not read, a weight that
    is not dominant, a wrong length, malformed text, or a value below its
    range.  Returns the argv and the exit code that the contract demands of
    it: 0 if valid, 1 for a weight that is not dominant, 2 otherwise."""
    command = draw(st.sampled_from(("reduce", "series") + tuple("verify " + c for c in CHECKS)))
    m = draw(st.integers(0, 2))
    n = draw(st.integers(m + 1, 3))
    fault = draw(st.sampled_from(("none", "none", "rank", "option") + OWN_FAULTS.get(command, ())))
    if fault == "rank":
        m = draw(st.sampled_from((-1, n, n + 1)))
    # verify gauss takes no ranks, so for it any rank is the fault
    ranks = ["--n=%d" % n, "--m=%d" % m]
    argv = command.split() + (ranks if command != "verify gauss" or fault == "rank" else [])

    def dominant(k):
        return sorted(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)), reverse=True)

    if command in ("reduce", "verify invariance"):
        k = max(m, 0)
        if command == "reduce":
            total = dominant(k)
            d = [draw(st.integers(0, t)) for t in total]
            vecs = {"d": d, "a": dominant(max(n - k, 1)), "r": [t - a for t, a in zip(total, d)]}
        else:
            vecs = {"f": dominant(n), "d": dominant(k)}
        which = "a" if command == "reduce" else "f"  # never empty
        if fault == "weight":
            vecs[which][-1] = -1
        elif fault == "length":
            vecs[which].append(0)
        text = {key: ",".join(map(str, vec)) for key, vec in vecs.items()}
        if fault == "malformed":
            text[which] = draw(st.sampled_from(MALFORMED))
        argv += ["--%s=%s" % kv for kv in text.items()]
    if command in ("series", "verify shintani"):
        argv.append("--K=%d" % draw(st.integers(0, 3)))
    elif command == "verify cone":
        argv += ["--bound=%d" % draw(st.integers(0, 2)), "--count=%d" % draw(st.integers(0, 10))]
    elif command == "verify padic":
        argv.append("--samples=%d" % draw(st.integers(1, 2)))
    if fault in FIXED_FAULTS:
        argv.append(FIXED_FAULTS[fault])
    elif fault == "option":
        option = draw(st.sampled_from([o for o in OPTIONS if o not in READS.get(command, ())]))
        argv += [option, OPTIONS[option]]
    elif fault == "none":
        given = {tok.split("=")[0] for tok in argv}
        for option in READS.get(command, ()):
            if option not in given and draw(st.booleans()):
                argv += [option, OPTIONS[option]]
    return argv, {"none": 0, "weight": 1}.get(fault, 2)


# The slowest example, a cold exact eval at (3, 2), takes about 0.1 s on a
# 2-vCPU Xeon; hypothesis fails an example only past 1.25 x the deadline.
@given(st.one_of(eval_argv(), command_argv()))
@settings(max_examples=300, deadline=500)
def test_eval_contract(warm_ranks, case):
    """A bad config (malformed or wrong-length vectors, a rank outside
    n >= m+1 >= 1 or n >= 5, an option the command does not read, a value
    below its range) exits 2; a weight that is not dominant is a structured
    error with exit 1, as ``tests/golden/eval_non_dominant.json`` pins; a
    valid input exits 0, and a verification passes.  This holds for eval,
    verify, series and reduce.  Nothing raises, and each run is quick.
    Every report of a command that ran, exit 0 or 1, carries the command,
    its inputs and its wall time, as the one runner in ``main`` writes it."""
    argv, code = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(argv)
    doc = json.loads(out.getvalue())
    assert got == code, (argv, doc)
    if code == 2:
        assert doc["error"]["type"] == "config"
        return
    assert {"command", "inputs", "wall_time_s"} <= doc.keys(), (argv, doc)
    if code == 1:
        assert doc["error"]["type"] == "ValueError" and "dominant" in doc["error"]["message"]
    else:
        assert "error" not in doc and doc.get("pass", True) is True
        assert "value" in doc or argv[0] != "eval"


def test_verify_shintani_outside_n_equal_m_plus_1_is_not_a_failure(capsys):
    """Exit 1 means that a verification failed.  An input outside the
    domain is either checked (exit 0) or refused as a config error (exit 2)."""
    code, doc = run_json(capsys, "verify", "shintani", "--n", "3", "--m", "1", "--K", "2")
    assert code != 1, doc
