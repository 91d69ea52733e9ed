"""Command-line surface: reproducible evaluation and verification runs.

Four subcommands mirror the library layers:

  eval     the normalized torus values L(d, f) (exact text or numeric value)
  verify   machine-check one of the identities (constant, gamma, invariance,
           shintani, cone, padic, gauss) with per-check witnesses
  reduce   double-coset triple reduction with the full operation trace
  series   the two sides of the local L-function series, as a table

`verify gamma` checks exactly (``zetafactors.equivariance``) that Gamma
picks up gamma_s / c_s under each simple reflection s; `verify invariance`
checks that too, and that s fixes each character of S(d, f)'s character
form.  `verify constant` compares integers in that basis.  Each command, and
each check of `verify`, has its own parser that declares exactly the options
it reads; any other option is a config error, and so are --q and --seed of
`eval` and `series` in exact mode, which only their numeric mode reads.
Only `eval` and `series` have a numeric path and take --mode, and
`verify gauss`, which checks the same cases at every rank, takes no ranks.

All output is JSON (schema 1) on stdout or --out; `series --csv` writes a
CSV table instead.  Any failing verification exits nonzero with a witness.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

# every module of the package is imported where it runs, so a process loads
# only what its command runs: verify gauss loads padic alone

SCHEMA = 1


def _int_vector(text):
    text = text.strip()
    if text == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


# the options that take an _int_vector
_VECTOR_OPTIONS = ("--f", "--d", "--a", "--r")


def _glue_negative_vectors(argv):
    """argparse reads a value such as -1,0 as an unknown option, so a vector
    that starts with a negative entry is glued to its option: --f -1,0
    becomes --f=-1,0 and reaches the same checks."""
    out = []
    for tok in argv:
        if out and out[-1] in _VECTOR_OPTIONS and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _emit(doc, out_path, exit_code):
    if out_path:
        # --out files are the diffable artifact: identical config + seed must
        # produce byte-identical bytes, so the volatile timing field stays on
        # the interactive surface only
        doc = {k: v for k, v in doc.items() if k != "wall_time_s"}
    return _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path, exit_code)


def _write(payload, out_path, exit_code):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return exit_code


def _error(message, out_path=None, kind="config", code=2):
    doc = {"schema": SCHEMA, "error": {"type": kind, "message": message}}
    return _emit(doc, out_path, code)


def _failures():
    """The exceptions that a command reports as its result, exit 1.  An except
    clause calls this only when an exception reaches it, so verify gauss,
    which raises none, never imports ratfun for PoleError."""
    from .ratfun import PoleError

    return ValueError, PoleError


def _base_doc(command, cfg):
    # verify gauss takes no ranks; a command without a numeric path echoes
    # mode exact, and one that draws nothing seed 0
    inputs = {"n": cfg.n, "m": cfg.m} if "n" in cfg else {}
    inputs.update(mode=getattr(cfg, "mode", "exact"), seed=getattr(cfg, "seed", 0))
    return {"schema": SCHEMA, "command": command, "inputs": inputs}


# -- eval ---------------------------------------------------------------------


def cmd_eval(cfg, ctx):
    from . import wsformula

    d = cfg.d if cfg.d is not None else (0,) * cfg.m
    f = cfg.f
    doc = _base_doc("eval", cfg)
    doc["inputs"]["d"] = list(d)
    doc["inputs"]["f"] = list(f)
    t0 = time.time()
    try:
        if cfg.mode == "exact":
            doc["value"] = wsformula.L_value(ctx, d, f).ratfun().text()
        else:
            point = wsformula.sample_points(ctx, 1, cfg.seed, q=cfg.q)[0]
            value = wsformula.L_value(ctx, d, f).eval_at(point)
            doc["point"] = {"v": _cplx(point[0]),
                            "x": [_cplx(z) for z in point[1 : 1 + ctx.n]],
                            "y": [_cplx(z) for z in point[1 + ctx.n :]]}
            doc["value"] = _cplx(value)
    except _failures() as exc:
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        doc["wall_time_s"] = round(time.time() - t0, 6)
        return _emit(doc, cfg.out, 1)
    doc["wall_time_s"] = round(time.time() - t0, 6)
    return _emit(doc, cfg.out, 0)


def _cplx(z):
    return [z.real, z.imag]


# -- verify -------------------------------------------------------------------


def _verify_constant(cfg, ctx):
    from . import charform, wsformula

    ok = not charform.coefficient_difference(ctx, 0)
    _, blocks = wsformula._b_grouped(ctx)  # the terms of b that the engine distributes
    return ok, {
        "b_terms": sum(len(cs) for *_, cs in blocks),
        "constant": wsformula.weyl_sum(ctx, (0,) * ctx.m, (0,) * ctx.n).text(),
        "closed_form": wsformula.normalization_constant_closed(ctx).text(),
        "pass": ok,
    }


def _verify_gamma(cfg, ctx):
    from .zetafactors import equivariance, gamma_big

    checks = [
        {"group": group, "root": label, "pass": ok}
        for group, label, ok in equivariance(ctx, gamma_big(ctx))
    ]
    ok = all(c["pass"] for c in checks)
    return ok, {"generators": checks, "pass": ok}


def _verify_invariance(cfg, ctx):
    from . import wsformula

    d = cfg.d if cfg.d is not None else (0,) * ctx.m
    f = cfg.f if cfg.f is not None else (0,) * ctx.n
    rep = wsformula.invariance_report(ctx, d, f)
    return rep.ok, rep.as_dict()


def _verify_shintani(cfg, ctx):
    from . import charform

    rep = charform.shintani_verify(ctx, cfg.K)
    doc = rep.as_dict()
    doc["failing"] = [l for l, diff in enumerate(rep.diffs) if diff]
    return rep.ok, doc


def _verify_cone(cfg, ctx):
    import random
    from itertools import product as iproduct

    from . import cone
    from .weyl import is_dominant

    rng = random.Random(cfg.seed)
    n, m = ctx.n, ctx.m
    conserved = monotone = idempotent = 0
    for _ in range(cfg.count):
        t = cone.ConeTriple(n, m, *_random_triple(rng, n, m, 6))
        nf = cone.normal_form(t)
        if _sum_vec(nf.d, nf.r) == _sum_vec(t.d, t.r):
            conserved += 1
        if all(a >= b for a, b in zip(nf.d, t.d)):
            monotone += 1
        if cone.normal_form(nf) == nf:
            idempotent += 1
    minimal = 0
    total = 0
    bound = cfg.bound
    avecs = [av for av in iproduct(range(bound + 1), repeat=n - m) if is_dominant(av)]
    mvecs = list(iproduct(range(bound + 1), repeat=m))
    for av in avecs:
        for dv in mvecs:
            for rv in mvecs:
                if not is_dominant(_sum_vec(dv, rv)):
                    continue
                t = cone.ConeTriple(n, m, dv, av, rv)
                total += 1
                if _is_minimal(t, cone.normal_form(t)):
                    minimal += 1
    ok = (
        conserved == cfg.count
        and monotone == cfg.count
        and idempotent == cfg.count
        and minimal == total
    )
    return ok, {
        "random_triples": cfg.count,
        "sum_conserved": conserved,
        "d_monotone": monotone,
        "idempotent": idempotent,
        "exhaustive_triples": total,
        "minimal": minimal,
        "pass": ok,
    }


def _random_triple(rng, n, m, hi):
    """Random vectors (d, a, r) of a cone triple, entries in 0..hi."""
    from .weyl import is_dominant

    while True:
        a = sorted((rng.randint(0, hi) for _ in range(n - m)), reverse=True)
        d = [rng.randint(0, hi) for _ in range(m)]
        r = [rng.randint(0, hi) for _ in range(m)]
        if is_dominant(_sum_vec(d, r)):
            return d, a, r


def _sum_vec(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _is_minimal(t, nf):
    """Check nf, the normal form of t, against the exhaustively enumerated
    feasible set."""
    from itertools import product as iproduct

    from .weyl import is_dominant

    total = _sum_vec(t.d, t.r)
    feasible = []
    ranges = [range(t.d[j], total[j] + 1) for j in range(t.m)]
    for dv in iproduct(*ranges):
        rv = tuple(tv - dv[j] for j, tv in enumerate(total))
        if not is_dominant(dv):
            continue
        if not is_dominant(t.a + rv):
            continue
        feasible.append(dv)
    if nf.d not in feasible:
        return False
    return all(all(a <= b for a, b in zip(nf.d, dv)) for dv in feasible)


def _verify_padic(cfg, ctx):
    import random

    from . import padic
    from .zetafactors import delta_half_G, delta_half_MJ

    p = cfg.q
    n, m = ctx.n, ctx.m
    rng = random.Random(cfg.seed)
    trials = cfg.samples
    recovered = kernel_ok = invariances_ok = 0
    for _ in range(trials):
        g, ts, ss = padic.random_cell_element(n, m, rng, p)
        tv = tuple(padic.valuation(t, p) for t in ts)
        sv = tuple(padic.valuation(s, p) for s in ss)
        if padic.factor_valuations(g, m, p) == (tv, sv):
            recovered += 1
        chi = [Fraction(rng.randint(-6, 6), 2) for _ in range(n)]
        xi = [Fraction(rng.randint(-6, 6), 2) for _ in range(m)]
        E = padic.abs_cell_kernel(g, m, p, chi, xi)
        # |chi^-1 delta^(1/2)(b_G) xi delta^(-1/2)(b_MJ)| on the cell, with the
        # modulus characters of L(d, f): v-exponents, v = q^(-1/2), so halved
        chi_xi = sum(v * c for v, c in zip(tv, chi)) - sum(v * c for v, c in zip(sv, xi))
        delta = delta_half_G(ctx, tv) - delta_half_MJ(ctx, sv)
        if E == chi_xi - Fraction(delta, 2):
            kernel_ok += 1
        n1 = padic.random_upper_unipotent_G(n, rng, p)
        n2 = padic.random_upper_unipotent_G(n, rng, p)
        if all(
            padic.alpha_k(n1 * g * n2, k) == padic.alpha_k(g, k) for k in range(1, n + 1)
        ) and all(
            padic.beta_l(n1 * g, l, m) == padic.beta_l(g, l, m) for l in range(1, m + 1)
        ):
            invariances_ok += 1
    ok = recovered == kernel_ok == invariances_ok == trials
    return ok, {
        "p": p,
        "trials": trials,
        "valuations_recovered": recovered,
        "kernel_matches": kernel_ok,
        "minor_invariances": invariances_ok,
        "pass": ok,
    }


def _shell_text(coeffs, measure, order):
    """measure * sum c zeta^e over coeffs {e: c}, zeta = exp(2 pi i / order),
    as text: a rational number when only the constant term is there."""
    if not coeffs.keys() - {0}:
        return str(coeffs.get(0, 0) * measure)
    terms = " ".join("%+d*z^%d" % (c, e) for e, c in sorted(coeffs.items()))
    return "%s*(%s), z = exp(2*pi*i/%d)" % (measure, terms, order)


def _verify_gauss(cfg, ctx):
    from itertools import product as iproduct

    from . import padic

    failures = []
    checked = 0
    for q in (3, 5):
        for i, j in iproduct(range(-4, 5), repeat=2):
            checked += 1
            closed = padic.gauss_shell(i, j, q)
            measure = padic.gauss_shell_measure(i, j, q)
            coeffs = padic.gauss_shell_sum(i, j, q)
            # the oracle passes only as the integer constant closed / measure
            expected = closed / measure
            if coeffs != ({0: expected} if expected else {}):
                failures.append({
                    "q": q, "i": i, "j": j,
                    "oracle": _shell_text(coeffs, measure, q ** (j - i)),
                    "closed": str(closed),
                })
    ok = not failures
    return ok, {"checked": checked, "failures": failures, "pass": ok}


_VERIFIERS = {
    "constant": _verify_constant,
    "gamma": _verify_gamma,
    "invariance": _verify_invariance,
    "shintani": _verify_shintani,
    "cone": _verify_cone,
    "padic": _verify_padic,
    "gauss": _verify_gauss,
}


def cmd_verify(cfg, ctx):
    doc = _base_doc("verify", cfg)
    doc["check"] = cfg.which
    if cfg.which == "shintani":
        doc["inputs"]["K"] = cfg.K
    t0 = time.time()
    try:
        ok, report = _VERIFIERS[cfg.which](cfg, ctx)
    except _failures() as exc:
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return _emit(doc, cfg.out, 1)
    doc["report"] = report
    doc["pass"] = ok
    doc["wall_time_s"] = round(time.time() - t0, 6)
    return _emit(doc, cfg.out, 0 if ok else 1)


# -- reduce -------------------------------------------------------------------


def cmd_reduce(cfg, ctx):
    from . import cone

    doc = _base_doc("reduce", cfg)
    doc["inputs"].update({"d": list(cfg.d), "a": list(cfg.a), "r": list(cfg.r)})
    try:
        t = cone.ConeTriple(cfg.n, cfg.m, cfg.d, cfg.a, cfg.r)
    except ValueError as exc:
        doc["error"] = {"type": "ValueError", "message": str(exc)}
        return _emit(doc, cfg.out, 1)
    trace = []
    nf = cone.normal_form(t, trace=trace)
    doc["normal_form"] = {"d": list(nf.d), "a": list(nf.a), "r": list(nf.r)}
    doc["trace"] = [
        {
            "op": label,
            "before": {"d": list(b.d), "r": list(b.r)},
            "after": {"d": list(a.d), "r": list(a.r)},
            "effective": b != a,
        }
        for label, b, a in trace
    ]
    return _emit(doc, cfg.out, 0)


# -- series -------------------------------------------------------------------


def cmd_series(cfg, ctx):
    from . import charform, wsformula

    doc = _base_doc("series", cfg)
    doc["inputs"]["K"] = cfg.K
    t0 = time.time()
    try:
        lhs = charform.lhs_series(ctx, cfg.K)
        rhs = charform.rhs_series(ctx, cfg.K)
        if cfg.mode == "exact":
            rep = charform.shintani_verify(ctx, cfg.K)
            equal = rep.ok
            rows = [
                {"l": l, "lhs": a.ratfun().text(), "rhs": b.ratfun().text(),
                 "diff": charform.difference_text(ctx, diff)}
                for l, (a, b, diff) in enumerate(zip(lhs, rhs, rep.diffs))
            ]
        else:
            point = wsformula.sample_points(ctx, 1, cfg.seed, q=cfg.q)[0]
            rows = []
            for l, (a, b) in enumerate(zip(lhs, rhs)):
                lv, rv = a.eval_at(point), b.eval_at(point)
                rows.append({"l": l, "lhs": _cplx(lv), "rhs": _cplx(rv), "diff": abs(lv - rv)})
            equal = all(row["diff"] < 1e-9 for row in rows)
    except _failures() as exc:
        doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return _emit(doc, cfg.out, 1)
    doc["rows"] = rows
    doc["pass"] = equal
    doc["wall_time_s"] = round(time.time() - t0, 6)
    if cfg.csv:
        lines = ["l,lhs,rhs,diff"]
        for row in rows:
            lines.append(
                '%d,"%s","%s","%s"' % (row["l"], row["lhs"], row["rhs"], row["diff"])
            )
        return _write("\n".join(lines) + "\n", cfg.out, 0 if equal else 1)
    return _emit(doc, cfg.out, 0 if equal else 1)


# -- argument parsing -----------------------------------------------------------


def _at_least(low):
    """An argparse type: an integer >= low.  A verifier that would check
    nothing must not report a pass, so a zero-work count is refused here."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (low, value))
        return value

    return integer


def _prime(text):
    """An argparse type: the prime q of verify padic."""
    from .padic import is_prime  # imported here, so that only verify padic loads it

    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid prime value: %r" % text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError("must be a prime below 2^31, got %d" % value)
    return value


class _Given(argparse.Action):
    """Store the value and record the option in ``given``, so that exact mode,
    which reads neither --q nor --seed, can refuse them."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given += (self.option_strings[0],)


class _UsageError(ValueError):
    """A command line that argparse cannot parse."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_DEFAULT = " (default %(default)s)"


def _command(sub, name, help, ranks=True):
    """The parser of one command, with --out and, unless ``ranks`` is false,
    the ranks --n and --m."""
    sp = sub.add_parser(name, help=help)
    if ranks:
        sp.add_argument("--n", type=int, required=True, help="rank of G = Sp(2n)")
        sp.add_argument("--m", type=int, required=True, help="rank of M = Sp(2m)")
    sp.add_argument("--out", help="write the report to this path instead of stdout")
    return sp


def _numeric_options(sp):
    """--mode, and the --q and --seed that only numeric mode reads."""
    sp.add_argument(
        "--mode",
        choices=("exact", "numeric"),
        default="exact",
        help="exact symbolic arithmetic (default) or complex evaluation of the "
        "same character form at a seeded sample point; both expand b once per "
        "rank, which dominates at n = 4 and is refused from n = 5 on",
    )
    sp.set_defaults(given=())
    sp.add_argument("--q", type=int, default=3, action=_Given,
                    help="numeric mode only: v = q^(-1/2)" + _DEFAULT)
    sp.add_argument("--seed", type=int, default=0, action=_Given,
                    help="numeric mode only: seed of the sample point" + _DEFAULT)


def build_parser():
    ap = _Parser(
        prog="wscalc",
        description="Exact calculator and verifier for Whittaker-Shintani "
        "functions of p-adic symplectic groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pe = _command(sub, "eval", "evaluate the normalized torus value L(d, f)")
    pe.add_argument("--f", type=_int_vector, required=True, help="dominant n-vector, comma-separated")
    pe.add_argument("--d", type=_int_vector, help="dominant m-vector (default zero)")
    _numeric_options(pe)

    checks = sub.add_parser("verify", help="machine-check one of the identities").add_subparsers(
        dest="which", required=True
    )
    _command(checks, "constant", "the Weyl sum at d = 0, f = 0 is C(v), in the character basis")
    _command(checks, "gamma", "Gamma picks up gamma_s / c_s under each simple reflection")
    pi = _command(checks, "invariance", "the same for Gamma, and that the characters of S(d, f) "
                  "are W-invariant")
    pi.add_argument("--d", type=_int_vector, help="dominant m-vector (default zero)")
    pi.add_argument("--f", type=_int_vector, help="dominant n-vector (default zero)")
    pk = _command(checks, "shintani", "the series identity for l = 0..K, at n >= m+1")
    pk.add_argument("--K", type=_at_least(0), default=4, help="series truncation" + _DEFAULT)
    # draws nothing, but perfbench's series32 workload passes --seed
    pk.add_argument("--seed", type=int, default=0, help="accepted and echoed; nothing is drawn")
    pc = _command(checks, "cone", "normal forms of random and of all small cone triples")
    pc.add_argument("--count", type=_at_least(0), default=1000, help="random triples" + _DEFAULT)
    pc.add_argument("--bound", type=_at_least(0), default=3,
                    help="entry bound of the exhaustive cone oracle" + _DEFAULT)
    pc.add_argument("--seed", type=int, default=0, help="seed of the random triples" + _DEFAULT)
    pp = _command(checks, "padic", "the minors and the kernel on random open-cell elements")
    pp.add_argument("--q", type=_prime, default=3, help="the prime p" + _DEFAULT)
    pp.add_argument("--samples", type=_at_least(1), default=10, help="random trials" + _DEFAULT)
    pp.add_argument("--seed", type=int, default=0, help="seed of the random trials" + _DEFAULT)
    # the same 162 cases at every rank, so it takes none
    _command(checks, "gauss", "the Gauss shells against their brute-force oracle", ranks=False)

    pr = _command(sub, "reduce", "normal form of a double-coset triple")
    pr.add_argument("--d", type=_int_vector, required=True)
    pr.add_argument("--a", type=_int_vector, required=True)
    pr.add_argument("--r", type=_int_vector, required=True)

    ps = _command(sub, "series", "both sides of the L-function series")
    ps.add_argument("--K", type=_at_least(0), default=4, help="series truncation" + _DEFAULT)
    ps.add_argument("--csv", action="store_true", help="emit a CSV table")
    _numeric_options(ps)
    return ap


_COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "reduce": cmd_reduce, "series": cmd_series}


def main(argv=None):
    try:
        cfg, unread = build_parser().parse_known_args(
            _glue_negative_vectors(sys.argv[1:] if argv is None else argv)
        )
    except _UsageError as exc:
        return _error(str(exc))
    which = getattr(cfg, "which", None)
    name = cfg.command if which is None else "verify " + which
    try:
        if unread:
            raise ValueError("%s does not read %s" % (name, unread[0].split("=")[0]))
        ctx = None
        if "n" in cfg:
            from .zetafactors import Context

            ctx = Context(cfg.n, cfg.m)  # rank validation up front
            sizes = {"f": ctx.n, "d": ctx.m, "a": ctx.n - ctx.m, "r": ctx.m}
            for option, size in sizes.items():
                vec = getattr(cfg, option, None)
                if vec is not None and len(vec) != size:
                    raise ValueError("--%s must have length %d, got %d" % (option, size, len(vec)))
        if cfg.command in ("eval", "series"):
            if cfg.mode == "exact" and cfg.given:
                raise ValueError("%s does not read %s" % (name, cfg.given[0]))
            if cfg.q < 2:
                raise ValueError("numeric mode requires a concrete q >= 2")
        if cfg.command in ("eval", "series") or which in ("constant", "invariance", "shintani"):
            from .zetafactors import require_b_expandable

            require_b_expandable(ctx)
    except ValueError as exc:
        return _error(str(exc), cfg.out)
    return _COMMANDS[cfg.command](cfg, ctx)


if __name__ == "__main__":
    sys.exit(main())
