"""Workload inputs, the library sessions, and the output checks.

Outputs are checked by value against ``reference.json``, recorded by
``record_reference.py``: exact results are evaluated at fixed points and
compared within the relative tolerance TOL; verdicts and counts are compared
exactly.  The printed text of a rational function is not compared, because
numerator and denominator are not canonical across computation routes.
"""

import cmath
import json
import os
import random
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The repository's numeric tolerance, taken relative to |reference|: values
# of L at large f are as small as 1e-7.  Exact results evaluated from
# different algebraic forms agree to about 1e-14.
TOL = 1e-9
# A numeric Weyl sum is a floating-point sum of 384 terms.  Where two x (or
# y) angles nearly coincide the terms cancel by up to 1e7, and the sum can
# miss the exact value by more than TOL even though its error is about
# 5e-16 of the sum of the terms' magnitudes (backward stable).  Such a
# result is accepted when its error is within NUMERIC_BACKWARD_TOL of that
# magnitude, and reported in a note.
NUMERIC_BACKWARD_TOL = 1e-12

# Each CLI workload is a list of (check name, argv, invocations).  A pass runs
# every invocation in a fresh interpreter, each one operation, with --seed
# appended; repeated invocations get consecutive seeds.  On a shared host,
# short operations measured at their best over several passes are what
# keeps the figures steady, so `verify padic` runs as short invocations of
# five samples, and the Gauss-shell oracle of `verify gauss` (one 4 to 8 s
# invocation) runs as its 162 library calls in a session of its own.
CLI = {
    "series32": [
        ("shintani", ["verify", "shintani", "--n", "3", "--m", "2", "--K", "6"], 1),
    ],
    "oracles": [
        ("padic", ["verify", "padic", "--n", "3", "--m", "2", "--samples", "5", "--q", "3"], 6),
        ("cone", ["verify", "cone", "--n", "3", "--m", "2", "--bound", "3"], 1),
    ],
}

# the library session of each workload that has one
SESSIONS = {"oracles": "gauss", "evalgrid": "evalgrid"}

# the cases of `verify gauss`: q in (3, 5), shell indices i, j in -4..4
GAUSS = tuple((q, i, j) for q in (3, 5) for i in range(-4, 5) for j in range(-4, 5))


def cli_ops(workload, seed):
    """The invocations of one pass, as (check name, argv)."""
    return [
        (name, argv + ["--seed", str(seed + k)])
        for name, argv, count in CLI[workload]
        for k in range(count)
    ]


# evalgrid: exact L(d, f) on every dominant (d, f) with entries <= bound ...
GRID = ((2, 1, 4), (3, 1, 2))  # (n, m, entry bound)
# ... weyl_sum_numeric at (3,2) on seeded points ...
NUMERIC = (3, 2, (1, 0), (2, 1, 0))  # (n, m, d, f), the numeric pair of criterion c04
NUMERIC_POINTS = 100
# ... the exact invariance report at (2,1) on criterion c04's pairs ...
INVARIANCE = (2, 1, (((0,), (0, 0)), ((0,), (1, 0)), ((1,), (1, 1))))
# ... and the series identity at (2,1) to T^8, criterion c05's first half,
# which brings in the characters of `charform`.
SERIES = (2, 1, 8)

CHECK_SEED = 20121115  # fixed points at which exact results are compared
CHECK_POINTS = 2


def dominant(k, bound):
    return [
        v for v in product(range(bound, -1, -1), repeat=k)
        if all(v[i] >= v[i + 1] for i in range(k - 1))
    ]


def points(n, m, count, seed, q=3, radius=0.7):
    """Seeded points (v, x_1..x_n, y_1..y_m): v = q^(-1/2), the rest on the
    circle of the given radius, away from every zeta pole."""
    rng = random.Random(seed)
    v = q ** -0.5
    return [
        (v,) + tuple(radius * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n + m))
        for _ in range(count)
    ]


def check_points(n, m):
    return points(n, m, CHECK_POINTS, CHECK_SEED)


def evalgrid_ops():
    """The ordered operations of one evalgrid session."""
    ops = []
    for n, m, bound in GRID:
        for f in dominant(n, bound):
            for d in dominant(m, bound):
                ops.append(("L", n, m, d, f, None))
    n, m, d, f = NUMERIC
    for i in range(NUMERIC_POINTS):
        ops.append(("N", n, m, d, f, i))
    n, m, pairs = INVARIANCE
    for d, f in pairs:
        ops.append(("I", n, m, d, f, None))
    n, m, K = SERIES
    ops.append(("S", n, m, None, None, K))
    return ops


def _cplx(z):
    return [z.real, z.imag]


def run_session(name, seed, clock):
    """One library session; returns one record per operation.

    ``clock`` times each library call; the evaluation of exact results at
    the check points happens after the call, outside its latency.
    """
    if name == "gauss":
        return _gauss_session(clock)
    from wscalc import charform, wsformula
    from wscalc.zetafactors import Context

    ops = evalgrid_ops()
    contexts = {(op[1], op[2]): Context(op[1], op[2]) for op in ops}
    checks = {rank: check_points(*rank) for rank in contexts}
    numeric_pts = points(NUMERIC[0], NUMERIC[1], NUMERIC_POINTS, seed)
    records = []
    for kind, n, m, d, f, i in ops:
        ctx = contexts[(n, m)]
        try:
            t0 = clock()
            if kind == "L":
                value = wsformula.L_value(ctx, d, f)
            elif kind == "N":
                value = wsformula.weyl_sum_numeric(ctx, d, f, numeric_pts[i])
            elif kind == "I":
                value = wsformula.invariance_report(ctx, d, f, mode="exact")
            else:
                value = charform.shintani_verify(ctx, i)
            lat = clock() - t0
            if kind == "L":
                out = [_cplx(value.eval_at(p)) for p in checks[(n, m)]]
            elif kind == "N":
                out = _cplx(value)
            else:
                out = value.as_dict()
        except Exception as exc:  # a failed operation is a result, not a crash
            records.append({"error": "%s: %s" % (type(exc).__name__, exc)})
            continue
        records.append({"lat": lat, "out": out})
    return records


def _gauss_session(clock):
    from wscalc import padic

    records = []
    for q, i, j in GAUSS:
        try:
            t0 = clock()
            value = padic.gauss_shell_numeric(i, j, q)
            records.append({"lat": clock() - t0, "out": _cplx(value)})
        except Exception as exc:  # a failed operation is a result, not a crash
            records.append({"error": "%s: %s" % (type(exc).__name__, exc)})
    return records


# -- checks --------------------------------------------------------------------


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def close(a, b, floor=0.0):
    return abs(complex(*a) - complex(*b)) <= TOL * max(floor, abs(complex(*b)))


def subset_equal(expected, actual):
    """True when every key of ``expected`` is in ``actual`` with an equal
    value, recursively; extra keys in ``actual`` are allowed."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and subset_equal(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(expected) == len(actual)
            and all(subset_equal(e, a) for e, a in zip(expected, actual))
        )
    return expected == actual


def check_cli(name, rc, stdout, ref):
    """None if the invocation's report matches the reference, else why not."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "%s: output is not JSON (exit %s)" % (name, rc)
    if rc != 0:
        return "%s: exit code %s" % (name, rc)
    if not subset_equal(ref["cli"][name], doc):
        return "%s: report differs from the reference" % name
    return None


def _poly_eval(terms, point):
    total = 0j
    for exps, coeff in terms:
        term = complex(coeff)
        for base, k in zip(point, exps):
            if k:
                term *= base ** k
        total += term
    return total


def numeric_expected(seed, ref):
    """(point, exact Weyl sum of the reference there) for this seed's points."""
    from fractions import Fraction

    num = [(e, Fraction(c)) for e, c in ref["numeric"]["num"]]
    den = [(e, Fraction(c)) for e, c in ref["numeric"]["den"]]
    n, m = NUMERIC[0], NUMERIC[1]
    return [
        (p, _cplx(_poly_eval(num, p) / _poly_eval(den, p)))
        for p in points(n, m, NUMERIC_POINTS, seed)
    ]


def weyl_terms_magnitude(point):
    """Sum over (w, w') of |b d d' x^-wf y^-w'd| at the point: the scale of
    the floating-point sum that weyl_sum_numeric forms, from the exact factors."""
    from wscalc import zetafactors
    from wscalc.ratfun import PoleError
    from wscalc.weyl import enumerate_group

    n, m, d, f = NUMERIC
    ctx = zetafactors.Context(n, m)
    factors = (zetafactors.b_factor(ctx), zetafactors.d_factor(ctx), zetafactors.dprime_factor(ctx))
    v, xs, ys = point[0], point[1:1 + n], point[1 + n:]
    total = 0.0
    for w in enumerate_group(n):
        wx = w.act_on_point(xs)
        for w2 in enumerate_group(m):
            wy = w2.act_on_point(ys)
            pt = (v,) + wx + wy
            try:
                term = abs(factors[0].eval_at(pt) * factors[1].eval_at(pt) * factors[2].eval_at(pt))
            except PoleError:
                return float("inf")
            for z, k in zip(wx + wy, f + d):
                term *= abs(z) ** -k
            total += term
    return total


def check_gauss(records, ref):
    """The Gauss-shell oracle against the closed form, within the 1e-9 of
    `verify gauss`; one failure message (or None) per case."""
    if len(records) != len(GAUSS):
        return ["session returned %d records for %d operations" % (len(records), len(GAUSS))] * len(GAUSS)
    out = []
    for (q, i, j), rec, closed in zip(GAUSS, records, ref["gauss"]):
        label = "gauss q=%d i=%d j=%d" % (q, i, j)
        if "error" in rec:
            out.append("%s: %s" % (label, rec["error"]))
        elif abs(complex(*rec["out"]) - closed) > TOL:
            out.append("%s: oracle differs from the closed form" % label)
        else:
            out.append(None)
    return out


def check_evalgrid(records, expected_numeric, ref, notes):
    """One failure message (or None) per operation; numeric sums accepted
    only on the backward criterion are described in ``notes``."""
    ops = evalgrid_ops()
    if len(records) != len(ops):
        return ["session returned %d records for %d operations" % (len(records), len(ops))] * len(ops)
    refs = {kind: iter(values) for kind, values in ref["evalgrid"].items()}
    out = []
    for (kind, n, m, d, f, i), rec in zip(ops, records):
        label = "%s(%d,%d) d=%s f=%s" % (kind, n, m, d, f)
        expected = next(refs[kind]) if kind in refs else None
        if "error" in rec:
            out.append("%s: %s" % (label, rec["error"]))
        elif kind == "L":
            ok = len(rec["out"]) == len(expected) and all(map(close, rec["out"], expected))
            out.append(None if ok else "%s: value differs from the reference" % label)
        elif kind == "N":
            point, exact = expected_numeric[i]
            ok = close(rec["out"], exact, floor=1.0)
            if not ok:
                err = abs(complex(*rec["out"]) - complex(*exact))
                scale = weyl_terms_magnitude(point)
                ok = err <= NUMERIC_BACKWARD_TOL * scale
                if ok:
                    notes.append("%s point %d: off the exact value by %.3g (|S| = %.4g), "
                                 "%.3g of the terms' magnitude %.4g" % (
                                     label, i, err, abs(complex(*exact)), err / scale, scale))
            out.append(None if ok else "%s point %d: numeric sum differs from the exact one" % (label, i))
        else:
            ok = subset_equal(expected, rec["out"])
            out.append(None if ok else "%s: verdicts differ from the reference" % label)
    return out
