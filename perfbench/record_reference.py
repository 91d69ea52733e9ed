"""Record the reference outputs that the benchmark checks against.

Run from the repository root:  python3 perfbench/record_reference.py

It writes perfbench/reference.json.  Re-record only when the program's
intended outputs change; a refactor that changes how a value is computed
must still match the recorded values.  Takes about half a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from wscalc import charform, padic, wsformula  # noqa: E402
from wscalc.zetafactors import Context  # noqa: E402


def cli_reference():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = {}
    for ops in workloads.CLI.values():
        for name, argv, _ in ops:
            proc = subprocess.run(
                [sys.executable, "-m", "wscalc.cli"] + argv + ["--seed", "1"],
                cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            )
            doc = json.loads(proc.stdout)
            out[name] = {"pass": doc["pass"], "report": doc["report"]}
    return out


def evalgrid_reference():
    out = {"L": [], "I": [], "S": []}
    for kind, n, m, d, f, i in workloads.evalgrid_ops():
        ctx = Context(n, m)
        if kind == "L":
            value = wsformula.L_value(ctx, d, f)
            out["L"].append([[z.real, z.imag] for z in map(value.eval_at, workloads.check_points(n, m))])
        elif kind == "I":
            out["I"].append(wsformula.invariance_report(ctx, d, f, mode="exact").as_dict())
        elif kind == "S":
            out["S"].append(charform.shintani_verify(ctx, i).as_dict())
    return out


def gauss_reference():
    return [float(padic.gauss_shell(i, j, q)) for q, i, j in workloads.GAUSS]


def numeric_reference():
    n, m, d, f = workloads.NUMERIC
    exact = wsformula.weyl_sum(Context(n, m), d, f)

    def terms(poly):
        return [[list(e), str(c)] for e, c in sorted(poly.terms.items())]

    return {"num": terms(exact.numerator_poly()), "den": terms(exact.denominator_poly())}


def main():
    ref = {
        "cli": cli_reference(),
        "evalgrid": evalgrid_reference(),
        "gauss": gauss_reference(),
        "numeric": numeric_reference(),
    }
    # the stored Weyl sum must agree with the library's numeric route
    n, m, d, f = workloads.NUMERIC
    for p, e in workloads.numeric_expected(7, ref)[:5]:
        got = wsformula.weyl_sum_numeric(Context(n, m), d, f, p)
        if not workloads.close([got.real, got.imag], e, floor=1.0):
            raise SystemExit("numeric reference disagrees with weyl_sum_numeric")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
