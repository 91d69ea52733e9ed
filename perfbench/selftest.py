"""Self-tests of the benchmark.  Run from the repository root:

  python3 perfbench/selftest.py [workload ...]      (all three: about 6 minutes)

1. Corrupted outputs are caught: a real output passes the checks, and each
   corrupted copy of it (a value, a verdict, a count, an exit code) fails
   one operation, so fail_frac rises above 0.
2. Per workload, a traced run reports every per-layer metric that the
   workload is meant to move as nonzero, and the layer self times (with
   cli.self_s, the session's own glue and the count hooks) add up to the
   traced wall time minus set-up within ADDITIVITY.
3. Two traced runs with the same seed report identical counts.
"""

import copy
import json
import sys
import time

import run
import workloads

ADDITIVITY = 0.05
SEED = 3

# the per-layer metrics each workload is meant to move
EXPECTED_NONZERO = {
    "series32": [
        "ratfun.div_s", "ratfun.div_calls", "ratfun.div_in_terms", "ratfun.div_peak_terms",
        "ratfun.reduce_s", "ratfun.eq_s",
        "wsformula.weyl_sum_s", "wsformula.weyl_sum_calls", "wsformula.weyl_terms",
        "wsformula.acc_terms", "wsformula.acc_survival", "wsformula.result_terms",
        "charform.so_char_s", "charform.so_char_calls", "cli.self_s",
        "bench.trace_overhead_frac",
    ],
    "oracles": [
        "padic.form_check_s", "padic.form_checks", "padic.matmul_s", "padic.matmuls",
        "padic.minor_s", "padic.minors", "padic.gauss_oracle_s", "padic.gauss_cases",
        "cone.normal_form_s", "cone.normal_form_calls", "cli.self_s",
        "bench.trace_overhead_frac",
    ],
    "evalgrid": [
        "ratfun.div_s", "ratfun.div_calls", "ratfun.div_in_terms", "ratfun.div_peak_terms",
        "ratfun.reduce_s", "ratfun.eq_s", "charform.so_char_s", "charform.so_char_calls",
        "wsformula.weyl_sum_s", "wsformula.weyl_sum_calls", "wsformula.weyl_terms",
        "wsformula.acc_terms", "wsformula.acc_survival", "wsformula.result_terms",
        "wsformula.numeric_s", "zetafactors.b_expand_s", "zetafactors.b_terms",
        "zetafactors.cache_hit_ratio", "weyl.enumerate_s", "weyl.cache_hit_ratio",
        "bench.trace_overhead_frac",
    ],
}


def fail_frac(problems):
    return sum(p is not None for p in problems) / len(problems)


def test_corrupted_outputs(ref):
    runner = run.Runner(time.monotonic() + run.RUN_LIMIT_S)
    seed = 11
    name, argv = workloads.cli_ops("oracles", seed)[-1]
    child = runner.spawn([sys.executable, "-m", "wscalc.cli"] + argv)
    assert workloads.check_cli(name, child.rc, child.out, ref) is None, "real cone report rejected"
    doc = json.loads(child.out)
    bad_count = copy.deepcopy(doc)
    bad_count["report"]["minimal"] -= 1
    bad_verdict = copy.deepcopy(doc)
    bad_verdict["pass"] = False
    cases = [(0, json.dumps(bad_count)), (0, json.dumps(bad_verdict)), (1, child.out), (0, "")]
    for rc, out in cases:
        assert workloads.check_cli(name, rc, out, ref) is not None, "corrupted CLI output accepted"

    child = runner.spawn([sys.executable, run.CHILD, "session", "evalgrid", str(seed)])
    records = json.loads(child.out)["records"]
    expected = workloads.numeric_expected(seed, ref)
    assert fail_frac(workloads.check_evalgrid(records, expected, ref, [])) == 0, "real session rejected"
    kinds = [op[0] for op in workloads.evalgrid_ops()]
    for kind in "LNI":
        bad = copy.deepcopy(records)
        rec = bad[kinds.index(kind)]
        if kind == "L":
            rec["out"][0][0] *= 1 + 1e-6
        elif kind == "N":
            rec["out"] = [x * (1 + 1e-6) for x in rec["out"]]
        else:
            rec["out"]["generators"][0]["pass"] = False
        frac = fail_frac(workloads.check_evalgrid(bad, expected, ref, []))
        assert frac > 0, "corrupted %s result accepted" % kind
    print("ok  corrupted outputs raise fail_frac above 0")


def test_trace(workload, ref):
    results = []
    for _ in range(2):
        runner = run.Runner(time.monotonic() + run.RUN_LIMIT_S)
        passes, metrics, _, extra = run.trace(runner, workload, SEED, 0, ref)
        assert not any(p["problems"] for p in passes), "%s: outputs failed the checks" % workload
        results.append((metrics, extra))
    (first, extra), (second, _) = results
    zero = [name for name in EXPECTED_NONZERO[workload] if not first[name][0]]
    assert not zero, "%s: per-layer metrics read 0: %s" % (workload, zero)
    differ = [name for name, (value, unit) in first.items()
              if unit != "s" and name != "bench.trace_overhead_frac" and second[name][0] != value]
    assert not differ, "%s: counts differ between two traced runs: %s" % (workload, differ)
    layered = sum(extra["layer_self_s"].values()) + extra["hook_s"]
    gap = abs(extra["after_setup_s"] - layered) / extra["after_setup_s"]
    assert gap <= ADDITIVITY, "%s: layer self times miss traced wall - set-up by %.1f%%" % (
        workload, 100 * gap)
    print("ok  %s: %d metrics nonzero, counts repeat, self times cover %.1f%% of %.2f s"
          % (workload, len(EXPECTED_NONZERO[workload]), 100 * layered / extra["after_setup_s"],
             extra["after_setup_s"]))


def main(names):
    sys.path.insert(0, run.SRC)
    ref = workloads.load_reference()
    test_corrupted_outputs(ref)
    for workload in names or list(EXPECTED_NONZERO):
        test_trace(workload, ref)


if __name__ == "__main__":
    main(sys.argv[1:])
