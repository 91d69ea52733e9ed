"""The wscalc benchmark.  Run from the repository root:

  python3 perfbench/run.py --workload oracles --seed 1 --seconds 55 --trace 0

Workloads (one single-threaded process at a time, closed loop: the next
invocation starts when the previous one has ended):

  oracles   `wscalc verify padic|cone ...`, each in a fresh interpreter,
            then the 162 Gauss-shell oracle calls in a library session
  evalgrid  one long-lived library session of 209 calls (L_value,
            weyl_sum_numeric, invariance_report, shintani_verify)
  series32  `wscalc verify shintani --n 3 --m 2 --K 6` in a fresh interpreter;
            one long operation, kept for traced and by-hand comparisons

A pass runs the workload once; a run repeats passes while the next one is
expected to end within --seconds (at least one pass).  --trace 0 reports the
end-to-end metrics, measured untraced; --trace 1 alternates untraced and
traced passes on one input and reports the per-layer metrics.  Every output
is checked against reference.json.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
# set-up is probed this many times before the passes and again after them,
# so that the median spans the run; one more probe first may compile bytecode
SETUP_PROBES = 4
RUN_LIMIT_S = 170  # every child is killed once the run has lasted this long


class Child:
    """A finished child process: its wall time, exit code, output and peak RSS."""

    def __init__(self, t_start, t_end, rc, out, err, maxrss_kb):
        self.t_start, self.t_end = t_start, t_end
        self.wall = t_end - t_start
        self.rc, self.out, self.err = rc, out, err
        self.maxrss_kb = maxrss_kb


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.timed_out = False

    def spawn(self, argv):
        """Run one child to completion; os.wait4 gives its own peak RSS."""
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        bufs = {}

        def drain(key, stream):
            bufs[key] = stream.read().decode(errors="replace")

        readers = [threading.Thread(target=drain, args=(k, s))
                   for k, s in (("out", proc.stdout), ("err", proc.stderr))]
        for r in readers:
            r.start()
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        for r in readers:
            r.join()
        proc.stdout.close()
        proc.stderr.close()
        if proc.returncode == -9 and t1 - t0 >= timeout:
            self.timed_out = True
        return Child(t0, t1, proc.returncode, bufs["out"], bufs["err"], usage.ru_maxrss)

    def setup_samples(self, workload, count):
        """Times from spawning an interpreter to the end of the workload's
        set-up (imports, parser, Context), one per probe process."""
        samples = []
        for _ in range(count):
            child = self.spawn([sys.executable, CHILD, "probe", workload])
            if child.rc != 0:
                raise RuntimeError("set-up probe failed:\n" + child.err)
            samples.append(float(child.out) - child.t_start)
        return samples

    # -- one pass ------------------------------------------------------------

    def run_pass(self, workload, seed, traced, ref):
        """The workload's CLI invocations, then its library session."""
        session = workloads.SESSIONS.get(workload)
        expected = workloads.numeric_expected(seed, ref) if session == "evalgrid" else None
        ops, children, traces, notes = [], [], [], []
        t0 = time.monotonic()
        for name, args in workloads.cli_ops(workload, seed) if workload in workloads.CLI else ():
            if traced:
                child = self.spawn([sys.executable, CHILD, "cli"] + args)
                try:
                    doc = json.loads(child.out)
                except ValueError:
                    doc = {"rc": child.rc, "stdout": ""}
                rc, stdout = doc["rc"], doc["stdout"]
                if "trace" in doc:
                    doc["t_exit"] = child.t_end
                    traces.append(doc)
            else:
                child = self.spawn([sys.executable, "-m", "wscalc.cli"] + args)
                rc, stdout = child.rc, child.out
            children.append(child)
            problem = workloads.check_cli(name, rc, stdout, ref)
            if problem and child.err.strip():
                problem += "\n" + child.err.strip()[-2000:]
            ops.append((child.wall, problem))
        if session:
            child = self.spawn([sys.executable, CHILD, "session", session, str(seed)]
                               + (["trace"] if traced else []))
            children.append(child)
            try:
                doc = json.loads(child.out)
            except ValueError:
                doc = {"records": [{"error": "session crashed (exit %s): %s"
                                    % (child.rc, child.err.strip()[-2000:])}]}
            records = doc["records"]
            if session == "gauss":
                problems = workloads.check_gauss(records, ref)
            else:
                problems = workloads.check_evalgrid(records, expected, ref, notes)
            ops += [(rec.get("lat"), problem) for rec, problem in zip(records, problems)]
            ops += [(None, problem) for problem in problems[len(records):]]
            if "trace" in doc:
                doc["t_exit"] = child.t_end
                traces.append(doc)
        wall = time.monotonic() - t0
        p = {
            "wall": wall,
            "rss_mb": max(c.maxrss_kb for c in children) / 1024.0,
            "lat": [lat for lat, _ in ops],  # None for an operation that failed
            "attempted": len(ops),
            "problems": [problem for _, problem in ops if problem],
            "notes": notes,
        }
        if traces:
            p["trace"] = tracer.merge([t["trace"] for t in traces])
            # time inside the traced processes after their set-up, and in the root spans
            p["after_setup_s"] = sum(t["t_exit"] - t["t_root"] for t in traces)
            p["root_s"] = sum(t["t_end"] - t["t_root"] for t in traces)
        return p


# -- statistics and reporting ----------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            commit = open(path).read().strip() if os.path.exists(path) else ref[5:]
        else:
            commit = ref
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "commit": commit}


def passes_until(budget_s, run_one):
    """Run passes while the next is expected to end within the budget."""
    t0 = time.monotonic()
    done = []
    while True:
        done.append(run_one(len(done)))
        elapsed = time.monotonic() - t0
        per_pass = elapsed / len(done)
        if elapsed + per_pass > budget_s:
            return done


def measure(runner, workload, seed, seconds, ref):
    runner.setup_samples(workload, 1)
    setup = runner.setup_samples(workload, SETUP_PROBES)
    rng = random.Random(seed)

    def one(i):
        return runner.run_pass(workload, rng.randrange(1, 2 ** 31), False, ref)

    passes = passes_until(seconds, one)
    if not runner.timed_out:
        setup += runner.setup_samples(workload, SETUP_PROBES)
    # On a shared host slowdowns come in bursts of a few seconds, so each
    # operation is taken at its fastest over the run's passes: that is far
    # steadier from run to run than any pass as a whole.  wall_s is the sum
    # of those best times plus the best remainder of a pass (interpreter
    # start and checks outside the timed calls).
    cols = [[x for x in col if x is not None] for col in zip(*(p["lat"] for p in passes))]
    best = [min(col) for col in cols if col]
    remainder = min(p["wall"] - sum(x for x in p["lat"] if x is not None) for p in passes)
    walls = [p["wall"] for p in passes]
    q1, med, q3 = quartiles(walls)
    metrics = {
        "wall_s": (sum(best) + remainder, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": (percentile(best, 90) * 1e3, "ms"),
    }
    notes = {
        "wall_s": "%d operations at their best of %d passes; measured pass walls: median %.4f, "
                  "quartiles %.4f .. %.4f" % (len(best), len(passes), med, q1, q3),
        "op_p50_ms": "%d operations, each at its best of %d passes" % (len(best), len(passes)),
        "op_p90_ms": "%d samples beyond p90" % sum(x * 1e3 > metrics["op_p90_ms"][0] for x in best),
        "setup_s": "median of %d probes" % len(setup),
    }
    return passes, metrics, notes


def trace(runner, workload, seed, seconds, ref):
    """Alternate untraced and traced passes on one input."""
    pass_seed = random.Random(seed).randrange(1, 2 ** 31)
    plain, traced = [], []

    def pair(i):
        plain.append(runner.run_pass(workload, pass_seed, False, ref))
        traced.append(runner.run_pass(workload, pass_seed, True, ref))

    passes_until(seconds, pair)
    per_pass = [tracer.per_layer_metrics(p["trace"]) for p in traced if "trace" in p]
    if len(per_pass) != len(traced):
        raise RuntimeError("a traced pass returned no trace")
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        elif any(m[name][0] != value for m in per_pass):
            raise RuntimeError("count %s differs between traced passes of one input" % name)
        metrics[name] = (value, unit)
    plain_wall = statistics.median(p["wall"] for p in plain)
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["bench.trace_overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio")
    t = traced[0]
    layers = tracer.layer_self_times(t["trace"])
    notes = {"bench.trace_overhead_frac": "traced %.4f s vs untraced %.4f s, %d pairs"
             % (traced_wall, plain_wall, len(traced))}
    extra = {
        "layer_self_s": layers,
        "hook_s": t["trace"]["hook_s"],
        "after_setup_s": t["after_setup_s"],
        "root_s": t["root_s"],
    }
    return plain + traced, metrics, notes, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("oracles", "evalgrid", "series32"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wscalc", "__init__.py")):
        print("no wscalc sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the output checks use the program's exact factors
    # a terminated run still kills and reaps its child (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(time.monotonic() + RUN_LIMIT_S)
    ref = workloads.load_reference()
    extra = {}
    if args.trace:
        passes, metrics, notes, extra = trace(runner, args.workload, args.seed, args.seconds, ref)
    else:
        passes, metrics, notes = measure(runner, args.workload, args.seed, args.seconds, ref)
    attempted = sum(p["attempted"] for p in passes)
    problems = [x for p in passes for x in p["problems"]]
    failed = len(problems)

    print("environment " + json.dumps(environment(), sort_keys=True))
    print("workload %s seed %d passes %d%s" % (args.workload, args.seed, len(passes),
                                              " (traced and untraced)" if args.trace else ""))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print("%-30s %14.6f %-6s%s" % (name, value, unit, "  (%s)" % note if note else ""))
    print("%-30s %14.6f %-6s  (%d of %d operations)" % (
        "fail_frac", failed / attempted, "ratio", failed, attempted))
    if extra:
        print("trace detail " + json.dumps(extra, sort_keys=True))
    for note in [x for p in passes for x in p["notes"]]:
        print("NOTE " + note)
    for problem in problems[:20]:
        print("FAILED " + problem)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
