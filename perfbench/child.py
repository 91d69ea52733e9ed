"""Child-process entry points of the benchmark (one fresh interpreter each).

  child.py probe <workload>        set up as the workload does, print the
                                   monotonic time at which set-up ended
  child.py cli <argv...>           run `wscalc <argv>` traced, in process
  child.py session <name> <seed> [trace]
                                   run one library session (evalgrid, gauss)

The traced modes and the session print one JSON object on stdout.
time.monotonic() is one system-wide clock on Linux, so the parent compares
the timestamps printed here with its own.
"""

import sys
import time


def probe(workload):
    import workloads

    if workload in workloads.CLI:
        from wscalc import cli
        from wscalc.zetafactors import Context

        argv = workloads.cli_ops(workload, 1)[0][1]
        args = cli.build_parser().parse_args(argv)
        Context(args.n, args.m)
    else:
        from wscalc.zetafactors import Context

        for n, m in {(op[1], op[2]) for op in workloads.evalgrid_ops()}:
            Context(n, m)
    print(repr(time.monotonic()))


def traced_cli(argv):
    import io
    import json
    from contextlib import redirect_stdout

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from wscalc import cli

    buf = io.StringIO()
    t_root = time.monotonic()
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
    t_end = time.monotonic()
    json.dump({"rc": rc, "stdout": buf.getvalue(), "trace": tracer.snapshot(),
               "t_root": t_root, "t_end": t_end}, sys.stdout)


def session(name, seed, trace):
    import json

    import workloads
    import wscalc.wsformula  # noqa: F401  (imported before the session starts)

    run = workloads.run_session
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap("bench.session", run)
    t_root = time.monotonic()
    records = run(name, seed, time.perf_counter)
    t_end = time.monotonic()
    doc = {"records": records, "t_root": t_root, "t_end": t_end}
    if trace:
        doc["trace"] = tracer.snapshot()
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "probe":
        probe(rest[0])
    elif mode == "cli":
        traced_cli(rest)
    elif mode == "session":
        session(rest[0], int(rest[1]), rest[2:] == ["trace"])
    else:
        sys.exit("unknown mode %r" % mode)
