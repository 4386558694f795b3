"""One fresh benchmark process: set up, then measure one workload.

Started by run.py with the monotonic time at which it was spawned, so
that set-up time covers interpreter start, imports, input generation
and warm-up.  Prints one JSON object as its last stdout line.

Untraced: whole passes until --seconds have elapsed.  Traced: one
untraced and one traced pass of the same inputs (their ratio is the
tracing overhead), the size ladder, and the CLI process-overhead probe.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import ladder
from provenance import numeric_record
from tracer import Tracer
from workloads import WORKLOADS, Cli, Op


def _ops_json(ops) -> list[dict]:
    return [{"name": o.name, "seconds": o.seconds, "ok": o.ok, "detail": o.detail}
            for o in ops]


def _import_cpnkit(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cpnkit
    import cpnkit.acceptance
    import cpnkit.cli
    here = os.path.abspath(cpnkit.__file__)
    if os.path.commonpath([here, os.path.abspath(src)]) != os.path.abspath(src):
        raise SystemExit(f"cpnkit imported from {here}, not from {src}")
    return cpnkit


def measure(workload, seconds: float) -> dict:
    passes, ops = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        pass_ops = workload.run_pass()
        passes.append(time.perf_counter() - t)
        ops.extend(pass_ops)
        if time.perf_counter() - t0 >= seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    return {"passes": passes, "ops": _ops_json(ops),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def traced(ck, workload, cli, seed: int) -> dict:
    # the cli workload is traced in-process: the tracer cannot see into children
    run_pass = getattr(workload, "run_inprocess_pass", workload.run_pass)
    t = time.perf_counter()
    ops = run_pass()
    untraced_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops, root = tracer.root(run_pass)
    finally:
        tracer.uninstall()
    ops += traced_ops
    trace = tracer.report()

    points = ladder.run(ck, seed)
    for label, rec in points.items():
        if "failures" in rec:
            ops.append(Op(f"ladder.{label}", 0.0, not rec["failures"],
                          "; ".join(rec["failures"])))

    sub = [cli.run_subprocess(c) for c in cli.commands]
    inproc = [cli.run_inprocess(c) for c in cli.commands]
    ops += sub + inproc
    overhead_ms = 1000.0 * statistics.median(s.seconds - i.seconds
                                             for s, i in zip(sub, inproc))
    return {"ops": _ops_json(ops), "trace": trace, "ladder": points,
            "untraced_pass_s": untraced_s, "traced_pass_s": root["duration_s"],
            "overhead_frac": root["duration_s"] / untraced_s - 1.0,
            "process_overhead_ms": overhead_ms}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before spawning")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    root = os.getcwd()
    ck = _import_cpnkit(root)

    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        workload = WORKLOADS[args.workload](ck, args.seed, workdir)
        workload.warm_up()
        setup_s = time.monotonic() - args.spawned_at
        result = {"setup_s": setup_s}
        if not args.setup_only:
            if args.trace:
                cli = workload if isinstance(workload, Cli) else Cli(ck, args.seed, workdir)
                result.update(traced(ck, workload, cli, args.seed))
            else:
                result.update(measure(workload, args.seconds))
            result["numeric"] = numeric_record(ck)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
