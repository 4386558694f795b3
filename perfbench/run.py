"""cpnkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {suite,large_maps,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; cpnkit is imported from its ``src/``.
Every measurement happens in fresh worker processes (perfbench/worker.py),
run one at a time.  Set-up is repeated SETUP_REPEATS times and its median
reported.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer ones; a JSON record with
provenance, every op and the trace goes to perfbench/out/.

Exit codes: 0 with a result line, 1 when a worker fails or times out,
2 when the checkout holds no cpnkit sources.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import ladder
import tracer
from provenance import host_record

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 5
RUN_BUDGET_S = 170.0
TAIL_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it
    (never below the median)."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def end_to_end_metrics(setups: list[float], result: dict) -> tuple[dict, dict]:
    ops = result["ops"]
    failed = sum(not o["ok"] for o in ops)
    lat_ms = [1000.0 * o["seconds"] for o in ops]
    p_tail = tail_percentile(len(lat_ms))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(result["passes"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_frac": ((len(ops) - failed) / len(ops), "frac"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        "op_tail_ms": (percentile(lat_ms, p_tail), "ms"),
    }
    notes = {"failed_frac": failed / len(ops), "op_tail_percentile": p_tail,
             "op_samples": len(lat_ms), "passes": len(result["passes"]),
             "setups_s": setups}
    return metrics, notes


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for fn in tracer.function_names():
        names += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    for k in tracer.KERNELS:
        names += [(f"kernel.{k}.calls", "count"), (f"kernel.{k}.self_s", "s"),
                  (f"kernel.{k}.computed_mb", "MB")]
    for dims, h, label in ladder.points():
        if ladder.predicted_bytes(dims, h) <= ladder.CAP_BYTES:
            for op in ladder.OPS:
                names += [(f"ladder.{label}.{op}.s", "s"),
                          (f"ladder.{label}.{op}.peak_mb", "MB")]
    names += [("cli.process_overhead_ms", "ms"), ("trace.overhead_frac", "frac")]
    return names


def per_layer_metrics(result: dict) -> dict:
    trace = result["trace"]
    values = {}
    for fn, rec in trace["functions"].items():
        values[f"{fn}.calls"] = rec["calls"]
        values[f"{fn}.self_s"] = rec["self_s"]
    for k, rec in trace["kernels"].items():
        for field in ("calls", "self_s", "computed_mb"):
            values[f"kernel.{k}.{field}"] = rec[field]
    for label, rec in result["ladder"].items():
        for op in ladder.OPS:
            if op in rec:
                for field in ("s", "peak_mb"):
                    values[f"ladder.{label}.{op}.{field}"] = rec[op][field]
    values["cli.process_overhead_ms"] = result["process_overhead_ms"]
    values["trace.overhead_frac"] = result["overhead_frac"]
    return {name: (values[name], unit) for name, unit in per_layer_names()}


def spawn(args, setup_only: bool, deadline: float) -> dict:
    """Run one worker to completion; its last stdout line is its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", OUT_DIR]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker exceeded the run's time budget")
    if proc.returncode != 0 or not out.strip():
        raise RuntimeError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("suite", "large_maps", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cpnkit", "__init__.py")):
        sys.stderr.write("perfbench: no src/cpnkit in the current directory; "
                         "run from the root of a cpnkit checkout\n")
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    host = host_record(root)
    try:
        setups = [spawn(args, True, deadline)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = spawn(args, False, deadline)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    setups.append(result["setup_s"])

    if args.trace:
        metrics = per_layer_metrics(result)
        notes = {"setups_s": setups, "untraced_pass_s": result["untraced_pass_s"],
                 "traced_pass_s": result["traced_pass_s"],
                 "ladder_skipped": {k: v["skipped"] for k, v in result["ladder"].items()
                                    if "skipped" in v}}
    else:
        metrics, notes = end_to_end_metrics(setups, result)
    ops = result["ops"]
    failed = [o for o in ops if not o["ok"]]

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": dict(host, **result["numeric"]),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "notes": notes, "result": result}
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={host['commit']} dirty={host['dirty']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for key, value in notes.items():
        print(f"  {key}: {json.dumps(value)}")
    for o in failed[:20]:
        print(f"  FAILED {o['name']}: {o['detail']}")
    print(f"  record: {os.path.relpath(path, root)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
