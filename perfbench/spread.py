"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median), the
figure the bounds in BENCHMARK.json are set against.

    python3 perfbench/spread.py --workload suite --seeds 1-10
    python3 perfbench/spread.py --workload suite,large_maps,cli --seeds 0

Runs are sequential, from the root of a checkout, with BENCHMARK.json's
run_seconds.  Each run's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def report(workload: str, seeds: list[int], spec: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = os.path.join(HERE, "out", f"spread-{workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    rows = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return False
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(line)
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **line}) + "\n")
        failed_frac = line["failed"] / line["attempted"]
        print(f"{workload} seed {seed}: correct={line['correct']} failed_frac={failed_frac:g} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()), flush=True)
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        print(f"{workload:10s} {name:14s} median {med:.5g}  spread {spread:.4f}  bound {bound}"
              f"{'  OVER' if spread > bound else ''}")
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, help="one name or a comma list")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in args.workload.split(","):
        if not report(workload, parse_seeds(args.seeds), spec):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
