"""Self-test of the benchmark at minimal size (about ten seconds).

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that
1. BENCHMARK.json is well formed and lists exactly the metrics run.py
   emits, with the same units, and that a minimal measured and traced
   run emits every one of them;
2. traced self times are non-negative and sum to no more than the
   pass span that contains them;
3. the ladder's size guard skips an oversized point without
   allocating it.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import time
import tracemalloc

import numpy as np

import ladder
import run
import worker
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EPS = 1e-9

class Checks:
    """Prints each check as it runs and keeps the failed ones."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            self.failures.append(what)


def check_manifest(check: Checks, spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the expected keys")
    check(spec["paths"] == ["perfbench"], "paths is the benchmark directory")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number in [1, 60]")
    names = [w["name"] for w in spec["workloads"]]
    check(names == list(workloads.WORKLOADS), "workloads match the ones run.py accepts")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in spec["workloads"]), "each workload has a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    check(len(set(all_names)) == len(all_names), "names are used once")
    check(all(NAME.match(n) for n in all_names), "names are well formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics),
          "units and directions are well formed")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in spec["end_to_end"]), "end-to-end bounds are in (0, 0.25]")
    check(all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"]),
          "per-layer metrics carry no bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")
    check(len(spec["per_layer"]) <= 128, "at most 128 per-layer metrics")
    check(os.path.getsize("BENCHMARK.json") <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def emitted(metrics: dict) -> list[tuple[str, str]]:
    return [(name, unit) for name, (value, unit) in metrics.items()
            if isinstance(value, (int, float)) and np.isfinite(value)]


def main() -> int:
    check = Checks()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check_manifest(check, spec)
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(run.per_layer_names() == declared_layer,
          "run.py's per-layer names and units equal BENCHMARK.json's")

    ck = worker._import_cpnkit(os.getcwd())
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        # 1a. untraced, minimal: one small map, one pass
        small = workloads.LargeMaps(ck, 0, tmp, specs=(((2,), 2, 2, (4,)),))
        small.warm_up()
        result = worker.measure(small, 0.0)
        metrics, _ = run.end_to_end_metrics([0.1], result)
        check(emitted(metrics) == declared_e2e,
              "a minimal untraced run emits every end-to-end metric with its unit")
        check(all(o["ok"] for o in result["ops"]), "every op of the minimal run passes its check")

        # 1b. traced, minimal: a one-criterion suite and a ladder cut to its smallest points
        suite = workloads.Suite(ck, 0, tmp)
        suite.argv += ["--count", "1"]
        cli = workloads.Cli(ck, 0, tmp)
        full_ladder = ladder.LADDER
        ladder.LADDER = tuple((dims, hs[:1]) for dims, hs in full_ladder)
        try:
            traced = worker.traced(ck, suite, cli, 0)
            layer = run.per_layer_metrics(traced)
            check(emitted(layer) == run.per_layer_names(),
                  "a minimal traced run emits every per-layer metric with its unit")
        finally:
            ladder.LADDER = full_ladder
        check(all(o["ok"] for o in traced["ops"]), "every op of the minimal traced run passes")

    # 2. self times
    trace = traced["trace"]
    selfs = [rec["self_s"] for rec in trace["functions"].values()] + \
            [rec["self_s"] for rec in trace["kernels"].values()]
    check(trace["min_self_s"] >= -EPS and min(selfs) >= -EPS, "traced self times are non-negative")
    roots = sum(r["duration_s"] for r in trace["roots"])
    check(trace["traced_self_s"] <= roots + EPS,
          f"traced self times sum to {trace['traced_self_s']:.4f} s <= pass span {roots:.4f} s")
    check(all(rec["self_s"] <= rec["total_s"] + EPS for rec in trace["functions"].values()),
          "each function's self time is within its own span")
    check(trace["kernels"]["svd"]["calls"] > 0 and trace["functions"]["cli.main"]["calls"] == 1,
          "kernel and layer spans were recorded")

    # 3. size guard
    rng = np.random.default_rng(0)
    tracemalloc.start()
    t0 = time.perf_counter()
    rec = ladder.run_point(ck, (2,), 512, rng)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    check(rec.get("skipped", "").startswith("skipped: predicted")
          and "GB" in rec["skipped"], f"oversized point is skipped ({rec.get('skipped')})")
    check(peak < 1e6 and elapsed < 1.0,
          f"skipping allocated {peak / 1e6:.3f} MB in {elapsed:.3f} s")
    check(ladder.run_point(ck, (2,), 8, rng, cap_bytes=1.0).get("skipped") is not None,
          "a point over an explicit cap is skipped")

    print(f"selftest: {'FAIL' if check.failures else 'PASS'} ({len(check.failures)} failed)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
