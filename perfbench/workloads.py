"""The three workloads: inputs, one timed pass, and the check on every op.

A pass returns a list of ops, one per timed operation, each with its
latency and whether its check held.  Expected verdicts are computed
while setting up, so checking inside a pass calls no library code.

- suite: ``cpnkit suite --seed S`` in-process (about 700 small
  instances); cost is per-call overhead.  One op per suite run.
- large_maps: the full user pipeline on a few unital map matrices of
  dilation dimension H up to 24, single- and multi-block; cost is the
  commutant nullspace solve.  One op per map.
- cli: ``python -m cpnkit`` subprocesses over every command; cost is
  interpreter start, import and JSON.  One op per invocation.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import inputs

TOL = 1e-9
RN_RESIDUAL_BOUND = 1e-8
CLI_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    detail: str = ""


def _timed(name: str, fn, check):
    """Time fn(); a raise or a failed check makes the op fail."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # the benchmark must keep running to count failures
        return Op(name, time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}"), None
    elapsed = time.perf_counter() - t0
    why = check(out)
    return Op(name, elapsed, why is None, why or ""), out


def run_captured(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


# --------------------------------------------------------------------------
class Suite:
    """Acceptance suite through the CLI entry point, in-process.

    One op per suite run; it holds when all ten criteria print PASS
    and the exit code is 0.
    """

    CRITERIA = 10
    rss_of_children = False

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck
        self.argv = ["suite", "--seed", str(seed)]

    def warm_up(self) -> None:
        run_captured(self.ck.cli.main, self.argv + ["--count", "1"])

    @classmethod
    def check(cls, out) -> str | None:
        code, text = out
        passed = [line for line in text.splitlines()
                  if line.startswith("criterion") and "[PASS]" in line]
        if len(passed) != cls.CRITERIA:
            return f"{len(passed)}/{cls.CRITERIA} criteria printed PASS"
        return None if code == 0 else f"exit code {code}"

    def run_pass(self) -> list[Op]:
        op, _ = _timed("suite", lambda: run_captured(self.ck.cli.main, self.argv), self.check)
        return [op]


# --------------------------------------------------------------------------
# (block_dims, n, m, ranks): dilation dimension H = sum d_k r_k
LARGE_MAPS = (
    ((2,), 2, 2, (4,)),      # H = 8
    ((2,), 2, 3, (8,)),      # H = 16
    ((2,), 2, 3, (12,)),     # H = 24
    ((2, 2), 1, 4, (4, 4)),  # H = 16, two blocks
    ((3, 1), 2, 2, (4, 4)),  # H = 16, unequal blocks
)


def space_dim(block_dims, ranks) -> int:
    return sum(d * r for d, r in zip(block_dims, ranks))


def domain_label(block_dims) -> str:
    return "d" + "x".join(str(d) for d in block_dims)


class LargeMaps:
    """cpn check, dilate + verify, is_pure, is_extreme, RN round trip.

    One op per map, covering the whole pipeline and its checks.
    """

    rss_of_children = False

    def __init__(self, ck, seed: int, workdir: str, specs=LARGE_MAPS):
        self.ck = ck
        rng = np.random.default_rng([seed, 101])
        self.cases = []
        for dims, n, m, ranks in specs:
            blocks = inputs.unital_choi_blocks(dims, n * m, ranks, rng)
            rho = inputs.to_cpn(ck, dims, n, m, blocks)
            extreme, _, comm_dim = inputs.choi_extreme(blocks, dims, n * m)
            self.cases.append({
                "label": f"{domain_label(dims)}.H{space_dim(dims, ranks)}",
                "rho": rho, "H": space_dim(dims, ranks),
                "commutant_dim": comm_dim, "extreme": extreme,
            })
        self.sample_seed = seed

    def warm_up(self) -> None:
        case = min(self.cases, key=lambda c: c["H"])
        self._run_case(case, np.random.default_rng(0))

    def _pipeline(self, case, rng) -> str | None:
        """The whole pipeline on one map; returns why a check failed, or None."""
        ck, rho = self.ck, case["rho"]
        if not ck.is_completely_n_positive(rho, TOL).verdict:
            return "not completely n-positive"
        dil = ck.dilate(rho, TOL)
        if not ck.verify_dilation(rho, dil, TOL).ok(TOL):
            return "dilation certificate failed"
        if dil.space_dim != case["H"]:
            return f"space_dim {dil.space_dim} != {case['H']}"
        pure = ck.is_pure(rho, TOL, dilation=dil)
        if pure != (case["commutant_dim"] == 1):
            return f"is_pure {pure} with commutant dimension {case['commutant_dim']}"
        rep = ck.is_extreme(rho, TOL, dilation=dil)
        if rep.commutant_dim != case["commutant_dim"]:
            return f"commutant dim {rep.commutant_dim} != {case['commutant_dim']}"
        if rep.extreme != case["extreme"]:
            return f"is_extreme {rep.extreme}, Choi test {case['extreme']}"
        t = ck.sample_unit_interval(dil, rng, TOL)
        theta = ck.compress(dil, t, TOL)
        elem = ck.rn_operator(rho, theta, TOL, source_dilation=dil)
        res = np.linalg.norm(elem.matrix - t) / max(np.linalg.norm(t), 1e-300)
        return None if res <= RN_RESIDUAL_BOUND else f"RN residual {res:.3e}"

    def _run_case(self, case, rng) -> Op:
        op, _ = _timed(case["label"], lambda: self._pipeline(case, rng), lambda why: why)
        return op

    def run_pass(self) -> list[Op]:
        rng = np.random.default_rng([self.sample_seed, 102])
        return [self._run_case(case, rng) for case in self.cases]


# --------------------------------------------------------------------------
def _dump(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# verdicts the cli inputs have by construction; both exit codes are exercised
INTENDED_CLI_VERDICTS = {"check": True, "dilate": True, "dilate_H54": True,
                         "pure": True, "extreme": False, "disjoint_yes": True,
                         "disjoint_no": False, "rn": True}


class Cli:
    """Sequential ``python -m cpnkit`` invocations over every command.

    Peak RSS is that of the largest CLI child process.
    """

    rss_of_children = True

    def __init__(self, ck, seed: int, workdir: str):
        self.ck = ck
        ser = ck.serialize
        rng = np.random.default_rng([seed, 103])
        small = ck.random_cpn_map(ck.make_algebra((2,)), 2, 2, 3, rng)
        big = ck.random_cpn_map(ck.make_algebra((3,)), 3, 2, 18, rng)  # H = 54
        pure = ck.random_cpn_map(ck.make_algebra((2,)), 2, 1, 1, rng)
        nonext = inputs.to_cpn(ck, (2,), 1, 2, inputs.unital_choi_blocks((2,), 2, (4,), rng))
        two = (2, 1)
        first = inputs.to_cpn(ck, two, 1, 2, inputs.random_choi_blocks(two, 2, (2, 0), rng))
        other = inputs.to_cpn(ck, two, 1, 2, inputs.random_choi_blocks(two, 2, (0, 1), rng))
        same = inputs.to_cpn(ck, two, 1, 2, inputs.random_choi_blocks(two, 2, (1, 0), rng))
        dil_small = ck.dilate(small, TOL)
        theta = ck.compress(dil_small, ck.sample_unit_interval(dil_small, rng, TOL), TOL)
        random_args = ["--d", "2", "--m", "2", "--n", "2", "--rank", "3", "--seed", str(seed)]

        path = {}
        for name, rho in (("small", small), ("big", big), ("pure", pure),
                          ("nonext", nonext), ("first", first), ("other", other),
                          ("same", same), ("theta", theta)):
            path[name] = _dump(os.path.join(workdir, f"{name}.json"), ser.cpn_map_to_json(rho))

        def dilate_ok(rho):
            return ck.verify_dilation(rho, ck.dilate(rho, TOL), TOL).ok(TOL)

        random_map = ck.random_cpn_map(ck.make_algebra((2,)), 2, 2, 3,
                                       np.random.default_rng(seed))
        # (label, argv, expected verdict or payload)
        self.commands = [
            ("check", ["check", path["small"]],
             ck.is_completely_n_positive(small, TOL).verdict),
            ("dilate", ["dilate", path["small"]], dilate_ok(small)),
            ("dilate_H54", ["dilate", path["big"]], dilate_ok(big)),
            ("pure", ["pure", path["pure"]], ck.is_pure(pure, TOL)),
            ("extreme", ["extreme", path["nonext"]], ck.is_extreme(nonext, TOL).extreme),
            ("disjoint_yes", ["disjoint", path["first"], path["other"]],
             ck.are_disjoint(first, other, TOL)),
            ("disjoint_no", ["disjoint", path["first"], path["same"]],
             ck.are_disjoint(first, same, TOL)),
            ("rn", ["rn", path["small"], path["theta"]],
             ck.rn_operator(small, theta, TOL) is not None),
            ("random", ["random"] + random_args, ser.cpn_map_to_json(random_map)),
        ]
        self.big_space_dim = ck.dilate(big, TOL).space_dim
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))

    def warm_up(self) -> None:
        self.run_subprocess(self.commands[0])

    def check(self, label: str, expected, code: int, text: str) -> str | None:
        if label == "random":
            if code != 0:
                return f"exit code {code}"
            return None if json.loads(text) == expected else "payload differs from library"
        if expected != INTENDED_CLI_VERDICTS[label]:
            return f"library verdict {expected}, by construction {INTENDED_CLI_VERDICTS[label]}"
        want = 0 if expected else 1
        if code != want:
            return f"exit code {code}, expected {want}"
        report = json.loads(text)
        if report.get("verdict") != expected:
            return f"verdict {report.get('verdict')} != library {expected}"
        if label == "dilate_H54" and report.get("space_dim") != self.big_space_dim:
            return f"space_dim {report.get('space_dim')}"
        return None

    def _judge(self, command, seconds: float, code: int, text: str) -> Op:
        label, _, expected = command
        try:
            why = self.check(label, expected, code, text)
        except (ValueError, KeyError) as exc:
            why = f"unreadable output: {exc}"
        return Op(label, seconds, why is None, why or "")

    def run_subprocess(self, command) -> Op:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "cpnkit"] + command[1], env=self.env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return Op(command[0], time.perf_counter() - t0, False, "timed out")
        return self._judge(command, time.perf_counter() - t0, proc.returncode, proc.stdout)

    def run_inprocess(self, command) -> Op:
        t0 = time.perf_counter()
        try:
            code, text = run_captured(self.ck.cli.main, command[1])
        except Exception as exc:  # counted as a failed op, like a crashing process
            return Op(command[0], time.perf_counter() - t0, False, f"{type(exc).__name__}: {exc}")
        return self._judge(command, time.perf_counter() - t0, code, text)

    def run_pass(self) -> list[Op]:
        return [self.run_subprocess(c) for c in self.commands]

    def run_inprocess_pass(self) -> list[Op]:
        return [self.run_inprocess(c) for c in self.commands]


WORKLOADS = {"suite": Suite, "large_maps": LargeMaps, "cli": Cli}
