"""Command line front end.

Exit codes partition three ways: 0 means the command ran and its
mathematical verdict (if any) is affirmative, 1 means the verdict is
negative (a map fails positivity, domination fails, a property does not
hold), and 2 means the inputs never reached a verdict (usage errors,
unreadable files or an unwritable output path, schema violations,
non-finite numbers or tolerances, a failed certificate or linear-algebra
routine, a floating-point overflow or invalid operation).

Each command returns its output text and exit code; ``main`` alone
writes the text and turns every error, usage errors included, into one
JSON object on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import serialize
from .dilation import commutant, dilate, verify_dilation
from .errors import (CertificationError, DominationError, PositivityError,
                     SchemaError, ValidationError)
from .maps import images_of, is_completely_n_positive, random_cpn_map
from .algebra import make_algebra
from .linalg import spectral_norm
from .radon import rn_operator
from .structure import extension_witness, is_extreme
from .acceptance import run_all


def _tol(arg: str | None) -> float:
    """--tol, else CPN_TOL, else 1e-9.  A tolerance must be a finite
    positive number; inf and nan would make every check pass or fail
    vacuously."""
    name, raw = (("--tol", arg) if arg is not None
                 else ("CPN_TOL", os.environ.get("CPN_TOL", "1e-9")))
    try:
        val = float(raw)
    except ValueError as exc:
        raise SchemaError(f"{name} is not a number: {raw!r}") from exc
    if not (math.isfinite(val) and val > 0.0):
        raise SchemaError(f"{name} must be a finite positive number, got {val!r}")
    return val


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot parse {path}: {exc}") from exc


def _load_map(path: str):
    return serialize.cpn_map_from_json(_load_json(path))


def _write(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from exc


def _report(args, verdict: bool, certificates: dict, **extra) -> tuple[str, int]:
    """The JSON report of a verdict and its exit code: 0 affirmative, 1 negative."""
    report = {
        "command": args.command,
        "verdict": verdict,
        "certificates": certificates,
        "tol": args.tol,
        "version": __version__,
        **extra,
    }
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CertificationError(f"report holds a non-finite number: {exc}") from exc
    return text, 0 if verdict else 1


def _cmd_check(args) -> tuple[str, int]:
    rho = _load_map(args.map)
    chk = is_completely_n_positive(rho, args.tol)
    return _report(args, bool(chk.verdict), {
        "min_choi_eigenvalue": float(chk.min_eig),
        "hermitian_symmetric": bool(chk.hermitian_symmetric),
        "n": rho.n,
        "codomain_dim": rho.codomain_dim,
    })


def _cmd_dilate(args) -> tuple[str, int]:
    rho = _load_map(args.map)
    dil = dilate(rho, args.tol)
    rep = verify_dilation(rho, dil, args.tol)
    if not rep.ok(args.tol):
        raise CertificationError(
            f"dilation fails its certificate: factor residual {float(rep.factor_residual):.3g} "
            f"against {args.tol * rep.scale:.3g}, span {rep.span_dim} of {rep.space_dim}")
    return _report(args, True, {
        "factor_residual": float(rep.factor_residual),
        "minimal": bool(rep.minimal),
        "scale": float(rep.scale),
    }, space_dim=dil.space_dim, dilation=serialize.dilation_to_json(dil))


def _cmd_rn(args) -> tuple[str, int]:
    rho = _load_map(args.rho)
    theta = _load_map(args.theta)
    elem = rn_operator(rho, theta, args.tol)
    return _report(args, True, {
        "commutant_residual": float(elem.commutant_residual),
        "spectrum_min": elem.spectrum[0],
        "spectrum_max": elem.spectrum[1],
        "reconstruction_residual": float(elem.reconstruction_residual),
    }, operator={"matrix": serialize.matrix_to_json(elem.matrix)})


def _cmd_pure(args) -> tuple[str, int]:
    rho = _load_map(args.map)
    dil = dilate(rho, args.tol)
    dim = commutant(dil.rep, args.tol).dimension
    return _report(args, dim == 1, {
        "commutant_dimension": dim,
        "space_dim": dil.space_dim,
    })


def _cmd_extreme(args) -> tuple[str, int]:
    rep = is_extreme(_load_map(args.map), args.tol)
    certificates = {
        "commutant_dimension": rep.commutant_dim,
        "compression_rank": rep.compression_rank,
    }
    extra = {}
    if not rep.extreme:
        decomp = rep.decomposition()
        extra["decomposition"] = {
            "beta": decomp.beta,
            "part1": serialize.cpn_map_to_json(decomp.part1),
            "part2": serialize.cpn_map_to_json(decomp.part2),
        }
    return _report(args, rep.extreme, certificates, **extra)


def _cmd_disjoint(args) -> tuple[str, int]:
    rho = _load_map(args.first)
    theta = _load_map(args.second)
    # the maps are disjoint exactly when no completion witness exists
    wit = extension_witness(rho, theta, args.tol)
    disjoint = wit is None
    certificates = {}
    extra = {}
    if not disjoint:
        certificates["witness_offdiagonal_norm"] = spectral_norm(images_of(wit.entry(0, 1)))
        extra["witness"] = serialize.cpn_map_to_json(wit)
    return _report(args, disjoint, certificates, **extra)


def _cmd_random(args) -> tuple[str, int]:
    # the library rejects --d, --m, --n below 1 and a negative --rank
    rng = np.random.default_rng(args.seed)
    rho = random_cpn_map(make_algebra((args.d,)), args.m, args.n,
                         args.rank, rng)
    payload = serialize.cpn_map_to_json(rho)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", 0


def _cmd_suite(args) -> tuple[str, int]:
    results = run_all(args.seed, args.tol, args.count)
    ok = all(res.passed for res in results)
    summary = "suite: %s (%d/%d criteria)\n" % (
        "PASS" if ok else "FAIL", sum(res.passed for res in results), len(results))
    return "".join(res.line() + "\n" for res in results) + summary, 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise SchemaError instead of printing usage and exiting,
    so they reach main's JSON error path; subparsers inherit the class."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cpnkit",
        description="Dilation, Radon-Nikodym and structure tools for "
                    "matrices of completely positive maps.")
    parser.add_argument("--version", action="version",
                        version=f"cpnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--tol", default=None,
                       help="tolerance (default: CPN_TOL env var or 1e-9)")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="write the JSON report here instead of stdout")

    p = sub.add_parser("check", help="test a map matrix for complete n-positivity")
    p.add_argument("map", help="JSON file with the map matrix")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dilate", help="build and verify the minimal dilation")
    p.add_argument("map")
    add_common(p)
    p.set_defaults(func=_cmd_dilate)

    p = sub.add_parser("rn", help="recover the operator mapping one map matrix "
                                  "onto a dominated one")
    p.add_argument("rho", help="dominating map matrix")
    p.add_argument("theta", help="dominated map matrix")
    add_common(p)
    p.set_defaults(func=_cmd_rn)

    p = sub.add_parser("pure", help="decide purity via the commutant dimension")
    p.add_argument("map")
    add_common(p)
    p.set_defaults(func=_cmd_pure)

    p = sub.add_parser("extreme", help="decide extremality among unital map "
                                       "matrices; decompose when not extreme")
    p.add_argument("map")
    add_common(p)
    p.set_defaults(func=_cmd_extreme)

    p = sub.add_parser("disjoint", help="decide disjointness of two unital "
                                        "completely positive maps")
    p.add_argument("first")
    p.add_argument("second")
    add_common(p)
    p.set_defaults(func=_cmd_disjoint)

    p = sub.add_parser("random", help="emit a random map matrix as JSON")
    p.add_argument("--d", type=int, default=2, help="matrix algebra size")
    p.add_argument("--m", type=int, default=2, help="codomain dimension")
    p.add_argument("--n", type=int, default=2, help="matrix order of the map")
    p.add_argument("--rank", type=int, default=2, help="Choi rank")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("suite", help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=None,
                   help="override per-criterion instance counts")
    add_common(p, output=False)
    p.set_defaults(func=_cmd_suite)

    return parser


def _error_report(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    min_eig = getattr(exc, "min_eig", None)
    if min_eig is not None and math.isfinite(min_eig):
        payload["min_eig"] = float(min_eig)
    return {"error": payload, "version": __version__}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if "tol" in vars(args):
            args.tol = _tol(args.tol)
        if getattr(args, "seed", 0) < 0:  # numpy generators take no negative seed
            raise SchemaError(f"--seed must be a nonnegative integer, got {args.seed}")
        # an overflow or invalid value means no trustworthy verdict: raise it
        # as FloatingPointError instead of printing numpy warnings
        with np.errstate(over="raise", invalid="raise"):
            text, code = args.func(args)
        _write(text, getattr(args, "output", None))
        return code
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (PositivityError, DominationError) as exc:
        sys.stderr.write(json.dumps(_error_report(exc)) + "\n")
        return 1
    except (SchemaError, ValidationError, CertificationError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(json.dumps(_error_report(exc)) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
