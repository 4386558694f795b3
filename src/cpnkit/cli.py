"""Command line front end.

Exit codes partition three ways: 0 means the command ran and its
mathematical verdict (if any) is affirmative, 1 means the verdict is
negative (a map fails positivity, domination fails, a property does not
hold), and 2 means the inputs never reached a verdict (unreadable files,
schema violations, non-finite numbers or tolerances, bad arguments, a
failed certificate or linear-algebra routine, a floating-point overflow
or invalid operation).
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
from .structure import extension_witness, is_extreme, nonextreme_decomposition
from .acceptance import run_all


def _require_tol(name: str, val: float) -> float:
    """A tolerance must be a finite positive number; inf and nan would
    make every check pass or fail vacuously."""
    if not (math.isfinite(val) and val > 0.0):
        raise SchemaError(f"{name} must be a finite positive number, got {val!r}")
    return val


def _env_tol() -> float:
    raw = os.environ.get("CPN_TOL")
    if raw is None:
        return 1e-9
    try:
        val = float(raw)
    except ValueError as exc:
        raise SchemaError(f"CPN_TOL is not a number: {raw!r}") from exc
    return _require_tol("CPN_TOL", val)


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


def _emit(report: dict, output: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise CertificationError(f"report holds a non-finite number: {exc}") from exc
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, tol: float, verdict, certificates: dict,
              **extra) -> dict:
    report = {
        "command": command,
        "verdict": verdict,
        "certificates": certificates,
        "tol": tol,
        "version": __version__,
    }
    report.update(extra)
    return report


def _cmd_check(args) -> int:
    rho = _load_map(args.map)
    chk = is_completely_n_positive(rho, args.tol)
    report = _envelope("check", args.tol, bool(chk.verdict), {
        "min_choi_eigenvalue": float(chk.min_eig),
        "hermitian_symmetric": bool(chk.hermitian_symmetric),
        "n": rho.n,
        "codomain_dim": rho.codomain_dim,
    })
    _emit(report, args.output)
    return 0 if chk.verdict else 1


def _cmd_dilate(args) -> int:
    rank_tol = args.tol if args.rank_tol is None \
        else _require_tol("--rank-tol", args.rank_tol)
    rho = _load_map(args.map)
    dil = dilate(rho, args.tol, rank_tol=rank_tol)
    rep = verify_dilation(rho, dil, args.tol)
    report = _envelope("dilate", args.tol, True, {
        "factor_residual": float(rep.factor_residual),
        "minimal": bool(rep.minimal),
        "scale": float(rep.scale),
    }, space_dim=dil.space_dim, dilation=serialize.dilation_to_json(dil))
    _emit(report, args.output)
    return 0


def _cmd_rn(args) -> int:
    rho = _load_map(args.rho)
    theta = _load_map(args.theta)
    elem = rn_operator(rho, theta, args.tol)
    report = _envelope("rn", args.tol, True, {
        "commutant_residual": float(elem.commutant_residual),
        "spectrum_min": float(min(elem.spectrum)) if elem.spectrum else 0.0,
        "spectrum_max": float(max(elem.spectrum)) if elem.spectrum else 0.0,
        "reconstruction_residual": float(elem.reconstruction_residual),
    }, operator=serialize.commutant_element_to_json(elem.matrix))
    _emit(report, args.output)
    return 0


def _cmd_pure(args) -> int:
    rho = _load_map(args.map)
    dil = dilate(rho, args.tol)
    dim = commutant(dil.rep, args.tol).dimension
    pure = dim == 1
    report = _envelope("pure", args.tol, pure, {
        "commutant_dimension": dim,
        "space_dim": dil.space_dim,
    })
    _emit(report, args.output)
    return 0 if pure else 1


def _cmd_extreme(args) -> int:
    rho = _load_map(args.map)
    dil = dilate(rho, args.tol)
    rep = is_extreme(rho, args.tol, dilation=dil)
    certificates = {
        "commutant_dimension": rep.commutant_dim,
        "compression_rank": rep.compression_rank,
    }
    extra = {}
    if not rep.extreme:
        decomp = nonextreme_decomposition(rho, args.tol, dilation=dil)
        extra["decomposition"] = {
            "beta": decomp.beta,
            "part1": serialize.cpn_map_to_json(decomp.part1),
            "part2": serialize.cpn_map_to_json(decomp.part2),
        }
    report = _envelope("extreme", args.tol, rep.extreme, certificates, **extra)
    _emit(report, args.output)
    return 0 if rep.extreme else 1


def _cmd_disjoint(args) -> int:
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
    report = _envelope("disjoint", args.tol, disjoint, certificates, **extra)
    _emit(report, args.output)
    return 0 if disjoint else 1


def _cmd_random(args) -> int:
    for name in ("d", "m", "n"):
        if getattr(args, name) < 1:
            raise SchemaError(f"--{name} must be at least 1")
    if args.rank < 0:
        raise SchemaError("--rank must be nonnegative")
    rng = np.random.default_rng(args.seed)
    rho = random_cpn_map(make_algebra((args.d,)), args.m, args.n,
                         args.rank, rng)
    payload = serialize.cpn_map_to_json(rho)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_suite(args) -> int:
    results = run_all(args.seed, args.tol, args.count)
    for res in results:
        sys.stdout.write(res.line() + "\n")
    ok = all(res.passed for res in results)
    sys.stdout.write("suite: %s (%d/%d criteria)\n"
                     % ("PASS" if ok else "FAIL",
                        sum(res.passed for res in results), len(results)))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpnkit",
        description="Dilation, Radon-Nikodym and structure tools for "
                    "matrices of completely positive maps.")
    parser.add_argument("--version", action="version",
                        version=f"cpnkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--tol", type=float, default=None,
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
    p.add_argument("--rank-tol", type=float, default=None,
                   help="eigenvalue cutoff for the dilation rank")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if getattr(args, "tol", None) is None and hasattr(args, "tol"):
            args.tol = _env_tol()
        elif getattr(args, "tol", None) is not None:
            _require_tol("--tol", args.tol)
        # an overflow or invalid value means no trustworthy verdict: raise it
        # as FloatingPointError instead of printing numpy warnings
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (PositivityError, DominationError) as exc:
        sys.stderr.write(json.dumps(_error_report(exc)) + "\n")
        return 1
    except (SchemaError, ValidationError, CertificationError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(json.dumps(_error_report(exc)) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
