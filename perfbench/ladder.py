"""Size ladder: time and peak traced memory of commutant, is_extreme and
rn_operator as the dilation dimension H grows, single- and multi-block.

A size guard predicts the memory of the commutant solve from shapes
before each point and skips the point, allocating nothing, when the
prediction is over the cap.
"""
from __future__ import annotations

import math
import time
import tracemalloc

import numpy as np

import inputs
from workloads import TOL, domain_label

# (block_dims, H values); multiplicities are equal across blocks
LADDER = (
    ((2,), (8, 16, 32, 64)),
    ((2, 2), (8, 16, 32)),
    ((3, 1), (16,)),
)
OPS = ("commutant", "is_extreme", "rn_operator")
N = 2
CAP_BYTES = 1.0e9
COMPLEX_BYTES = 16


def predicted_bytes(block_dims, h: int) -> int:
    """Memory of the seed's commutant solve: the full U of an SVD of the
    stacked (dim A * H^2) x H^2 commutator operand, plus the operand."""
    rows = sum(d * d for d in block_dims) * h * h
    return COMPLEX_BYTES * (rows * rows + rows * h * h)


def shape_for(block_dims, h: int) -> tuple[tuple[int, ...], int]:
    """Equal multiplicities r with sum d_k r = H, and the codomain size m."""
    r, rem = divmod(h, sum(block_dims))
    if rem or r < 1:
        raise ValueError(f"H = {h} is not a multiple of {sum(block_dims)}")
    m = max(1, max(math.ceil(r / (d * N)) for d in block_dims))
    return (r,) * len(block_dims), m


def _measure(fn):
    """(result or None, seconds, tracemalloc peak MB, error or None)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    error = out = None
    try:
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a raising op is a failed check, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, seconds, peak / 1e6, error


def run_point(ck, block_dims, h: int, rng, cap_bytes: float = CAP_BYTES) -> dict:
    """One ladder point; returns per-op records and a list of check failures."""
    predicted = predicted_bytes(block_dims, h)
    if predicted > cap_bytes:
        return {"skipped": f"skipped: predicted {predicted / 1e9:.1f} GB"}
    ranks, m = shape_for(block_dims, h)
    blocks = inputs.unital_choi_blocks(block_dims, N * m, ranks, rng)
    rho = inputs.to_cpn(ck, block_dims, N, m, blocks)
    extreme, _, comm_dim = inputs.choi_extreme(blocks, block_dims, N * m)
    dil = ck.dilate(rho, TOL)
    theta = 0.5 * rho
    half = 0.5 * np.eye(dil.space_dim)
    checks = {
        "commutant": (lambda: ck.commutant(dil.rep, TOL),
                      lambda b: None if b.dimension == comm_dim
                      else f"commutant dimension {b.dimension} != {comm_dim}"),
        "is_extreme": (lambda: ck.is_extreme(rho, TOL),
                       lambda rep: None if rep.extreme == extreme
                       else f"is_extreme {rep.extreme}, Choi test {extreme}"),
        "rn_operator": (lambda: ck.rn_operator(rho, theta, TOL, source_dilation=dil),
                        lambda elem: None
                        if np.linalg.norm(elem.matrix - half) <= 1e-8 * np.linalg.norm(half)
                        else "rn_operator does not recover T = I/2"),
    }
    record, failures = {}, []
    for op in OPS:
        fn, check = checks[op]
        out, seconds, mb, error = _measure(fn)
        record[op] = {"s": seconds, "peak_mb": mb}
        why = error or check(out)
        if why:
            failures.append(f"{op}: {why}")
        del out
    record["failures"] = failures
    return record


def points():
    for block_dims, hs in LADDER:
        for h in hs:
            yield block_dims, h, f"{domain_label(block_dims)}.H{h}"


def run(ck, seed: int, cap_bytes: float = CAP_BYTES) -> dict:
    rng = np.random.default_rng([seed, 104])
    return {label: run_point(ck, dims, h, rng, cap_bytes) for dims, h, label in points()}
