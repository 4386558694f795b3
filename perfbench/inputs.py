"""Seeded inputs and the benchmark's own reference computations.

Everything here is built from a numpy Generator, so one seed gives one
set of inputs.  The reference checks (commutant dimension, the
Choi-coordinate extremality test) are written against the generated
Choi blocks, not against cpnkit, so they can catch a wrong verdict.
"""
from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-8


def _gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_choi_blocks(block_dims, nm: int, ranks, rng: np.random.Generator) -> list[np.ndarray]:
    """Flattened Choi blocks G G* of rank r_k (zero blocks for r_k = 0)."""
    out = []
    for d, r in zip(block_dims, ranks):
        if r > d * nm:
            raise ValueError(f"rank {r} exceeds Choi block size {d * nm}")
        g = _gaussian(rng, d * nm, r)
        out.append(g @ g.conj().T)
    return out


def unital_choi_blocks(block_dims, nm: int, ranks, rng: np.random.Generator) -> list[np.ndarray]:
    """Flattened Choi blocks of rank r_k each, normalized so flatten(rho)(1) = I.

    Block k is (I_d ⊗ S) G G* (I_d ⊗ S) with G Gaussian of shape
    (d_k nm, r_k) and S = P^{-1/2}, P the image of the unit before
    normalizing; S is invertible, so each block keeps rank r_k.
    """
    raw = random_choi_blocks(block_dims, nm, ranks, rng)
    unit_image = sum(c[p * nm:(p + 1) * nm, p * nm:(p + 1) * nm]
                     for d, c in zip(block_dims, raw) for p in range(d))
    w, v = np.linalg.eigh(unit_image)
    if w[0] <= 1e-6 * w[-1]:
        raise ValueError("image of the unit is singular; raise the ranks")
    s = (v / np.sqrt(w)) @ v.conj().T
    blocks = []
    for d, c in zip(block_dims, raw):
        lift = np.kron(np.eye(d), s)
        b = lift @ c @ lift
        blocks.append(0.5 * (b + b.conj().T))
    return blocks


def to_cpn(ck, block_dims, n: int, m: int, blocks):
    flat = ck.LinearMap(ck.make_algebra(tuple(block_dims)), n * m, tuple(blocks))
    return ck.unflatten(flat, n)


def choi_extreme(blocks, block_dims, nm: int) -> tuple[bool, int, int]:
    """Extremality among unital map matrices from Choi coordinates alone.

    With F_k the kept Choi eigenvectors of block k scaled by sqrt(w) and
    F_{k,p} its p-th row block of nm rows, rho is extreme exactly when
    X -> sum_k sum_p F_{k,p} X_k F_{k,p}* is injective on ⊕ M_{r_k}
    (Choi 1975, Thm 5, for several blocks).  Returns (extreme, rank,
    sum r_k^2).
    """
    cols = []
    for d, c in zip(block_dims, blocks):
        w, v = np.linalg.eigh(c)
        keep = w > RANK_RTOL * max(1.0, float(np.abs(w).max()))
        f = v[:, keep] * np.sqrt(w[keep])
        r = f.shape[1]
        if r == 0:
            continue
        op = np.zeros((nm * nm, r * r), dtype=complex)
        for p in range(d):
            fp = f[p * nm:(p + 1) * nm]
            op += np.kron(fp, fp.conj())
        cols.append(op)
    if not cols:
        return True, 0, 0
    mat = np.hstack(cols)
    s = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return rank == mat.shape[1], rank, mat.shape[1]
