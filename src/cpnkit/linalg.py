"""Dense linear-algebra helpers used throughout the package.

Conventions: vec() is row-major (numpy order), so vec(A X B) =
kron(A, B.T) @ vec(X).  All rank and nullspace decisions use the
relative cutoff tol * (1 + largest singular value); an all-zero
matrix therefore has rank 0 for every positive tol.

Certificates are measured on stacks: spectral_norm accepts any array of
shape (..., r, c) and returns the largest spectral norm over the leading
axes, so a residual over all matrix units, such as
max_e ||X Phi(e) - Phi(e) X||, is one call on X @ images - images @ X.
"""
from __future__ import annotations

import numpy as np


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*)/2."""
    return 0.5 * (a + a.conj().T)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value over a matrix or a stack of matrices (any
    leading axes); 0.0 when the input is empty."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2, axis=(-2, -1)).max())


def singular_values(a: np.ndarray) -> np.ndarray:
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def numerical_rank(a: np.ndarray, tol: float) -> int:
    s = singular_values(a)
    if s.size == 0:
        return 0
    return int(np.sum(s > tol * (1.0 + s[0])))


def orth(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > tol * (1.0 + s[0]))) if s.size else 0
    return u[:, :r]


def nullspace(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the right nullspace, as columns.

    Only a wide matrix needs the full SVD; for a tall one the reduced
    SVD already returns every right singular vector, without the
    rows x rows U factor.
    """
    a = np.asarray(a, dtype=complex)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=complex)
    if rows == 0 or a.size == 0 or not np.any(a):
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=rows < cols)
    r = int(np.sum(s > tol * (1.0 + s[0])))
    return vh[r:].conj().T


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition."""
    if a.size == 0:
        return a.copy()
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def partial_isometry(a: np.ndarray, tol: float) -> np.ndarray:
    """Partial isometry with the same row/column supports as a.

    SVD directions with singular value above tol * (1 + s_max) are kept
    with unit weight; the rest are dropped.
    """
    if a.size == 0:
        return a.copy()
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s.size == 0:
        return np.zeros_like(a)
    keep = s > tol * (1.0 + s[0])
    return u[:, keep] @ vh[keep]


def solve_sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares solution X of X @ a = b."""
    xt, *_ = np.linalg.lstsq(a.T, b.T, rcond=None)
    return xt.T


def commutant_basis_of(mats: list[np.ndarray], dim: int, tol: float) -> list[np.ndarray]:
    """Orthonormal basis (Frobenius) of {X : [X, M] = 0 for all M in mats}.

    Test oracle; kept here because perfbench's tracer binds it by name.
    """
    if dim == 0:
        return []
    if not mats:
        basis = nullspace(np.zeros((0, dim * dim), dtype=complex), tol)
        return [basis[:, j].reshape(dim, dim) for j in range(basis.shape[1])]
    eye = np.eye(dim, dtype=complex)
    rows = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    basis = nullspace(np.vstack(rows), tol)
    return [basis[:, j].reshape(dim, dim) for j in range(basis.shape[1])]


def intertwiner_basis_of(mats1: list[np.ndarray], mats2: list[np.ndarray],
                         dim1: int, dim2: int, tol: float) -> list[np.ndarray]:
    """Orthonormal basis of {X : X @ M1 = M2 @ X for paired M1, M2}.

    X has shape (dim2, dim1).  Test oracle, kept next to commutant_basis_of.
    """
    if dim1 == 0 or dim2 == 0:
        return []
    rows = [np.kron(np.eye(dim2, dtype=complex), m1.T) - np.kron(m2, np.eye(dim1, dtype=complex))
            for m1, m2 in zip(mats1, mats2)]
    basis = nullspace(np.vstack(rows), tol)
    return [basis[:, j].reshape(dim2, dim1) for j in range(basis.shape[1])]
