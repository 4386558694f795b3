"""Dense linear-algebra helpers used throughout the package.

Conventions: vec() is row-major (numpy order), so vec(A X B) =
kron(A, B.T) @ vec(X).  Every rank and nullspace decision, and dilate's
Kraus cutoff, is significant(): rank_cutoff, tol * (1 + largest |value|);
an all-zero matrix therefore has rank 0 for every positive tol.

Certificates are measured on stacks: spectral_norm accepts any array of
shape (..., r, c) and returns the largest spectral norm over the leading
axes, so a residual over all matrix units, such as
max_e ||X Phi(e) - Phi(e) X||, is one call on X @ images - images @ X;
spectral_norms returns the norm of each member, so the gates of a stack
of commutant blocks X (||X||, ||X - X*||) share one SVD call.
"""
from __future__ import annotations

import numpy as np


def herm(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a*)/2 of a matrix or of each matrix of a stack."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def spectral_norms(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack (any leading axes),
    zeros when the matrices are empty.

    Read straight off the SVD, whose values come in descending order: the
    numbers np.linalg.norm(a, 2, axis=(-2, -1)) gives, without its axis
    handling.  Several certificates stacked into one array cost one call."""
    a = np.asarray(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value over a matrix or a stack of matrices (any
    leading axes); 0.0 when the input is empty."""
    return float(spectral_norms(a).max(initial=0.0))


def rank_cutoff(s_max: float, tol: float) -> float:
    """tol * (1 + s_max), the one rank cutoff, for values whose largest is s_max."""
    return tol * (1.0 + s_max)


def significant(x: np.ndarray, tol: float) -> np.ndarray:
    """Mask x > rank_cutoff(max |x|); on descending singular values max |x|
    is x[0]."""
    return x > rank_cutoff(float(np.abs(x).max()) if x.size else 0.0, tol)


def numerical_rank(a: np.ndarray, tol: float) -> int:
    return int(significant(np.linalg.svd(a, compute_uv=False), tol).sum())


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
    return vh[significant(s, tol).sum():].conj().T


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition."""
    if a.size == 0:
        return a.copy()
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def solve_sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal-norm least-squares solution X of X @ a = b.

    The polar route of unitary_equivalence and dilate_from_gram's images
    use it; on spanning matrices it is the test oracle for the frame-
    coordinate Radon-Nikodym operator and intertwiner of radon.
    """
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
