"""Test oracles for the frame-coordinate routes of cpnkit.

frame_basis builds every element of the closed-form commutant or
intertwiner basis at once from the frame columns; orth is an orthonormal
basis of a column space by SVD.  Together they give the H^2-row P T P
route that is_extreme's frame-row matrix is checked against.
"""
import numpy as np

from cpnkit.linalg import significant


def frame_basis(block_dims, u1, mults1, u2, mults2) -> np.ndarray:
    """Orthonormal basis (1/sqrt d_k) sum_p u2_{k,p,a} u1_{k,p,b}* of
    U_2 ((+)_k I_{d_k} (x) M_{s_k x r_k}) U_1*, from the frame columns, as
    a (sum_k s_k r_k, H_2, H_1) stack in (k, a, b) order."""
    basis = np.empty((sum(r * s for r, s in zip(mults1, mults2)), len(u2), len(u1)),
                     dtype=complex)
    o1 = o2 = col = 0
    for d, r, s in zip(block_dims, mults1, mults2):
        # (s, H_2, d) @ (r, d, H_1) -> (s, r, H_2, H_1), summing over p
        a2 = u2[:, o2:o2 + d * s].reshape(len(u2), d, s).transpose(2, 0, 1)
        a1 = u1[:, o1:o1 + d * r].reshape(len(u1), d, r).conj().transpose(2, 1, 0)
        block = basis[col:col + s * r]
        np.matmul(a2[:, None], a1[None], out=block.reshape(s, r, len(u2), len(u1)))
        block /= np.sqrt(d)
        o1 += d * r
        o2 += d * s
        col += s * r
    return basis


def orth(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column space, as columns."""
    u, s, _ = np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=False)
    return u[:, :significant(s, tol).sum()]


def pair_basis(c1, c2):
    """frame_basis from the frame of commutant c1 into that of c2: the
    commutant basis when c2 is c1, the intertwiner basis otherwise."""
    return frame_basis(c1.block_dims, c1.frame, c1.multiplicities, c2.frame, c2.multiplicities)
