"""Test oracles for the frame-coordinate routes of cpnkit.

frame_basis builds every element of the closed-form commutant or
intertwiner basis at once from the frame columns, the identity's on a
canonical dilation; orth is an orthonormal basis of a column space by
SVD.  Together they give the H^2-row P T P route that is_extreme's
frame-row matrix is checked against.  intertwiner_space is the
closed-form intertwiner basis between any two dilations, conjugated by
their canonicalize() unitaries, and intertwiner_basis_of the same space
from a nullspace solve.
polar_witness_images is the off-diagonal of the disjointness witness by
the H_2 x H_1 route: the polar part W of intertwiner_space's element 0,
sandwiched as V_1* Phi_1(e) W* V_2 against the matrix-unit images.
choi_extreme decides extremality in C(rho(1)) from the Choi blocks alone,
without a dilation and without rho(1).  svd_is_extreme is is_extreme's
verdict with the rank of the frame-row matrix always read off its SVD,
no Gram certificate first.  svd_cpn_verdicts is the stacked complete
n-positivity verdict with every sub-block norm of C - C* from an SVD, no
bound first; a block norm is max |w| of the Hermitian part's spectrum,
as in maps.
"""
import math

import numpy as np

from cpnkit import CpnVerdict, ValidationError, canonicalize, commutant, structure
from cpnkit.dilation import _minimal_commutant, dilation_of
from cpnkit.linalg import herm, nullspace, numerical_rank, significant, spectral_norms
from cpnkit.maps import subblocks


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


def pair_basis(c1, c2, u1=None, u2=None):
    """frame_basis from commutant c1 into c2 on the frames u1 and u2 (the
    identity by default): the commutant basis when c2 is c1 and u2 is u1,
    the intertwiner basis otherwise."""
    u1 = np.eye(c1.space_dim) if u1 is None else u1
    u2 = np.eye(c2.space_dim) if u2 is None else u2
    return frame_basis(c1.block_dims, u1, c1.multiplicities, u2, c2.multiplicities)


def intertwiner_space(d1, d2, tol=1e-9):
    """Orthonormal basis of {X : X Phi_1(e) = Phi_2(e) X over matrix units}.

    The closed form (+)_k I_{d_k} (x) M_{s_k x r_k} between the canonical
    dilations, as pair_basis builds it on the canonicalize() unitaries.
    """
    if d1.source.domain != d2.source.domain:
        raise ValidationError("dilations have different domains")
    (c1, u1), (c2, u2) = canonicalize(d1, tol), canonicalize(d2, tol)
    return list(pair_basis(commutant(c1.rep), commutant(c2.rep), u1, u2))


def partial_isometry(a: np.ndarray, tol: float) -> np.ndarray:
    """Partial isometry with the same row/column supports as a: the SVD
    directions with singular value above tol * (1 + s_max), unit weight."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    keep = significant(s, tol)
    return u[:, keep] @ vh[keep]


def polar_witness_images(d1, d2, tol=1e-9):
    """V_1* Phi_1(e) W* V_2 over the matrix units e, W the polar part of the
    first intertwiner basis element; None when the dilations are disjoint."""
    space = intertwiner_space(d1, d2, tol)
    if not space:
        return None
    w = partial_isometry(space[0], tol)
    return d1.isometries[0].conj().T @ d1.rep.images @ w.conj().T @ d2.isometries[0]


def intertwiner_basis_of(mats1, mats2, dim1, dim2, tol):
    """Orthonormal basis of {X : X @ M1 = M2 @ X for paired M1, M2}, from
    the nullspace of the stacked Kronecker system; X has shape (dim2, dim1)."""
    if dim1 == 0 or dim2 == 0:
        return []
    rows = [np.kron(np.eye(dim2, dtype=complex), m1.T) - np.kron(m2, np.eye(dim1, dtype=complex))
            for m1, m2 in zip(mats1, mats2)]
    basis = nullspace(np.vstack(rows), tol)
    return [basis[:, j].reshape(dim2, dim1) for j in range(basis.shape[1])]


def choi_extreme(rho, tol=1e-9):
    """(extreme, rank, sum r_k^2) of rho in C(rho(1)), from Choi coordinates.

    With F_k the eigenvectors of flattened Choi block k kept at dilate's
    cutoff, scaled by sqrt(w), and F_{k,p} its p-th block of nm rows, rho
    is extreme exactly when X -> sum_k sum_p F_{k,p} X_k F_{k,p}* is
    injective on (+)_k M_{r_k} (Choi 1975, Thm 5, for several blocks).
    The criterion holds for every value at the unit, so no rho(1) enters.
    """
    nm = rho.flat.codomain_dim
    cols = []
    for d, c in zip(rho.domain.block_dims, rho.flat.choi_blocks):
        w, v = np.linalg.eigh(c)
        keep = significant(w, tol)
        f = (v[:, keep] * np.sqrt(w[keep])).reshape(d, nm, -1)
        # column (a, b) is vec(sum_p F_p E_ab F_p*) = sum_p F_p[:, a] (x) conj(F_p[:, b])
        cols.append(np.einsum("pia,pjb->ijab", f, f.conj()).reshape(nm * nm, -1))
    mat = np.hstack(cols)
    rank = numerical_rank(mat, tol)
    return rank == mat.shape[1], rank, mat.shape[1]


def svd_is_extreme(rho, tol=1e-9, dilation=None):
    """(extreme, commutant_dim, compression_rank) of is_extreme, with the
    rank of the frame-row matrix M counted from its singular values."""
    dil = dilation_of(rho, tol, dilation)
    comm = _minimal_commutant(dil, tol)
    mat = structure._frame_row_matrix(structure._frame_stacks(dil, comm))
    rank = numerical_rank(mat, tol)
    return rank == mat.shape[1], mat.shape[1], rank


def svd_cpn_verdicts(stacks, m, tol, spectra=None):
    """maps._cpn_verdicts with no bound first: the block norms max |w| of
    the Hermitian parts' spectra, and the m x m sub-block norms of C - C*
    always read off SVDs, per block one SVD call over the stack."""
    if spectra is None:
        spectra = [np.linalg.eigvalsh(herm(c)) for c in stacks]
    norms = [np.abs(w).max(axis=-1, initial=0.0).tolist() for w in spectra]
    asyms = [spectral_norms(subblocks(c - c.conj().swapaxes(-1, -2), m))
             .max(axis=(-2, -1), initial=0.0).tolist() for c in stacks]
    lows = [w[:, 0].tolist() if w.shape[-1] else None for w in spectra]
    verdicts = []
    for i, block_norms in enumerate(zip(*norms)):
        symmetric = max(a[i] for a in asyms) <= tol * (1.0 + max(block_norms))
        firsts = [(low[i], norm) for low, norm in zip(lows, block_norms) if low is not None]
        positive = not any(w < -tol * (1.0 + norm) for w, norm in firsts)
        min_eig = min([np.inf] + [w for w, _ in firsts])
        verdicts.append(CpnVerdict(symmetric and positive,
                                   min_eig if math.isfinite(min_eig) else 0.0, symmetric))
    return verdicts
