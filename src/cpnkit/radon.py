"""Radon-Nikodym machinery: compressions by commutant elements and the
order correspondence T <-> rho_T.

Given a minimal dilation (Phi, H, V_1..V_n) of rho and a positive T in
the commutant Phi(A)', the compression

    (rho_T)_ij(a) = V_i* T Phi(a) V_j

is again completely n-positive, and T -> rho_T is an affine order
isomorphism from the operator interval [0, I] in the commutant onto the
map interval [0, rho].  Its inverse goes through the contraction W
determined on the spanning family by W(Phi_rho(a) V_rho,i xi) =
Phi_theta(a) V_theta,i xi, with T = W* W.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import (StinespringDilation, commutant, dilate, dilation_of,
                       spanning_matrix)
from .errors import CertificationError, DominationError, ValidationError
from .linalg import herm, solve_sandwich, spectral_norm, spectral_norms
from .maps import (CPnMap, cpn_distance, is_completely_n_positive,
                   map_from_images, order_leq, unflatten)


def _norm_and_commutator(dil: StinespringDilation, t: np.ndarray, *extra: np.ndarray):
    """||T||, ||X|| for each extra X, and max_e ||[T, Phi(e)]||, as floats
    from one batched SVD; bitwise the values of separate spectral_norm calls."""
    imgs = dil.rep.images
    norms = spectral_norms(np.concatenate([t[None], *(x[None] for x in extra),
                                           t @ imgs - imgs @ t])).tolist()
    return (*norms[:1 + len(extra)], max(norms[1 + len(extra):]))


def compress(dil: StinespringDilation, t: np.ndarray, tol: float = 1e-9) -> CPnMap:
    """The compression rho_T for a positive commutant element T.

    T must commute with every Phi(e) and be positive semidefinite, both
    to relative tolerance 1 + ||T||; violations raise ValidationError.
    """
    t = np.asarray(t, dtype=complex)
    if t.shape != (dil.space_dim, dil.space_dim):
        raise ValidationError(
            f"operator must have shape {(dil.space_dim, dil.space_dim)}, got {t.shape}")
    norm, asym, res = _norm_and_commutator(dil, t, t - t.conj().T)
    scale = 1.0 + norm
    if res > tol * scale:
        raise ValidationError(
            f"operator is not in the commutant (residual {res:.3e})")
    if asym > tol * scale:
        raise ValidationError("operator is not Hermitian")
    if t.size:
        lo = float(np.linalg.eigvalsh(herm(t))[0])
        if lo < -tol * scale:
            raise ValidationError(
                f"operator is not positive semidefinite (min eigenvalue {lo:.3e})")
    v = dil.joint_isometry
    flat = map_from_images(dil.source.domain, v.shape[1], v.conj().T @ t @ dil.rep.images @ v)
    return unflatten(flat, dil.n)


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """Contraction W : H_rho -> H_theta with W Phi_rho(.) = Phi_theta(.) W."""

    matrix: np.ndarray
    source: StinespringDilation
    target: StinespringDilation
    norm: float
    isometry_residual: float
    intertwining_residual: float


def intertwiner(rho: CPnMap, theta: CPnMap, tol: float = 1e-9,
                source_dilation: StinespringDilation | None = None) -> Intertwiner:
    """The canonical contraction between the dilations of rho and theta <= rho.

    Raises DominationError when rho - theta is not completely n-positive.
    Certifies ||W|| <= 1, W V_rho,i = V_theta,i and the intertwining
    relation; certificate failure raises, never passes silently.
    """
    if theta.n != rho.n or theta.domain != rho.domain \
            or theta.codomain_dim != rho.codomain_dim:
        raise ValidationError("maps are not comparable: different shape or spaces")
    diff = is_completely_n_positive(rho - theta, tol)
    if not diff.verdict:
        raise DominationError(
            f"theta is not dominated by rho (min eigenvalue {diff.min_eig:.3e})",
            min_eig=diff.min_eig)
    dr = dilation_of(rho, tol, source_dilation)
    dt = dilate(theta, tol)
    xr = spanning_matrix(dr)
    xt = spanning_matrix(dt)
    w = solve_sandwich(xr, xt)
    scale = rho.scale
    norm, *inter = spectral_norms(np.concatenate(
        [w[None], w @ dr.rep.images - dt.rep.images @ w])).tolist()
    iso_res = spectral_norm(w @ np.array(dr.isometries) - np.array(dt.isometries))
    int_res = max(inter)
    if norm > 1.0 + tol * scale or max(iso_res, int_res) > tol * scale:
        raise CertificationError(
            f"intertwiner certificate failed (norm {norm:.12f}, residuals "
            f"{iso_res:.3e}, {int_res:.3e})")
    return Intertwiner(w, dr, dt, norm, iso_res, int_res)


@dataclass(frozen=True, eq=False)
class CommutantElement:
    """Positive commutant operator representing a dominated map."""

    dilation: StinespringDilation
    matrix: np.ndarray
    commutant_residual: float
    spectrum: tuple[float, float]
    reconstruction_residual: float


def rn_operator(rho: CPnMap, theta: CPnMap, tol: float = 1e-9,
                source_dilation: StinespringDilation | None = None) -> CommutantElement:
    """The Radon-Nikodym operator T = W* W with compress(D, T) = theta.

    T lives on the dilation of rho, commutes with the representation and
    has spectrum in [0, 1] up to tol; all three facts are certified, as
    is the reconstruction of theta.
    """
    w_obj = intertwiner(rho, theta, tol, source_dilation=source_dilation)
    dr = w_obj.source
    t = w_obj.matrix.conj().T @ w_obj.matrix
    t_norm, com_res = _norm_and_commutator(dr, t)
    if t.size:
        eigs = np.linalg.eigvalsh(herm(t))
        spectrum = (float(eigs[0]), float(eigs[-1]))
    else:
        spectrum = (0.0, 0.0)
    scale = rho.scale
    recon = cpn_distance(compress(dr, t, tol), theta)
    if com_res > tol * (1.0 + t_norm) \
            or spectrum[0] < -tol * scale or spectrum[1] > 1.0 + tol * scale \
            or recon > tol * scale:
        raise CertificationError(
            f"Radon-Nikodym certificate failed (commutant {com_res:.3e}, "
            f"spectrum [{spectrum[0]:.3e}, {spectrum[1]:.3e}], "
            f"reconstruction {recon:.3e})")
    return CommutantElement(dr, t, com_res, spectrum, recon)


@dataclass(frozen=True)
class OrderCheck:
    """Operator-side and map-side verdicts for T1 <= T2."""

    operator_leq: bool
    map_leq: bool

    @property
    def agree(self) -> bool:
        return self.operator_leq == self.map_leq


def order_equivalence_check(dil: StinespringDilation, t1: np.ndarray,
                            t2: np.ndarray, tol: float = 1e-9) -> OrderCheck:
    """Compare T1 <= T2 with compress(D, T1) <= compress(D, T2).

    Both operators must be positive commutant elements.  Disagreement of
    the two verdicts indicates a library defect; callers should treat it
    as such.
    """
    t1 = np.asarray(t1, dtype=complex)
    t2 = np.asarray(t2, dtype=complex)
    m_leq = order_leq(compress(dil, t1, tol), compress(dil, t2, tol), tol)
    diff = t2 - t1
    if diff.size:
        lo = float(np.linalg.eigvalsh(herm(diff))[0])
        op_leq = lo >= -tol * (1.0 + spectral_norm(diff))
    else:
        op_leq = True
    return OrderCheck(bool(op_leq), bool(m_leq))


def sample_unit_interval(dil: StinespringDilation, rng: np.random.Generator,
                         tol: float = 1e-9) -> np.ndarray:
    """Random element of [0, I] in the commutant of a dilation.

    Draws complex coefficients in the (k, a, b) order of the commutant
    basis, takes the Hermitian part of their CommutantBasis.element (the
    basis itself is not built) and rescales its spectrum affinely onto
    [0, 1].  Deterministic under the given generator state.  The frame is
    cached on the representation, so repeated draws from one dilation
    compute it once.
    """
    basis = commutant(dil.rep, tol)
    if basis.dimension == 0:
        return np.zeros((0, 0), dtype=complex)
    coeffs = rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)
    h = herm(basis.element(coeffs))
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    if hi - lo <= tol * (1.0 + max(abs(lo), abs(hi))):
        # essentially scalar; pick a deterministic interior point
        return 0.5 * np.eye(dil.space_dim, dtype=complex)
    return (h - lo * np.eye(dil.space_dim)) / (hi - lo)
