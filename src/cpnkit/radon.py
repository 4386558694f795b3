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

from .dilation import (StinespringDilation, commutant_basis, dilate,
                       spanning_matrix)
from .errors import CertificationError, DominationError, ValidationError
from .linalg import herm, solve_sandwich, spectral_norm
from .maps import (CPnMap, cpn_distance, cpn_scale, is_completely_n_positive,
                   map_from_images, order_leq, unflatten)


def commutant_residual(dil: StinespringDilation, t: np.ndarray) -> float:
    """max over matrix units of ||[T, Phi(e)]||."""
    return spectral_norm(t @ dil.rep.images - dil.rep.images @ t)


def _require_commutant(dil: StinespringDilation, t: np.ndarray, tol: float) -> float:
    """Raise ValidationError unless T commutes with Phi(A); returns 1 + ||T||."""
    if t.shape != (dil.space_dim, dil.space_dim):
        raise ValidationError(
            f"operator must have shape {(dil.space_dim, dil.space_dim)}, got {t.shape}")
    scale = 1.0 + spectral_norm(t)
    res = commutant_residual(dil, t)
    if res > tol * scale:
        raise ValidationError(
            f"operator is not in the commutant (residual {res:.3e})")
    return scale


def compress(dil: StinespringDilation, t: np.ndarray, tol: float = 1e-9) -> CPnMap:
    """The compression rho_T for a positive commutant element T.

    T must commute with every Phi(e) and be positive semidefinite, both
    to relative tolerance; violations raise ValidationError.
    """
    t = np.asarray(t, dtype=complex)
    scale = _require_commutant(dil, t, tol)
    if spectral_norm(t - t.conj().T) > tol * scale:
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
                source_dilation: StinespringDilation | None = None,
                target_dilation: StinespringDilation | None = None) -> Intertwiner:
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
    dr = source_dilation if source_dilation is not None else dilate(rho, tol)
    dt = target_dilation if target_dilation is not None else dilate(theta, tol)
    xr = spanning_matrix(dr)
    xt = spanning_matrix(dt)
    w = solve_sandwich(xr, xt)
    scale = cpn_scale(rho)
    norm = spectral_norm(w)
    iso_res = spectral_norm(w @ np.array(dr.isometries) - np.array(dt.isometries))
    int_res = spectral_norm(w @ dr.rep.images - dt.rep.images @ w)
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
    com_res = commutant_residual(dr, t)
    if t.size:
        eigs = np.linalg.eigvalsh(herm(t))
        spectrum = (float(eigs[0]), float(eigs[-1]))
    else:
        spectrum = (0.0, 0.0)
    scale = cpn_scale(rho)
    recon = cpn_distance(compress(dr, t, tol), theta)
    if com_res > tol * (1.0 + spectral_norm(t)) \
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
                         tol: float = 1e-9, basis=None) -> np.ndarray:
    """Random element of [0, I] in the commutant of a dilation.

    Draws a Hermitian combination of the computed commutant basis and
    rescales its spectrum affinely onto [0, 1].  Deterministic under the
    given generator state.  Pass a precomputed commutant basis to skip
    recomputing it when sampling repeatedly from one dilation; otherwise
    dilation.commutant_basis builds it from the canonical frame, which is
    the identity for a dilate() output, so the basis there is
    (+)_k I_{d_k} (x) E_st / sqrt(d_k) in (k, s, t) order.
    """
    if basis is None:
        basis = commutant_basis(dil.rep, tol)
    if not basis:
        return np.zeros((0, 0), dtype=complex)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    raw = sum(c * b for c, b in zip(coeffs, basis))
    h = herm(raw)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    if hi - lo <= tol * (1.0 + max(abs(lo), abs(hi))):
        # essentially scalar; pick a deterministic interior point
        return 0.5 * np.eye(dil.space_dim, dtype=complex)
    return (h - lo * np.eye(dil.space_dim)) / (hi - lo)
