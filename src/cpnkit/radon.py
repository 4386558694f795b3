"""Radon-Nikodym machinery: compressions by commutant elements and the
order correspondence T <-> rho_T.

Given a minimal dilation (Phi, H, V_1..V_n) of rho and a positive T in
the commutant Phi(A)', the compression

    (rho_T)_ij(a) = V_i* T Phi(a) V_j

is again completely n-positive, and T -> rho_T is an affine order
isomorphism from the operator interval [0, I] in the commutant onto the
map interval [0, rho].  Its inverse is read off the certified commutant
of the dilation: with A_k = CommutantBasis.rows(V), theta's flattened
Choi block is A_k* T_k A_k, so T = lift([T_k]) = U ((+)_k I_{d_k} (x)
T_k) U* with T_k = (A_k^+)* C_k A_k^+, one r_k-sized solve per block;
W with T = W* W lifts the solutions of Y_k A_k = B_k on both dilations'
rows into theta's frame.  compress and order_equivalence_check are the
one-element case of the stacked _gated_compressions and _order_checks
that criterion 4 and ExtremalityReport.decomposition call directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import (CommutantBasis, StinespringDilation, commutant,
                       commutator_bound, dilate, dilation_of)
from .errors import CertificationError, DominationError, ValidationError
from .linalg import herm, spectral_norm, spectral_norms
from .maps import (CPnMap, _choi_blocks, _cpn_verdicts, _trusted_map, cpn_distance,
                   is_completely_n_positive, require_cpn, unflatten)


def _gate_values(dil: StinespringDilation, ts: np.ndarray):
    """Per-element gate values of a (k, H, H) stack: ||T_i||, ||T_i - T_i*||,
    max_e ||[T_i, Phi(e)]|| and the ascending spectrum of herm(T_i), as
    arrays with leading axis k, from one SVD call and one eigvalsh call;
    bitwise the values of separate per-element calls."""
    k, h = len(ts), dil.space_dim
    imgs = dil.rep.images
    e = len(imgs)
    # [T; T - T*; [T, Phi(e)]] built in one buffer, the commutators one
    # matrix unit at a time, so the stack is the only large array
    stack = np.empty((k * (2 + e), h, h), dtype=complex)
    stack[:k] = ts
    np.subtract(ts, ts.conj().swapaxes(-1, -2), out=stack[k:2 * k])
    comm = stack[2 * k:].reshape(k, e, h, h)
    np.matmul(ts[:, None], imgs, out=comm)
    for j, img in enumerate(imgs):
        comm[:, j] -= img @ ts
    norms = spectral_norms(stack)
    residuals = norms[2 * k:].reshape(k, e).max(axis=1)
    return norms[:k], norms[k:2 * k], residuals, np.linalg.eigvalsh(herm(ts))


def _compressions(dil: StinespringDilation, ts: np.ndarray) -> list[np.ndarray]:
    """The Choi blocks of the maps V* T_i Phi(.) V of a (k, H, H) stack,
    ungated, as one (k, d q, d q) stack per algebra block: one product for
    the stack, cut into Choi blocks once per algebra block."""
    v = dil.joint_isometry
    return _choi_blocks(dil.source.domain, v.conj().T @ ts[:, None] @ dil.rep.images @ v)


def _maps(dil: StinespringDilation, blocks: list[np.ndarray]) -> list[CPnMap]:
    """The map matrices whose flattened Choi blocks are the members of
    per-block stacks from _compressions, without copying."""
    domain, q = dil.source.domain, dil.joint_isometry.shape[1]
    return [unflatten(_trusted_map(domain, q, [b[i] for b in blocks]), dil.n)
            for i in range(len(blocks[0]))]


def _operator(dil: StinespringDilation, t) -> np.ndarray:
    """t as a complex H x H array, else ValidationError."""
    t = np.asarray(t, dtype=complex)
    if t.shape != (dil.space_dim, dil.space_dim):
        raise ValidationError(
            f"operator must have shape {(dil.space_dim, dil.space_dim)}, got {t.shape}")
    return t


def _gated_compressions(dil: StinespringDilation, ts, tol: float) -> list[np.ndarray]:
    """compress's gates on a (k, H, H) stack of operators, then
    _compressions of the stack.

    Every element passes the gates, checked in stack order and, per
    element, in compress's order, so the first bad element raises the
    message compress raises for it alone.  The gates of the whole stack
    cost one SVD call and one eigvalsh call.
    """
    ts = np.asarray(ts, dtype=complex)
    h = dil.space_dim
    if ts.ndim != 3 or ts.shape[1:] != (h, h):
        raise ValidationError(f"operators must have shape (k, {h}, {h}), got {ts.shape}")
    norms, asyms, residuals, spectra = _gate_values(dil, ts)
    for norm, asym, res, eigs in zip(norms.tolist(), asyms.tolist(),
                                     residuals.tolist(), spectra):
        scale = 1.0 + norm
        if res > tol * scale:
            raise ValidationError(
                f"operator is not in the commutant (residual {res:.3e})")
        if asym > tol * scale:
            raise ValidationError("operator is not Hermitian")
        if eigs.size and eigs[0] < -tol * scale:
            raise ValidationError(
                f"operator is not positive semidefinite (min eigenvalue {float(eigs[0]):.3e})")
    return _compressions(dil, ts)


def compress(dil: StinespringDilation, t: np.ndarray, tol: float = 1e-9) -> CPnMap:
    """The compression rho_T for a positive commutant element T.

    T must commute with every Phi(e) and be positive semidefinite, both
    to relative tolerance 1 + ||T||; violations raise ValidationError.
    _gated_compressions on a stack of one.
    """
    return _maps(dil, _gated_compressions(dil, _operator(dil, t)[None], tol))[0]


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """Contraction W : H_rho -> H_theta with W Phi_rho(.) = Phi_theta(.) W."""

    matrix: np.ndarray
    source: StinespringDilation
    target: StinespringDilation
    norm: float
    isometry_residual: float
    intertwining_residual: float


def _dominated(rho: CPnMap, theta: CPnMap, tol: float) -> None:
    """ValidationError unless rho and theta are comparable, DominationError
    unless rho - theta is completely n-positive."""
    if theta.n != rho.n or theta.domain != rho.domain \
            or theta.codomain_dim != rho.codomain_dim:
        raise ValidationError("maps are not comparable: different shape or spaces")
    diff = is_completely_n_positive(rho - theta, tol)
    if not diff.verdict:
        raise DominationError(
            f"theta is not dominated by rho (min eigenvalue {diff.min_eig:.3e})",
            min_eig=diff.min_eig)


def intertwiner(rho: CPnMap, theta: CPnMap, tol: float = 1e-9,
                source_dilation: StinespringDilation | None = None) -> Intertwiner:
    """The canonical contraction between the dilations of rho and theta <= rho.

    W = U_theta ((+)_k I_{d_k} (x) Y_k) U_rho* on the two certified frames,
    Y_k the minimal-norm solution of Y_k A_k = B_k on their frame rows.
    Raises DominationError when rho - theta is not completely n-positive.
    Certifies ||W|| <= 1 and W V_rho,i = V_theta,i, both measured; the
    intertwining residual is the sum of the frames' B(eps) times max ||Y_k||.
    Certificate failure raises, never passes silently.
    """
    _dominated(rho, theta, tol)
    dr = dilation_of(rho, tol, source_dilation)
    dt = dilate(theta, tol)
    br, bt = commutant(dr.rep, tol), commutant(dt.rep, tol)
    # rtol=None is lstsq's cutoff (max(shape) eps), so B A^+ is
    # solve_sandwich's minimal-norm solution of Y A = B
    ys = [b @ np.linalg.pinv(a, rtol=None)
          for a, b in zip(br.rows(dr.joint_isometry), bt.rows(dt.joint_isometry))]
    w = br.lift(ys, bt)
    scale = rho.scale
    norm = spectral_norm(w)
    iso_res = spectral_norm(w @ np.array(dr.isometries) - np.array(dt.isometries))
    y_norm = max(map(spectral_norm, ys), default=0.0)
    # each frame's B(eps) bounds its side of W Phi_rho(e) - Phi_theta(e) W
    int_res = (commutator_bound(dr.rep, br.frame_residual)
               + commutator_bound(dt.rep, bt.frame_residual)) * y_norm
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


def _rn_blocks(dil: StinespringDilation, basis: CommutantBasis,
               theta: CPnMap) -> list[np.ndarray]:
    """T_k = (A_k^+)* C_k A_k^+ per algebra block, C_k theta's flattened
    Choi block and A_k the frame rows: the r_k x r_k blocks of T in the
    frame, Hermitian by construction."""
    aps = [np.linalg.pinv(a, rtol=None) for a in basis.rows(dil.joint_isometry)]
    return [herm(ap.conj().T @ c @ ap) for ap, c in zip(aps, theta.flat.choi_blocks)]


def rn_operator(rho: CPnMap, theta: CPnMap, tol: float = 1e-9,
                source_dilation: StinespringDilation | None = None) -> CommutantElement:
    """The Radon-Nikodym operator T with compress(D, T) = theta.

    T = U ((+)_k I_{d_k} (x) T_k) U* on the certified frame of rho's
    dilation, T_k from _rn_blocks, commutes with the representation up to
    B(eps) ||T|| (0 on dilate() outputs).  Certified: rho - theta is
    completely n-positive (else DominationError), the T_k have spectrum in
    [0, 1] and compress(D, T) reconstructs theta, measured on the returned
    T; a theta that is not completely n-positive raises PositivityError.
    """
    _dominated(rho, theta, tol)
    dr = dilation_of(rho, tol, source_dilation)
    basis = commutant(dr.rep, tol)
    blocks = _rn_blocks(dr, basis, theta)
    t = basis.lift(blocks)  # zero on the kernel block
    eigs = np.concatenate([np.linalg.eigvalsh(b) for b in blocks]
                          + [np.zeros(min(basis.multiplicities[-1], 1))])
    spectrum = (float(eigs.min()), float(eigs.max())) if eigs.size else (0.0, 0.0)
    t_norm = float(np.abs(eigs).max(initial=0.0))
    com_res = commutator_bound(dr.rep, basis.frame_residual) * t_norm
    recon = cpn_distance(_maps(dr, _compressions(dr, t[None]))[0], theta)
    # the spectrum floor relative to min(1 + ||T||, scale of rho), the
    # ceiling and the reconstruction relative to the scale of rho
    scale = rho.scale
    if spectrum[0] < -tol * min(1.0 + t_norm, scale) or spectrum[1] > 1.0 + tol * scale \
            or recon > tol * scale:
        # passing, they make theta = rho_T with T >= 0 completely n-positive;
        # failing, they are a theta outside the cone or a library defect
        require_cpn(theta, tol)
        raise CertificationError(
            f"Radon-Nikodym certificate failed (commutant {com_res:.3e}, "
            f"spectrum [{spectrum[0]:.3e}, {spectrum[1]:.3e}], reconstruction {recon:.3e})")
    return CommutantElement(dr, t, com_res, spectrum, recon)


@dataclass(frozen=True)
class OrderCheck:
    """Operator-side and map-side verdicts for T1 <= T2."""

    operator_leq: bool
    map_leq: bool

    @property
    def agree(self) -> bool:
        return self.operator_leq == self.map_leq


def _order_checks(dil: StinespringDilation, t1s: np.ndarray, t2s: np.ndarray,
                  blocks: list[np.ndarray], tol: float) -> list[OrderCheck]:
    """OrderChecks of paired (k, H, H) stacks, given per-block stacks of
    compressions that begin [rho_T1s; rho_T2s]: one eigvalsh and one SVD
    call on T2 - T1, one stacked verdict on rho_T2 - rho_T1."""
    k = len(t1s)
    diffs = t2s - t1s
    if dil.space_dim:
        lows = np.linalg.eigvalsh(herm(diffs))[:, 0]
        op_leq = (lows >= -tol * (1.0 + spectral_norms(diffs))).tolist()
    else:
        op_leq = [True] * k
    maps = _cpn_verdicts([b[k:2 * k] - b[:k] for b in blocks],
                         dil.source.codomain_dim, tol)
    return [OrderCheck(op, chk.verdict) for op, chk in zip(op_leq, maps)]


def order_equivalence_check(dil: StinespringDilation, t1: np.ndarray,
                            t2: np.ndarray, tol: float = 1e-9) -> OrderCheck:
    """Compare T1 <= T2 with compress(D, T1) <= compress(D, T2).

    Both operators must be positive commutant elements; T1 is gated
    before T2.  Disagreement of the two verdicts indicates a library
    defect; callers should treat it as such.
    """
    t1s, t2s = _operator(dil, t1)[None], _operator(dil, t2)[None]
    blocks = _gated_compressions(dil, np.concatenate([t1s, t2s]), tol)
    return _order_checks(dil, t1s, t2s, blocks, tol)[0]


def _coefficients(basis: CommutantBasis, rng: np.random.Generator) -> np.ndarray:
    """sample_unit_interval's draw: complex coefficients in the (k, a, b)
    order of the commutant basis."""
    return rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)


def _unit_interval(basis: CommutantBasis, coeffs: np.ndarray, tol: float) -> np.ndarray:
    """The elements of [0, I] that sample_unit_interval forms from a
    (k, dimension) stack of draws, as a (k, H, H) stack: one element call
    and one eigvalsh call, member i bitwise the element of draw i alone."""
    h = herm(basis.element(coeffs))
    w = np.linalg.eigvalsh(h)
    lo, hi = w[:, 0], w[:, -1]
    # essentially scalar elements get a deterministic interior point
    scalar = hi - lo <= tol * (1.0 + np.maximum(abs(lo), abs(hi)))
    eye = np.eye(h.shape[-1])
    out = (h - lo[:, None, None] * eye) / np.where(scalar, 1.0, hi - lo)[:, None, None]
    out[scalar] = 0.5 * eye
    return out


def sample_unit_interval(dil: StinespringDilation, rng: np.random.Generator,
                         tol: float = 1e-9) -> np.ndarray:
    """Random element of [0, I] in the commutant of a dilation.

    Draws complex coefficients in the (k, a, b) order of the commutant
    basis, takes the Hermitian part of their CommutantBasis.element (the
    basis itself is not built) and rescales its spectrum affinely onto
    [0, 1].  Deterministic under the given generator state.  The frame is
    cached on the representation (seeded by dilate), so repeated draws
    from one dilation compute it at most once.
    """
    basis = commutant(dil.rep, tol)
    if basis.dimension == 0:
        return np.zeros((0, 0), dtype=complex)
    return _unit_interval(basis, _coefficients(basis, rng)[None], tol)[0]
