"""Radon-Nikodym machinery: compressions by commutant elements and the
order correspondence T <-> rho_T.

Given a minimal dilation (Phi, H, V_1..V_n) of rho and a positive T in
the commutant Phi(A)', the compression

    (rho_T)_ij(a) = V_i* T Phi(a) V_j

is again completely n-positive, and T -> rho_T is an affine order
isomorphism from the operator interval [0, I] in the commutant onto the
map interval [0, rho].  Every dilation here is canonical (a dilate() or
canonicalize() output; any other raises ValidationError), so a commutant
element is its blocks X_k, T = CommutantBasis.lift([X_k]), and with
A_k = CommutantBasis.rows(V) rho_T has flattened Choi block A_k* X_k A_k:
every gate, order check and unit-interval draw decides on the blocks,
and an H x H operator enters through CommutantBasis.blocks.  The inverse
reads T_k = (A_k^+)* C_k A_k^+ off the same rows; W with T = W* W lifts
the solutions of Y_k A_k = B_k on both dilations' rows.
compress and order_equivalence_check are the one-element case of
_operator_compressions; criterion 4 and ExtremalityReport.decomposition
call _gated_compressions and _order_checks on blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import (CommutantBasis, StinespringDilation, _canonical_basis, dilate,
                       dilation_of)
from .errors import CertificationError, DominationError, ValidationError
from .linalg import herm, spectral_norm, spectral_norms
from .maps import (CPnMap, _cpn_verdicts, _trusted_map, cpn_distance,
                   is_completely_n_positive, require_cpn, unflatten)


def _block_gates(xs: list[np.ndarray]):
    """Per element of per-block (k, r_k, r_k) stacks X: ||herm X||,
    ||X - X*|| and the least eigenvalue of herm(X) over the blocks (inf
    when every block is empty), read off one eigvalsh call per nonempty
    block over [herm X; i (X - X*)]; bitwise separate per-element calls."""
    k = len(xs[0])
    norms, asyms, lows = np.zeros(k), np.zeros(k), np.full(k, np.inf)
    for x in xs:
        if x.shape[-1]:
            skew = 1j * (x - x.conj().swapaxes(-1, -2))
            w = np.linalg.eigvalsh(np.concatenate([herm(x), skew]))
            both = np.abs(w).max(axis=-1)
            norms, asyms = np.maximum(norms, both[:k]), np.maximum(asyms, both[k:])
            lows = np.minimum(lows, w[:k, 0])
    return norms, asyms, lows


def _compressions(rows: list[np.ndarray], xs: list[np.ndarray]) -> list[np.ndarray]:
    """The flattened Choi blocks A_k* X_k A_k, ungated, of per-block stacks
    X_k and rows = CommutantBasis.rows(V)."""
    return [a.conj().T @ x @ a for a, x in zip(rows, xs)]


def _maps(dil: StinespringDilation, blocks: list[np.ndarray]) -> list[CPnMap]:
    """The map matrices whose flattened Choi blocks are the members of
    per-block stacks from _compressions, without copying."""
    domain, q = dil.source.domain, dil.joint_isometry.shape[1]
    return [unflatten(_trusted_map(domain, q, [b[i] for b in blocks]), dil.n)
            for i in range(len(blocks[0]))]


def _gated_compressions(dil: StinespringDilation, comm: CommutantBasis, xs,
                        tol: float, outside=None) -> list[np.ndarray]:
    """compress's gates on per-block stacks of blocks X of comm, then
    _compressions of them.  Blocks commute by construction; outside gives
    (||T - E(T)||, ||T||) for H x H operators T, the commute residual,
    whose 1 + ||T|| then replaces 1 + ||herm X|| as the scale.  Elements are
    checked in stack order, each as compress checks it alone.
    """
    norms, asyms, lows = _block_gates(xs)
    residuals, norms = (np.zeros(len(norms)), norms) if outside is None else outside
    for norm, asym, res, low in zip(norms.tolist(), asyms.tolist(),
                                    residuals.tolist(), lows.tolist()):
        scale = 1.0 + norm
        if res > tol * scale:
            raise ValidationError(
                f"operator is not in the commutant (residual {res:.3e})")
        if asym > tol * scale:
            raise ValidationError("operator is not Hermitian")
        if low < -tol * scale:
            raise ValidationError(
                f"operator is not positive semidefinite (min eigenvalue {low:.3e})")
    return _compressions(comm.rows(dil.joint_isometry), xs)


def _operator_compressions(dil: StinespringDilation, ts, tol: float):
    """The blocks of H x H operators T, each checked for shape, and
    their _gated_compressions, with ||T - E(T)|| and ||T|| from one SVD call."""
    h = dil.space_dim
    for t in ts:
        if np.shape(t) != (h, h):
            raise ValidationError(f"operator must have shape {(h, h)}, got {np.shape(t)}")
    ts = np.array(ts, dtype=complex)
    comm = _canonical_basis(dil)
    xs = comm.blocks(ts)
    values = spectral_norms(np.concatenate([ts - comm.lift(xs), ts]))
    return xs, _gated_compressions(dil, comm, xs, tol, (values[:len(ts)], values[len(ts):]))


def compress(dil: StinespringDilation, t: np.ndarray, tol: float = 1e-9) -> CPnMap:
    """The compression rho_{E(T)} for a positive commutant element T, E(T)
    the conditional expectation onto the commutant, read as blocks X of
    the canonical dilation dil.

    Gates, each relative to 1 + ||T||: ||T - E(T)||, which bounds
    ||[T, Phi(e)]|| <= 2 ||T - E(T)|| over the matrix units; then X
    Hermitian and positive semidefinite on every block.  Violations
    raise ValidationError.
    """
    return _maps(dil, _operator_compressions(dil, [t], tol)[1])[0]


@dataclass(frozen=True, eq=False)
class Intertwiner:
    """Contraction W : H_rho -> H_theta with W Phi_rho(.) = Phi_theta(.) W."""

    matrix: np.ndarray
    source: StinespringDilation
    target: StinespringDilation
    norm: float
    isometry_residual: float


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

    W = (+)_k I_{d_k} (x) Y_k between the canonical dilations, Y_k the
    minimal-norm solution of Y_k A_k = B_k on their rows; it intertwines
    by construction.  Raises DominationError when rho - theta is not
    completely n-positive.  Certifies ||W|| <= 1 and W V_rho,i =
    V_theta,i, both measured.  Certificate failure raises, never passes
    silently.
    """
    _dominated(rho, theta, tol)
    dr = dilation_of(rho, tol, source_dilation)
    dt = dilate(theta, tol)
    br, bt = _canonical_basis(dr), _canonical_basis(dt)
    # rtol=None is lstsq's cutoff (max(shape) eps), so B A^+ is
    # solve_sandwich's minimal-norm solution of Y A = B
    ys = [b @ np.linalg.pinv(a, rtol=None)
          for a, b in zip(br.rows(dr.joint_isometry), bt.rows(dt.joint_isometry))]
    w = br.lift(ys, bt)
    scale = rho.scale
    norm = spectral_norm(w)
    iso_res = spectral_norm(w @ np.array(dr.isometries) - np.array(dt.isometries))
    value, bound = (norm, 1.0 + tol * scale) if norm > 1.0 + tol * scale \
        else (iso_res, tol * scale)
    if value > bound:
        raise CertificationError(
            f"intertwiner certificate failed (norm {norm:.12f}, residual "
            f"{iso_res:.3e})", value=value, bound=bound)
    return Intertwiner(w, dr, dt, norm, iso_res)


@dataclass(frozen=True, eq=False)
class CommutantElement:
    """Positive commutant operator representing a dominated map."""

    dilation: StinespringDilation
    matrix: np.ndarray
    spectrum: tuple[float, float]
    reconstruction_residual: float


def _rn_blocks(rows: list[np.ndarray], theta: CPnMap) -> list[np.ndarray]:
    """T_k = (A_k^+)* C_k A_k^+ per algebra block, C_k theta's flattened
    Choi block and A_k the rows of V: the r_k x r_k blocks of T,
    Hermitian by construction."""
    aps = [np.linalg.pinv(a, rtol=None) for a in rows]
    return [herm(ap.conj().T @ c @ ap) for ap, c in zip(aps, theta.flat.choi_blocks)]


def rn_operator(rho: CPnMap, theta: CPnMap, tol: float = 1e-9,
                source_dilation: StinespringDilation | None = None) -> CommutantElement:
    """The Radon-Nikodym operator T with compress(D, T) = theta.

    T = (+)_k I_{d_k} (x) T_k on rho's canonical dilation, T_k from
    _rn_blocks, commutes with the representation by construction.
    Certified: rho - theta is
    completely n-positive (else DominationError), the T_k have spectrum in
    [0, 1] and compress(D, T) reconstructs theta, measured on the T_k
    (Choi blocks A_k* T_k A_k); a theta that is not completely n-positive
    raises PositivityError.
    """
    _dominated(rho, theta, tol)
    dr = dilation_of(rho, tol, source_dilation)
    basis = _canonical_basis(dr)
    rows = basis.rows(dr.joint_isometry)
    blocks = _rn_blocks(rows, theta)
    t = basis.lift(blocks)
    eigs = np.concatenate([np.linalg.eigvalsh(b) for b in blocks])
    spectrum = (float(eigs.min()), float(eigs.max())) if eigs.size else (0.0, 0.0)
    t_norm = float(np.abs(eigs).max(initial=0.0))
    recon = cpn_distance(_maps(dr, _compressions(rows, [b[None] for b in blocks]))[0], theta)
    # the spectrum floor relative to min(1 + ||T||, scale of rho), the
    # ceiling and the reconstruction relative to the scale of rho
    scale = rho.scale
    floor, ceiling = -tol * min(1.0 + t_norm, scale), 1.0 + tol * scale
    failed = [(v, b) for v, b, bad in ((spectrum[0], floor, spectrum[0] < floor),
                                       (spectrum[1], ceiling, spectrum[1] > ceiling),
                                       (recon, tol * scale, recon > tol * scale)) if bad]
    if failed:
        # passing, they make theta = rho_T with T >= 0 completely n-positive;
        # failing, they are a theta outside the cone or a library defect
        require_cpn(theta, tol)
        raise CertificationError(
            f"Radon-Nikodym certificate failed (spectrum [{spectrum[0]:.3e}, "
            f"{spectrum[1]:.3e}], reconstruction {recon:.3e})", *failed[0])
    return CommutantElement(dr, t, spectrum, recon)


@dataclass(frozen=True)
class OrderCheck:
    """Operator-side and map-side verdicts for T1 <= T2."""

    operator_leq: bool
    map_leq: bool

    @property
    def agree(self) -> bool:
        return self.operator_leq == self.map_leq


def _order_checks(dil: StinespringDilation, x1s: list[np.ndarray], x2s: list[np.ndarray],
                  blocks: list[np.ndarray], tol: float) -> list[OrderCheck]:
    """OrderChecks of paired per-block stacks of blocks, given per-block
    stacks of compressions that begin [rho_T1s; rho_T2s]: the operator
    side from _block_gates of X2 - X1, the map side from one stacked
    verdict on rho_T2 - rho_T1."""
    k = len(x1s[0])
    norms, _, lows = _block_gates([b - a for a, b in zip(x1s, x2s)])
    op_leq = (lows >= -tol * (1.0 + norms)).tolist()
    maps = _cpn_verdicts([b[k:2 * k] - b[:k] for b in blocks],
                         dil.source.codomain_dim, tol)
    return [OrderCheck(op, chk.verdict) for op, chk in zip(op_leq, maps)]


def order_equivalence_check(dil: StinespringDilation, t1: np.ndarray,
                            t2: np.ndarray, tol: float = 1e-9) -> OrderCheck:
    """Compare T1 <= T2 with compress(D, T1) <= compress(D, T2).

    Both operators must be positive commutant elements, gated as compress
    gates them, T1 before T2; the operator side is decided on their
    blocks.  Disagreement of the two verdicts indicates a library defect;
    callers should treat it as such.
    """
    xs, blocks = _operator_compressions(dil, [t1, t2], tol)
    return _order_checks(dil, [x[:1] for x in xs], [x[1:] for x in xs], blocks, tol)[0]


def _coefficients(basis: CommutantBasis, rng: np.random.Generator) -> np.ndarray:
    """sample_unit_interval's draw: complex coefficients in the (k, a, b)
    order of the commutant basis."""
    return rng.standard_normal(basis.dimension) + 1j * rng.standard_normal(basis.dimension)


def _unit_interval(basis: CommutantBasis, coeffs: np.ndarray, tol: float) -> list[np.ndarray]:
    """The blocks of the elements of [0, I] that sample_unit_interval
    forms from a (k, dimension) stack of draws, as per-block (k, r_k, r_k)
    stacks: one eigvalsh call per nonempty block, member i bitwise the
    blocks of draw i alone."""
    xs = [herm(x) for x in basis.split(coeffs)]
    spectra = [np.linalg.eigvalsh(x) for x in xs if x.shape[-1]]
    if not spectra:  # the zero commutant (H = 0): [0, I] is {0}
        return xs
    lo = np.min([w[:, :1] for w in spectra], axis=0)[..., None]
    hi = np.max([w[:, -1:] for w in spectra], axis=0)[..., None]
    # essentially scalar elements get a deterministic interior point
    scalar = hi - lo <= tol * (1.0 + np.maximum(abs(lo), abs(hi)))
    return [np.where(scalar, 0.5 * np.eye(x.shape[-1]),
                     (x - lo * np.eye(x.shape[-1])) / np.where(scalar, 1.0, hi - lo)) for x in xs]


def sample_unit_interval(dil: StinespringDilation, rng: np.random.Generator,
                         tol: float = 1e-9) -> np.ndarray:
    """Random element of [0, I] in the commutant of a canonical dilation.

    Draws complex coefficients in the (k, a, b) order of the commutant
    basis, takes the Hermitian parts of their blocks (CommutantBasis.split;
    the basis itself is not built), rescales their joint spectrum
    affinely onto [0, 1] and lifts them.  Deterministic under the given
    generator state.
    """
    basis = _canonical_basis(dil)
    return basis.lift(_unit_interval(basis, _coefficients(basis, rng)[None], tol))[0]
