"""Structure theory of completely n-positive map matrices: commutants,
purity, disjointness and extreme points.

Purity is decided through the representation commutant: a completely
n-positive [rho_ij] is pure exactly when the minimal dilation
representation is irreducible, i.e. the commutant is the scalars.  Two
completely positive maps are disjoint exactly when no nonzero operator
intertwines their dilation representations, equivalently when the only
joint completion [rho_11, rho_12; rho_21, rho_22] that is completely
2-positive has rho_12 = 0.  Extremality in C(rho(1)), the completely
n-positive map matrices with the same value at the unit as rho, is
decided by injectivity of T -> V* T V on the commutant; the paper's
unital class is rho(1) = I.

Every representation of (+)_k M_{d_k} is (+)_k a_k (x) I_{r_k} (+) 0 up
to a unitary U, which dilation.canonical_frame finds and certifies in
O(H^3); so the commutant is (+)_k I_{d_k} (x) M_{r_k} (+) M_{r_0} and the
intertwiners are (+)_k I_{d_k} (x) M_{s_k x r_k}, for every representation
alike.  Every verdict here reads dilation.commutant(), that frame with
B(eps) as its one commute certificate, and none builds the H x H
commutant basis: is_extreme and extension_witness read the frame rows
A_k of U* V.
is_pure and is_extreme refuse a given dilation that is not minimal
(ValidationError); images that are not a *-representation raise
CertificationError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import cstar_norm, distance, is_unitary
from .dilation import (CommutantBasis, StinespringDilation, _minimal_commutant,
                       commutant, dilate, dilation_of, rep_apply)
from .errors import CertificationError, ValidationError
from .linalg import herm, numerical_rank, spectral_norm, spectral_norms
from .maps import (CPnMap, LinearMap, _cpn_distances, _cpn_verdicts,
                   _hermitian_partner, _trusted_map, apply_map, as_cpn, images_of,
                   is_completely_n_positive, map_from_images, require_cpn,
                   unflatten)
from .radon import _gated_compressions, _maps


def is_pure(rho: CPnMap, tol: float = 1e-9,
            dilation: StinespringDilation | None = None) -> bool:
    """Purity via irreducibility: the dilation commutant has dimension 1."""
    return _minimal_commutant(dilation_of(rho, tol, dilation), tol).dimension == 1


def are_disjoint(rho11: CPnMap, rho22: CPnMap, tol: float = 1e-9) -> bool:
    """Whether the dilation representations admit no nonzero intertwiner:
    sum_k r_k s_k = 0 over the multiplicities of the two certified frames.

    Both inputs must be completely positive (n = 1) maps with a common
    domain and codomain.
    """
    c1, c2 = _pair_commutants(rho11, rho22, tol)[2:]
    return sum(r * s for r, s in zip(c1.multiplicities, c2.multiplicities)) == 0


def _pair_commutants(rho11: CPnMap, rho22: CPnMap, tol: float):
    """Dilations, then certified commutants, of two maps (n = 1) on common spaces."""
    if rho11.n != 1 or rho22.n != 1:
        raise ValidationError("disjointness is defined for single maps (n = 1)")
    if rho11.domain != rho22.domain or rho11.codomain_dim != rho22.codomain_dim:
        raise ValidationError("maps must share domain and codomain")
    d1, d2 = dilate(rho11, tol), dilate(rho22, tol)
    return d1, d2, commutant(d1.rep, tol), commutant(d2.rep, tol)


def extension_witness(rho11: CPnMap, rho22: CPnMap,
                      tol: float = 1e-9) -> CPnMap | None:
    """A completely 2-positive completion with nonzero off-diagonal, if any.

    Returns None when the maps are disjoint.  Otherwise W = U_2 ((+)_k
    I_{d_k} (x) X_k) U_1*, X_k = E_00 in the first algebra block with
    r_k s_k > 0 and zero elsewhere, is a partial isometry intertwining
    the dilations, and

        rho_12(a) = V_1* Phi_1(a) W* V_2,    rho_21(a) = rho_12(a*)*

    completes [rho_11, rho_12; rho_21, rho_22] to a certified completely
    2-positive map matrix with rho_12 != 0: it is the compression of
    rho_11 (+) rho_22 by [[I, W*], [W, I]] >= 0.  On the frame rows
    A_k = comm.rows(V), rho_12's flattened Choi block k is A^1_k* X_k* A^2_k:
    conj(A^1_k[0]) (x) A^2_k[0] at k = first, zero elsewhere.
    """
    d1, d2, c1, c2 = _pair_commutants(rho11, rho22, tol)
    rows = list(zip(c1.rows(d1.joint_isometry), c2.rows(d2.joint_isometry)))
    first = next((k for k, (a1, a2) in enumerate(rows) if len(a1) and len(a2)), None)
    if first is None:
        return None
    m = rho11.codomain_dim
    blocks = [np.zeros((d * m, d * m), dtype=complex) for d in rho11.domain.block_dims]
    a1, a2 = rows[first]
    blocks[first] = np.outer(a1[0].conj(), a2[0])
    map12 = _trusted_map(rho11.domain, m, blocks)
    witness = CPnMap(((rho11.entries[0][0], map12),
                      (_hermitian_partner(map12), rho22.entries[0][0])))
    chk = is_completely_n_positive(witness, tol)
    off_norm = spectral_norm(images_of(map12))
    if not chk.verdict or off_norm <= tol * witness.scale:
        value, bound = (off_norm, tol * witness.scale) if chk.verdict \
            else (chk.min_eig, -tol * witness.scale)  # positivity's loosest bound
        raise CertificationError(
            f"extension witness certificate failed (cpn {chk.verdict}, "
            f"min eig {chk.min_eig:.3e}, off-diagonal norm {off_norm:.3e})",
            value=value, bound=bound)
    return witness


@dataclass(frozen=True, eq=False)
class ConvexDecomposition:
    """Nontrivial convex split beta * rho_1 + (1 - beta) * rho_2 = rho."""

    beta: float
    part1: CPnMap
    part2: CPnMap
    kernel_element: np.ndarray


@dataclass(frozen=True)
class ExtremalityReport:
    """The verdict and what it was read from, which decomposition() reuses:
    the input, its dilation and certified commutant, the frame matrix."""

    extreme: bool
    commutant_dim: int
    compression_rank: int
    rho: CPnMap = field(compare=False, repr=False)
    tol: float = field(compare=False, repr=False)
    dilation: StinespringDilation = field(compare=False, repr=False)
    comm: CommutantBasis = field(compare=False, repr=False)
    matrix: np.ndarray = field(compare=False, repr=False)

    def decomposition(self) -> ConvexDecomposition:
        """A certified convex decomposition of the non-extreme input.

        From a Hermitian commutant element T with V* T V = 0 and ||T|| = 1,
        the pair T_1 = I + T/2, T_2 = I - T/2 compresses to map matrices
        sigma_i in C(rho(1)), as V* T_i V = V* V, with (1/2) sigma_1 +
        (1/2) sigma_2 = rho, both differing from rho.  A kernel vector of
        the frame-coordinate matrix is (X_k)_k with T = U ((+)_k I_{d_k} (x)
        X_k / sqrt(d_k)) U*; it is a column of the kernel projector, so T
        depends on the kernel, not on the basis LAPACK lists for it.  T, T_1
        and T_2 are built and compressed as their frame blocks;
        kernel_element is the lift of T.  ValidationError when extreme.
        """
        if self.extreme:
            raise ValidationError("map matrix is extreme; no decomposition exists")
        rho, tol = self.rho, self.tol
        # the projector column with the largest diagonal entry (nonzero, as the
        # trace is dim ker >= 1); ties within tol go to the first index, so
        # rounding cannot reorder them
        ker = np.linalg.svd(self.matrix)[2][self.compression_rank:]
        proj = ker.conj().T @ ker
        diag = proj.diagonal().real
        raw = self.comm.split(proj[:, int(np.argmax(diag >= diag.max() - tol))])
        cand1 = [herm(x) for x in raw]
        cand2 = [herm(1j * x) for x in raw]
        norm1, norm2 = (max(map(spectral_norm, c)) for c in (cand1, cand2))
        t = [x / max(norm1, norm2) for x in (cand1 if norm1 >= norm2 else cand2)]
        halves = [np.stack([np.eye(len(x)) + 0.5 * x, np.eye(len(x)) - 0.5 * x]) for x in t]
        blocks = _gated_compressions(self.dilation, self.comm, halves, tol)
        part1, part2 = _maps(self.dilation, blocks)
        bound = tol * rho.scale
        avg, dist1, dist2 = _cpn_distances(
            [np.concatenate([0.5 * b[:1] + 0.5 * b[1:], b]) - c
             for b, c in zip(blocks, rho.flat.choi_blocks)],
            rho.domain.block_dims, rho.n, rho.codomain_dim)
        if avg > bound:
            raise CertificationError("decomposition does not average to the input",
                                     value=avg, bound=bound)
        if dist1 <= bound or dist2 <= bound:
            raise CertificationError("decomposition is trivial",
                                     value=min(dist1, dist2), bound=bound)
        one = rho.domain.unit()
        units = spectral_norms(np.stack([apply_map(p.flat, one) for p in (part1, part2)])
                               - apply_map(rho.flat, one))
        for dev, verdict in zip(units.tolist(), _cpn_verdicts(blocks, rho.codomain_dim, tol)):
            if dev > bound:
                raise CertificationError(f"decomposition leaves C(rho(1)): ||sigma(1) - "
                                         f"rho(1)|| {dev:.3e}", value=dev, bound=bound)
            verdict.require()
        return ConvexDecomposition(0.5, part1, part2, self.comm.lift(t))


def _compressed_commutant(rho: CPnMap, tol: float,
                          dilation: StinespringDilation | None):
    """The data is_extreme decides on and its report decomposes with.

    Checks rho as dilation_of does, then returns its dilation, the
    certified commutant and the (n m)^2 x sum r_k^2 matrix of T -> V* T V
    on the commutant basis, read off the frame rows A_k = comm.rows(V):
    column (k, a, b) is vec(V* lift(E_ab / sqrt d_k) V)
    = (1/sqrt d_k) sum_p conj(A_k,p[a, :]) (x) A_k,p[b, :].  V = Q R, R of
    full row rank, so the kernel is that of T -> P T P, P = Q Q*.  No
    V* V = I is assumed: is_extreme reads the rank of this matrix itself.
    """
    dilation = dilation_of(rho, tol, dilation)
    comm = _minimal_commutant(dilation, tol)
    c, cols = dilation.joint_isometry.shape[1], []
    for d, rows in zip(comm.block_dims, comm.rows(dilation.joint_isometry)):
        r = len(rows)
        rows = rows.reshape(r, d, c).transpose(1, 0, 2).reshape(d, r * c)  # row p is A_k,p
        # entry [(a, x), (b, y)] of rows* rows is sum_p conj(A_k,p[a, x]) A_k,p[b, y]
        pairs = (rows.conj().T @ rows).reshape(r, c, r, c).transpose(1, 3, 0, 2)
        cols.append(pairs.reshape(c * c, r * r) / math.sqrt(d))
    return dilation, comm, np.hstack(cols)


def is_extreme(rho: CPnMap, tol: float = 1e-9,
               dilation: StinespringDilation | None = None) -> ExtremalityReport:
    """Extremality in C(rho(1)), the completely n-positive map matrices with
    the value flatten(rho)(1) at the unit; the unital class is rho(1) = I.

    Criterion (Arveson 1969, 1.4, for any rho(1)): T -> V* T V is injective
    on the commutant; decided in frame coordinates, as that map's rank.
    """
    dil, comm, mat = _compressed_commutant(rho, tol, dilation)
    rank = numerical_rank(mat, tol)
    return ExtremalityReport(rank == mat.shape[1], mat.shape[1], rank,
                             rho, tol, dil, comm, mat)


def nonextreme_decomposition(rho: CPnMap, tol: float = 1e-9,
                             dilation: StinespringDilation | None = None) -> ConvexDecomposition:
    """is_extreme(rho, tol, dilation).decomposition(): a certified convex
    decomposition of a non-extreme map matrix; ValidationError when extreme."""
    return is_extreme(rho, tol, dilation).decomposition()


def build_extreme_family(base: LinearMap, unitaries, tol: float = 1e-9) -> CPnMap:
    """rho_ij(a) = V* Phi(u_i)* Phi(a) Phi(u_j) V from a pure unital base.

    The base must be unital, completely positive and pure; each u_i of
    unitaries must be unitary, with u_1 the unit.  The output is certified
    completely n-positive and pure, with pure unital diagonal entries and
    rho_ij(u_i u_j*) = I.  Purity of the diagonal needs no dilation of its
    own: (Phi, Phi(u_i) V) is a minimal dilation of rho_ii, since
    Phi(A) Phi(u_i) V C^m = Phi(A) V C^m = H, and Phi is irreducible.
    """
    alg = base.domain
    m = base.codomain_dim
    unit = alg.unit()
    if len(unitaries) == 0:
        raise ValidationError("at least one unitary is required")
    if distance(unitaries[0], unit) > tol * (1.0 + cstar_norm(unit)):
        raise ValidationError("the first unitary must be the unit")
    for idx, u in enumerate(unitaries):
        if u.algebra != alg:
            raise ValidationError(f"unitary {idx} lives in a different algebra")
        if not is_unitary(u, tol):
            raise ValidationError(f"element {idx} is not unitary to tolerance")
    unital_dev = spectral_norm(apply_map(base, unit) - np.eye(m))
    if unital_dev > tol * (1.0 + max(spectral_norm(b) for b in base.choi_blocks)):
        raise ValidationError(f"base map is not unital (residual {unital_dev:.3e})")
    base_cpn = as_cpn(base)
    base_dil = dilate(base_cpn, tol)
    if not is_pure(base_cpn, tol, dilation=base_dil):
        raise ValidationError("base map is not pure")
    v = base_dil.isometries[0]
    # W = [Phi(u_1) V ... Phi(u_n) V]; block (i, j) of W* Phi(a) W is rho_ij(a)
    w = np.hstack([rep_apply(base_dil.rep, u) @ v for u in unitaries])
    n = len(unitaries)
    rho = unflatten(map_from_images(alg, n * m, w.conj().T @ base_dil.rep.images @ w), n)
    require_cpn(rho, tol)
    scale = rho.scale
    eye = np.eye(m)
    for i in range(n):
        if spectral_norm(apply_map(rho.entries[i][i], unit) - eye) > tol * scale:
            raise CertificationError(f"diagonal entry {i} is not unital")
        for j in range(n):
            uij = unitaries[i] @ unitaries[j].adjoint()
            wit = apply_map(rho.entries[i][j], uij)
            if spectral_norm(wit - eye) > tol * scale:
                raise CertificationError(
                    f"witness rho_{i}{j}(u_i u_j*) deviates from the identity")
    if not is_pure(rho, tol):
        raise CertificationError("constructed map matrix is not pure")
    return rho
