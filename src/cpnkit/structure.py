"""Structure theory of completely n-positive map matrices: commutants,
purity, disjointness and extreme points.

Purity is decided through the representation commutant: a completely
n-positive [rho_ij] is pure exactly when the minimal dilation
representation is irreducible, i.e. the commutant is the scalars.  Two
completely positive maps are disjoint exactly when no nonzero operator
intertwines their dilation representations, equivalently when the only
joint completion [rho_11, rho_12; rho_21, rho_22] that is completely
2-positive has rho_12 = 0.  Extremality inside the unital-with-zero-
off-diagonal class is decided by injectivity of T -> P T P on the
commutant, P projecting onto span{V_i xi}.

Every representation of (+)_k M_{d_k} is (+)_k a_k (x) I_{r_k} (+) 0 up
to a unitary U, which dilation.canonical_frame finds and certifies in
O(H^3); so the commutant is (+)_k I_{d_k} (x) M_{r_k} (+) M_{r_0} and the
intertwiners are (+)_k I_{d_k} (x) M_{s_k x r_k}, for every representation
alike.  Every verdict here reads dilation.commutant(), that frame with
B(eps) as its one commute certificate, and none builds the H x H
commutant basis.  Images that are not a *-representation raise
CertificationError.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraElement, cstar_norm, distance, is_unitary
from .dilation import (CommutantBasis, StinespringDilation, _frame_basis,
                       commutant, dilate, dilation_of, rep_apply)
from .errors import CertificationError, ValidationError
from .linalg import (herm, numerical_rank, orth, partial_isometry,
                     spectral_norm)
from .maps import (CPnMap, LinearMap, apply_map, as_cpn, cpn_distance,
                   is_completely_n_positive, map_from_images, require_cpn,
                   subblocks, unflatten)
from .radon import compress


def is_pure(rho: CPnMap, tol: float = 1e-9,
            dilation: StinespringDilation | None = None) -> bool:
    """Purity via irreducibility: the dilation commutant has dimension 1."""
    return commutant(dilation_of(rho, tol, dilation).rep, tol).dimension == 1


def intertwiner_space(d1: StinespringDilation, d2: StinespringDilation,
                      tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of {X : X Phi_1(e) = Phi_2(e) X over matrix units}.

    The closed form (+)_k I_{d_k} (x) M_{s_k x r_k} between the frames of
    the two certified commutants.
    """
    if d1.source.domain != d2.source.domain:
        raise ValidationError("dilations have different domains")
    c1 = commutant(d1.rep, tol)
    c2 = commutant(d2.rep, tol)
    return list(_frame_basis(c1.block_dims, c1.frame, c1.multiplicities,
                             c2.frame, c2.multiplicities))


def are_disjoint(rho11: CPnMap, rho22: CPnMap, tol: float = 1e-9) -> bool:
    """Whether the dilation representations admit no nonzero intertwiner:
    sum_k r_k s_k = 0 over the multiplicities of the two certified frames.

    Both inputs must be completely positive (n = 1) maps with a common
    domain and codomain.
    """
    _check_pair(rho11, rho22)
    c1 = commutant(dilate(rho11, tol).rep, tol)
    c2 = commutant(dilate(rho22, tol).rep, tol)
    return sum(r * s for r, s in zip(c1.multiplicities, c2.multiplicities)) == 0


def _check_pair(rho11: CPnMap, rho22: CPnMap) -> None:
    if rho11.n != 1 or rho22.n != 1:
        raise ValidationError("disjointness is defined for single maps (n = 1)")
    if rho11.domain != rho22.domain or rho11.codomain_dim != rho22.codomain_dim:
        raise ValidationError("maps must share domain and codomain")


def extension_witness(rho11: CPnMap, rho22: CPnMap,
                      tol: float = 1e-9) -> CPnMap | None:
    """A completely 2-positive completion with nonzero off-diagonal, if any.

    Returns None when the maps are disjoint.  Otherwise a nonzero
    intertwiner X between the dilation representations is polar-
    decomposed into a partial isometry W, and

        rho_12(a) = V_1* Phi_1(a) W* V_2,    rho_21(a) = rho_12(a*)*

    completes [rho_11, rho_12; rho_21, rho_22] to a certified completely
    2-positive map matrix with rho_12 != 0.
    """
    _check_pair(rho11, rho22)
    d1 = dilate(rho11, tol)
    d2 = dilate(rho22, tol)
    basis = intertwiner_space(d1, d2, tol)
    if not basis:
        return None
    w = partial_isometry(basis[0], tol)
    v1 = d1.isometries[0]
    v2 = d2.isometries[0]
    m = rho11.codomain_dim
    alg = rho11.domain
    images12 = v1.conj().T @ d1.rep.images @ w.conj().T @ v2
    map12 = map_from_images(alg, m, images12)
    # rho_21(a) = rho_12(a*)*, whose Choi blocks are the adjoints of rho_12's
    map21 = LinearMap(alg, m, tuple(c.conj().T for c in map12.choi_blocks))
    witness = CPnMap(((rho11.entries[0][0], map12), (map21, rho22.entries[0][0])))
    chk = is_completely_n_positive(witness, tol)
    off_norm = spectral_norm(images12)
    if not chk.verdict or off_norm <= tol * witness.scale:
        raise CertificationError(
            f"extension witness certificate failed (cpn {chk.verdict}, "
            f"min eig {chk.min_eig:.3e}, off-diagonal norm {off_norm:.3e})")
    return witness


def _membership_check(rho: CPnMap, tol: float) -> None:
    """rho_ii(1) = I and rho_ij(1) = 0 for i < j, else ValidationError."""
    # block (i, j) of flatten(rho)(1) - I is rho_ij(1) - delta_ij I
    dev = subblocks(apply_map(rho.flat, rho.domain.unit()) - np.eye(rho.flat.codomain_dim),
                    rho.codomain_dim)
    bad = [(i, j) for i in range(rho.n) for j in range(i, rho.n)
           if spectral_norm(dev[i, j]) > tol * rho.scale]
    if bad:
        raise ValidationError(
            f"map matrix is not unital with zero off-diagonal at the unit; "
            f"failing entries {bad}")


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

        From a Hermitian commutant element T with P T P = 0 and ||T|| = 1,
        the pair T_1 = I + T/2, T_2 = I - T/2 compresses to map matrices in
        the same unital class with (1/2) rho_{T_1} + (1/2) rho_{T_2} = rho,
        both differing from rho.  A kernel vector of the frame-coordinate
        matrix is (X_k)_k with T = U ((+)_k I_{d_k} (x) X_k / sqrt(d_k)) U*;
        it is a column of the kernel projector, so T depends on the kernel,
        not on the basis LAPACK lists for it.  ValidationError when extreme.
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
        raw = self.comm.element(proj[:, int(np.argmax(diag >= diag.max() - tol))])
        cand1 = herm(raw)
        cand2 = herm(1j * raw)
        t = cand1 if spectral_norm(cand1) >= spectral_norm(cand2) else cand2
        t = t / spectral_norm(t)
        eye = np.eye(self.dilation.space_dim, dtype=complex)
        part1 = compress(self.dilation, eye + 0.5 * t, tol)
        part2 = compress(self.dilation, eye - 0.5 * t, tol)
        scale = rho.scale
        avg = 0.5 * part1 + 0.5 * part2
        if cpn_distance(avg, rho) > tol * scale:
            raise CertificationError("decomposition does not average to the input")
        if cpn_distance(part1, rho) <= tol * scale or cpn_distance(part2, rho) <= tol * scale:
            raise CertificationError("decomposition is trivial")
        for part in (part1, part2):
            _membership_check(part, tol)
            require_cpn(part, tol)
        return ConvexDecomposition(0.5, part1, part2, t)


def _compressed_commutant(rho: CPnMap, tol: float,
                          dilation: StinespringDilation | None):
    """The data is_extreme decides on and its report decomposes with.

    Checks rho as dilation_of and _membership_check do, then returns
    its dilation, the certified commutant and the matrix of T -> Q* T Q on
    the closed-form commutant basis, Q = orth(V): the frame basis with
    G = Q* U in place of U, column (k, a, b) vec((1/sqrt d_k) sum_p
    G_{k,p,a} G_{k,p,b}*).  X -> Q X Q* is a Frobenius isometry, so these
    q^2 <= (n m)^2 rows have the singular values of the H^2-row stack of
    P T_s P, P = Q Q*.
    """
    dilation = dilation_of(rho, tol, dilation)
    _membership_check(rho, tol)
    comm = commutant(dilation.rep, tol)
    g = orth(dilation.joint_isometry, tol).conj().T @ comm.frame
    mults = comm.multiplicities
    mat = _frame_basis(comm.block_dims, g, mults, g, mults).reshape(comm.dimension, -1).T
    return dilation, comm, mat


def is_extreme(rho: CPnMap, tol: float = 1e-9,
               dilation: StinespringDilation | None = None) -> ExtremalityReport:
    """Extremality among map matrices with rho_ii(1) = I, rho_ij(1) = 0 (i < j).

    Criterion: T -> P T P is injective on the commutant, where P projects
    onto H_0 = span{V_i xi}; decided in frame coordinates.  Membership
    failures raise ValidationError naming the offending entries.
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


@dataclass(frozen=True, eq=False)
class ExtremeFamilySpec:
    """Data for the extreme construction: a pure unital base map and unitaries.

    unitaries[0] must be the unit of the domain.
    """

    base: LinearMap
    unitaries: tuple[AlgebraElement, ...]


def build_extreme_family(spec: ExtremeFamilySpec, tol: float = 1e-9) -> CPnMap:
    """rho_ij(a) = V* Phi(u_i)* Phi(a) Phi(u_j) V from a pure unital base.

    The base must be unital, completely positive and pure; each u_i must
    be unitary, with u_1 the unit.  The output is certified completely
    n-positive and pure, with pure unital diagonal entries and
    rho_ij(u_i u_j*) = I.
    """
    phi = spec.base
    alg = phi.domain
    m = phi.codomain_dim
    unit = alg.unit()
    if len(spec.unitaries) == 0:
        raise ValidationError("at least one unitary is required")
    if distance(spec.unitaries[0], unit) > tol * (1.0 + cstar_norm(unit)):
        raise ValidationError("the first unitary must be the unit")
    for idx, u in enumerate(spec.unitaries):
        if u.algebra != alg:
            raise ValidationError(f"unitary {idx} lives in a different algebra")
        if not is_unitary(u, tol):
            raise ValidationError(f"element {idx} is not unitary to tolerance")
    unital_dev = spectral_norm(apply_map(phi, unit) - np.eye(m))
    if unital_dev > tol * (1.0 + max(spectral_norm(b) for b in phi.choi_blocks)):
        raise ValidationError(f"base map is not unital (residual {unital_dev:.3e})")
    base_dil = dilate(as_cpn(phi), tol)
    if not is_pure(as_cpn(phi), tol, dilation=base_dil):
        raise ValidationError("base map is not pure")
    v = base_dil.isometries[0]
    # W = [Phi(u_1) V ... Phi(u_n) V]; block (i, j) of W* Phi(a) W is rho_ij(a)
    w = np.hstack([rep_apply(base_dil.rep, u) @ v for u in spec.unitaries])
    n = len(spec.unitaries)
    rho = unflatten(map_from_images(alg, n * m, w.conj().T @ base_dil.rep.images @ w), n)
    require_cpn(rho, tol)
    scale = rho.scale
    eye = np.eye(m)
    for i in range(n):
        diag = as_cpn(rho.entries[i][i])
        if spectral_norm(apply_map(rho.entries[i][i], unit) - eye) > tol * scale:
            raise CertificationError(f"diagonal entry {i} is not unital")
        if not is_pure(diag, tol):
            raise CertificationError(f"diagonal entry {i} is not pure")
        for j in range(n):
            uij = spec.unitaries[i] @ spec.unitaries[j].adjoint()
            wit = apply_map(rho.entries[i][j], uij)
            if spectral_norm(wit - eye) > tol * scale:
                raise CertificationError(
                    f"witness rho_{i}{j}(u_i u_j*) deviates from the identity")
    if not is_pure(rho, tol):
        raise CertificationError("constructed map matrix is not pure")
    return rho
