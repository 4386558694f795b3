"""Minimal dilations of completely n-positive map matrices.

A dilation of an n x n map matrix [rho_ij] on A = (+)_k M_{d_k} with
codomain the m x m matrices consists of a *-representation Phi of A on
a finite-dimensional space H and operators V_1, ..., V_n : C^m -> H with

    rho_ij(a) = V_i* Phi(a) V_j        for all a, i, j,

minimal when the vectors Phi(a) V_i xi span H.  A Representation keeps
its matrix-unit images as one read-only (dim A, H, H) stack, so every
certificate -- factorization, intertwining, commutation -- is a product
against the whole stack measured by one stack-aware spectral_norm.

The production route
eigendecomposes each flattened Choi block C_k = sum_s w_s w_s*: the kept
eigenpairs give Kraus factors K_s (K_s[x, p] = w_s[p * n m + x]), the
representation block a_k (x) I_{r_k} acts on C^{d_k} (x) C^{r_k}, and
V[(k, p, s), x] = conj(K_s[x, p]).  A second, independent route builds
the same data from the Gram matrix of formal generators
(matrix unit alpha, slot i, basis vector u); it exists as a
cross-checking oracle.  canonical_frame brings any representation into
the frame dilate() outputs already have, where the commutant and the
intertwiners have closed forms; Representation.frame caches it.
commutant() is its one gate, with B(eps) from the frame residual as the
commute certificate, and reads the commutant off it; linalg's nullspace
solvers are test oracles.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, CStarAlgebra, star_index, unit_index,
                      unit_index_table, unit_product_index)
from .errors import CertificationError, ValidationError
from .linalg import (herm, nearest_unitary, numerical_rank, significant,
                     solve_sandwich, spectral_norm)
from .maps import (CPnMap, as_cpn, cpn_distance, cpn_verdict, flatten,
                   images_of, require_cpn, stack_images, subblocks)


@dataclass(frozen=True, eq=False)
class Representation:
    """*-representation of a CStarAlgebra by explicit matrix-unit images.

    images is stored as a read-only (dim A, H, H) complex array in
    canonical matrix-unit order; any sequence of H x H matrices is
    accepted on construction.  multiplicities, when given, are the r_k of
    (+)_k a_k (x) I_{r_k}, one per algebra block; each must lie within 1/2
    of tr Phi(e_11^(k)), the rank of that projection, a unitarily invariant
    O(K H) check.
    """

    algebra: CStarAlgebra
    space_dim: int
    images: np.ndarray
    multiplicities: tuple[int, ...] | None = None

    def __post_init__(self):
        n = int(self.space_dim)
        if n < 0:
            raise ValidationError("space dimension must be nonnegative")
        object.__setattr__(self, "space_dim", n)
        images = stack_images(self.images, self.algebra.dim, n)
        images.flags.writeable = False
        object.__setattr__(self, "images", images)
        if self.multiplicities is not None:
            mults = tuple(int(r) for r in self.multiplicities)
            alg = self.algebra
            if len(mults) != alg.num_blocks:
                raise ValidationError(
                    f"expected {alg.num_blocks} multiplicities, got {len(mults)}")
            traces = np.trace(images[[unit_index(alg, k, 0, 0) for k in range(alg.num_blocks)]],
                              axis1=1, axis2=2)
            if not np.all(np.abs(traces - mults) <= 0.5):
                raise ValidationError(
                    f"multiplicities {mults} contradict the images: "
                    f"tr Phi(e_11) per block is {np.round(traces.real, 6).tolist()}")
            object.__setattr__(self, "multiplicities", mults)

    @functools.cached_property
    def norm(self) -> float:
        """max_e ||Phi(e)|| over the matrix units, computed once."""
        return spectral_norm(self.images)

    @functools.cached_property
    def frame(self) -> tuple[np.ndarray, tuple[int, ...], float]:
        """canonical_frame(self), computed once; commutant() gates it."""
        return canonical_frame(self)


def rep_apply(rep: Representation, a: AlgebraElement) -> np.ndarray:
    """Evaluate the representation on an algebra element."""
    if a.algebra != rep.algebra:
        raise ValidationError("element is not in the representation's algebra")
    out = np.zeros((rep.space_dim, rep.space_dim), dtype=complex)
    coords = a.coords()
    for c, img in zip(coords, rep.images):
        if c != 0:
            out += c * img
    return out


def canonical_images(algebra: CStarAlgebra, multiplicities) -> np.ndarray:
    """Matrix-unit images of the canonical representation (+)_k a_k (x) I_{r_k}.

    Block k acts on C^{d_k} (x) C^{r_k}, basis vector (p, s) at
    offset_k + p * r_k + s.  This is the frame dilate() returns and the
    one canonical_frame conjugates every representation into.
    """
    offsets = np.cumsum([0] + [d * r for d, r in zip(algebra.block_dims, multiplicities)])
    images = np.zeros((algebra.dim, offsets[-1], offsets[-1]), dtype=complex)
    idx = 0
    for k, d in enumerate(algebra.block_dims):
        lo, hi = offsets[k], offsets[k + 1]
        units = np.eye(d * d).reshape(d, d, d, d)  # units[p, q] = e_pq
        images[idx:idx + d * d, lo:hi, lo:hi] = np.kron(
            units, np.eye(multiplicities[k])).reshape(d * d, hi - lo, hi - lo)
        idx += d * d
    return images


def representation_bound(rep: Representation, tol: float) -> float:
    """tol * (1 + max ||Phi(e)||), tol floored at a rounding allowance ~ H."""
    floor = 1e4 * np.finfo(float).eps * max(1, rep.space_dim)
    return max(tol, floor) * (1.0 + rep.norm)


def canonical_frame(rep: Representation) -> tuple[np.ndarray, tuple[int, ...], float]:
    """Unitary U, multiplicities (r_1, ..., r_K, r_0) with U* Phi(.) U =
    (+)_k a_k (x) I_{r_k} (+) 0_{r_0}, r_0 the dimension of ker Phi(1), and
    the residual eps = max(||U*U - I||, max_e ||U* Phi(e) U - C_e||), C_e
    the canonical images.

    Column (k, p, s) of U is Phi(e_p1^(k)) Q_k[:, s], Q_k an orthonormal
    basis of the range of Phi(e_11^(k)).  O(dim A * H^3) and free of
    tolerances: commutant() holds eps to its bound.  Raises
    CertificationError when the frame has the wrong number of vectors.
    """
    alg, h, imgs = rep.algebra, rep.space_dim, rep.images
    # (projection, its lifts Phi(e_p1)) per block, then ker Phi(1) as a d = 1 block
    parts = [(imgs[unit_index(alg, k, 0, 0)], imgs[[unit_index(alg, k, p, 0) for p in range(d)]])
             for k, d in enumerate(alg.block_dims)]
    parts.append((np.eye(h) - rep_apply(rep, alg.unit()), np.eye(h)[None]))
    columns, mults = [], []
    for proj, lifts in parts:
        w, vecs = np.linalg.eigh(herm(proj))
        q = vecs[:, w > 0.5]
        if q.shape[1] > 1:  # LAPACK orders it freely; this makes U = I in the frame
            q = q[:, np.argsort(np.abs(q).argmax(axis=0), kind="stable")]
        mults.append(q.shape[1])
        # columns (p, s) of the block are Phi(e_p1) Q[:, s]
        columns.append((lifts @ q).transpose(1, 0, 2).reshape(h, len(lifts) * q.shape[1]))
    u = np.hstack(columns)
    u.flags.writeable = False  # cached on the representation, shared by every commutant
    if u.shape[1] != h:
        raise CertificationError(
            f"canonical frame has {u.shape[1]} vectors in dimension {h}: "
            "the images are not a *-representation")
    canon = np.zeros_like(imgs)
    canon[:, :h - mults[-1], :h - mults[-1]] = canonical_images(alg, mults[:-1])
    residuals = np.concatenate([(u.conj().T @ u - np.eye(h))[None],
                                u.conj().T @ imgs @ u - canon])
    return u, tuple(mults), spectral_norm(residuals)


def _frame_basis(block_dims, u1, mults1, u2, mults2) -> np.ndarray:
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


def commutator_bound(rep: Representation, eps: float) -> float:
    """B(eps) = 2 eps (1 + eps) (1 + max_e ||Phi(e)||), eps the frame residual.

    B dominates max ||[U E U*, Phi(e)]|| over the closed-form commutant
    elements, E = (+)_k I_{d_k} (x) E_ab / sqrt(d_k), ||E|| <= 1.  With
    F = I - U U* and Delta_e = U* Phi(e) U - C_e,

        [U E U*, Phi(e)] = U [E, Delta_e] U* + U E U* Phi(e) F - F Phi(e) U E U*,

    and ||U||^2 = ||U*U|| <= 1 + eps, ||Delta_e|| <= eps, ||F|| = ||U*U - I||
    <= eps for square U.
    """
    return 2.0 * eps * (1.0 + eps) * (1.0 + rep.norm)


@dataclass(frozen=True, eq=False)
class CommutantBasis:
    """Phi(A)' = U ((+)_k I_{d_k} (x) M_{r_k}) U* on the certified canonical
    frame U that commutant() returns; the last block, d = 1 and r_0, is
    the kernel of Phi(1).  Coefficients are in the (k, a, b) order of basis.
    """

    rep: Representation
    frame: np.ndarray
    multiplicities: tuple[int, ...]
    frame_residual: float

    @property
    def dimension(self) -> int:
        return sum(r * r for r in self.multiplicities)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.rep.algebra.block_dims + (1,)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Frobenius-orthonormal basis (+)_k I_{d_k} (x) E_ab / sqrt(d_k) in the
        frame, a read-only (dimension, H, H) stack, built on first use."""
        b = _frame_basis(self.block_dims, self.frame, self.multiplicities,
                         self.frame, self.multiplicities)
        b.flags.writeable = False
        return b

    def element(self, coeffs) -> np.ndarray:
        """sum_i coeffs[i] basis[i] = U ((+)_k I_{d_k} (x) X_k / sqrt(d_k)) U*,
        X_k block k's coefficients as an r_k x r_k matrix, in O(H^3)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.dimension,):
            raise ValidationError(
                f"expected {self.dimension} coefficients, got shape {coeffs.shape}")
        u = self.frame
        scaled = np.empty_like(u)
        col = off = 0
        for d, r in zip(self.block_dims, self.multiplicities):
            x = coeffs[col:col + r * r].reshape(r, r) / np.sqrt(d)
            scaled[:, off:off + d * r] = \
                (u[:, off:off + d * r].reshape(len(u), d, r) @ x).reshape(len(u), d * r)
            off += d * r
            col += r * r
        return scaled @ u.conj().T


def commutant(rep: Representation, tol: float = 1e-9) -> CommutantBasis:
    """The commutant Phi(A)' on the cached frame rep.frame, certified by
    B(eps) = commutator_bound(rep, eps) <= representation_bound(rep, tol) = R,
    the frame's one gate: it gives 2 eps (1 + eps) <= max(tol, floor), so
    eps < R, and a NaN eps fails it.  Adjoint closure is exact in frame
    coordinates (b_ab* = b_ba).  Failures raise CertificationError."""
    u, mults, eps = rep.frame
    bound = commutator_bound(rep, eps)
    if not bound <= representation_bound(rep, tol):
        raise CertificationError(
            f"images are not a *-representation (frame residual {eps:.3e}, bound {bound:.3e})")
    return CommutantBasis(rep, u, mults, eps)


@dataclass(frozen=True)
class RepresentationReport:
    multiplicative_residual: float
    star_residual: float
    unital_residual: float

    def ok(self, tol: float, scale: float = 1.0) -> bool:
        bound = tol * scale
        return (self.multiplicative_residual <= bound
                and self.star_residual <= bound
                and self.unital_residual <= bound)


def verify_representation(rep: Representation, tol: float = 1e-9) -> RepresentationReport:
    """Residuals of the *-homomorphism axioms on matrix units."""
    alg = rep.algebra
    imgs = rep.images
    # e_i e_j is a matrix unit or zero; index alg.dim stands for zero
    padded = np.concatenate([imgs, np.zeros((1,) + imgs.shape[1:], dtype=complex)])
    mult = 0.0
    for i in range(alg.dim):
        prods = [unit_product_index(alg, i, j) for j in range(alg.dim)]
        expect = padded[[alg.dim if p is None else p for p in prods]]
        mult = max(mult, spectral_norm(imgs[i] @ imgs - expect))
    star = spectral_norm(imgs.conj().swapaxes(-2, -1)
                         - imgs[[star_index(alg, idx) for idx in range(alg.dim)]])
    unital = spectral_norm(rep_apply(rep, alg.unit()) - np.eye(rep.space_dim))
    return RepresentationReport(mult, star, unital)


@dataclass(frozen=True, eq=False)
class StinespringDilation:
    """Representation plus the operators V_i realizing rho_ij = V_i* Phi(.) V_j."""

    rep: Representation
    isometries: tuple[np.ndarray, ...]
    source: CPnMap

    def __post_init__(self):
        vs = tuple(np.array(v, dtype=complex) for v in self.isometries)
        m = self.source.codomain_dim
        if len(vs) != self.source.n:
            raise ValidationError(
                f"expected {self.source.n} operators, got {len(vs)}")
        for i, v in enumerate(vs):
            if v.shape != (self.rep.space_dim, m):
                raise ValidationError(
                    f"operator {i} must have shape {(self.rep.space_dim, m)}, got {v.shape}")
            v.flags.writeable = False
        object.__setattr__(self, "isometries", vs)

    @property
    def space_dim(self) -> int:
        return self.rep.space_dim

    @property
    def n(self) -> int:
        return len(self.isometries)

    @functools.cached_property
    def joint_isometry(self) -> np.ndarray:
        """V = [V_1 ... V_n] : C^{n m} -> H, so that V* Phi(a) V = flatten(rho)(a);
        built once per dilation, read-only."""
        v = np.hstack(self.isometries)
        v.flags.writeable = False
        return v


def dilate(rho: CPnMap, tol: float = 1e-9) -> StinespringDilation:
    """Minimal dilation via eigendecomposition of the flattened Choi blocks.

    Eigenpairs with eigenvalue above tol * (1 + block norm) are kept; the
    zero map yields a zero-dimensional, vacuously minimal dilation.  Raises
    PositivityError when rho is not completely n-positive to tol; the
    verdict comes from the same eigendecomposition that yields the Kraus
    factors.
    """
    n, m = rho.n, rho.codomain_dim
    alg = rho.domain
    flat = flatten(rho)
    eigs = [np.linalg.eigh(herm(c)) for c in flat.choi_blocks]
    cpn_verdict(flat, m, [w for w, _ in eigs], tol).require()
    rows: list[np.ndarray] = []
    mults: list[int] = []
    for d, (w, vecs) in zip(alg.block_dims, eigs):
        keep = significant(w, tol)
        mults.append(int(keep.sum()))
        # kraus[p, x, s] = K_s[x, p]; row (k, p, s) of V is conj(K_s[:, p])
        kraus = (np.sqrt(w[keep]) * vecs[:, keep]).reshape(d, n * m, mults[-1])
        rows.append(kraus.conj().transpose(0, 2, 1).reshape(-1, n * m))
    v = np.vstack(rows)
    rep = Representation(alg, len(v), canonical_images(alg, mults),
                         multiplicities=tuple(mults))
    isoms = tuple(v[:, i * m:(i + 1) * m] for i in range(n))
    return StinespringDilation(rep, isoms, rho)


def dilation_of(rho: CPnMap, tol: float,
                dilation: StinespringDilation | None) -> StinespringDilation:
    """dilate(rho, tol), or dilation once rho is completely n-positive and,
    to tol * rho.scale as in unitary_equivalence, its source."""
    if dilation is None:
        return dilate(rho, tol)
    require_cpn(rho, tol)
    if not (dilation.source is rho
            or cpn_distance(dilation.source, rho) <= tol * rho.scale):
        raise ValidationError("dilation is not a dilation of the given map matrix")
    return dilation


def spanning_matrix(dil: StinespringDilation) -> np.ndarray:
    """Columns Phi(e_alpha) V_i xi_u ordered by (alpha, i, u)."""
    stack = dil.rep.images @ dil.joint_isometry
    k, h, c = stack.shape
    return stack.swapaxes(0, 1).reshape(h, k * c)


@dataclass(frozen=True)
class DilationReport:
    factor_residual: float
    span_dim: int
    space_dim: int
    minimal: bool
    scale: float

    def ok(self, tol: float) -> bool:
        return self.factor_residual <= tol * self.scale and self.minimal


def verify_dilation(rho: CPnMap, dil: StinespringDilation,
                    tol: float = 1e-9) -> DilationReport:
    """Factorization residual on matrix units, and minimality via span rank."""
    if dil.source.n != rho.n or dil.source.domain != rho.domain \
            or dil.source.codomain_dim != rho.codomain_dim:
        raise ValidationError("dilation and map have incompatible shapes")
    v = dil.joint_isometry
    # block (i, j) of V* Phi(e) V - flatten(rho)(e) is V_i* Phi(e) V_j - rho_ij(e)
    diff = v.conj().T @ dil.rep.images @ v - images_of(flatten(rho))
    worst = spectral_norm(subblocks(diff, rho.codomain_dim))
    span = spanning_matrix(dil)
    span_dim = numerical_rank(span, tol)
    return DilationReport(worst, span_dim, dil.space_dim,
                          span_dim == dil.space_dim, rho.scale)


def equivalence_residual(d1: StinespringDilation, d2: StinespringDilation,
                         u: np.ndarray) -> float:
    """max of ||U Phi_1(e) - Phi_2(e) U|| and ||U V_1i - V_2i||."""
    return max(spectral_norm(u @ d1.rep.images - d2.rep.images @ u),
               spectral_norm(u @ np.array(d1.isometries) - np.array(d2.isometries)),
               spectral_norm(u @ u.conj().T - np.eye(d2.space_dim)),
               spectral_norm(u.conj().T @ u - np.eye(d1.space_dim)))


def unitary_equivalence(d1: StinespringDilation, d2: StinespringDilation,
                        tol: float = 1e-9) -> np.ndarray | None:
    """Unitary U with U Phi_1(.) = Phi_2(.) U and U V_1i = V_2i, if one exists.

    Returns None when the space dimensions differ.  Both inputs must be
    verified minimal dilations of a common map matrix; the unitary is the
    polar factor of the map sending the spanning family of d1 to that of
    d2.  Certification failure raises, never passes silently.
    """
    if d1.space_dim != d2.space_dim:
        return None
    if cpn_distance(d1.source, d2.source) > tol * d1.source.scale:
        raise ValidationError("dilations do not come from a common map matrix")
    for d in (d1, d2):
        report = verify_dilation(d.source, d, tol)
        if not report.ok(tol):
            raise ValidationError(
                "input is not a verified minimal dilation "
                f"(residual {report.factor_residual:.3e}, minimal {report.minimal})")
    if d1.space_dim == 0:
        return np.zeros((0, 0), dtype=complex)
    x1 = spanning_matrix(d1)
    x2 = spanning_matrix(d2)
    u = nearest_unitary(solve_sandwich(x1, x2))
    scale = d1.source.scale
    res = equivalence_residual(d1, d2, u)
    if res > max(tol * scale, 1e3 * np.finfo(float).eps * scale * d1.space_dim):
        raise CertificationError(
            f"intertwining unitary certificate failed (residual {res:.3e})")
    return u


def gram_matrix(rho: CPnMap) -> np.ndarray:
    """Gram matrix of the formal generators (alpha, i, u).

    G[(alpha, i, u), (beta, j, v)] = rho_ij(e_alpha* e_beta)[u, v]; built
    from the stored Choi data only, with no reference to any dilation.
    Positive semidefinite, and its rank equals the minimal dilation
    dimension.
    """
    alg = rho.domain
    nm = rho.n * rho.codomain_dim
    imgs = images_of(rho.flat)  # block (i, j) of imgs[e] is rho_ij(e)
    table = unit_index_table(alg)
    g = np.zeros((alg.dim * nm, alg.dim * nm), dtype=complex)
    for ai, (k1, p1, q1) in enumerate(table):
        for bi, (k2, p2, q2) in enumerate(table):
            # e_alpha* e_beta = delta_{k1 k2} delta_{p1 p2} e_{q1 q2}
            if k1 == k2 and p1 == p2:
                g[ai * nm:(ai + 1) * nm, bi * nm:(bi + 1) * nm] = imgs[unit_index(alg, k1, q1, q2)]
    return g


def dilate_from_gram(rho: CPnMap, tol: float = 1e-9) -> StinespringDilation:
    """Independent dilation route through the generator Gram matrix.

    Orthonormalizes the formal generators by eigendecomposition of the
    Gram matrix, then reads the representation off the index action
    e . e_alpha and the V_i off the unit decomposition.  Kept as a
    cross-checking oracle; dilate() is the production route.
    """
    require_cpn(rho, tol)
    alg = rho.domain
    n, m = rho.n, rho.codomain_dim
    g = gram_matrix(rho)
    w, y = np.linalg.eigh(herm(g))
    keep = np.nonzero(significant(w, tol))[0]
    space_dim = len(keep)
    # columns of x are the generator coordinates in an orthonormal basis
    x = (np.sqrt(w[keep])[:, None] * y[:, keep].conj().T)
    table = unit_index_table(alg)
    size = alg.dim * n * m

    def gen_col(alpha: int, i: int, u: int) -> int:
        return (alpha * n + i) * m + u

    images = []
    for eps in range(alg.dim):
        shift = np.zeros((size, size), dtype=complex)
        for alpha in range(alg.dim):
            target = unit_product_index(alg, eps, alpha)
            if target is None:
                continue
            for i in range(n):
                for u in range(m):
                    shift[gen_col(target, i, u), gen_col(alpha, i, u)] = 1.0
        images.append(solve_sandwich(x, x @ shift))
    isoms = []
    for i in range(n):
        vi = np.zeros((space_dim, m), dtype=complex)
        for u in range(m):
            for k, d in enumerate(alg.block_dims):
                for p in range(d):
                    vi[:, u] += x[:, gen_col(unit_index(alg, k, p, p), i, u)]
        isoms.append(vi)
    rep = Representation(alg, space_dim, tuple(images))
    return StinespringDilation(rep, tuple(isoms), rho)


@dataclass(frozen=True)
class DirectSumReport:
    """Outcome of splitting a diagonal map matrix into a direct sum."""

    space_dim: int
    part_dims: tuple[int, ...]
    additive: bool
    unitary: np.ndarray
    residual: float


def diagonal_direct_sum_check(rho: CPnMap, tol: float = 1e-9) -> DirectSumReport:
    """For diagonal [rho_ij], compare dilate(rho) with the direct sum of
    the dilations of the diagonal entries.

    Raises ValidationError when an off-diagonal entry is nonzero beyond
    tol; certifies the intertwining unitary between the two dilations.
    """
    n, m = rho.n, rho.codomain_dim
    scale = rho.scale
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            off = max(spectral_norm(b) for b in rho.entries[i][j].choi_blocks)
            if off > tol * scale:
                raise ValidationError(
                    f"entry ({i}, {j}) is nonzero: map matrix is not diagonal")
    full = dilate(rho, tol)
    parts = [dilate(as_cpn(rho.entries[i][i]), tol) for i in range(n)]
    part_dims = tuple(p.space_dim for p in parts)
    total = sum(part_dims)
    offsets = np.concatenate([[0], np.cumsum(part_dims)])
    images = np.zeros((rho.domain.dim, total, total), dtype=complex)
    isoms = []
    for i, p in enumerate(parts):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        images[:, lo:hi, lo:hi] = p.rep.images
        vi = np.zeros((total, m), dtype=complex)
        vi[lo:hi, :] = p.isometries[0]
        isoms.append(vi)
    summed = StinespringDilation(Representation(rho.domain, total, images),
                                 tuple(isoms), rho)
    u = unitary_equivalence(full, summed, tol)
    if u is None:
        raise CertificationError(
            f"direct-sum dilation dimension {total} differs from {full.space_dim}")
    res = equivalence_residual(full, summed, u)
    return DirectSumReport(full.space_dim, part_dims,
                           full.space_dim == total, u, res)
