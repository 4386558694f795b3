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
intertwiners have closed forms; linalg's nullspace solvers are test oracles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, CStarAlgebra, star_index, unit_index,
                      unit_index_table, unit_product_index)
from .errors import CertificationError, ValidationError
from .linalg import (herm, nearest_unitary, numerical_rank, orth,
                     solve_sandwich, spectral_norm)
from .maps import (CPnMap, as_cpn, cpn_distance, cpn_scale, cpn_verdict,
                   flatten, images_of, require_cpn, stack_images, subblocks)


@dataclass(frozen=True, eq=False)
class Representation:
    """*-representation of a CStarAlgebra by explicit matrix-unit images.

    images is stored as a read-only (dim A, H, H) complex array in
    canonical matrix-unit order; any sequence of H x H matrices is
    accepted on construction.
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
            object.__setattr__(self, "multiplicities",
                               tuple(int(r) for r in self.multiplicities))


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
    return max(tol, floor) * (1.0 + spectral_norm(rep.images))


def canonical_frame(rep: Representation, tol: float = 1e-9) -> tuple[np.ndarray, tuple[int, ...]]:
    """Unitary U and multiplicities (r_1, ..., r_K, r_0) with U* Phi(.) U =
    (+)_k a_k (x) I_{r_k} (+) 0_{r_0}, r_0 the dimension of ker Phi(1).

    Column (k, p, s) of U is Phi(e_p1^(k)) Q_k[:, s], Q_k an orthonormal
    basis of the range of Phi(e_11^(k)).  O(dim A * H^3).  Raises
    CertificationError unless the images are a *-representation.
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
    if u.shape[1] != h:
        raise CertificationError(
            f"canonical frame has {u.shape[1]} vectors in dimension {h}: "
            "the images are not a *-representation")
    canon = np.zeros_like(imgs)
    canon[:, :h - mults[-1], :h - mults[-1]] = canonical_images(alg, mults[:-1])
    residuals = np.concatenate([(u.conj().T @ u - np.eye(h))[None],
                                u.conj().T @ imgs @ u - canon])
    worst = spectral_norm(residuals)
    if not worst <= representation_bound(rep, tol):
        raise CertificationError(
            f"canonical frame certificate failed (residual {worst:.3e}): "
            "the images are not a *-representation")
    return u, tuple(mults)


def _frame_basis(block_dims, u1, mults1, u2, mults2) -> list[np.ndarray]:
    """Orthonormal basis (1/sqrt d_k) sum_p u2_{k,p,a} u1_{k,p,b}* of
    U_2 ((+)_k I_{d_k} (x) M_{s_k x r_k}) U_1*, from the frame columns."""
    basis = []
    o1 = o2 = 0
    for d, r, s in zip(block_dims, mults1, mults2):
        a1 = u1[:, o1:o1 + d * r].reshape(len(u1), d, r)
        a2 = u2[:, o2:o2 + d * s].reshape(len(u2), d, s)
        basis += [a2[:, :, a] @ a1[:, :, b].conj().T / np.sqrt(d)
                  for a in range(s) for b in range(r)]
        o1 += d * r
        o2 += d * s
    return basis


def commutant_basis(rep: Representation, tol: float = 1e-9) -> list[np.ndarray]:
    """Frobenius-orthonormal basis of the commutant Phi(A)': the closed form
    (+)_k I_{d_k} (x) M_{r_k} (+) M_{r_0} in the canonical frame."""
    u, mults = canonical_frame(rep, tol)
    return _frame_basis(rep.algebra.block_dims + (1,), u, mults, u, mults)


def intertwiner_basis(rep1: Representation, rep2: Representation,
                      tol: float = 1e-9) -> list[np.ndarray]:
    """Orthonormal basis of {X : X Phi_1(e) = Phi_2(e) X}, X of shape (H_2, H_1):
    (+)_k I_{d_k} (x) M_{s_k x r_k} between the canonical frames."""
    u1, mults1 = canonical_frame(rep1, tol)
    u2, mults2 = canonical_frame(rep2, tol)
    return _frame_basis(rep1.algebra.block_dims + (1,), u1, mults1, u2, mults2)


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

    @property
    def joint_isometry(self) -> np.ndarray:
        """V = [V_1 ... V_n] : C^{n m} -> H, so that V* Phi(a) V = flatten(rho)(a)."""
        return np.hstack(self.isometries)


def dilate(rho: CPnMap, tol: float = 1e-9, rank_tol: float | None = None) -> StinespringDilation:
    """Minimal dilation via eigendecomposition of the flattened Choi blocks.

    Eigenpairs with eigenvalue above rank_tol * (1 + block norm) are kept
    (rank_tol defaults to tol); the zero map yields a zero-dimensional,
    vacuously minimal dilation.  Raises PositivityError when rho is not
    completely n-positive to tol; the verdict comes from the same
    eigendecomposition that yields the Kraus factors.
    """
    if rank_tol is None:
        rank_tol = tol
    n, m = rho.n, rho.codomain_dim
    alg = rho.domain
    flat = flatten(rho)
    eigs = [np.linalg.eigh(herm(c)) for c in flat.choi_blocks]
    cpn_verdict(flat, m, [w for w, _ in eigs], tol).require()
    rows: list[np.ndarray] = []
    mults: list[int] = []
    for d, (w, vecs) in zip(alg.block_dims, eigs):
        cutoff = rank_tol * (1.0 + (float(np.abs(w).max()) if w.size else 0.0))
        keep = w > cutoff
        mults.append(int(keep.sum()))
        # kraus[p, x, s] = K_s[x, p]; row (k, p, s) of V is conj(K_s[:, p])
        kraus = (np.sqrt(w[keep]) * vecs[:, keep]).reshape(d, n * m, mults[-1])
        rows.append(kraus.conj().transpose(0, 2, 1).reshape(-1, n * m))
    v = np.vstack(rows)
    rep = Representation(alg, len(v), canonical_images(alg, mults),
                         multiplicities=tuple(mults))
    isoms = tuple(v[:, i * m:(i + 1) * m] for i in range(n))
    return StinespringDilation(rep, isoms, rho)


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """The r x (k c) matrix [stack[0] ... stack[k-1]] of a (k, r, c) stack."""
    k, r, c = stack.shape
    return stack.swapaxes(0, 1).reshape(r, k * c)


def spanning_matrix(dil: StinespringDilation) -> np.ndarray:
    """Columns Phi(e_alpha) V_i xi_u ordered by (alpha, i, u)."""
    return _side_by_side(dil.rep.images @ dil.joint_isometry)


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
    scale = cpn_scale(rho)
    v = dil.joint_isometry
    # block (i, j) of V* Phi(e) V - flatten(rho)(e) is V_i* Phi(e) V_j - rho_ij(e)
    diff = v.conj().T @ dil.rep.images @ v - images_of(flatten(rho))
    worst = spectral_norm(subblocks(diff, rho.codomain_dim))
    span = spanning_matrix(dil)
    span_dim = numerical_rank(span, tol)
    return DilationReport(worst, span_dim, dil.space_dim,
                          span_dim == dil.space_dim, scale)


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
    if cpn_distance(d1.source, d2.source) > tol * cpn_scale(d1.source):
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
    scale = cpn_scale(d1.source)
    res = equivalence_residual(d1, d2, u)
    if res > max(tol * scale, 1e3 * np.finfo(float).eps * scale * d1.space_dim):
        raise CertificationError(
            f"intertwining unitary certificate failed (residual {res:.3e})")
    return u


@dataclass(frozen=True)
class ProjectionSet:
    """Projections onto the subspaces generated by each slot of a dilation."""

    projections: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    commute_residual: float
    fix_residual: float


def component_projections(dil: StinespringDilation, tol: float = 1e-9) -> ProjectionSet:
    """P_i = projection onto span{Phi(e) V_i xi}; each lies in the commutant.

    Certifies [P_i, Phi(e)] = 0 and P_i V_i = V_i; failures raise.
    """
    imgs = dil.rep.images
    projections = []
    dims = []
    commute = 0.0
    fix = 0.0
    for vi in dil.isometries:
        q = orth(_side_by_side(imgs @ vi), tol)
        p = q @ q.conj().T
        projections.append(p)
        dims.append(q.shape[1])
        commute = max(commute, spectral_norm(p @ imgs - imgs @ p))
        fix = max(fix, spectral_norm(p @ vi - vi))
    scale = cpn_scale(dil.source)
    if max(commute, fix) > max(tol * scale, 1e3 * np.finfo(float).eps * scale * max(1, dil.space_dim)):
        raise CertificationError(
            f"component projection certificate failed (residuals {commute:.3e}, {fix:.3e})")
    return ProjectionSet(tuple(projections), tuple(dims), commute, fix)


def gram_matrix(rho: CPnMap) -> np.ndarray:
    """Gram matrix of the formal generators (alpha, i, u).

    G[(alpha, i, u), (beta, j, v)] = rho_ij(e_alpha* e_beta)[u, v]; built
    from the stored Choi data only, with no reference to any dilation.
    Positive semidefinite, and its rank equals the minimal dilation
    dimension.
    """
    alg = rho.domain
    n, m = rho.n, rho.codomain_dim
    table = unit_index_table(alg)
    entry_images = [[images_of(rho.entries[i][j]) for j in range(n)] for i in range(n)]
    size = alg.dim * n * m
    g = np.zeros((size, size), dtype=complex)
    for ai, (k1, p1, q1) in enumerate(table):
        for bi, (k2, p2, q2) in enumerate(table):
            # e_alpha* e_beta = delta_{k1 k2} delta_{p1 p2} e_{q1 q2}
            if k1 != k2 or p1 != p2:
                continue
            prod = unit_index(alg, k1, q1, q2)
            for i in range(n):
                for j in range(n):
                    blk = entry_images[i][j][prod]
                    rows = slice((ai * n + i) * m, (ai * n + i) * m + m)
                    colz = slice((bi * n + j) * m, (bi * n + j) * m + m)
                    g[rows, colz] = blk
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
    cutoff = tol * (1.0 + (float(np.abs(w).max()) if w.size else 0.0))
    keep = np.nonzero(w > cutoff)[0]
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
    scale = cpn_scale(rho)
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
