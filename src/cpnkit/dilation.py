"""Minimal dilations of completely n-positive map matrices.

A dilation of an n x n map matrix [rho_ij] on A = (+)_k M_{d_k} with
codomain the m x m matrices consists of a *-representation Phi of A on
a finite-dimensional space H and operators V_1, ..., V_n : C^m -> H with

    rho_ij(a) = V_i* Phi(a) V_j        for all a, i, j,

minimal when the vectors Phi(a) V_i xi span H.  A Representation keeps
its matrix-unit images as one read-only (dim A, H, H) stack, built on
first read for Representation.canonical(A, r) = (+)_k a_k (x) I_{r_k}.

The production route eigendecomposes each flattened Choi block
C_k = sum_s w_s w_s*: the kept eigenpairs give Kraus factors K_s
(K_s[x, p] = w_s[p * n m + x]), the representation block a_k (x) I_{r_k}
acts on C^{d_k} (x) C^{r_k}, and V[(k, p, s), x] = conj(K_s[x, p]).  A
second, independent route builds the same data from the Gram matrix
(+)_k I_{d_k} (x) C_k of formal generators (matrix unit alpha, slot i,
basis vector u) and their index action e_eps e_alpha; it exists as a
cross-checking oracle.

A minimal dilation is unique up to unitary equivalence, so every verdict
runs on canonical dilations, whose representation is
Representation.canonical: dilate() returns one, and canonicalize() is
the one door for any other, the one reader of a frame.  It finds the
unitary U with U* Phi(.) U = (+)_k a_k (x) I_{r_k} (canonical_frame),
certifies it by B(eps) from the frame residual, and returns the
dilation with V_i replaced by U* V_i, and U; the caller who brought a
foreign dilation applies U once.  On a canonical dilation the commutant
is (+)_k I_{d_k} (x) M_{r_k} and the intertwiners (+)_k I_{d_k} (x)
M_{s_k x r_k}: CommutantBasis places those blocks (.lift), averages
them out of an H x H operator (.blocks) and reshapes V into its block
rows (.rows), reading no frame.  commutant() answers any representation
in its canonical frame, with canonicalize's gate; linalg's nullspace
solvers are test oracles.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (AlgebraElement, CStarAlgebra, star_index, unit_index,
                      unit_product_index)
from .errors import CertificationError, ValidationError, as_index
from .linalg import (herm, nearest_unitary, numerical_rank, significant,
                     solve_sandwich, spectral_norm)
from .maps import (CPnMap, _verdict, as_cpn, cpn_distance, flatten,
                   images_of, require_cpn, stack_images, subblocks)


@dataclass(frozen=True, eq=False, init=False)
class Representation:
    """*-representation of a CStarAlgebra by its matrix-unit images.

    Representation(algebra, space_dim, images) validates any H x H matrices
    into a read-only (dim A, H, H) complex copy in canonical matrix-unit
    order, with multiplicities None: commutant() and canonicalize() read
    them off its frame.  Representation.canonical(algebra, r) is
    (+)_k a_k (x) I_{r_k}, the kind every verdict takes, with its r_k.
    """

    algebra: CStarAlgebra
    space_dim: int
    multiplicities: tuple[int, ...] | None

    def __init__(self, algebra: CStarAlgebra, space_dim: int, images):
        n = as_index(space_dim, "space dimension")
        if n < 0:
            raise ValidationError("space dimension must be nonnegative")
        images = stack_images(images, algebra.dim, n)
        images.flags.writeable = False
        self.__dict__.update(algebra=algebra, space_dim=n, multiplicities=None, images=images)

    @classmethod
    def canonical(cls, algebra: CStarAlgebra, multiplicities) -> Representation:
        """(+)_k a_k (x) I_{r_k} with its norm (1; 0 when H = 0) set, the value
        spectral_norm returns on its images.  One integer r_k >= 0 per
        algebra block, else ValidationError."""
        mults = tuple(as_index(r, "multiplicity") for r in multiplicities)
        if len(mults) != algebra.num_blocks or min(mults, default=0) < 0:
            raise ValidationError(
                f"expected {algebra.num_blocks} nonnegative multiplicities, got {mults}")
        h = sum(d * r for d, r in zip(algebra.block_dims, mults))
        rep = object.__new__(cls)
        rep.__dict__.update(algebra=algebra, space_dim=h, multiplicities=mults,
                            norm=1.0 if h else 0.0)
        return rep

    @functools.cached_property
    def images(self) -> np.ndarray:
        """canonical_images of a canonical representation, read-only, on first read."""
        images = canonical_images(self.algebra, self.multiplicities)
        images.flags.writeable = False
        return images

    @functools.cached_property
    def norm(self) -> float:
        """max_e ||Phi(e)|| over the matrix units, computed once."""
        return spectral_norm(self.images)


def rep_apply(rep: Representation, a: AlgebraElement) -> np.ndarray:
    """Evaluate the representation on an algebra element."""
    if a.algebra != rep.algebra:
        raise ValidationError("element is not in the representation's algebra")
    return np.tensordot(a.coords(), rep.images, 1)


def canonical_images(algebra: CStarAlgebra, multiplicities) -> np.ndarray:
    """Matrix-unit images of the canonical representation (+)_k a_k (x) I_{r_k}.

    Block k acts on C^{d_k} (x) C^{r_k}, basis vector (p, s) at
    offset_k + p * r_k + s, so e_pq^(k) maps to ones at ((p, s), (q, s)).
    This is the frame dilate() returns and the one canonical_frame
    conjugates every representation into.
    """
    h = sum(d * r for d, r in zip(algebra.block_dims, multiplicities))
    images = np.zeros((algebra.dim, h, h), dtype=complex)
    idx = lo = 0
    for d, r in zip(algebra.block_dims, multiplicities):
        p, q, s = np.indices((d, d, r)).reshape(3, -1)
        images[idx + p * d + q, lo + p * r + s, lo + q * r + s] = 1.0
        idx, lo = idx + d * d, lo + d * r
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
    tolerances: _certified_frame holds eps to its bound.  Raises
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
    u.flags.writeable = False  # canonicalize hands it to its caller
    if u.shape[1] != h:
        raise CertificationError(
            f"canonical frame has {u.shape[1]} vectors in dimension {h}: "
            "the images are not a *-representation")
    canon = np.zeros_like(imgs)
    canon[:, :h - mults[-1], :h - mults[-1]] = canonical_images(alg, mults[:-1])
    residuals = np.concatenate([(u.conj().T @ u - np.eye(h))[None],
                                u.conj().T @ imgs @ u - canon])
    return u, tuple(mults), spectral_norm(residuals)


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
    """Phi(A)' = (+)_k I_{d_k} (x) M_{r_k} of a canonical representation
    (+)_k a_k (x) I_{r_k}, whose basis vector (k, p, s) sits at offset_k +
    p r_k + s.  Coefficients are in the (k, a, b) order of basis.
    """

    block_dims: tuple[int, ...]
    multiplicities: tuple[int, ...]

    @functools.cached_property
    def dimension(self) -> int:
        return sum(r * r for r in self.multiplicities)

    @functools.cached_property
    def space_dim(self) -> int:
        return sum(d * r for d, r in zip(self.block_dims, self.multiplicities))

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Frobenius-orthonormal basis (+)_k I_{d_k} (x) E_ab / sqrt(d_k), a
        read-only (dimension, H, H) stack, built on first use."""
        b = self.element(np.eye(self.dimension))
        b.flags.writeable = False
        return b

    def lift(self, xs, target: CommutantBasis | None = None) -> np.ndarray:
        """(+)_k I_{d_k} (x) X_k from per-block (..., s_k, r_k) arrays X_k, s_k
        from target (default self), zero past len(xs): X_k is placed at
        rows offset + p s_k and columns offset_k + p r_k for each p < d_k.
        A stacked lead gives a stack, member i bitwise the lift of member i."""
        target = self if target is None else target
        lead = xs[0].shape[:-2] if len(xs) else ()
        out = np.zeros(lead + (target.space_dim, self.space_dim), dtype=complex)
        o1 = o2 = 0
        for d, r, s, x in zip(self.block_dims, self.multiplicities, target.multiplicities, xs):
            for p in range(d):
                out[..., o2 + p * s:o2 + (p + 1) * s, o1 + p * r:o1 + (p + 1) * r] = x
            o1, o2 = o1 + d * r, o2 + d * s
        return out

    def rows(self, v: np.ndarray) -> list[np.ndarray]:
        """A_k = [A_k,1 ... A_k,d_k], the rows of V at algebra block k as
        r_k x d_k c matrices, V an H x c matrix: V* lift([.., X, ..]) V has
        A_k* X A_k as its flattened Choi block k."""
        c, rows, off = v.shape[1], [], 0
        for d, r in zip(self.block_dims, self.multiplicities):
            # row (p, s) of V is row s of A_k,p
            rows.append(v[off:off + d * r].reshape(d, r, c).transpose(1, 0, 2).reshape(r, d * c))
            off += d * r
        return rows

    def blocks(self, t) -> list[np.ndarray]:
        """The blocks X_k of H x H operators T (any leading axes): X_k
        averages the d_k diagonal (k, p) sub-blocks of T, so lift(blocks(T))
        is the conditional expectation E(T) onto the commutant and blocks
        inverts lift on it."""
        xs, off = [], 0
        for d, r in zip(self.block_dims, self.multiplicities):
            # as x_0 + mean(x_p - x_0), so equal sub-blocks give x_0 bitwise
            subs = t[..., off:off + d * r, off:off + d * r].reshape(
                t.shape[:-2] + (d, r, d, r)).diagonal(0, -4, -2)
            xs.append(subs[..., 0] + (subs - subs[..., :1]).sum(-1) / d)
            off += d * r
        return xs

    def split(self, coeffs) -> list[np.ndarray]:
        """The X_k / sqrt(d_k), X_k block k's coefficients in (k, a, b) order as
        an r_k x r_k matrix; a (j, dimension) stack of coefficients gives
        (j, r_k, r_k) stacks."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim not in (1, 2) or coeffs.shape[-1:] != (self.dimension,):
            raise ValidationError(
                f"expected {self.dimension} coefficients, got shape {coeffs.shape}")
        xs, col, lead = [], 0, coeffs.shape[:-1]
        for d, r in zip(self.block_dims, self.multiplicities):
            xs.append(coeffs[..., col:col + r * r].reshape(*lead, r, r) / math.sqrt(d))
            col += r * r
        return xs

    def element(self, coeffs) -> np.ndarray:
        """lift(split(coeffs)), in O(H^2): the combination of basis."""
        return self.lift(self.split(coeffs))


def _certified_frame(rep: Representation, tol: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """canonical_frame(rep)'s U and (r_1, ..., r_K, r_0), certified by
    B(eps) = commutator_bound(rep, eps) <= representation_bound(rep, tol) = R,
    the frame's one gate: it gives 2 eps (1 + eps) <= max(tol, floor), so
    eps < R, and a NaN eps fails it.  Failures raise CertificationError."""
    u, mults, eps = canonical_frame(rep)
    value, bound = commutator_bound(rep, eps), representation_bound(rep, tol)
    if not value <= bound:
        raise CertificationError(
            f"images are not a *-representation (frame residual {eps:.3e}, bound {value:.3e})",
            value=value, bound=bound)
    return u, mults


def commutant(rep: Representation, tol: float = 1e-9) -> CommutantBasis:
    """The commutant Phi(A)' in rep's canonical frame: the multiplicities of
    a canonical representation, else those of the certified frame
    (_certified_frame, canonicalize's gate), the kernel of Phi(1), when it
    is nonzero, as a last block with d = 1.  Adjoint closure is exact in
    frame coordinates (b_ab* = b_ba)."""
    if rep.multiplicities is not None:
        return CommutantBasis(rep.algebra.block_dims, rep.multiplicities)
    mults = _certified_frame(rep, tol)[1]
    blocks = len(mults) - (mults[-1] == 0)
    return CommutantBasis((rep.algebra.block_dims + (1,))[:blocks], mults[:blocks])


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
    """Representation plus the operators V_i realizing rho_ij = V_i* Phi(.) V_j.

    V = [V_1 ... V_n] : C^{n m} -> H, so that V* Phi(a) V = flatten(rho)(a),
    is stored once, read-only, as joint_isometry; isometries are its
    column blocks, views of it."""

    rep: Representation
    isometries: tuple[np.ndarray, ...]
    source: CPnMap
    joint_isometry: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m, h = self.source.n, self.source.codomain_dim, self.rep.space_dim
        if len(self.isometries) != n:
            raise ValidationError(f"expected {n} operators, got {len(self.isometries)}")
        joint = np.empty((h, n * m), dtype=complex)
        for i, v in enumerate(self.isometries):
            if np.shape(v) != (h, m):
                raise ValidationError(
                    f"operator {i} must have shape {(h, m)}, got {np.shape(v)}")
            joint[:, i * m:(i + 1) * m] = v
        joint.flags.writeable = False
        object.__setattr__(self, "joint_isometry", joint)
        object.__setattr__(self, "isometries",
                           tuple(joint[:, i * m:(i + 1) * m] for i in range(n)))

    @property
    def space_dim(self) -> int:
        return self.rep.space_dim

    @property
    def n(self) -> int:
        return len(self.isometries)

    @functools.cached_property
    def _minimal(self) -> dict[float, bool]:
        """_minimal_commutant's verdicts by tol; dilate() seeds its own."""
        return {}


def dilate(rho: CPnMap, tol: float = 1e-9) -> StinespringDilation:
    """Minimal dilation via eigendecomposition of the flattened Choi blocks.

    Eigenpairs with eigenvalue above tol * (1 + block norm) are kept; the
    zero map yields a zero-dimensional, vacuously minimal dilation.  Raises
    PositivityError when rho is not completely n-positive to tol; the
    verdict, kept on rho as is_completely_n_positive keeps its own, comes
    from the eigendecomposition that yields the Kraus factors unless rho
    has one for tol already.  The representation is
    Representation.canonical of the kept ranks: no images are built.
    """
    n, m = rho.n, rho.codomain_dim
    alg = rho.domain
    eigs = [np.linalg.eigh(herm(c)) for c in rho.flat.choi_blocks]
    _verdict(rho, tol, [w[None] for w, _ in eigs]).require()
    rows: list[np.ndarray] = []
    mults: list[int] = []
    for d, (w, vecs) in zip(alg.block_dims, eigs):
        keep = significant(w, tol)
        mults.append(int(keep.sum()))
        # kraus[p, x, s] = K_s[x, p]; row (k, p, s) of V is conj(K_s[:, p])
        kraus = (np.sqrt(w[keep]) * vecs[:, keep]).reshape(d, n * m, mults[-1])
        rows.append(kraus.conj().transpose(0, 2, 1).reshape(-1, n * m))
    v = np.vstack(rows)
    rep = Representation.canonical(alg, mults)
    dil = StinespringDilation(rep, tuple(v[:, i * m:(i + 1) * m] for i in range(n)), rho)
    dil.__dict__["_minimal"] = {tol: True}  # rows of V: orthogonal, sqrt(w_s) > 0 long
    return dil


def canonicalize(dil: StinespringDilation,
                 tol: float = 1e-9) -> tuple[StinespringDilation, np.ndarray]:
    """The canonical dilation unitarily equivalent to dil, and the unitary U:
    (StinespringDilation(Representation.canonical(A, r), (U* V_i), source), U)
    with U* Phi(.) U = (+)_k a_k (x) I_{r_k}, U the frame certified by
    _certified_frame (CertificationError when it fails).  An operator T on
    the canonical space is U T U* on dil's.  A kernel of Phi(1) (r_0 > 0)
    raises ValidationError: such a dilation is not minimal."""
    u, mults = _certified_frame(dil.rep, tol)
    if mults[-1]:
        raise ValidationError(f"dilation is not minimal (multiplicities {mults})")
    rep = Representation.canonical(dil.rep.algebra, mults[:-1])
    return StinespringDilation(rep, tuple(u.conj().T @ v for v in dil.isometries), dil.source), u


def _canonical_basis(dil: StinespringDilation) -> CommutantBasis:
    """commutant(dil.rep) of a canonical dilation, a dilate() or canonicalize()
    output; any other raises ValidationError, reading no frame."""
    if dil.rep.multiplicities is None:
        raise ValidationError("dilation is not canonical: pass it through "
                              "canonicalize(dilation, tol) and conjugate by its unitary")
    return commutant(dil.rep)


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


def _minimal_commutant(dil: StinespringDilation, tol: float) -> CommutantBasis:
    """_canonical_basis(dil) once dil is minimal -- each block A_k of its rows
    of rank r_k -- else ValidationError; decided once per dilation and tol."""
    comm = _canonical_basis(dil)
    memo, mults = dil._minimal, comm.multiplicities
    if tol not in memo:
        memo[tol] = all(numerical_rank(a, tol) == r
                        for a, r in zip(comm.rows(dil.joint_isometry), mults))
    if not memo[tol]:
        raise ValidationError(f"dilation is not minimal (multiplicities {mults})")
    return comm


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
    if d1.source is not d2.source \
            and cpn_distance(d1.source, d2.source) > tol * d1.source.scale:
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
    bound = max(tol * scale, 1e3 * np.finfo(float).eps * scale * d1.space_dim)
    if res > bound:
        raise CertificationError(
            f"intertwining unitary certificate failed (residual {res:.3e})",
            value=res, bound=bound)
    return u


def gram_matrix(rho: CPnMap) -> np.ndarray:
    """Gram matrix of the formal generators (alpha, i, u): (+)_k I_{d_k} (x) C_k.

    G[(alpha, i, u), (beta, j, v)] = rho_ij(e_alpha* e_beta)[u, v], and
    e_pq* e_p'q' = delta_pp' e_qq' inside a block, 0 across blocks: block k
    of G holds d_k diagonal copies of the flattened Choi block
    C_k[(q, i, u), (q', j, v)] = rho_ij(e_qq')[u, v].  Positive
    semidefinite, of rank the minimal dilation dimension; no dilation is used.
    """
    nm = rho.n * rho.codomain_dim
    g = np.zeros((rho.domain.dim * nm, rho.domain.dim * nm), dtype=complex)
    lo = 0
    for d, c in zip(rho.domain.block_dims, rho.flat.choi_blocks):
        for _ in range(d):
            g[lo:lo + d * nm, lo:lo + d * nm] = c
            lo += d * nm
    return g


def dilate_from_gram(rho: CPnMap, tol: float = 1e-9) -> StinespringDilation:
    """Independent dilation route through the generator Gram matrix.

    Orthonormalizes the formal generators by eigendecomposition of the
    Gram matrix, columns (alpha, i, u) of x, then solves Phi(e) x = x S_e
    by least squares: column (alpha, i, u) of x S_e is column
    (e alpha, i, u) of x, zero when e e_alpha = 0.  V_i sums the
    generators (e_pp, i, .), as sum_pp e_pp = 1.  Kept as a
    cross-checking oracle; dilate() is the production route.
    """
    require_cpn(rho, tol)
    alg = rho.domain
    n, m = rho.n, rho.codomain_dim
    w, y = np.linalg.eigh(herm(gram_matrix(rho)))
    keep = significant(w, tol)
    x = np.sqrt(w[keep])[:, None] * y[:, keep].conj().T  # generators in an orthonormal basis
    h = len(x)
    # generator (alpha, i, u) at [:, alpha, i, u]; alpha = dim A stands for zero
    gens = np.concatenate([x.reshape(h, alg.dim, n, m), np.zeros((h, 1, n, m))], axis=1)
    images = []
    for eps in range(alg.dim):
        targets = [unit_product_index(alg, eps, alpha) for alpha in range(alg.dim)]
        moved = gens[:, [alg.dim if t is None else t for t in targets]]
        images.append(solve_sandwich(x, moved.reshape(x.shape)))
    vs = np.zeros((h, n, m), dtype=complex)
    for a in [unit_index(alg, k, p, p) for k, d in enumerate(alg.block_dims) for p in range(d)]:
        vs += gens[:, a]
    return StinespringDilation(Representation(alg, h, images), tuple(vs.swapaxes(0, 1)), rho)


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
