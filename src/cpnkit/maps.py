"""Linear maps out of a matrix direct-sum algebra, and n x n map matrices.

Storage convention: a LinearMap phi from A = (+)_k M_{d_k} into the
m x m matrices keeps one Choi block per algebra block,

    C_k[(p, a), (q, b)] = phi(e_pq^(k))[a, b],

with the composite row index p * m + a.  Equivalently
C_k = sum_pq E_pq (x) phi(E_pq).  A CPnMap is an n x n matrix
[rho_ij] of such maps with a common domain and codomain; its flatten
is the single map a -> [rho_ij(a)] into the (n m) x (n m) matrices,
complete n-positivity of [rho_ij] being complete positivity of the
flatten, i.e. positive semidefinite flattened Choi blocks.

The flatten is the one stored form of a CPnMap: flatten is an attribute
read, unflatten wraps without copying and the entries are built on
demand.  LinearMap(...) and CPnMap(entries) validate their input; maps
derived from validated ones (sums, scalar multiples, compressions) are
not validated again.  All Choi blocks are read-only arrays.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, CStarAlgebra
from .errors import PositivityError, ValidationError
from .linalg import herm, spectral_norm


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Linear map from a CStarAlgebra into the m x m complex matrices."""

    domain: CStarAlgebra
    codomain_dim: int
    choi_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = int(self.codomain_dim)
        if m < 1:
            raise ValidationError(f"codomain dimension must be positive, got {m}")
        object.__setattr__(self, "codomain_dim", m)
        blocks = tuple(np.array(b, dtype=complex) for b in self.choi_blocks)
        if len(blocks) != self.domain.num_blocks:
            raise ValidationError(
                f"expected {self.domain.num_blocks} Choi blocks, got {len(blocks)}")
        for k, (b, d) in enumerate(zip(blocks, self.domain.block_dims)):
            if b.shape != (d * m, d * m):
                raise ValidationError(
                    f"Choi block {k} must have shape {(d * m, d * m)}, got {b.shape}")
            b.flags.writeable = False
        object.__setattr__(self, "choi_blocks", blocks)

    def _binary(self, other, op):
        if not isinstance(other, LinearMap):
            return NotImplemented
        if other.domain != self.domain or other.codomain_dim != self.codomain_dim:
            raise ValidationError("maps have different domain or codomain")
        return _trusted_map(self.domain, self.codomain_dim,
                            [op(a, b) for a, b in zip(self.choi_blocks, other.choi_blocks)])

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return _trusted_map(self.domain, self.codomain_dim, [-b for b in self.choi_blocks])

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return _trusted_map(self.domain, self.codomain_dim,
                                [(scalar * b).astype(complex, copy=False)
                                 for b in self.choi_blocks])
        return NotImplemented

    __rmul__ = __mul__


def _trusted_map(domain: CStarAlgebra, codomain_dim: int, blocks) -> LinearMap:
    """LinearMap around complex Choi blocks the library computed, with the
    right shapes, from validated data: made read-only, not validated again."""
    phi = object.__new__(LinearMap)
    for b in blocks:
        b.flags.writeable = False
    object.__setattr__(phi, "domain", domain)
    object.__setattr__(phi, "codomain_dim", codomain_dim)
    object.__setattr__(phi, "choi_blocks", tuple(blocks))
    return phi


def apply_map(phi: LinearMap, a: AlgebraElement) -> np.ndarray:
    """Evaluate phi on an algebra element."""
    if a.algebra != phi.domain:
        raise ValidationError("element is not in the map's domain")
    m = phi.codomain_dim
    out = np.zeros((m, m), dtype=complex)
    for blk, c in zip(a.blocks, phi.choi_blocks):
        d = blk.shape[0]
        out += np.einsum("pq,paqb->ab", blk, c.reshape(d, m, d, m))
    return out


def subblocks(a: np.ndarray, m: int) -> np.ndarray:
    """View of a (..., R m, C m) array as its (..., R, C, m, m) grid of m x m blocks.

    On a flattened Choi block (composite index (p, i, a)) the block at
    ((p, i), (q, j)) is rho_ij(e_pq); on a flattened image (index (i, a))
    the block at (i, j) is rho_ij(e).
    """
    *lead, rows, cols = a.shape
    return a.reshape(*lead, rows // m, m, cols // m, m).swapaxes(-3, -2)


def stack_images(images, count: int, dim: int) -> np.ndarray:
    """Validated (count, dim, dim) complex stack of matrix-unit images, a
    new array; an array of that shape needs no image-by-image check."""
    if not (isinstance(images, np.ndarray) and images.shape == (count, dim, dim)):
        images = list(images)
        if len(images) != count:
            raise ValidationError(f"expected {count} images, got {len(images)}")
        for idx, img in enumerate(images):
            if np.shape(img) != (dim, dim):
                raise ValidationError(
                    f"image {idx} must have shape {(dim, dim)}, got {np.shape(img)}")
    return np.array(images, dtype=complex).reshape(count, dim, dim)


def map_from_images(domain: CStarAlgebra, codomain_dim: int, images) -> LinearMap:
    """Build a LinearMap from its values on the matrix units (canonical order)."""
    m = codomain_dim
    stack = stack_images(images, domain.dim, m)
    blocks = []
    idx = 0
    for d in domain.block_dims:
        grid = stack[idx:idx + d * d].reshape(d, d, m, m)
        blocks.append(grid.swapaxes(1, 2).reshape(d * m, d * m))
        idx += d * d
    return _trusted_map(domain, m, blocks)


def images_of(phi: LinearMap) -> np.ndarray:
    """Values of phi on the matrix units, in canonical order, as a
    (dim A, m, m) stack."""
    m = phi.codomain_dim
    return np.concatenate([subblocks(c, m).reshape(d * d, m, m)
                           for d, c in zip(phi.domain.block_dims, phi.choi_blocks)])


def identity_map(domain: CStarAlgebra) -> LinearMap:
    """The defining representation a -> diag(a_1, ..., a_K) as a map.

    Its Choi block k is w w^T with w[(p, a)] = [a = o_k + p], o_k the
    offset of block k in the diagonal."""
    m = sum(domain.block_dims)
    offsets = np.cumsum((0,) + domain.block_dims)
    ws = [np.eye(m)[o:o + d].ravel() for o, d in zip(offsets, domain.block_dims)]
    return LinearMap(domain, m, tuple(np.outer(w, w) for w in ws))


def compression_map(domain: CStarAlgebra, block: int) -> LinearMap:
    """The block compression a -> a_block: Choi block w w^T, w = vec(I), on
    that block and zero on the others."""
    if not 0 <= block < domain.num_blocks:
        raise ValidationError(f"block index {block} out of range")
    m = domain.block_dims[block]
    w = np.eye(m).ravel()
    return LinearMap(domain, m, tuple(np.outer(w, w) if k == block else np.zeros((d * m, d * m))
                                      for k, d in enumerate(domain.block_dims)))


def depolarizing_map(d: int) -> LinearMap:
    """a -> tr(a) I_d / d on the single-block algebra M_d; its Choi block is I / d."""
    return LinearMap(CStarAlgebra((d,)), d, (np.eye(d * d) / d,))


def trace_map(domain: CStarAlgebra) -> LinearMap:
    """a -> [sum_k tr(a_k)] into the 1 x 1 matrices; its Choi blocks are identities."""
    return LinearMap(domain, 1, tuple(np.eye(d) for d in domain.block_dims))


def zero_map(domain: CStarAlgebra, codomain_dim: int) -> LinearMap:
    m = codomain_dim
    return LinearMap(domain, m, tuple(
        np.zeros((d * m, d * m), dtype=complex) for d in domain.block_dims))


def _entry_grid(c: np.ndarray, d: int, n: int, m: int) -> np.ndarray:
    """(n, n, d m, d m) stack of entry Choi blocks from a flattened Choi block
    c of a d x d algebra block: entry (i, j) of it is rho_ij's Choi block."""
    return c.reshape(d, n, m, d, n, m).transpose(1, 4, 0, 2, 3, 5).reshape(n, n, d * m, d * m)


@dataclass(frozen=True, eq=False, init=False)
class CPnMap:
    """n x n matrix [rho_ij] of linear maps with common domain and codomain,
    stored as its flatten."""

    n: int
    flat: LinearMap

    def __init__(self, entries):
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValidationError("entries must form a nonempty square matrix of maps")
        first = entries[0][0]
        for row in entries:
            for e in row:
                if e.domain != first.domain or e.codomain_dim != first.codomain_dim:
                    raise ValidationError("all entries must share domain and codomain")
        m = first.codomain_dim
        blocks = []
        for k, d in enumerate(first.domain.block_dims):
            c = np.array([[e.choi_blocks[k] for e in row] for row in entries])
            # (i, j, p, a, q, b) -> composite indices (p, i, a), (q, j, b)
            blocks.append(c.reshape(n, n, d, m, d, m).transpose(2, 0, 3, 4, 1, 5)
                          .reshape(d * n * m, d * n * m))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "flat", _trusted_map(first.domain, n * m, blocks))
        self.__dict__["entries"] = entries

    @functools.cached_property
    def entries(self) -> tuple[tuple[LinearMap, ...], ...]:
        """The maps rho_ij, read off the flatten on first use."""
        n, m = self.n, self.codomain_dim
        grids = [_entry_grid(c, d, n, m)
                 for d, c in zip(self.domain.block_dims, self.flat.choi_blocks)]
        return tuple(tuple(_trusted_map(self.domain, m, [g[i, j] for g in grids])
                           for j in range(n)) for i in range(n))

    @functools.cached_property
    def scale(self) -> float:
        """1 + the largest flattened Choi block norm, computed once per map:
        the storage is immutable, and derived maps are new objects."""
        return 1.0 + max(spectral_norm(b) for b in self.flat.choi_blocks)

    @property
    def domain(self) -> CStarAlgebra:
        return self.flat.domain

    @property
    def codomain_dim(self) -> int:
        return self.flat.codomain_dim // self.n

    def entry(self, i: int, j: int) -> LinearMap:
        return self.entries[i][j]

    def _binary(self, other, op):
        if not isinstance(other, CPnMap):
            return NotImplemented
        if other.n != self.n:
            raise ValidationError("map matrices have different size")
        return unflatten(op(self.flat, other.flat), self.n)

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return unflatten(scalar * self.flat, self.n)
        return NotImplemented

    __rmul__ = __mul__


def as_cpn(phi: LinearMap) -> CPnMap:
    """Wrap a single map as a 1 x 1 CPnMap."""
    return unflatten(phi, 1)


def flatten(rho: CPnMap) -> LinearMap:
    """The associated single map a -> [rho_ij(a)] into the (n m) x (n m) matrices.

    Block row i of the output is rho_i1(a) ... rho_in(a); the composite
    codomain index is i * m + a.
    """
    return rho.flat


def unflatten(phi: LinearMap, n: int) -> CPnMap:
    """Inverse of flatten: phi read as an n x n map matrix, without copying;
    codomain_dim of phi must be divisible by n."""
    n = operator.index(n)
    if n < 1 or phi.codomain_dim % n != 0:
        raise ValidationError(
            f"codomain dimension {phi.codomain_dim} is not divisible by n={n}")
    rho = object.__new__(CPnMap)
    object.__setattr__(rho, "n", n)
    object.__setattr__(rho, "flat", phi)
    return rho


def cpn_distance(rho: CPnMap, theta: CPnMap) -> float:
    """Largest entrywise Choi-block difference; the subtraction checks shapes."""
    diff = rho - theta
    return max(spectral_norm(_entry_grid(c, d, diff.n, diff.codomain_dim))
               for d, c in zip(diff.domain.block_dims, diff.flat.choi_blocks))


def check_hermitian_symmetry(rho: CPnMap, tol: float = 1e-9) -> bool:
    """Whether rho_ji(a*) = rho_ij(a)* holds on all matrix units, to tol."""
    return is_completely_n_positive(rho, tol).hermitian_symmetric


@dataclass(frozen=True)
class CpnVerdict:
    """Result of a complete n-positivity check."""

    verdict: bool
    min_eig: float
    hermitian_symmetric: bool

    def require(self) -> CpnVerdict:
        """Return self, or raise PositivityError when the verdict is negative."""
        if not self.verdict:
            if not self.hermitian_symmetric:
                raise PositivityError(
                    "map matrix is not Hermitian-symmetric", min_eig=self.min_eig)
            raise PositivityError(
                f"map is not completely n-positive (min eigenvalue {self.min_eig:.3e})",
                min_eig=self.min_eig)
        return self


def cpn_verdict(flat: LinearMap, m: int, spectra, tol: float) -> CpnVerdict:
    """is_completely_n_positive's verdict from flat = flatten(rho), m and the
    ascending spectra of herm(C) for flat's Choi blocks C, so that a caller
    needing eigenvectors too decomposes each block once."""
    norms = [spectral_norm(c) for c in flat.choi_blocks]
    asymmetry = max(spectral_norm(subblocks(c - c.conj().T, m))
                    for c in flat.choi_blocks)
    symmetric = asymmetry <= tol * (1.0 + max(norms))
    min_eig = np.inf
    positive = True
    for w, norm in zip(spectra, norms):
        if w.size == 0:
            continue
        min_eig = min(min_eig, float(w[0]))
        if w[0] < -tol * (1.0 + norm):
            positive = False
    if not np.isfinite(min_eig):
        min_eig = 0.0
    return CpnVerdict(bool(symmetric and positive), float(min_eig), bool(symmetric))


def is_completely_n_positive(rho: CPnMap, tol: float = 1e-9) -> CpnVerdict:
    """Check complete n-positivity via the flattened Choi blocks.

    Hermitian symmetry is a precondition of positivity; when it fails the
    verdict is false and min_eig reports the spectrum of the Hermitian
    parts as a diagnostic.  Eigenvalues above -tol * (1 + block norm)
    count as nonnegative.

    Symmetry is measured as the largest m x m sub-block of C - C* over
    the flattened Choi blocks C, i.e. max over e_pq and i, j of
    ||rho_ji(e_qp) - rho_ij(e_pq)*||, against tol * (1 + max ||C||).
    """
    flat = rho.flat
    return cpn_verdict(flat, rho.codomain_dim,
                       [np.linalg.eigvalsh(herm(c)) for c in flat.choi_blocks], tol)


def order_leq(theta: CPnMap, rho: CPnMap, tol: float = 1e-9) -> bool:
    """Whether theta <= rho, i.e. rho - theta is completely n-positive.

    Only the difference is examined; theta itself is not required to be
    completely n-positive.
    """
    if theta.n != rho.n or theta.domain != rho.domain \
            or theta.codomain_dim != rho.codomain_dim:
        raise ValidationError("maps are not comparable: different shape or spaces")
    return is_completely_n_positive(rho - theta, tol).verdict


def require_cpn(rho: CPnMap, tol: float = 1e-9) -> CpnVerdict:
    """Raise PositivityError unless rho is completely n-positive."""
    return is_completely_n_positive(rho, tol).require()


def random_cpn_map(domain: CStarAlgebra, codomain_dim: int, n: int, rank: int,
                   rng: np.random.Generator) -> CPnMap:
    """Random completely n-positive map with flattened Choi rank <= rank per block.

    Each flattened Choi block is G G* for a complex Gaussian factor G of
    shape (d_k n m, rank), which makes the output completely n-positive
    and Hermitian-symmetric by construction.  rank = 0 gives the zero map.
    """
    if codomain_dim < 1 or n < 1:
        raise ValidationError("codomain dimension and n must be positive")
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    m = codomain_dim
    blocks = []
    for d in domain.block_dims:
        q = d * n * m
        g = (rng.standard_normal((q, rank)) + 1j * rng.standard_normal((q, rank))) / np.sqrt(2)
        blocks.append(g @ g.conj().T)
    return unflatten(_trusted_map(domain, n * m, blocks), n)
