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
"""
from __future__ import annotations

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
        return LinearMap(self.domain, self.codomain_dim,
                         tuple(op(a, b) for a, b in zip(self.choi_blocks, other.choi_blocks)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return LinearMap(self.domain, self.codomain_dim, tuple(-b for b in self.choi_blocks))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return LinearMap(self.domain, self.codomain_dim,
                             tuple(scalar * b for b in self.choi_blocks))
        return NotImplemented

    __rmul__ = __mul__


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
    """Validated (count, dim, dim) complex stack of matrix-unit images."""
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
    return LinearMap(domain, m, tuple(blocks))


def images_of(phi: LinearMap) -> np.ndarray:
    """Values of phi on the matrix units, in canonical order, as a
    (dim A, m, m) stack."""
    m = phi.codomain_dim
    return np.concatenate([subblocks(c, m).reshape(d * d, m, m)
                           for d, c in zip(phi.domain.block_dims, phi.choi_blocks)])


def identity_map(domain: CStarAlgebra) -> LinearMap:
    """The defining representation a -> diag(a_1, ..., a_K) as a map."""
    m = sum(domain.block_dims)
    images = []
    off = 0
    for d in domain.block_dims:
        for p in range(d):
            for q in range(d):
                img = np.zeros((m, m), dtype=complex)
                img[off + p, off + q] = 1.0
                images.append(img)
        off += d
    return map_from_images(domain, m, images)


def compression_map(domain: CStarAlgebra, block: int) -> LinearMap:
    """The block compression a -> a_block."""
    if not 0 <= block < domain.num_blocks:
        raise ValidationError(f"block index {block} out of range")
    m = domain.block_dims[block]
    images = []
    for k, d in enumerate(domain.block_dims):
        for p in range(d):
            for q in range(d):
                img = np.zeros((m, m), dtype=complex)
                if k == block:
                    img[p, q] = 1.0
                images.append(img)
    return map_from_images(domain, m, images)


def depolarizing_map(d: int) -> LinearMap:
    """a -> tr(a) I_d / d on the single-block algebra M_d."""
    domain = CStarAlgebra((d,))
    images = []
    for p in range(d):
        for q in range(d):
            img = np.eye(d, dtype=complex) / d if p == q else np.zeros((d, d), dtype=complex)
            images.append(img)
    return map_from_images(domain, d, images)


def trace_map(domain: CStarAlgebra) -> LinearMap:
    """a -> [sum_k tr(a_k)] into the 1 x 1 matrices."""
    images = []
    for d in domain.block_dims:
        for p in range(d):
            for q in range(d):
                images.append(np.array([[1.0 + 0j if p == q else 0.0]]))
    return map_from_images(domain, 1, images)


def zero_map(domain: CStarAlgebra, codomain_dim: int) -> LinearMap:
    m = codomain_dim
    return LinearMap(domain, m, tuple(
        np.zeros((d * m, d * m), dtype=complex) for d in domain.block_dims))


@dataclass(frozen=True, eq=False)
class CPnMap:
    """n x n matrix [rho_ij] of linear maps with common domain and codomain."""

    entries: tuple[tuple[LinearMap, ...], ...]

    def __post_init__(self):
        entries = tuple(tuple(row) for row in self.entries)
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise ValidationError("entries must form a nonempty square matrix of maps")
        first = entries[0][0]
        for row in entries:
            for e in row:
                if e.domain != first.domain or e.codomain_dim != first.codomain_dim:
                    raise ValidationError("all entries must share domain and codomain")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def domain(self) -> CStarAlgebra:
        return self.entries[0][0].domain

    @property
    def codomain_dim(self) -> int:
        return self.entries[0][0].codomain_dim

    def entry(self, i: int, j: int) -> LinearMap:
        return self.entries[i][j]

    def _binary(self, other, op):
        if not isinstance(other, CPnMap):
            return NotImplemented
        if other.n != self.n:
            raise ValidationError("map matrices have different size")
        return CPnMap(tuple(tuple(op(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return CPnMap(tuple(tuple(scalar * e for e in row) for row in self.entries))
        return NotImplemented

    __rmul__ = __mul__


def cpn_from_entries(entries) -> CPnMap:
    return CPnMap(tuple(tuple(row) for row in entries))


def as_cpn(phi: LinearMap) -> CPnMap:
    """Wrap a single map as a 1 x 1 CPnMap."""
    return CPnMap(((phi,),))


def _entry_choi_blocks(rho: CPnMap, k: int) -> np.ndarray:
    """(n, n, d_k m, d_k m) stack of the entries' Choi blocks for algebra block k."""
    return np.array([[e.choi_blocks[k] for e in row] for row in rho.entries])


def flatten(rho: CPnMap) -> LinearMap:
    """The associated single map a -> [rho_ij(a)] into the (n m) x (n m) matrices.

    Block row i of the output is rho_i1(a) ... rho_in(a); the composite
    codomain index is i * m + a.
    """
    n, m = rho.n, rho.codomain_dim
    blocks = []
    for k, d in enumerate(rho.domain.block_dims):
        c = _entry_choi_blocks(rho, k).reshape(n, n, d, m, d, m)  # (i, j, p, a, q, b)
        blocks.append(c.transpose(2, 0, 3, 4, 1, 5).reshape(d * n * m, d * n * m))
    return LinearMap(rho.domain, n * m, tuple(blocks))


def unflatten(phi: LinearMap, n: int) -> CPnMap:
    """Inverse of flatten; codomain_dim of phi must be divisible by n."""
    if n < 1 or phi.codomain_dim % n != 0:
        raise ValidationError(
            f"codomain dimension {phi.codomain_dim} is not divisible by n={n}")
    m = phi.codomain_dim // n
    # per algebra block, the (n, n, d m, d m) stack of entry Choi blocks
    grids = [c.reshape(d, n, m, d, n, m).transpose(1, 4, 0, 2, 3, 5).reshape(n, n, d * m, d * m)
             for d, c in zip(phi.domain.block_dims, phi.choi_blocks)]
    return CPnMap(tuple(tuple(LinearMap(phi.domain, m, tuple(g[i, j] for g in grids))
                              for j in range(n)) for i in range(n)))


def cpn_scale(rho: CPnMap) -> float:
    """1 + the largest flattened Choi block norm; the relative-tolerance scale."""
    return 1.0 + max(spectral_norm(b) for b in flatten(rho).choi_blocks)


def map_distance(phi: LinearMap, psi: LinearMap) -> float:
    """Largest Choi-block spectral-norm difference."""
    if phi.domain != psi.domain or phi.codomain_dim != psi.codomain_dim:
        raise ValidationError("maps have different domain or codomain")
    return max(spectral_norm(a - b) for a, b in zip(phi.choi_blocks, psi.choi_blocks))


def cpn_distance(rho: CPnMap, theta: CPnMap) -> float:
    """Largest entrywise Choi-block difference."""
    if rho.n != theta.n:
        raise ValidationError("map matrices have different size")
    if rho.domain != theta.domain or rho.codomain_dim != theta.codomain_dim:
        raise ValidationError("maps have different domain or codomain")
    return max(spectral_norm(_entry_choi_blocks(rho, k) - _entry_choi_blocks(theta, k))
               for k in range(rho.domain.num_blocks))


def check_hermitian_symmetry(rho: CPnMap, tol: float = 1e-9) -> bool:
    """Whether rho_ji(a*) = rho_ij(a)* holds on all matrix units, to tol."""
    return is_completely_n_positive(rho, tol).hermitian_symmetric


@dataclass(frozen=True)
class CpnVerdict:
    """Result of a complete n-positivity check."""

    verdict: bool
    min_eig: float
    hermitian_symmetric: bool


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
    flat = flatten(rho)
    norms = [spectral_norm(c) for c in flat.choi_blocks]
    asymmetry = max(spectral_norm(subblocks(c - c.conj().T, rho.codomain_dim))
                    for c in flat.choi_blocks)
    symmetric = asymmetry <= tol * (1.0 + max(norms))
    min_eig = np.inf
    positive = True
    for c, norm in zip(flat.choi_blocks, norms):
        w = np.linalg.eigvalsh(herm(c))
        if w.size == 0:
            continue
        min_eig = min(min_eig, float(w[0]))
        if w[0] < -tol * (1.0 + norm):
            positive = False
    if not np.isfinite(min_eig):
        min_eig = 0.0
    return CpnVerdict(bool(symmetric and positive), float(min_eig), bool(symmetric))


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
    chk = is_completely_n_positive(rho, tol)
    if not chk.verdict:
        if not chk.hermitian_symmetric:
            raise PositivityError(
                "map matrix is not Hermitian-symmetric", min_eig=chk.min_eig)
        raise PositivityError(
            f"map is not completely n-positive (min eigenvalue {chk.min_eig:.3e})",
            min_eig=chk.min_eig)
    return chk


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
    flat = LinearMap(domain, n * m, tuple(blocks))
    return unflatten(flat, n)
