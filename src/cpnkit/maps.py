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
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, CStarAlgebra
from .errors import PositivityError, ValidationError, as_index
from .linalg import herm, spectral_norms


@dataclass(frozen=True, eq=False)
class LinearMap:
    """Linear map from a CStarAlgebra into the m x m complex matrices."""

    domain: CStarAlgebra
    codomain_dim: int
    choi_blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        m = as_index(self.codomain_dim, "codomain dimension")
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


def _hermitian_partner(phi: LinearMap) -> LinearMap:
    """a -> phi(a*)*, the entry rho_21 that Hermitian symmetry pairs with
    rho_12 = phi: its Choi blocks are the adjoints of phi's."""
    return _trusted_map(phi.domain, phi.codomain_dim, [c.conj().T for c in phi.choi_blocks])


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
    new array."""
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
    stack, blocks, idx = stack_images(images, domain.dim, m), [], 0
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
    """(..., n, n, d m, d m) stack of entry Choi blocks from flattened Choi
    blocks c (any leading axes) of a d x d algebra block: entry (i, j) of
    it is rho_ij's Choi block."""
    lead = c.shape[:-2]
    axes = tuple(range(len(lead))) + tuple(len(lead) + a for a in (1, 4, 0, 2, 3, 5))
    return c.reshape(*lead, d, n, m, d, n, m).transpose(axes).reshape(
        *lead, n, n, d * m, d * m)


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
    def _block_norms(self) -> list[float]:
        """The flattened Choi block norms, which scale and the verdicts read."""
        return [spectral_norms(c[None]).item() for c in self.flat.choi_blocks]

    @functools.cached_property
    def scale(self) -> float:
        """1 + the largest flattened Choi block norm, computed once per map:
        the storage is immutable, and derived maps are new objects."""
        return 1.0 + max(self._block_norms)

    @functools.cached_property
    def _verdicts(self) -> dict[float, CpnVerdict]:
        """is_completely_n_positive's verdicts by tol, kept like scale."""
        return {}

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
    n = as_index(n, "n")
    if n < 1 or phi.codomain_dim % n != 0:
        raise ValidationError(
            f"codomain dimension {phi.codomain_dim} is not divisible by n={n}")
    rho = object.__new__(CPnMap)
    object.__setattr__(rho, "n", n)
    object.__setattr__(rho, "flat", phi)
    return rho


def _cpn_distances(diffs, block_dims, n: int, m: int) -> list[float]:
    """cpn_distance of k pairs of n x n map matrices of one shape, from the
    flattened Choi blocks of their differences, one (k, d n m, d n m) stack
    per algebra block: one SVD call per block, member i bitwise the
    distance of pair i alone."""
    return [max(dists) for dists in zip(*(
        spectral_norms(_entry_grid(c, d, n, m)).max(axis=(-2, -1), initial=0.0).tolist()
        for d, c in zip(block_dims, diffs)))]


def cpn_distance(rho: CPnMap, theta: CPnMap) -> float:
    """Largest entrywise Choi-block difference; the subtraction checks shapes."""
    diff = rho - theta
    return _cpn_distances([c[None] for c in diff.flat.choi_blocks],
                          diff.domain.block_dims, diff.n, diff.codomain_dim)[0]


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


_MARGIN = 1e-8  # relative slack on each bound, far above its rounding and the SVD's


def _cpn_verdicts(stacks, m: int, tol: float, spectra=None, norms=None) -> list[CpnVerdict]:
    """is_completely_n_positive's verdicts on k maps of one shape, from their
    flattened Choi blocks as one (k, q, q) stack per algebra block and, when
    given, their Hermitian parts' ascending spectra as (k, q) stacks and
    their norms as k-lists.

    Bounds first, each widened by _MARGIN: ||B|| <= m max|B_ij| on the m x m
    sub-blocks B of C - C*, and without norms max|w| <= ||C|| <= ||C||_F.
    Both gates are monotone in the norms, so a member whose skew bound
    passes at the low norms and whose positivity reads alike at both ends
    is settled as the SVDs would settle it.  The rest take, per block, one
    SVD call over the sub-blocks and, without norms, one for the norms.
    Member i is bitwise the verdict on map i alone.
    """
    if spectra is None:
        spectra = [np.linalg.eigvalsh(herm(c)) for c in stacks]
    skews = [c - c.conj().swapaxes(-1, -2) for c in stacks]
    lows = [w[:, 0].tolist() if w.shape[-1] else None for w in spectra]

    def positive(i, block_norms):  # a block with an empty spectrum takes no part
        return not any(low[i] < -tol * (1.0 + norm)
                       for low, norm in zip(lows, block_norms) if low is not None)

    with np.errstate(over="ignore"):  # an overflowed bound is inf and settles nothing
        skew = [(np.abs(s).max(axis=(-2, -1), initial=0.0) * (m * (1.0 + _MARGIN))).tolist()
                for s in skews]
        lo, hi = (norms, norms) if norms is not None else (
            [(np.abs(w).max(axis=-1, initial=0.0) * (1.0 - _MARGIN)).tolist() for w in spectra],
            [(np.linalg.norm(c, axis=(-2, -1)) * (1.0 + _MARGIN)).tolist() for c in stacks])
    member_norms, hi = list(zip(*lo)), list(zip(*hi))
    # sum() carries a NaN or inf of any block (a NaN in C is one in C - C*)
    symmetric = [math.isfinite(sum(b)) and max(b) <= tol * (1.0 + max(ns))
                 for b, ns in zip(zip(*skew), member_norms)]
    open_ = [i for i, sym in enumerate(symmetric)
             if not sym or positive(i, member_norms[i]) != positive(i, hi[i])]
    if open_:
        if norms is None:
            for i, exact in zip(open_, zip(*[spectral_norms(c[open_]).tolist() for c in stacks])):
                member_norms[i] = exact
        asyms = [spectral_norms(subblocks(s[open_], m)).max(axis=(-2, -1), initial=0.0).tolist()
                 for s in skews]
        for j, i in enumerate(open_):
            symmetric[i] = max(a[j] for a in asyms) <= tol * (1.0 + max(member_norms[i]))
    verdicts = []
    for i, (sym, block_norms) in enumerate(zip(symmetric, member_norms)):
        min_eig = min([np.inf] + [low[i] for low in lows if low is not None])
        verdicts.append(CpnVerdict(sym and positive(i, block_norms),
                                   min_eig if math.isfinite(min_eig) else 0.0, sym))
    return verdicts


def is_completely_n_positive(rho: CPnMap, tol: float = 1e-9) -> CpnVerdict:
    """Check complete n-positivity via the flattened Choi blocks.

    Hermitian symmetry is a precondition of positivity; when it fails the
    verdict is false and min_eig reports the spectrum of the Hermitian
    parts as a diagnostic.  Eigenvalues above -tol * (1 + block norm)
    count as nonnegative.

    Symmetry is measured as the largest m x m sub-block of C - C* over
    the flattened Choi blocks C, i.e. max over e_pq and i, j of
    ||rho_ji(e_qp) - rho_ij(e_pq)*||, against tol * (1 + max ||C||).
    The block norms take one SVD call per block, which scale then reads;
    the sub-block norms take one more only when m max|C - C*| does not
    already pass the gate (see _cpn_verdicts).  Decided once per map and
    tol; later calls return the same verdict.
    """
    return _verdict(rho, tol)


def _verdict(rho: CPnMap, tol: float, spectra=None) -> CpnVerdict:
    """rho's verdict at tol, kept on rho, from its block norms and the spectra if given."""
    memo = rho._verdicts
    if tol not in memo:
        memo[tol] = _cpn_verdicts([c[None] for c in rho.flat.choi_blocks], rho.codomain_dim,
                                  tol, spectra, [[x] for x in rho._block_norms])[0]
    return memo[tol]


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
    m, n, rank = (as_index(codomain_dim, "codomain dimension"), as_index(n, "n"),
                  as_index(rank, "rank"))
    if m < 1 or n < 1:
        raise ValidationError("codomain dimension and n must be positive")
    if rank < 0:
        raise ValidationError("rank must be nonnegative")
    blocks = []
    for d in domain.block_dims:
        q = d * n * m
        g = (rng.standard_normal((q, rank)) + 1j * rng.standard_normal((q, rank))) / np.sqrt(2)
        blocks.append(g @ g.conj().T)
    return unflatten(_trusted_map(domain, n * m, blocks), n)
