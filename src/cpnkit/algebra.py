"""Finite-dimensional C*-algebras as direct sums of full matrix blocks.

An algebra is determined by its tuple of block sizes (d_1, ..., d_K);
elements are tuples of complex d_k x d_k matrices.  The canonical basis
of matrix units is ordered block-major, then row-major inside a block,
and every coordinate vector in the package follows that order; flat
indices, adjoints and products of matrix units are arithmetic on it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_index
from .linalg import spectral_norm


@dataclass(frozen=True)
class CStarAlgebra:
    """Direct sum of full matrix algebras M_{d_1} + ... + M_{d_K}."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(as_index(d, "block dimension") for d in self.block_dims)
        if len(dims) == 0:
            raise ValidationError("algebra needs at least one block")
        if any(d < 1 for d in dims):
            raise ValidationError(f"block dimensions must be positive, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @functools.cached_property
    def dim(self) -> int:
        """Linear dimension: sum of squared block sizes."""
        return sum(d * d for d in self.block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.eye(d, dtype=complex) for d in self.block_dims))

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(np.zeros((d, d), dtype=complex) for d in self.block_dims))


def make_algebra(block_dims) -> CStarAlgebra:
    """Build the direct-sum algebra with the given block sizes."""
    return CStarAlgebra(tuple(block_dims))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Element of a CStarAlgebra: one complex matrix per block.

    Immutable after construction; all arithmetic returns new elements.
    """

    algebra: CStarAlgebra
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(np.array(b, dtype=complex) for b in self.blocks)
        if len(blocks) != self.algebra.num_blocks:
            raise ValidationError(
                f"expected {self.algebra.num_blocks} blocks, got {len(blocks)}")
        for k, (b, d) in enumerate(zip(blocks, self.algebra.block_dims)):
            if b.shape != (d, d):
                raise ValidationError(
                    f"block {k} must have shape {(d, d)}, got {b.shape}")
            b.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    def _binary(self, other, op):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if other.algebra != self.algebra:
            raise ValidationError("elements live in different algebras")
        return AlgebraElement(self.algebra,
                              tuple(op(a, b) for a, b in zip(self.blocks, other.blocks)))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-b for b in self.blocks))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex, np.number)):
            return AlgebraElement(self.algebra, tuple(scalar * b for b in self.blocks))
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other):
        return self._binary(other, np.matmul)

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, tuple(b.conj().T for b in self.blocks))

    def coords(self) -> np.ndarray:
        """Coordinates against the matrix-unit basis (block-major, row-major)."""
        return np.concatenate([b.ravel() for b in self.blocks])

    @functools.cached_property
    def _norm(self) -> float:
        """cstar_norm, kept like CPnMap.scale: the blocks are read-only."""
        return max(spectral_norm(b) for b in self.blocks)


def element_from_coords(algebra: CStarAlgebra, coords: np.ndarray) -> AlgebraElement:
    coords = np.asarray(coords, dtype=complex).ravel()
    if coords.size != algebra.dim:
        raise ValidationError(
            f"coordinate vector must have length {algebra.dim}, got {coords.size}")
    dims = algebra.block_dims
    parts = np.split(coords, np.cumsum([d * d for d in dims])[:-1])  # block k's d_k^2 coordinates
    return AlgebraElement(algebra, tuple(c.reshape(d, d) for d, c in zip(dims, parts)))


def unit_index(algebra: CStarAlgebra, k: int, p: int, q: int) -> int:
    """Flat index of e_pq^(k): sum_{l < k} d_l^2 + p d_k + q."""
    off = sum(d * d for d in algebra.block_dims[:k])
    return off + p * algebra.block_dims[k] + q


def _unit_of(algebra: CStarAlgebra, idx: int) -> tuple[int, int, int]:
    """(k, p, q) of the matrix unit with flat index idx, walking the block sizes."""
    i = as_index(idx, "matrix-unit index")
    if not 0 <= i < algebra.dim:
        raise ValidationError(f"matrix-unit index {i} out of range for dimension {algebra.dim}")
    for k, d in enumerate(algebra.block_dims):
        if i < d * d:
            return (k, *divmod(i, d))
        i -= d * d


def matrix_units(algebra: CStarAlgebra) -> list[AlgebraElement]:
    """The canonical basis e_pq^(k), block-major then row-major: the
    elements whose coordinates are the rows of the identity."""
    return [element_from_coords(algebra, row) for row in np.eye(algebra.dim)]


def star_index(algebra: CStarAlgebra, idx: int) -> int:
    """Index of e_qp^(k) = (e_pq^(k))*, e_pq^(k) the unit with flat index idx."""
    k, p, q = _unit_of(algebra, idx)
    return unit_index(algebra, k, q, p)


def unit_product_index(algebra: CStarAlgebra, i: int, j: int) -> int | None:
    """Flat index of e_i @ e_j, or None when the product vanishes.

    Products of matrix units are again matrix units or zero:
    e_pq^(k) e_rs^(k') = delta_kk' delta_qr e_ps^(k).
    """
    (k1, p1, q1), (k2, p2, q2) = _unit_of(algebra, i), _unit_of(algebra, j)
    if k1 != k2 or q1 != p2:
        return None
    return unit_index(algebra, k1, p1, q2)


def cstar_norm(a: AlgebraElement) -> float:
    """C*-norm: the largest block spectral norm, one SVD per block on the
    first call for a, a cached read after."""
    return a._norm


def distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """C*-norm of the difference.  Equality means distance below tol."""
    return cstar_norm(a - b)


def is_unitary(a: AlgebraElement, tol: float = 1e-9) -> bool:
    u = a.algebra.unit()
    return (distance(a.adjoint() @ a, u) <= tol * (1.0 + cstar_norm(a))
            and distance(a @ a.adjoint(), u) <= tol * (1.0 + cstar_norm(a)))


def random_element(algebra: CStarAlgebra, rng: np.random.Generator) -> AlgebraElement:
    """Complex Gaussian element; entries have unit variance."""
    blocks = tuple(
        (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
        for d in algebra.block_dims)
    return AlgebraElement(algebra, blocks)
