"""Finite towers of matrix direct-sum algebras with surjective connecting maps.

A tower is a chain A_1 <- A_2 <- ... <- A_N of algebras together with
surjective unital *-homomorphisms pi_p : A_{p+1} -> A_p, stored as
coordinate matrices against the matrix-unit bases (column alpha holds
the coordinates of pi(e_alpha)).  A coherent thread is a tuple
(a_1, ..., a_N) with pi_p(a_{p+1}) = a_p; the level seminorms
p(a) = ||a_p|| are then nondecreasing in p.  A continuous map matrix is
one factoring through a single level: it is evaluated by applying its
base to the thread component at that level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (AlgebraElement, CStarAlgebra, cstar_norm, distance,
                      element_from_coords, unit_index)
from .dilation import Representation, verify_representation
from .errors import ValidationError
from .maps import CPnMap, apply_map, flatten, identity_map, images_of
from .linalg import numerical_rank, spectral_norm


@dataclass(frozen=True, eq=False)
class Tower:
    """Levels A_1 .. A_N (coarse to fine) and connecting coordinate matrices."""

    levels: tuple[CStarAlgebra, ...]
    connecting: tuple[np.ndarray, ...]

    def __post_init__(self):
        levels = tuple(self.levels)
        if len(levels) == 0:
            raise ValidationError("tower needs at least one level")
        mats = tuple(np.array(c, dtype=complex) for c in self.connecting)
        if len(mats) != len(levels) - 1:
            raise ValidationError(
                f"expected {len(levels) - 1} connecting maps, got {len(mats)}")
        for p, c in enumerate(mats):
            want = (levels[p].dim, levels[p + 1].dim)
            if c.shape != want:
                raise ValidationError(
                    f"connecting map {p} must have shape {want}, got {c.shape}")
            c.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "connecting", mats)

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def apply_connecting(tower: Tower, p: int, a: AlgebraElement) -> AlgebraElement:
    """pi_p applied to an element of level p+1 (levels are 1-based, p in 1..N-1)."""
    if not 1 <= p <= tower.num_levels - 1:
        raise ValidationError(f"connecting index {p} out of range")
    if a.algebra != tower.levels[p]:
        raise ValidationError(f"element is not in level {p + 1}")
    coords = tower.connecting[p - 1] @ a.coords()
    return element_from_coords(tower.levels[p - 1], coords)


def make_tower(levels, connecting, tol: float = 1e-9) -> Tower:
    """Build a tower and verify every connecting map is a surjective
    unital *-homomorphism; violations raise ValidationError naming the
    level and the failed axiom.

    The *-homomorphism residuals are verify_representation's on pi embedded
    block-diagonally, whose spectral norm is the C*-norm on (+) M_d.
    """
    tower = Tower(tuple(levels), tuple(connecting))
    for p in range(1, tower.num_levels):
        upper = tower.levels[p]
        lower = tower.levels[p - 1]
        mat = tower.connecting[p - 1]
        # pi(e_alpha) = sum_beta mat[beta, alpha] e_beta, block-diagonally
        embedded = np.tensordot(mat.T, images_of(identity_map(lower)), 1)
        report = verify_representation(
            Representation(upper, sum(lower.block_dims), embedded), tol)
        bound = tol * (1.0 + spectral_norm(mat))
        for residual, axiom in ((report.star_residual, "*-preserving"),
                                (report.multiplicative_residual, "multiplicative"),
                                (report.unital_residual, "unital")):
            if residual > bound:
                raise ValidationError(f"connecting map {p} is not {axiom}")
        if numerical_rank(mat, tol) != lower.dim:
            raise ValidationError(f"connecting map {p} is not surjective")
    return tower


def check_thread(tower: Tower, thread, tol: float = 1e-9) -> list[float]:
    """Coherence residuals ||pi_p(a_{p+1}) - a_p||; raises on mismatch."""
    thread = tuple(thread)
    if len(thread) != tower.num_levels:
        raise ValidationError(
            f"thread must have {tower.num_levels} components, got {len(thread)}")
    for p, a in enumerate(thread):
        if a.algebra != tower.levels[p]:
            raise ValidationError(f"thread component {p + 1} is in the wrong algebra")
    residuals = []
    for p in range(1, tower.num_levels):
        down = apply_connecting(tower, p, thread[p])
        res = distance(down, thread[p - 1])
        scale = 1.0 + cstar_norm(thread[p])
        if res > tol * scale:
            raise ValidationError(
                f"thread is not coherent at level {p}: residual {res:.3e}")
        residuals.append(res)
    return residuals


def seminorm(tower: Tower, k: int, thread, tol: float = 1e-9) -> float:
    """The level-k seminorm of a coherent thread: ||a_k||."""
    if not 1 <= k <= tower.num_levels:
        raise ValidationError(f"level {k} out of range")
    check_thread(tower, thread, tol)
    return cstar_norm(tuple(thread)[k - 1])


@dataclass(frozen=True, eq=False)
class ContinuousCPnMap:
    """Map matrix on a tower that factors through the level-k algebra."""

    tower: Tower
    level: int
    base: CPnMap

    def __post_init__(self):
        if not 1 <= self.level <= self.tower.num_levels:
            raise ValidationError(f"level {self.level} out of range")
        if self.base.domain != self.tower.levels[self.level - 1]:
            raise ValidationError("base map domain does not match the tower level")


def evaluate_continuous_map(cm: ContinuousCPnMap, thread,
                            tol: float = 1e-9) -> np.ndarray:
    """Evaluate on a coherent thread: the flattened block matrix
    [rho_ij(a_k)] of shape (n m) x (n m).
    """
    check_thread(cm.tower, thread, tol)
    a = tuple(thread)[cm.level - 1]
    return apply_map(flatten(cm.base), a)


def projection_tower(dims_upper, keep_blocks, tol: float = 1e-9) -> Tower:
    """Two-level helper: A_2 = (+) M_d over dims_upper, A_1 the sub-sum over
    keep_blocks, connecting map the block projection: its matrix is the rows
    of I_{dim A_2} at the kept blocks' coordinates, in keep_blocks order."""
    upper = CStarAlgebra(tuple(dims_upper))
    lower = CStarAlgebra(tuple(dims_upper[b] for b in keep_blocks))
    kept = [unit_index(upper, b, 0, 0) + i
            for b in keep_blocks for i in range(upper.block_dims[b] ** 2)]
    return make_tower((lower, upper), (np.eye(upper.dim, dtype=complex)[kept],), tol)
