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

The minimal dilation is unique up to unitary equivalence, and every
verdict here runs on a canonical one, whose representation is (+)_k a_k
(x) I_{r_k}: dilate()'s, or a given dilation's canonicalize() output
(any other raises ValidationError).  There the commutant is (+)_k
I_{d_k} (x) M_{r_k} and the intertwiners are (+)_k I_{d_k} (x)
M_{s_k x r_k}, and no verdict builds the H x H commutant basis:
is_extreme and extension_witness read the block rows A_k of V.
is_extreme proves T -> V* T V injective, or of full rank
N = min((n m)^2, sum r_k^2), by a Cholesky of the small-side Gram of its
matrix M, built from those rows and shifted down by delta = cut^2 + eta,
cut the rank cutoff tol (1 + s_max) bounded from above and eta the
Gram's rounding plus Cholesky's backward error; M and its SVD are built
only when that proof fails.
is_pure and is_extreme refuse a given dilation that is not minimal
(ValidationError).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import cstar_norm, distance, is_unitary
from .dilation import (CommutantBasis, StinespringDilation, _minimal_commutant,
                       commutant, dilate, dilation_of, rep_apply)
from .errors import CertificationError, ValidationError
from .linalg import herm, numerical_rank, rank_cutoff, spectral_norm, spectral_norms
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
    sum_k r_k s_k = 0 over the multiplicities of the two dilations.

    Both inputs must be completely positive (n = 1) maps with a common
    domain and codomain.
    """
    c1, c2 = _pair_commutants(rho11, rho22, tol)[2:]
    return sum(r * s for r, s in zip(c1.multiplicities, c2.multiplicities)) == 0


def _pair_commutants(rho11: CPnMap, rho22: CPnMap, tol: float):
    """Dilations, then commutants, of two maps (n = 1) on common spaces."""
    if rho11.n != 1 or rho22.n != 1:
        raise ValidationError("disjointness is defined for single maps (n = 1)")
    if rho11.domain != rho22.domain or rho11.codomain_dim != rho22.codomain_dim:
        raise ValidationError("maps must share domain and codomain")
    d1, d2 = dilate(rho11, tol), dilate(rho22, tol)
    return d1, d2, commutant(d1.rep, tol), commutant(d2.rep, tol)


def extension_witness(rho11: CPnMap, rho22: CPnMap,
                      tol: float = 1e-9) -> CPnMap | None:
    """A completely 2-positive completion with nonzero off-diagonal, if any.

    Returns None when the maps are disjoint.  Otherwise W = (+)_k
    I_{d_k} (x) X_k, X_k = E_00 in the first algebra block with
    r_k s_k > 0 and zero elsewhere, is a partial isometry intertwining
    the dilations, and

        rho_12(a) = V_1* Phi_1(a) W* V_2,    rho_21(a) = rho_12(a*)*

    completes [rho_11, rho_12; rho_21, rho_22] to a certified completely
    2-positive map matrix with rho_12 != 0: it is the compression of
    rho_11 (+) rho_22 by [[I, W*], [W, I]] >= 0.  On the block rows
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
    the input, its canonical dilation and commutant.  matrix, the
    block-row matrix of T -> V* T V, is built on first read."""

    extreme: bool
    commutant_dim: int
    compression_rank: int
    rho: CPnMap = field(compare=False, repr=False)
    tol: float = field(compare=False, repr=False)
    dilation: StinespringDilation = field(compare=False, repr=False)
    comm: CommutantBasis = field(compare=False, repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _frame_row_matrix(_frame_stacks(self.dilation, self.comm))

    def decomposition(self) -> ConvexDecomposition:
        """A certified convex decomposition of the non-extreme input.

        From a Hermitian commutant element T with V* T V = 0 and ||T|| = 1,
        the pair T_1 = I + T/2, T_2 = I - T/2 compresses to map matrices
        sigma_i in C(rho(1)), as V* T_i V = V* V, with (1/2) sigma_1 +
        (1/2) sigma_2 = rho, both differing from rho.  A kernel vector of
        the block-row matrix is (X_k)_k with T = (+)_k I_{d_k} (x) X_k /
        sqrt(d_k); it is a column of the kernel projector, so T depends on
        the kernel, not on the basis LAPACK lists for it.  T, T_1 and T_2
        are built and compressed as their blocks; kernel_element is the
        lift of T, on the canonical dilation.  ValidationError when extreme.
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


def _frame_stacks(dilation: StinespringDilation, comm: CommutantBasis) -> list[np.ndarray]:
    """The block rows A_k = comm.rows(V) of each algebra block as a
    (d_k, r_k, c) stack whose member p is A_k,p."""
    c = dilation.joint_isometry.shape[1]
    return [rows.reshape(len(rows), d, c).transpose(1, 0, 2)
            for d, rows in zip(comm.block_dims, comm.rows(dilation.joint_isometry))]


def _frame_row_matrix(stacks: list[np.ndarray]) -> np.ndarray:
    """M, the (n m)^2 x sum r_k^2 matrix of T -> V* T V on the commutant
    basis: column (k, a, b) is vec(V* lift(E_ab / sqrt d_k) V)
    = (1/sqrt d_k) sum_p conj(A_k,p[a, :]) (x) A_k,p[b, :].  V = Q R, R of
    full row rank, so the kernel is that of T -> P T P, P = Q Q*."""
    cols = []
    for stack in stacks:
        d, r, c = stack.shape
        rows = stack.reshape(d, r * c)  # row p is A_k,p
        # entry [(a, x), (b, y)] of rows* rows is sum_p conj(A_k,p[a, x]) A_k,p[b, y]
        pairs = (rows.conj().T @ rows).reshape(r, c, r, c).transpose(1, 3, 0, 2)
        cols.append(pairs.reshape(c * c, r * r) / math.sqrt(d))
    return np.hstack(cols)


@functools.lru_cache(maxsize=64)
def _hermitian_weights(a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lam, alpha and conj(alpha) on M_a for the orthonormal basis h_xy of
    E_xx (x = y), (E_xy + E_yx)/sqrt 2 (x < y) and i(E_xy - E_yx)/sqrt 2
    (x > y): h_uv = alpha_uv E_uv + conj(alpha_uv) E_vu, and a Hermitian Y
    has the real coordinate Re(lam_xy Y_xy) on h_xy.  Read-only."""
    up = np.triu(np.ones((a, a)), 1)
    alpha = 0.5 * np.eye(a) + (up + 1j * up.T) / math.sqrt(2)
    out = (np.eye(a) + math.sqrt(2) * (up - 1j * up.T), alpha, alpha.conj())
    for w in out:
        w.flags.writeable = False
    return out


def _real_kron_sum(z: np.ndarray, out: np.ndarray) -> None:
    """Write into out the real matrix, in the bases h, of X -> sum_q z_q X z_q*
    from the Hermitian b x b to the Hermitian a x a matrices, z a (q, a, b)
    stack; that is W_a* K W_b for K = sum_q z_q (x) conj(z_q), a few rows of
    M_a (about 2^18 complex entries) at a time, so no complex a^2 x b^2
    array is held."""
    q, a, b = z.shape
    lam, (_, alpha, alpha_c) = _hermitian_weights(a)[0], _hermitian_weights(b)
    zc, step = z.conj().reshape(q, a * b), max(1, (1 << 18) // (a * b * b))
    for x in range(0, a, step):
        rows = z[:, x:x + step].reshape(q, -1)
        # k[x, y, u, v] = sum_q z_q[x, u] conj(z_q[y, v]); image of h_uv at (x, y)
        k = (rows.T @ zc).reshape(-1, b, a, b).transpose(0, 2, 1, 3)
        image = alpha * k + alpha_c * k.swapaxes(2, 3)
        out[x * a:(x + step) * a] = (lam[x:x + step, :, None, None] * image).real.reshape(-1, b * b)


# Gram orders above this are factored in two diagonal blocks (_cholesky_proves),
# so that no second array of the Gram's full order is held
_SPLIT_ABOVE = 2048


def _cholesky_proves(g: np.ndarray, budget: float) -> bool:
    """Whether a Cholesky factorization of the symmetric g, lower triangle
    read, proves lambda_min(g) > -budget; g is overwritten.

    Any L of positive diagonal with L L* = g + E gives lambda_min(g) >
    -||E||, so the budget is met when a bound on ||E||, read off the
    factors, is.  u = eps/2, gamma_k = k u / (1 - k u) <= k eps, and
    || |X| |Y| || <= ||X||_F ||Y||_F.  Up to order _SPLIT_ABOVE, L is the
    Cholesky factor of g, and |E| <= gamma_(N+1) |L| |L*| (Higham, Accuracy
    and Stability, Thm 10.3, whose proof uses only that it completed), so
        ||E|| <= (N + 1) eps ||L||_F^2.
    Above it, g = [[A, B*], [B, C]], A of order h = N // 2, and no factor of
    order N is formed: L_1 L_1* = A + E_1 as above, W solves L_1 W = B* by
    any method, R = B* - L_1 W, S = fl(C - fl(W* W)) and L_2 L_2* = S + E_2.
    For L = [[L_1, 0], [W*, L_2]],
        L L* - g = [[E_1, -R], [-R*, S - (C - W* W) + E_2]],
    and, R^ = fl(fl(L_1 W) - B*) rounded as a matrix product then a
    difference, read by its largest entry so that no square of it can
    overflow, and |S| <= (1 + gamma) |L_2| |L_2*|,
        ||E_1|| <= (h + 1) eps ||L_1||_F^2,
        ||R|| <= (1 + eps) sqrt(h (N - h)) max |R^| + h eps ||L_1||_F ||W||_F,
        ||S - (C - W* W)|| <= (h + 1) eps ||W||_F^2 + 2 eps ||L_2||_F^2,
        ||E_2|| <= (N - h + 1) eps ||L_2||_F^2.
    Their sum bounds ||E||.  Each squared norm is a rounded sum of at most
    N^2 squares, within a relative 2 N^2 eps; the factor 1 + 4 N^2 eps
    covers that and the sum's own rounding.  A failed factorization or
    solve, or a bound that is not finite, gives False.
    """
    n, eps = len(g), float(np.finfo(float).eps)
    try:
        if n <= _SPLIT_ABOVE:
            l_sq = float(np.vdot(lower := np.linalg.cholesky(g), lower))
            bound = (n + 1) * eps * l_sq
        else:
            h = n // 2
            l1 = np.linalg.cholesky(g[:h, :h])
            w = np.linalg.solve(l1, g[h:, :h].T)
            res = l1 @ w
            res -= g[h:, :h].T
            l1_sq, res_max = float(np.vdot(l1, l1)), max(float(res.max()), -float(res.min()))
            del l1, res
            s = g[h:, h:]
            s -= w.T @ w
            w_sq = float(np.vdot(w, w))
            del w
            l2_sq = float(np.vdot(lower := np.linalg.cholesky(s), lower))
            bound = ((h + 1) * eps * l1_sq + (1 + eps) * math.sqrt(h * (n - h)) * res_max
                     + h * eps * (l1_sq + w_sq) / 2 + (h + 1) * eps * w_sq
                     + (n - h + 3) * eps * l2_sq)
    except np.linalg.LinAlgError:
        return False
    return bool(bound * (1 + 4 * n * n * eps) <= budget)


def _certified_rank(stacks: list[np.ndarray], tol: float) -> int | None:
    """N = min((n m)^2, sum r_k^2) when a shifted Cholesky of the small-side
    Gram G of M proves s_min(M) above the rank cutoff, else None.

    G is built from the block rows, never from M: M M* =
    sum_k (1/d_k) sum_{p,p'} S (x) conj(S), S = A_k,p* A_k,p' (wide side),
    and block (k, k') of M* M is (d_k d_k')^(-1/2) sum_{p,p'} S (x) conj(S),
    S = A_k,p A_k',p'*.  T -> V* T V maps Hermitian to Hermitian, so in the
    orthonormal Hermitian bases h of _hermitian_weights G is real
    symmetric, N x N, with the eigenvalues s_i(M)^2; that form is built.

    Bounds, u = eps/2, F = sum_{k,p} ||A_k,p||_F^4, inner = max(n m, r_k)
    and terms = sum_k d_k^2.  Each entry of G sums at most `terms`
    products of S entries, each S entry an inner product of length at most
    `inner`; so |G^ - G| <= gamma_(2 inner + terms + 4) |G|_abs entrywise
    (Higham, Accuracy and Stability, 3.1 and 3.6), |G|_abs the Gram of the
    M built from |A|, whose Frobenius norm is at most F by Cauchy-Schwarz
    over p.  The real coordinates are a unitary change of basis, rounded
    once more, and Cholesky reads the lower triangle (a factor sqrt 2),
    so every symmetric matrix in play is within
        err = 4 (2 inner + terms + 8) eps F
    of G in norm.  Hence s_max^2 = ||G|| <= max(||G^||_1, ||G^||_inf)
    (1 + N eps) + err, which is s^2, the hat bound.  _cholesky_proves(G^ -
    delta I, 2 (N + 1) eps F) shows lambda_min(G^ - delta I) above minus
    that budget (a whole Cholesky that completes always meets it, as
    tr G = ||M||_F^2 <= F); the rounded shift adds eps (2 F + delta).  With
        eta = err + 2 (N + 2) eps F,   delta = (cut^2 + eta)(1 + 4 eps),
    success gives s_min(M)^2 = lambda_min(G) > cut^2, and
        cut = rank_cutoff(s + e, tol) + e
    covers e = ((n m)^2 + sum r_k^2 + 2 terms + 8) eps sqrt F, which bounds
    how far the singular values is_extreme's SVD fallback would compute
    lie from those of M (M's rounding, and LAPACK's backward error taken
    as the sum of M's dimensions times eps ||M||, ||M|| <= sqrt F): where
    this proof succeeds, the SVD of M reads rank N at its own cutoff too.
    N = 0, a failed proof (rank deficiency, a rank near the cutoff, tol
    about 0.5 or more) or a G or bound that is not finite, as when the
    map's scale passes about 1e150, gives None; overflow is not raised
    under any np.errstate, so the SVD fallback decides such maps.
    """
    c = stacks[0].shape[2]
    sizes = [a.shape[1] ** 2 for a in stacks]
    n = min(c * c, sum(sizes))
    if n == 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.empty((n, n))
        if n == c * c:  # M M*, on M_c
            z = np.concatenate([(a.conj().swapaxes(1, 2)[:, None] @ a[None]).reshape(-1, c, c)
                                / math.sqrt(len(a)) for a in stacks])
            _real_kron_sum(z, g)
        else:  # M* M, on (+)_k M_{r_k}
            spans = [slice(end - size, end) for end, size in zip(itertools.accumulate(sizes), sizes)]
            for i, j in itertools.combinations_with_replacement(range(len(stacks)), 2):
                a, b = stacks[i], stacks[j]
                if sizes[i] and sizes[j]:
                    z = (a[:, None] @ b.conj().swapaxes(1, 2)[None]).reshape(-1, a.shape[1], b.shape[1])
                    _real_kron_sum(z / (len(a) * len(b)) ** 0.25, g[spans[i], spans[j]])
                    if i != j:
                        g[spans[j], spans[i]] = g[spans[i], spans[j]].T
        eps, terms = np.finfo(float).eps, sum(len(a) ** 2 for a in stacks)
        f = sum(float(np.square((a * a.conj()).real.sum((1, 2))).sum()) for a in stacks)
        err = 4 * (2 * max(c, *(a.shape[1] for a in stacks)) + terms + 8) * eps * f
        absg = np.abs(g)
        s_hat = math.sqrt(max(absg.sum(0).max(), absg.sum(1).max()) * (1 + n * eps) + err)
        del absg
        e = (c * c + sum(sizes) + 2 * terms + 8) * eps * math.sqrt(f)
        cut = rank_cutoff(s_hat + e, tol) + e
        delta = (cut * cut + err + 2 * (n + 2) * eps * f) * (1 + 4 * eps)
        if not math.isfinite(delta):
            return None
        g.flat[::n + 1] -= delta
        return n if _cholesky_proves(g, 2 * (n + 1) * eps * f) else None


def is_extreme(rho: CPnMap, tol: float = 1e-9,
               dilation: StinespringDilation | None = None) -> ExtremalityReport:
    """Extremality in C(rho(1)), the completely n-positive map matrices with
    the value flatten(rho)(1) at the unit; the unital class is rho(1) = I.

    Criterion (Arveson 1969, 1.4, for any rho(1)): T -> V* T V is injective
    on the commutant; decided on the canonical dilation, as the rank of its
    matrix M at rank_cutoff(s_max(M), tol).  The rank is first proved full,
    N = min((n m)^2, sum r_k^2), by a Cholesky of the small-side Gram of M,
    built from the block rows and shifted down by delta = cut^2 + eta,
    cut >= tol (1 + s_max) and eta its rounding and backward-error bound
    (_certified_rank); only when that fails is M built and its singular
    values counted.  sum r_k^2 > (n m)^2 leaves M a kernel: not extreme.
    """
    dil = dilation_of(rho, tol, dilation)
    comm = _minimal_commutant(dil, tol)
    stacks = _frame_stacks(dil, comm)
    dim = sum(a.shape[1] ** 2 for a in stacks)
    rank = _certified_rank(stacks, tol)
    if rank is None:
        rank = numerical_rank(_frame_row_matrix(stacks), tol)
    return ExtremalityReport(rank == dim, dim, rank, rho, tol, dil, comm)


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
        dev = spectral_norm(apply_map(rho.entries[i][i], unit) - eye)
        if dev > tol * scale:
            raise CertificationError(f"diagonal entry {i} is not unital",
                                     value=dev, bound=tol * scale)
        for j in range(n):
            uij = unitaries[i] @ unitaries[j].adjoint()
            dev = spectral_norm(apply_map(rho.entries[i][j], uij) - eye)
            if dev > tol * scale:
                raise CertificationError(
                    f"witness rho_{i}{j}(u_i u_j*) deviates from the identity",
                    value=dev, bound=tol * scale)
    if not is_pure(rho, tol):
        raise CertificationError("constructed map matrix is not pure")
    return rho
