"""Cross-module acceptance criteria, shared by the test suite and the CLI.

Each runner draws its own seeded generator, executes one numbered
criterion at its pinned tolerance and returns a CriterionResult; the
pass/fail verdicts here are the package's acceptance gate.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import make_algebra, random_element, star_index, cstar_norm
from .dilation import (dilate, dilate_from_gram, diagonal_direct_sum_check,
                       equivalence_residual, gram_matrix, unitary_equivalence,
                       verify_dilation)
from .errors import ValidationError
from .linalg import herm, spectral_norm
from .maps import (CPnMap, LinearMap, apply_map, as_cpn, compression_map,
                   cpn_distance, depolarizing_map, flatten, identity_map,
                   images_of, is_completely_n_positive, map_from_images,
                   random_cpn_map, zero_map)
from .radon import (compress, intertwiner, order_equivalence_check,
                    rn_operator, sample_unit_interval)
from .structure import (ExtremeFamilySpec, build_extreme_family, commutant,
                        extension_witness, are_disjoint, is_extreme, is_pure)
from .towers import (ContinuousCPnMap, apply_connecting,
                     evaluate_continuous_map, projection_tower)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    runtime: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:2d} [{status}] {self.name}"


_COMBOS = [(d, m, n) for d in (1, 2, 3) for m in (1, 2, 3) for n in (1, 2, 3)]


def _instance(rng: np.random.Generator, i: int, max_rank: int | None = None) -> CPnMap:
    d, m, n = _COMBOS[i % len(_COMBOS)]
    hi = d * n * m if max_rank is None else min(max_rank, d * n * m)
    rank = int(rng.integers(1, hi + 1))
    return random_cpn_map(make_algebra((d,)), m, n, rank, rng)


def criterion_1_dilation(seed: int = 0, count: int = 200,
                         tol: float = 1e-9) -> CriterionResult:
    """Factorization residual and minimality over random instances."""
    rng = np.random.default_rng([seed, 1])
    t0 = time.perf_counter()
    worst = 0.0
    minimal = True
    for i in range(count):
        rho = _instance(rng, i)
        dil = dilate(rho, tol)
        rep = verify_dilation(rho, dil, tol)
        worst = max(worst, rep.factor_residual / rep.scale)
        minimal = minimal and rep.minimal
    elapsed = time.perf_counter() - t0
    passed = worst <= 1e-9 and minimal and elapsed < 10.0
    return CriterionResult(1, "dilation factorization and minimality", passed,
                           {"count": count, "max_relative_residual": worst,
                            "all_minimal": minimal, "seconds": elapsed}, elapsed)


def criterion_2_gram(seed: int = 0, count: int = 50,
                     tol: float = 1e-9) -> CriterionResult:
    """Gram-matrix rank oracle and cross-route unitary equivalence."""
    rng = np.random.default_rng([seed, 2])
    t0 = time.perf_counter()
    rank_ok = True
    worst = 0.0
    for i in range(count):
        rho = _instance(rng, i, max_rank=4)
        dil = dilate(rho, tol)
        g = gram_matrix(rho)
        w = np.linalg.eigvalsh(herm(g))
        top = float(np.abs(w).max()) if w.size else 0.0
        rank = int(np.sum(w > tol * (1.0 + top)))
        rank_ok = rank_ok and rank == dil.space_dim
        alt = dilate_from_gram(rho, tol)
        u = unitary_equivalence(alt, dil, tol)
        if u is None:
            rank_ok = False
            continue
        worst = max(worst, equivalence_residual(alt, dil, u))
    elapsed = time.perf_counter() - t0
    passed = rank_ok and worst <= 1e-8
    return CriterionResult(2, "Gram-matrix oracle agreement", passed,
                           {"count": count, "ranks_match": rank_ok,
                            "max_unitary_residual": worst}, elapsed)


def criterion_3_round_trip(seed: int = 0, count: int = 200,
                           tol: float = 1e-9) -> CriterionResult:
    """Recover the compression operator through the Radon-Nikodym map."""
    rng = np.random.default_rng([seed, 3])
    t0 = time.perf_counter()
    worst_t = 0.0
    worst_map = 0.0
    for i in range(count):
        rho = _instance(rng, i, max_rank=4)
        dil = dilate(rho, tol)
        t_in = sample_unit_interval(dil, rng, tol)
        theta = compress(dil, t_in, tol)
        elem = rn_operator(rho, theta, tol, source_dilation=dil)
        worst_t = max(worst_t, spectral_norm(elem.matrix - t_in)
                      / (1.0 + spectral_norm(t_in)))
        worst_map = max(worst_map, cpn_distance(compress(dil, elem.matrix, tol), theta)
                        / theta.scale)
    elapsed = time.perf_counter() - t0
    passed = worst_t <= 1e-8 and worst_map <= 1e-9
    return CriterionResult(3, "Radon-Nikodym round trip", passed,
                           {"count": count, "max_operator_residual": worst_t,
                            "max_reconstruction_residual": worst_map}, elapsed)


def criterion_4_order(seed: int = 0, pairs: int = 1000,
                      tol: float = 1e-9) -> CriterionResult:
    """Order isomorphism, affinity and unit reconstruction."""
    rng = np.random.default_rng([seed, 4])
    t0 = time.perf_counter()
    per_instance = 20
    instances = max(1, pairs // per_instance)
    agree = True
    worst_affine = 0.0
    worst_unit = 0.0
    done = 0
    for i in range(instances):
        rho = _instance(rng, i, max_rank=4)
        dil = dilate(rho, tol)
        eye = np.eye(dil.space_dim, dtype=complex)
        scale = rho.scale
        worst_unit = max(worst_unit,
                         cpn_distance(compress(dil, eye, tol), rho) / scale)
        budget = min(per_instance, pairs - done)
        for j in range(budget):
            t1 = sample_unit_interval(dil, rng, tol)
            if j % 2 == 0:
                beta = float(rng.uniform(0.0, 1.0))
                t2 = t1 + beta * (eye - t1)
            else:
                t2 = sample_unit_interval(dil, rng, tol)
            chk = order_equivalence_check(dil, t1, t2, tol)
            agree = agree and chk.agree
            alpha = float(rng.uniform(0.1, 2.0))
            lhs = compress(dil, t1 + t2, tol)
            rhs = compress(dil, t1, tol) + compress(dil, t2, tol)
            worst_affine = max(worst_affine, cpn_distance(lhs, rhs) / scale)
            worst_affine = max(worst_affine,
                               cpn_distance(compress(dil, alpha * t1, tol),
                                            alpha * compress(dil, t1, tol)) / scale)
        done += budget
        if done >= pairs:
            break
    elapsed = time.perf_counter() - t0
    passed = agree and worst_affine <= 1e-10 and worst_unit <= 1e-10
    return CriterionResult(4, "order isomorphism and affinity", passed,
                           {"pairs": done, "verdicts_agree": agree,
                            "max_affine_residual": worst_affine,
                            "max_unit_residual": worst_unit}, elapsed)


def criterion_5_contraction(seed: int = 0, count: int = 50,
                            tol: float = 1e-9) -> CriterionResult:
    """Contraction and intertwining certificates for every computed W."""
    rng = np.random.default_rng([seed, 5])
    t0 = time.perf_counter()
    worst_norm = 0.0
    worst_res = 0.0
    for i in range(count):
        rho = _instance(rng, i, max_rank=4)
        dil = dilate(rho, tol)
        t_in = sample_unit_interval(dil, rng, tol)
        theta = compress(dil, t_in, tol)
        w = intertwiner(rho, theta, tol, source_dilation=dil)
        worst_norm = max(worst_norm, w.norm)
        worst_res = max(worst_res,
                        max(w.isometry_residual, w.intertwining_residual) / rho.scale)
    elapsed = time.perf_counter() - t0
    passed = worst_norm <= 1.0 + 1e-10 and worst_res <= 1e-9
    return CriterionResult(5, "intertwiner contraction certificates", passed,
                           {"count": count, "max_norm": worst_norm,
                            "max_residual": worst_res}, elapsed)


def criterion_6_purity(seed: int = 0, count: int = 30,
                       tol: float = 1e-9) -> CriterionResult:
    """Purity verdicts and the commutant dimension formula."""
    rng = np.random.default_rng([seed, 6])
    t0 = time.perf_counter()
    m2 = make_algebra((2,))
    checks = {}
    checks["identity_pure"] = is_pure(as_cpn(identity_map(m2)), tol)
    dep = as_cpn(depolarizing_map(2))
    dep_dil = dilate(dep, tol)
    checks["depolarizing_not_pure"] = not is_pure(dep, tol, dilation=dep_dil)
    checks["depolarizing_commutant_16"] = \
        commutant(dep_dil.rep, tol).dimension == 16
    ident = identity_map(m2)
    all_id = CPnMap(((ident, ident), (ident, ident)))
    checks["all_identity_pure"] = is_pure(all_id, tol)
    u2 = m2.element([np.diag([1.0, -1.0])])
    fam = build_extreme_family(
        ExtremeFamilySpec(ident, (m2.unit(), u2)), tol)
    checks["extreme_family_pure"] = is_pure(fam, tol)
    formula_ok = True
    shapes = [(2,), (3,), (2, 1), (2, 2)]
    for i in range(count):
        alg = make_algebra(shapes[i % len(shapes)])
        d, m, n = _COMBOS[i % len(_COMBOS)]
        rho = random_cpn_map(alg, m, n, int(rng.integers(1, 4)), rng)
        dil = dilate(rho, tol)
        mults = dil.rep.multiplicities
        expected = sum(r * r for r in mults)
        formula_ok = formula_ok and \
            commutant(dil.rep, tol).dimension == expected
    checks["commutant_dim_formula"] = formula_ok
    elapsed = time.perf_counter() - t0
    passed = all(checks.values())
    return CriterionResult(6, "purity and commutant dimensions", passed,
                           dict(checks, count=count), elapsed)


def _hermitian_partner(map12: LinearMap) -> LinearMap:
    """The map a -> map12(a*)* paired with map12 under Hermitian symmetry."""
    alg = map12.domain
    images21 = images_of(map12)[[star_index(alg, idx) for idx in range(alg.dim)]]
    return map_from_images(alg, map12.codomain_dim, images21.conj().swapaxes(-2, -1))


def criterion_7_disjointness(seed: int = 0, trials: int = 10,
                             tol: float = 1e-9) -> CriterionResult:
    """Disjointness verdicts, witness absence and witness certificates."""
    rng = np.random.default_rng([seed, 7])
    t0 = time.perf_counter()
    checks = {}
    a22 = make_algebra((2, 2))
    blk1 = as_cpn(compression_map(a22, 0))
    blk2 = as_cpn(compression_map(a22, 1))
    checks["block_pair_disjoint"] = are_disjoint(blk1, blk2, tol)
    checks["block_pair_witness_absent"] = \
        extension_witness(blk1, blk2, tol) is None
    injected_all_fail = True
    for _ in range(trials):
        # arbitrary nonzero linear map as the off-diagonal candidate
        offdiag = random_cpn_map(a22, 2, 1, 2, rng).entries[0][0]
        candidate = CPnMap(((blk1.entries[0][0], offdiag),
                            (_hermitian_partner(offdiag), blk2.entries[0][0])))
        chk = is_completely_n_positive(candidate, tol)
        injected_all_fail = injected_all_fail and not chk.verdict
    checks["injected_offdiagonal_fails"] = injected_all_fail
    m2 = make_algebra((2,))
    ident = as_cpn(identity_map(m2))
    dep = as_cpn(depolarizing_map(2))
    checks["id_id_not_disjoint"] = not are_disjoint(ident, ident, tol)
    checks["id_dep_not_disjoint"] = not are_disjoint(ident, dep, tol)
    for label, pair in (("id_id", (ident, ident)), ("id_dep", (ident, dep))):
        wit = extension_witness(pair[0], pair[1], tol)
        ok = wit is not None
        if ok:
            off_norm = spectral_norm(images_of(wit.entries[0][1]))
            ok = is_completely_n_positive(wit, tol).verdict and off_norm > 1e-6
        checks[f"{label}_witness_certified"] = ok
    elapsed = time.perf_counter() - t0
    passed = all(checks.values())
    return CriterionResult(7, "disjointness and extension witnesses", passed,
                           dict(checks, trials=trials), elapsed)


def criterion_8_extremality(seed: int = 0, tol: float = 1e-9) -> CriterionResult:
    """Extremality verdicts and the non-extreme decomposition harness."""
    t0 = time.perf_counter()
    checks = {}
    a22 = make_algebra((2, 2))
    z = zero_map(a22, 2)
    diag_pair = CPnMap(((compression_map(a22, 0), z),
                        (z, compression_map(a22, 1))))
    checks["block_diagonal_extreme"] = is_extreme(diag_pair, tol).extreme
    m2 = make_algebra((2,))
    dep = as_cpn(depolarizing_map(2))
    rep = is_extreme(dep, tol)
    checks["depolarizing_not_extreme"] = not rep.extreme
    decomp = rep.decomposition()
    scale = dep.scale
    avg = decomp.beta * decomp.part1 + (1.0 - decomp.beta) * decomp.part2
    checks["decomposition_averages"] = cpn_distance(avg, dep) <= 1e-9 * scale
    checks["decomposition_nontrivial"] = (
        cpn_distance(decomp.part1, dep) > 1e-6 * scale
        and cpn_distance(decomp.part2, dep) > 1e-6 * scale)
    checks["parts_cpn"] = (is_completely_n_positive(decomp.part1, tol).verdict
                           and is_completely_n_positive(decomp.part2, tol).verdict)
    checks["identity_extreme"] = is_extreme(as_cpn(identity_map(m2)), tol).extreme
    elapsed = time.perf_counter() - t0
    passed = all(checks.values())
    return CriterionResult(8, "extreme points and convex decompositions", passed,
                           checks, elapsed)


def criterion_9_direct_sum(seed: int = 0, tol: float = 1e-9) -> CriterionResult:
    """Diagonal map matrices dilate to direct sums."""
    t0 = time.perf_counter()
    m2 = make_algebra((2,))
    z = zero_map(m2, 2)
    rho = CPnMap(((identity_map(m2), z), (z, depolarizing_map(2))))
    report = diagonal_direct_sum_check(rho, tol)
    checks = {
        "space_dim_10": report.space_dim == 10,
        "part_dims_2_8": report.part_dims == (2, 8),
        "additive": report.additive,
        "unitary_residual": report.residual,
    }
    elapsed = time.perf_counter() - t0
    passed = (checks["space_dim_10"] and checks["part_dims_2_8"]
              and checks["additive"] and report.residual <= 1e-8)
    return CriterionResult(9, "diagonal direct-sum dilation", passed,
                           checks, elapsed)


def criterion_10_tower(seed: int = 0, count: int = 100,
                       tol: float = 1e-9) -> CriterionResult:
    """Factoring invariance and seminorm monotonicity on a projection tower."""
    rng = np.random.default_rng([seed, 10])
    t0 = time.perf_counter()
    tower = projection_tower((2, 2), (0,), tol)
    lower, upper = tower.levels
    base = as_cpn(depolarizing_map(2))
    cm = ContinuousCPnMap(tower, 1, base)
    flat = flatten(base)
    worst_eval = 0.0
    worst_invariance = 0.0
    monotone = True
    for _ in range(count):
        a2 = random_element(upper, rng)
        a1 = apply_connecting(tower, 1, a2)
        thread = (a1, a2)
        got = evaluate_continuous_map(cm, thread, tol)
        expect = apply_map(flat, a1)
        scale = 1.0 + cstar_norm(a1)
        worst_eval = max(worst_eval, spectral_norm(got - expect) / scale)
        bump = random_element(upper, rng)
        a2_mod = upper.element([a2.blocks[0],
                                a2.blocks[1] + bump.blocks[1]])
        got_mod = evaluate_continuous_map(cm, (a1, a2_mod), tol)
        worst_invariance = max(worst_invariance,
                               spectral_norm(got_mod - got) / scale)
        monotone = monotone and \
            cstar_norm(a1) <= cstar_norm(a2) + 1e-12 * (1.0 + cstar_norm(a2))
    elapsed = time.perf_counter() - t0
    passed = worst_eval <= 1e-12 and worst_invariance <= 1e-12 and monotone
    return CriterionResult(10, "tower factoring and seminorm monotonicity", passed,
                           {"count": count, "max_eval_residual": worst_eval,
                            "max_invariance_residual": worst_invariance,
                            "monotone": monotone}, elapsed)


def run_all(seed: int = 0, tol: float = 1e-9,
            count: int | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion; count, when given, overrides the
    instance counts and must be at least 1."""
    if count is not None and count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")

    def n(default: int) -> int:
        return default if count is None else count

    return [
        criterion_1_dilation(seed, n(200), tol),
        criterion_2_gram(seed, n(50), tol),
        criterion_3_round_trip(seed, n(200), tol),
        criterion_4_order(seed, n(1000), tol),
        criterion_5_contraction(seed, n(50), tol),
        criterion_6_purity(seed, n(30), tol),
        criterion_7_disjointness(seed, n(10), tol),
        criterion_8_extremality(seed, tol),
        criterion_9_direct_sum(seed, tol),
        criterion_10_tower(seed, n(100), tol),
    ]
