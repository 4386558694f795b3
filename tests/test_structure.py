import sys
import tracemalloc

import numpy as np
import pytest

from cpnkit import (CertificationError, CPnMap, CpnVerdict, LinearMap,
                    PositivityError, Representation, StinespringDilation,
                    ValidationError, apply_map, as_cpn,
                    build_extreme_family, canonicalize, commutant, compression_map,
                    cpn_distance, depolarizing_map, dilate,
                    dilate_from_gram, extension_witness, flatten,
                    identity_map, images_of, are_disjoint,
                    is_completely_n_positive, is_extreme, is_pure,
                    make_algebra, map_from_images, matrix_units,
                    nonextreme_decomposition, random_cpn_map, random_element,
                    rn_operator, sample_unit_interval, star_index, trace_map,
                    unflatten, verify_dilation, zero_map)
import cpnkit.dilation as cpnkit_dilation
from cpnkit.dilation import canonical_frame, commutator_bound, representation_bound
from cpnkit.linalg import (commutant_basis_of, herm, nullspace, numerical_rank,
                           spectral_norm)
import cpnkit.structure as cpnkit_structure

from oracles import (choi_extreme, intertwiner_basis_of, intertwiner_space, orth,
                     pair_basis, svd_is_extreme)


def vector_state(alg, xi):
    imgs = [np.array([[np.vdot(xi, np.array(e.blocks[0]) @ xi)]])
            for e in matrix_units(alg)]
    return map_from_images(alg, 1, imgs)


def m2():
    return make_algebra((2,))


def test_identity_is_pure():
    assert is_pure(as_cpn(identity_map(m2())))


def test_depolarizing_is_not_pure_commutant_16():
    dep = as_cpn(depolarizing_map(2))
    dil = dilate(dep)
    assert not is_pure(dep, dilation=dil)
    assert commutant(dil.rep).dimension == 16


def test_all_identity_pair_is_pure():
    ident = identity_map(m2())
    rho = CPnMap(((ident, ident), (ident, ident)))
    assert is_pure(rho)


def test_vector_state_is_pure():
    # rank-one compression of a full matrix block
    alg = m2()
    xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert is_pure(as_cpn(vector_state(alg, xi)))


def test_trace_map_not_pure_for_blocks():
    alg = make_algebra((2, 2))
    # unnormalized trace across two blocks has a reducible dilation
    assert not is_pure(as_cpn(trace_map(alg)))


def test_purity_requires_cpn():
    ident = identity_map(m2())
    bad = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    with pytest.raises(PositivityError):
        is_pure(bad)


def test_block_identity_commutant_dim_two():
    # frozen: the defining representation of two 2x2 blocks has a
    # two-dimensional commutant
    alg = make_algebra((2, 2))
    dil = dilate(as_cpn(identity_map(alg)))
    assert commutant(dil.rep).dimension == 2
    assert not is_pure(as_cpn(identity_map(alg)))


def test_intertwiner_space_dimensions():
    # frozen: identity vs depolarizing on one 2x2 block leaves a
    # four-dimensional intertwiner space
    alg = m2()
    d_id = dilate(as_cpn(identity_map(alg)))
    d_dep = dilate(as_cpn(depolarizing_map(2)))
    assert len(intertwiner_space(d_id, d_dep)) == 4
    a22 = make_algebra((2, 2))
    d1 = dilate(as_cpn(compression_map(a22, 0)))
    d2 = dilate(as_cpn(compression_map(a22, 1)))
    assert len(intertwiner_space(d1, d2)) == 0


def test_block_compressions_are_disjoint():
    a22 = make_algebra((2, 2))
    b1 = as_cpn(compression_map(a22, 0))
    b2 = as_cpn(compression_map(a22, 1))
    assert are_disjoint(b1, b2)
    assert extension_witness(b1, b2) is None


def test_disjointness_requires_order_one():
    ident = identity_map(m2())
    rho = CPnMap(((ident, zero_map(m2(), 2)), (zero_map(m2(), 2), ident)))
    with pytest.raises(ValidationError):
        are_disjoint(rho, rho)


def test_identity_pair_not_disjoint_with_witness():
    idm = as_cpn(identity_map(m2()))
    assert not are_disjoint(idm, idm)
    wit = extension_witness(idm, idm)
    assert wit is not None
    assert is_completely_n_positive(wit).verdict
    off = max(spectral_norm(img) for img in images_of(wit.entry(0, 1)))
    assert off > 1e-6
    # diagonals of the witness must be the given maps
    assert cpn_distance(as_cpn(wit.entry(0, 0)), idm) <= 1e-12
    assert cpn_distance(as_cpn(wit.entry(1, 1)), idm) <= 1e-12


def test_identity_depolarizing_not_disjoint():
    idm = as_cpn(identity_map(m2()))
    dep = as_cpn(depolarizing_map(2))
    assert not are_disjoint(idm, dep)
    wit = extension_witness(idm, dep)
    assert wit is not None
    assert is_completely_n_positive(wit).verdict


def test_injected_off_diagonal_fails_positivity():
    a22 = make_algebra((2, 2))
    b1 = compression_map(a22, 0)
    b2 = compression_map(a22, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        off = random_cpn_map(a22, 2, 1, 2, rng).entries[0][0]
        imgs = images_of(off)
        back = [imgs[star_index(a22, i)].conj().T for i in range(a22.dim)]
        off21 = map_from_images(a22, 2, back)
        candidate = CPnMap(((b1, off), (off21, b2)))
        assert not is_completely_n_positive(candidate).verdict


def test_extreme_family_construction():
    alg = m2()
    u2 = alg.element([np.diag([1.0, -1.0])])
    fam = build_extreme_family(identity_map(alg), (alg.unit(), u2))
    assert fam.n == 2
    assert is_completely_n_positive(fam).verdict
    assert is_pure(fam)
    # frozen: the off-diagonal entry right-multiplies by the signature
    rng = np.random.default_rng(1)
    a = random_element(alg, rng)
    got = apply_map(fam.entry(0, 1), a)
    assert np.allclose(got, np.array(a.blocks[0]) @ np.diag([1.0, -1.0]))
    # evaluating at u1 u2* returns the identity
    assert np.allclose(apply_map(fam.entry(0, 1), u2.adjoint()), np.eye(2))


def test_extreme_family_vector_state():
    # scalar-valued family from a pure state
    alg = m2()
    xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    base = vector_state(alg, xi)
    u2 = alg.element([np.diag([1.0, -1.0])])
    fam = build_extreme_family(base, (alg.unit(), u2))
    assert is_pure(fam)
    assert np.allclose(apply_map(fam.entry(0, 0), alg.unit()), [[1.0]])
    assert np.allclose(apply_map(fam.entry(1, 1), alg.unit()), [[1.0]])
    assert np.allclose(apply_map(fam.entry(0, 1), u2.adjoint()), [[1.0]])


def test_extreme_family_dilates_the_base_and_the_family_only(monkeypatch):
    # the diagonal entries are pure because the base is: no dilation of
    # their own, and the base's dilation is checked against the base itself
    alg = m2()
    u2 = alg.element([np.diag([1.0, -1.0])])
    u3 = alg.element([np.array([[0.0, 1.0], [1.0, 0.0]])])
    dilated = []
    real = cpnkit_dilation.dilate

    def counting(rho, tol=1e-9):
        dilated.append(rho.n)
        return real(rho, tol)

    def forbidden(*args):
        raise AssertionError("the base dilation was checked against a copy of the base")

    monkeypatch.setattr(cpnkit_dilation, "dilate", counting)
    monkeypatch.setattr(cpnkit_structure, "dilate", counting)
    monkeypatch.setattr(cpnkit_dilation, "cpn_distance", forbidden)
    fam = build_extreme_family(identity_map(alg), (alg.unit(), u2, u3))
    assert dilated == [1, 3]
    assert all(is_pure(as_cpn(fam.entry(i, i))) for i in range(3))


def test_extreme_family_validation():
    alg = m2()
    u2 = alg.element([np.diag([1.0, -1.0])])
    with pytest.raises(ValidationError):
        # first unitary must be the unit
        build_extreme_family(identity_map(alg), (u2, u2))
    with pytest.raises(ValidationError):
        # non-unitary entry
        build_extreme_family(identity_map(alg), (alg.unit(), 2.0 * u2))
    with pytest.raises(ValidationError):
        # non-unital base
        build_extreme_family(0.5 * identity_map(alg), (alg.unit(), u2))
    with pytest.raises(ValidationError):
        # base must be pure
        build_extreme_family(depolarizing_map(2), (alg.unit(), u2))


def test_extreme_family_failures_carry_value_and_bound(monkeypatch):
    # a family scaled by 1.1 is not unital on the diagonal; one whose
    # off-diagonal entries are halved is, but its witness rho_01(u_0 u_1*) is I/2
    alg = m2()
    u2 = alg.element([np.diag([1.0, -1.0])])
    real, built = cpnkit_structure.unflatten, []

    def scaled(*args):
        built.append(1.1 * real(*args))
        return built[-1]

    def halved(*args):
        (a, b), (c, d) = real(*args).entries
        built.append(CPnMap(((a, 0.5 * b), (0.5 * c, d))))
        return built[-1]

    for patch, message, value in ((scaled, "^diagonal entry 0 is not unital$", 0.1),
                                  (halved, "^witness rho_01", 0.5)):
        monkeypatch.setattr(cpnkit_structure, "unflatten", patch)
        with pytest.raises(CertificationError, match=message) as info:
            build_extreme_family(identity_map(alg), (alg.unit(), u2))
        assert abs(info.value.value - value) <= 1e-12
        assert info.value.bound == 1e-9 * built[-1].scale


def test_block_diagonal_pair_extreme():
    a22 = make_algebra((2, 2))
    z = zero_map(a22, 2)
    rho = CPnMap(((compression_map(a22, 0), z), (z, compression_map(a22, 1))))
    rep = is_extreme(rho)
    assert rep.extreme
    assert rep.compression_rank == rep.commutant_dim


def test_identity_extreme():
    assert is_extreme(as_cpn(identity_map(m2()))).extreme


def test_identity_at_tol_one_half_reads_as_before():
    # the cutoff 0.5 (1 + 1) meets the one singular value 1: the certificate
    # cannot pass, and the SVD fallback keeps the verdict it always gave
    rep = is_extreme(as_cpn(identity_map(m2())), 0.5)
    assert report_tuple(rep) == (False, 1, 0) and certified_rank(rep) is None


def test_square_regime_extreme_map_at_h32_agrees_with_the_oracles():
    # n m = r = 16 on M_2: M is 256 x 256, and the Gram certificate alone
    # proves it invertible
    rho = random_cpn_map(m2(), 8, 2, 16, np.random.default_rng(31))
    rep = is_extreme(rho)
    assert rep.dilation.space_dim == 32
    assert report_tuple(rep) == svd_is_extreme(rho) == (True, 256, 256)
    assert certified_rank(rep) == 256 and "matrix" not in rep.__dict__
    assert choi_extreme(rho) == (True, 256, 256)


def test_rank_deficient_square_map_takes_the_svd_fallback():
    # a random-unitary channel with diagonal Kraus operators D_j / sqrt 3 on
    # M_4: the D_i* D_j span only the diagonal, so 9 commutant dimensions
    # compress to 4 <= 16 = (n m)^2 and the certificate must fail
    rng = np.random.default_rng(32)
    kraus = [np.diag(np.exp(2j * np.pi * rng.random(4))) / np.sqrt(3) for _ in range(3)]
    choi = sum(np.outer(k.conj().ravel(), k.ravel()) for k in kraus)
    rho = as_cpn(LinearMap(make_algebra((4,)), 4, (choi,)))
    rep = is_extreme(rho)
    assert report_tuple(rep) == svd_is_extreme(rho) == (False, 9, 4)
    assert certified_rank(rep) is None
    assert_certified_decomposition(rho, rep.decomposition())


def test_gram_that_overflows_leaves_the_verdict_to_the_svd():
    # a Choi scale of 1e160 overflows the Gram (about 1e320): under the
    # CLI's errstate the certificate gives way to the SVD instead of raising,
    # in the square regime and in the wide one
    for rho in (random_cpn_map(m2(), 2, 1, 2, np.random.default_rng(3)),
                as_cpn(depolarizing_map(2))):
        big = 1e160 * rho
        with np.errstate(over="raise", invalid="raise"):
            rep = is_extreme(big)
            assert certified_rank(rep) is None
            assert report_tuple(rep) == svd_is_extreme(big) == report_tuple(is_extreme(rho))


@pytest.mark.parametrize("split_above", [2048, 1])
def test_cholesky_proof_whole_and_in_two_blocks(monkeypatch, split_above):
    # lambda_min(g) > -budget is proved for a positive definite g, never for
    # one with an eigenvalue below -budget, and not when the budget leaves
    # no room for rounding; order 7 splits as 3 + 4
    monkeypatch.setattr(cpnkit_structure, "_SPLIT_ABOVE", split_above)
    q = np.linalg.qr(np.random.default_rng(7).standard_normal((7, 7)))[0]

    def proves(low, budget):
        return cpnkit_structure._cholesky_proves((q * [low, 1, 2, 3, 4, 5, 6]) @ q.T, budget)

    assert proves(1e-3, 1e-12)
    assert not proves(-1e-3, 1e-6)
    assert not proves(1e-3, 0.0)


def test_depolarizing_not_extreme_and_decomposes():
    dep = as_cpn(depolarizing_map(2))
    rep = is_extreme(dep)
    assert not rep.extreme
    assert (rep.commutant_dim, rep.compression_rank) == (16, 4) == (16, certified_rank(rep))
    # a certified verdict builds no frame-row matrix until decomposition()
    assert "matrix" not in rep.__dict__
    assert_certified_decomposition(dep, rep.decomposition())
    assert rep.matrix.shape == (4, 16) and "matrix" in rep.__dict__
    dec = nonextreme_decomposition(dep)
    assert 0.0 < dec.beta < 1.0
    avg = dec.beta * dec.part1 + (1.0 - dec.beta) * dec.part2
    scale = dep.scale
    assert cpn_distance(avg, dep) <= 1e-9 * scale
    assert cpn_distance(dec.part1, dep) > 1e-6 * scale
    assert cpn_distance(dec.part2, dep) > 1e-6 * scale
    assert is_completely_n_positive(dec.part1).verdict
    assert is_completely_n_positive(dec.part2).verdict
    # both parts stay inside the unital class
    for part in (dec.part1, dec.part2):
        one = part.domain.unit()
        assert np.allclose(apply_map(part.entry(0, 0), one), np.eye(2),
                           atol=1e-9)


def test_decomposition_failures_carry_value_and_bound(monkeypatch):
    # at tol 0.5 a part of this draw lies within the bound of rho
    rho = random_cpn_map(make_algebra((2,)), 2, 1, 2, np.random.default_rng(4))
    with pytest.raises(CertificationError, match="^decomposition is trivial$") as info:
        is_extreme(rho, 0.5).decomposition()
    assert info.value.value <= info.value.bound == 0.5 * rho.scale
    dep = as_cpn(depolarizing_map(2))
    monkeypatch.setattr(cpnkit_structure, "_cpn_distances", lambda *args: [1.0, 1.0, 1.0])
    with pytest.raises(CertificationError,
                       match="^decomposition does not average to the input$") as info:
        is_extreme(dep).decomposition()
    assert (info.value.value, info.value.bound) == (1.0, 1e-9 * dep.scale)


def test_extension_witness_failures_carry_value_and_bound(monkeypatch):
    rho = as_cpn(identity_map(make_algebra((2,))))
    witness = extension_witness(rho, rho)
    # an off-diagonal measured as zero, then a negative verdict on the witness
    monkeypatch.setattr(cpnkit_structure, "images_of", lambda phi: np.zeros((4, 2, 2)))
    with pytest.raises(CertificationError, match="off-diagonal norm 0.000e") as info:
        extension_witness(rho, rho)
    assert (info.value.value, info.value.bound) == (0.0, 1e-9 * witness.scale)
    monkeypatch.undo()
    monkeypatch.setattr(cpnkit_structure, "is_completely_n_positive",
                        lambda *args: CpnVerdict(False, -1.0, True))
    with pytest.raises(CertificationError, match="cpn False") as info:
        extension_witness(rho, rho)
    assert (info.value.value, info.value.bound) == (-1.0, -1e-9 * witness.scale)


def test_nonextreme_decomposition_rejects_extreme_input():
    with pytest.raises(ValidationError):
        nonextreme_decomposition(as_cpn(identity_map(m2())))


def test_extremality_is_relative_to_the_value_at_the_unit():
    # maps outside the unital class are decided in C(rho(1)): a multiple of
    # the identity map and a map matrix with rho_12(1) = I/2 are extreme
    # there, as the Choi oracle says
    ident = identity_map(m2())
    for rho, sizes in ((as_cpn(0.5 * ident), (1, 1)),
                       (CPnMap(((ident, 0.5 * ident), (0.5 * ident, ident))), (4, 4))):
        rep = is_extreme(rho)
        assert rep.extreme and (rep.commutant_dim, rep.compression_rank) == sizes
        assert (True,) + sizes == choi_extreme(rho)


def test_extreme_family_is_extreme_in_its_class():
    alg = m2()
    u2 = alg.element([np.diag([1.0, -1.0])])
    # with the identity base the off-diagonal at the unit equals u2, so
    # the family lies outside the zero-off-diagonal convex set; it is pure,
    # so it is extreme in its own C(rho(1))
    fam = build_extreme_family(identity_map(alg), (alg.unit(), u2))
    assert is_pure(fam) and is_extreme(fam).extreme
    # a vector state with <xi, u2 xi> = 0 keeps the family inside the
    # unital set, where purity forces extremality
    xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
    base = vector_state(alg, xi)
    assert abs(apply_map(base, u2)[0, 0]) < 1e-12
    fam2 = build_extreme_family(base, (alg.unit(), u2))
    assert is_extreme(fam2).extreme


def test_flatten_consistency_for_witness():
    # extension witnesses remain valid after flattening
    idm = as_cpn(identity_map(m2()))
    wit = extension_witness(idm, idm)
    flat = flatten(wit)
    w = np.linalg.eigvalsh(flat.choi_blocks[0])
    assert w.min() > -1e-9


# Frame commutant and intertwiner bases against the nullspace oracle


def span_projector(basis, shape):
    if not basis:
        return np.zeros((shape[0] * shape[1],) * 2, dtype=complex)
    s = np.stack([b.ravel() for b in basis], axis=1)
    return s @ s.conj().T


def assert_same_space(fast, oracle, shape):
    assert len(fast) == len(oracle)
    gap = np.linalg.norm(span_projector(fast, shape) - span_projector(oracle, shape))
    assert gap <= 1e-8


def forbid_oracles(monkeypatch):
    """Make the nullspace oracles raise wherever cpnkit could reach them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("production code called a nullspace oracle")

    for name, module in list(sys.modules.items()):
        if name == "cpnkit" or name.startswith("cpnkit."):
            for oracle in ("commutant_basis_of", "intertwiner_basis_of", "nullspace"):
                if hasattr(module, oracle):
                    monkeypatch.setattr(module, oracle, forbidden)


def with_zero_block(rho, block):
    phi = rho.entries[0][0]
    blocks = tuple(np.zeros_like(b) if k == block else b
                   for k, b in enumerate(phi.choi_blocks))
    return as_cpn(LinearMap(phi.domain, phi.codomain_dim, blocks))


def oracle_maps(dims, rng):
    alg = make_algebra(dims)
    maps = [random_cpn_map(alg, 2, 1, rank, rng) for rank in (1, 2, 3)]
    maps.append(random_cpn_map(alg, 2, 2, 2, rng))
    maps.append(with_zero_block(random_cpn_map(alg, 2, 1, 2, rng), 0))
    maps.append(as_cpn(zero_map(alg, 2)))
    return maps


def random_unitary_matrix(h, rng):
    g = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    u, _ = np.linalg.qr(g)
    return u


def conjugated(rep, u, pad=0):
    """Representation u (rep (+) 0_pad) u*, with rep's multiplicities."""
    h = rep.space_dim + pad
    images = np.zeros((rep.algebra.dim, h, h), dtype=complex)
    images[:, :rep.space_dim, :rep.space_dim] = rep.images
    return Representation(rep.algebra, h, u @ images @ u.conj().T)


def commutant_oracle(rep):
    return commutant_basis_of(list(rep.images), rep.space_dim, 1e-9)


def in_rep_coordinates(rep):
    """commutant(rep).basis, which is in rep's canonical frame, conjugated
    by that frame's U into rep's own coordinates."""
    u = canonical_frame(rep)[0]
    return list(u @ commutant(rep).basis @ u.conj().T)


@pytest.mark.parametrize("dims", [(2, 2), (3, 1), (2, 1)])
def test_closed_form_commutant_matches_oracle(dims, monkeypatch):
    rng = np.random.default_rng(sum(dims))
    for rho in oracle_maps(dims, rng):
        dil = dilate(rho)
        rep = dil.rep
        # a dilate() output is its own canonical frame, so seeded draws from
        # the commutant basis do not depend on how the frame is found
        u, mults, eps = canonical_frame(rep)
        assert eps == 0.0
        assert np.array_equal(u, np.eye(rep.space_dim))
        assert mults == rep.multiplicities + (0,)
        oracle = commutant_oracle(rep)
        forbid_oracles(monkeypatch)
        fast = commutant(rep)
        assert fast.dimension == sum(r * r for r in rep.multiplicities)
        assert_same_space(list(fast.basis), oracle, (rep.space_dim,) * 2)
        monkeypatch.undo()


@pytest.mark.parametrize("dims", [(2, 2), (3, 1), (2, 1)])
def test_closed_form_intertwiners_match_oracle(dims, monkeypatch):
    rng = np.random.default_rng(10 + sum(dims))
    dils = [dilate(rho) for rho in oracle_maps(dims, rng)]
    for d1 in dils:
        for d2 in dils:
            oracle = intertwiner_basis_of(list(d1.rep.images), list(d2.rep.images),
                                          d1.space_dim, d2.space_dim, 1e-9)
            forbid_oracles(monkeypatch)
            fast = intertwiner_space(d1, d2)
            expected = sum(r * s for r, s in zip(d1.rep.multiplicities,
                                                 d2.rep.multiplicities))
            assert len(fast) == expected
            assert_same_space(fast, oracle, (d2.space_dim, d1.space_dim))
            monkeypatch.undo()


@pytest.mark.parametrize("dims", [(2, 2), (3, 1)])
def test_frame_bases_match_oracle_on_conjugated_representations(dims, monkeypatch):
    rng = np.random.default_rng(20 + sum(dims))
    for rho in oracle_maps(dims, rng)[:4]:
        dil = dilate(rho)
        u = random_unitary_matrix(dil.space_dim, rng)
        rep = conjugated(dil.rep, u)
        moved = StinespringDilation(rep, tuple(u @ v for v in dil.isometries), rho)
        oracle = commutant_oracle(rep)
        pairs = [(dil, moved), (moved, dil), (moved, moved)]
        inter_oracles = [intertwiner_basis_of(list(a.rep.images), list(b.rep.images),
                                              a.space_dim, b.space_dim, 1e-9)
                         for a, b in pairs]
        forbid_oracles(monkeypatch)
        fast = commutant(rep)
        assert fast.dimension == sum(r * r for r in dil.rep.multiplicities)
        assert_same_space(in_rep_coordinates(rep), oracle, (rep.space_dim,) * 2)
        for (a, b), inter in zip(pairs, inter_oracles):
            assert_same_space(intertwiner_space(a, b), inter,
                              (b.space_dim, a.space_dim))
        monkeypatch.undo()


@pytest.mark.parametrize("dims", [(2,), (2, 1), (3, 1)])
def test_frame_commutant_of_non_unital_representation(dims, monkeypatch):
    # the kernel of Phi(1) is one more summand, a last block with d = 1,
    # with the full matrix algebra as its commutant
    rng = np.random.default_rng(30 + sum(dims))
    dil = dilate(random_cpn_map(make_algebra(dims), 2, 1, 2, rng))
    pad = 2
    rep = conjugated(dil.rep, random_unitary_matrix(dil.space_dim + pad, rng), pad)
    oracle = commutant_oracle(rep)
    forbid_oracles(monkeypatch)
    fast = commutant(rep)
    assert fast.block_dims == dil.rep.algebra.block_dims + (1,)
    assert fast.multiplicities == dil.rep.multiplicities + (pad,)
    assert fast.dimension == sum(r * r for r in dil.rep.multiplicities) + pad * pad
    assert_same_space(in_rep_coordinates(rep), oracle, (rep.space_dim,) * 2)


@pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 1)])
def test_frame_commutant_of_gram_dilations(dims, monkeypatch):
    rng = np.random.default_rng(40 + sum(dims))
    for rho in oracle_maps(dims, rng)[:4]:
        gram = dilate_from_gram(rho)
        oracle = commutant_oracle(gram.rep)
        forbid_oracles(monkeypatch)
        fast = commutant(gram.rep)
        assert fast.dimension == sum(r * r for r in dilate(rho).rep.multiplicities)
        assert_same_space(in_rep_coordinates(gram.rep), oracle, (gram.space_dim,) * 2)
        monkeypatch.undo()


def test_commutant_rejects_images_that_are_not_a_representation():
    rng = np.random.default_rng(50)
    dil = dilate(random_cpn_map(make_algebra((2, 1)), 2, 1, 2, rng))
    rep = conjugated(dil.rep, random_unitary_matrix(dil.space_dim, rng))
    noise = rng.standard_normal(rep.images.shape) + 1j * rng.standard_normal(rep.images.shape)
    for size in (1e-6, 1e-2, 1.0):
        bad = Representation(rep.algebra, rep.space_dim, rep.images + size * noise)
        with pytest.raises(CertificationError) as info:
            commutant(bad)
        if "frame has" not in str(info.value):  # else canonical_frame refused it first
            assert info.value.value > info.value.bound > 0  # B(eps) against its bound
    # a rank-one projection with no partner is not a representation of (2, 1)
    half = rep.images.copy()
    half[1] = 0.0
    with pytest.raises(CertificationError):
        commutant(Representation(rep.algebra, rep.space_dim, half))


def test_zero_block_pair_is_disjoint_and_shared_block_has_witness():
    rng = np.random.default_rng(7)
    alg = make_algebra((2, 1))
    base = random_cpn_map(alg, 2, 1, 2, rng)
    only0 = with_zero_block(base, 1)
    only1 = with_zero_block(base, 0)
    assert dilate(only0).rep.multiplicities[1] == 0
    assert are_disjoint(only0, only1)
    assert extension_witness(only0, only1) is None
    assert not are_disjoint(only0, as_cpn(base.entries[0][0]))
    wit = extension_witness(only0, as_cpn(base.entries[0][0]))
    assert wit is not None and is_completely_n_positive(wit).verdict


def test_zero_map_commutant_is_empty():
    dil = dilate(as_cpn(zero_map(make_algebra((2, 1)), 2)))
    assert dil.space_dim == 0
    assert commutant(dil.rep).dimension == 0
    assert intertwiner_space(dil, dil) == []


def test_conjugated_representation_takes_frame_route(monkeypatch):
    rng = np.random.default_rng(3)
    alg = make_algebra((2, 1))
    dil = dilate(random_cpn_map(alg, 2, 1, 2, rng))
    h = dil.space_dim
    u = random_unitary_matrix(h, rng)
    rep = conjugated(dil.rep, u)
    forbid_oracles(monkeypatch)
    basis = commutant(rep)
    assert rep.multiplicities is None
    assert basis.multiplicities == dil.rep.multiplicities
    # conjugating the closed-form basis gives the same space
    closed = [u @ b @ u.conj().T for b in commutant(dil.rep).basis]
    assert_same_space(in_rep_coordinates(rep), closed, (h, h))


@pytest.mark.parametrize("make", [lambda: as_cpn(identity_map(m2())),
                                  lambda: as_cpn(depolarizing_map(2)),
                                  lambda: as_cpn(trace_map(make_algebra((2, 2))))])
def test_gram_dilation_purity_matches(make, monkeypatch):
    rho = make()
    gram = dilate_from_gram(rho)
    forbid_oracles(monkeypatch)
    verdict = is_pure(rho, dilation=canonicalize(gram)[0])
    monkeypatch.undo()
    assert verdict == is_pure(rho)


def test_nullspace_matches_full_svd_on_tall_and_wide():
    rng = np.random.default_rng(17)
    for rows, cols, rank in ((12, 5, 3), (3, 7, 2)):
        a = (rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))) \
            @ (rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols)))
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        r = int(np.sum(s > 1e-9 * (1.0 + s[0])))
        full = vh[r:].conj().T
        got = nullspace(a, 1e-9)
        assert got.shape == full.shape == (cols, cols - rank)
        assert np.abs(got @ got.conj().T - full @ full.conj().T).max() <= 1e-12


def test_spectral_norm_of_a_stack_is_the_largest_member():
    rng = np.random.default_rng(18)
    stack = rng.standard_normal((3, 2, 4, 5)) + 1j * rng.standard_normal((3, 2, 4, 5))
    per_matrix = max(np.linalg.norm(x, 2) for x in stack.reshape(6, 4, 5))
    assert spectral_norm(stack) == per_matrix
    assert spectral_norm(stack[0, 0]) == np.linalg.norm(stack[0, 0], 2)
    assert spectral_norm(np.zeros((3, 0, 0))) == 0.0
    assert spectral_norm(np.zeros((0, 4))) == 0.0
    # read off the SVD, bitwise what np.linalg.norm(., 2) takes the max of
    low_rank = stack[:, :, :, :1] @ stack[:, :, :1, :]
    for a in (stack, stack[1], stack[0, 1], stack.real, low_rank, np.zeros((2, 3, 3))):
        assert spectral_norm(a) == np.linalg.norm(a, 2, axis=(-2, -1)).max()


# Purity and extremality in frame coordinates against the P T_s P route


def unital_map(dims, n, m, ranks, rng):
    """Random map matrix with flatten(rho)(1) = I and Choi ranks r_k, or None
    when the image of the unit is singular before normalizing."""
    nm = n * m
    raw = []
    for d, r in zip(dims, ranks):
        g = rng.standard_normal((d * nm, r)) + 1j * rng.standard_normal((d * nm, r))
        raw.append(g @ g.conj().T)
    unit = sum(c[p * nm:(p + 1) * nm, p * nm:(p + 1) * nm]
               for d, c in zip(dims, raw) for p in range(d))
    w, v = np.linalg.eigh(unit)
    if w[0] <= 1e-6 * w[-1]:
        return None
    lift = (v / np.sqrt(w)) @ v.conj().T
    blocks = tuple(herm(np.kron(np.eye(d), lift) @ c @ np.kron(np.eye(d), lift))
                   for d, c in zip(dims, raw))
    return unflatten(LinearMap(make_algebra(dims), nm, blocks), n)


def unital_maps(count, rng):
    out = []
    combos = [(dims, n) for dims in ((2,), (3,), (2, 1), (2, 2), (3, 1)) for n in (1, 2)]
    while len(out) < count:
        dims, n = combos[len(out) % len(combos)]
        m = int(rng.integers(1, 3))
        ranks = tuple(int(rng.integers(0, min(d * n * m, 4) + 1)) for d in dims)
        rho = unital_map(dims, n, m, ranks, rng)
        if rho is not None:
            out.append(rho)
    return out


def ptp_route(dil, tol=1e-9):
    """The H^2-row route in dil's own coordinates: rank of the stack of
    vec(P T_s P) over the oracle basis of the certified commutant,
    conjugated by canonicalize's U, with its singular values."""
    canon, u = canonicalize(dil, tol)
    comm = commutant(canon.rep)
    basis = pair_basis(comm, comm, u, u)
    q = orth(dil.joint_isometry, tol)
    p = q @ q.conj().T
    stack = np.stack([(p @ b @ p).ravel() for b in basis], axis=1)
    rank = numerical_rank(stack, tol)
    return (rank == len(basis), len(basis), rank), np.linalg.svd(stack, compute_uv=False)


def report_tuple(rep):
    return rep.extreme, rep.commutant_dim, rep.compression_rank


def certified_rank(rep):
    """The rank the Gram certificate proves for rep's input, or None where
    is_extreme fell back to the SVD of its frame-row matrix."""
    return cpnkit_structure._certified_rank(
        cpnkit_structure._frame_stacks(rep.dilation, rep.comm), rep.tol)


def test_frame_extremality_matches_ptp_route(monkeypatch):
    rng = np.random.default_rng(60)
    maps = unital_maps(210, rng)
    verdicts = set()
    for rho in maps:
        dil = dilate(rho)
        expected, s_old = ptp_route(dil)
        forbid_oracles(monkeypatch)
        got = is_extreme(rho, dilation=dil)
        mat = got.matrix
        assert is_pure(rho, dilation=dil) == (expected[1] == 1)
        monkeypatch.undo()
        assert report_tuple(got) == expected
        s_new = np.linalg.svd(mat, compute_uv=False)
        k = min(len(s_new), len(s_old))
        assert np.abs(s_new[:k] - s_old[:k]).max() <= 1e-13 * s_old[0]
        assert np.all(s_old[k:] <= 1e-13 * s_old[0])
        verdicts.add(got.extreme)
    assert verdicts == {True, False}


def test_frame_extremality_on_conjugated_and_gram_dilations(monkeypatch):
    rng = np.random.default_rng(61)
    for rho in unital_maps(30, rng):
        dil = dilate(rho)
        u = random_unitary_matrix(dil.space_dim, rng)
        moved = StinespringDilation(conjugated(dil.rep, u),
                                    tuple(u @ v for v in dil.isometries), rho)
        gram = dilate_from_gram(rho)
        expected = [ptp_route(d)[0] for d in (dil, moved, gram)]
        assert expected[1] == expected[2] == expected[0]
        forbid_oracles(monkeypatch)
        for d, want in zip((moved, gram), expected[1:]):
            canon = canonicalize(d)[0]
            assert report_tuple(is_extreme(rho, dilation=canon)) == want
            assert is_pure(rho, dilation=canon) == (want[1] == 1)
        monkeypatch.undo()


def measured_commute_residual(rep, tol=1e-9):
    """(max ||[b, Phi(e)]|| over commutant(rep, tol).basis in rep's own
    coordinates, the frame residual eps), after asserting that the basis is
    closed under adjoints: b_ab* = b_ba, exact in canonical coordinates."""
    comm = commutant(rep, tol)
    u, _, eps = canonical_frame(rep)
    imgs = rep.images
    residual = max((spectral_norm(b @ imgs - imgs @ b) for b in u @ comm.basis @ u.conj().T),
                   default=0.0)
    swap = []
    for r in comm.multiplicities:
        swap += [len(swap) + b * r + a for a in range(r) for b in range(r)]
    assert np.array_equal(comm.basis.conj().swapaxes(-2, -1), comm.basis[swap])
    return residual, eps


def test_commutator_bound_dominates_measured_residuals():
    # B(eps) plus the rounding floor of representation_bound covers the
    # per-element commute residual measured over commutant(rep).basis
    rng = np.random.default_rng(62)
    reps = []
    for dims in ((2,), (2, 2), (3, 1), (2, 1)):
        for rho in oracle_maps(dims, rng)[:4]:
            dil = dilate(rho)
            reps.append(conjugated(dil.rep, random_unitary_matrix(dil.space_dim, rng)))
            reps.append(conjugated(dil.rep, random_unitary_matrix(dil.space_dim + 2, rng), 2))
            reps.append(dilate_from_gram(rho).rep)
    for rep in reps:
        residual, eps = measured_commute_residual(rep)
        assert residual <= commutator_bound(rep, eps) + representation_bound(rep, 0.0)
    # perturbed images, where eps is far above rounding, at a looser tol
    for rep in reps[:12]:
        noise = rng.standard_normal(rep.images.shape) + 1j * rng.standard_normal(rep.images.shape)
        bad = Representation(rep.algebra, rep.space_dim, rep.images + 1e-9 * noise)
        residual, eps = measured_commute_residual(bad, 1e-6)
        assert eps > 1e-10
        assert residual <= commutator_bound(bad, eps) + representation_bound(bad, 0.0)


def test_commutator_bound_failure_raises():
    # eps within representation_bound but B(eps) beyond it: the frame
    # certificate alone would pass, the commutant certificate must not
    rng = np.random.default_rng(63)
    rep = dilate(random_cpn_map(make_algebra((2,)), 2, 1, 2, rng)).rep
    noise = rng.standard_normal(rep.images.shape) + 1j * rng.standard_normal(rep.images.shape)
    bad = Representation(rep.algebra, rep.space_dim, rep.images + 1e-7 * noise)
    _, _, eps = canonical_frame(bad)
    tol = 1.5 * eps / (1.0 + bad.norm)
    assert eps <= representation_bound(bad, tol)
    assert commutator_bound(bad, eps) > representation_bound(bad, tol)
    with pytest.raises(CertificationError, match=r"not a \*-representation"):
        commutant(bad, tol)


def assert_certified_decomposition(rho, dec):
    scale = rho.scale
    avg = dec.beta * dec.part1 + (1.0 - dec.beta) * dec.part2
    assert cpn_distance(avg, rho) <= 1e-9 * scale
    assert cpn_distance(dec.part1, rho) > 1e-6 * scale
    assert cpn_distance(dec.part2, rho) > 1e-6 * scale
    eye = np.eye(rho.n * rho.codomain_dim)
    for part in (dec.part1, dec.part2):
        assert is_completely_n_positive(part).verdict
        assert np.abs(apply_map(flatten(part), part.domain.unit()) - eye).max() <= 1e-9
    t = dec.kernel_element
    assert np.abs(t - t.conj().T).max() <= 1e-12
    assert spectral_norm(t) == pytest.approx(1.0)


def test_nonextreme_decomposition_from_frame_coordinates(monkeypatch):
    dep = as_cpn(depolarizing_map(2))
    rng = np.random.default_rng(64)
    multi = unital_map((2, 1), 1, 2, (4, 2), rng)
    conj = dilate(multi)
    u = random_unitary_matrix(conj.space_dim, rng)
    moved = StinespringDilation(conjugated(conj.rep, u), tuple(u @ v for v in conj.isometries),
                                multi)
    forbid_oracles(monkeypatch)
    canon, u = canonicalize(moved)
    for rho, dil in ((dep, None), (multi, None), (multi, canon)):
        rep = is_extreme(rho, dilation=dil)
        assert not rep.extreme
        dec = nonextreme_decomposition(rho, dilation=dil)
        assert_certified_decomposition(rho, dec)
        # P T P = 0 on the dilation's span: T compresses to zero
        d = dil if dil is not None else dilate(rho)
        v = d.joint_isometry
        assert np.abs(v.conj().T @ dec.kernel_element @ v).max() <= 1e-12
    # on the given dilation the element is U T U*
    t = u @ dec.kernel_element @ u.conj().T
    assert np.abs(moved.joint_isometry.conj().T @ t @ moved.joint_isometry).max() <= 1e-12


def test_decomposition_does_not_depend_on_the_kernel_basis(monkeypatch):
    # a unitary W on the left keeps the kernel of the q^2 x sum r^2 matrix
    # but changes the kernel basis LAPACK lists; the decomposition must not move
    dep = as_cpn(depolarizing_map(2))
    base = nonextreme_decomposition(dep)
    mat = is_extreme(dep).matrix
    assert mat.shape[1] - numerical_rank(mat, 1e-9) == 12
    rng = np.random.default_rng(65)
    real = cpnkit_structure._frame_row_matrix
    for _ in range(5):
        w = random_unitary_matrix(mat.shape[0], rng)

        def rotated(*args):
            return w @ real(*args)

        monkeypatch.setattr(cpnkit_structure, "_frame_row_matrix", rotated)
        moved = nonextreme_decomposition(dep)
        monkeypatch.undo()
        assert np.abs(moved.kernel_element - base.kernel_element).max() <= 1e-10


# One certified commutant: dimension and elements from the frame, basis on demand


def frame_reps(rng):
    """dilate, conjugated, padded (non-unital) and Gram representations; the
    fifth oracle map has a zero Choi block, so a zero multiplicity."""
    reps = []
    for dims in ((2,), (2, 1), (3, 1)):
        for rho in oracle_maps(dims, rng)[:5]:
            dil = dilate(rho)
            reps += [dil.rep,
                     conjugated(dil.rep, random_unitary_matrix(dil.space_dim, rng)),
                     conjugated(dil.rep, random_unitary_matrix(dil.space_dim + 2, rng), 2),
                     dilate_from_gram(rho).rep]
    return reps


def test_element_is_the_basis_combination():
    rng = np.random.default_rng(66)
    zero_blocks = padded = 0
    for rep in frame_reps(rng):
        comm = commutant(rep)
        zero_blocks += 0 in comm.multiplicities[:-1] and rep.space_dim > 0
        padded += comm.multiplicities[-1] > 0
        coeffs = rng.standard_normal(comm.dimension) + 1j * rng.standard_normal(comm.dimension)
        want = np.tensordot(coeffs, pair_basis(comm, comm), axes=1)
        got = comm.element(coeffs)
        assert got.shape == want.shape == (rep.space_dim,) * 2
        assert spectral_norm(got - want) <= 1e-12 * spectral_norm(want)
    assert zero_blocks and padded
    with pytest.raises(ValidationError):
        comm.element(np.zeros(comm.dimension + 1))


def record_commutants(monkeypatch):
    """Route every cpnkit call of commutant() through a recorder; returns
    the list the certified objects are appended to."""
    made = []
    real = cpnkit_dilation.commutant

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    for name, module in list(sys.modules.items()):
        if (name == "cpnkit" or name.startswith("cpnkit.")) \
                and getattr(module, "commutant", None) is real:
            monkeypatch.setattr(module, "commutant", recording)
    return made


def test_verdicts_do_not_build_the_commutant_basis(monkeypatch):
    rng = np.random.default_rng(67)
    dep = as_cpn(depolarizing_map(2))
    multi = unital_map((2, 1), 1, 2, (4, 2), rng)
    made = record_commutants(monkeypatch)
    for rho in (dep, multi):
        dil = dilate(rho)
        is_pure(rho, dilation=dil)
        is_extreme(rho, dilation=dil)
        nonextreme_decomposition(rho, dilation=dil)
        sample_unit_interval(dil, rng)
    assert len(made) == 8
    assert all("basis" not in vars(comm) for comm in made)
    assert made[0].basis.shape == (made[0].dimension,) + (made[0].space_dim,) * 2
    assert "basis" in vars(made[0])


def test_commutant_dimension_at_h64_stays_small():
    rho = random_cpn_map(make_algebra((2,)), 8, 2, 32, np.random.default_rng(68))
    dil = dilate(rho)
    assert dil.space_dim == 64
    tracemalloc.start()
    try:
        dim = commutant(dil.rep).dimension
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dim == 32 * 32
    assert peak < 10e6


def test_commutant_dimension_takes_one_svd(monkeypatch):
    rng = np.random.default_rng(69)
    dil = dilate(random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng))
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # dilate() seeds its frame; another representation certifies its own
    for rep, svds in ((dil.rep, 0),
                      (conjugated(dil.rep, random_unitary_matrix(dil.space_dim, rng)), 1)):
        rep.norm  # max ||Phi(e)|| is cached on the representation
        monkeypatch.setattr(np.linalg, "svd", counting)
        dim = commutant(rep).dimension
        monkeypatch.undo()
        assert dim == sum(r * r for r in dil.rep.multiplicities)
        assert len(calls) == svds  # the frame certificate
        calls.clear()


# One frame per representation: computed once, gated by every commutant() call


def count_kernels(monkeypatch):
    """Count np.linalg.eigh and np.linalg.svd calls from here on."""
    calls = []
    for name in ("eigh", "svd"):
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_second_commutant_reads_the_cached_frame(monkeypatch):
    # a canonical representation carries its frame as its multiplicities:
    # dilate's and canonicalize's outputs answer every commutant() call
    # with no kernel run
    rng = np.random.default_rng(70)
    dil = dilate(random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng))
    u = random_unitary_matrix(dil.space_dim, rng)
    moved = StinespringDilation(conjugated(dil.rep, u), tuple(u @ v for v in dil.isometries),
                                dil.source)
    for rep in (dil.rep, canonicalize(moved)[0].rep):
        first = commutant(rep, 1e-9)
        calls = count_kernels(monkeypatch)
        second = commutant(rep, 1e-6)
        monkeypatch.undo()
        assert calls == []
        assert second.multiplicities == first.multiplicities == dil.rep.multiplicities


def test_frame_with_wrong_vector_count_raises_on_every_call(monkeypatch):
    rng = np.random.default_rng(71)
    rep = dilate(random_cpn_map(make_algebra((2, 1)), 2, 1, 2, rng)).rep
    images = rep.images.copy()
    images[0] = np.eye(rep.space_dim)  # Phi(e_11) = I has too many lifts
    bad = Representation(rep.algebra, rep.space_dim, images)
    for _ in range(2):
        calls = count_kernels(monkeypatch)
        with pytest.raises(CertificationError, match="vectors in dimension"):
            commutant(bad)
        monkeypatch.undo()
        assert "eigh" in calls and "frame" not in vars(bad)


def doubled(dil):
    """Phi (x) I_2 with V_i (x) e_1: a dilation of the same map, not minimal."""
    images = np.kron(dil.rep.images, np.eye(2))
    return StinespringDilation(Representation(dil.rep.algebra, 2 * dil.space_dim, images),
                               tuple(np.kron(v, np.eye(2)[:, :1]) for v in dil.isometries),
                               dil.source)


def test_minimality_is_decided_once_per_dilation_and_tol(monkeypatch):
    # dilate() seeds the verdict at its tol; another dilation reads its
    # frame rows once per tol, and a non-minimal one keeps failing
    rng = np.random.default_rng(73)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 1, 2, rng)
    dil = dilate(rho)
    u = random_unitary_matrix(dil.space_dim, rng)
    other = canonicalize(StinespringDilation(conjugated(dil.rep, u),
                                             tuple(u @ v for v in dil.isometries), rho))[0]
    reads = []
    real = cpnkit_dilation.CommutantBasis.rows
    monkeypatch.setattr(cpnkit_dilation.CommutantBasis, "rows",
                        lambda self, v: reads.append(v) or real(self, v))
    verdicts = [is_pure(rho, dilation=dil), is_pure(rho, dilation=other),
                is_pure(rho, dilation=other), is_pure(rho, 1e-7, dilation=other)]
    assert verdicts == [False] * 4 and all(v is other.joint_isometry for v in reads)
    assert len(reads) == 2
    assert dil._minimal == {1e-9: True} and other._minimal == {1e-9: True, 1e-7: True}
    bad = canonicalize(doubled(dil))[0]
    for _ in range(2):
        with pytest.raises(ValidationError, match="not minimal"):
            is_pure(rho, dilation=bad)
    assert bad._minimal == {1e-9: False}
    assert len(reads) == 3


def test_foreign_dilation_is_rejected():
    ident = as_cpn(identity_map(m2()))
    dep = as_cpn(depolarizing_map(2))
    foreign = dilate(dep)
    foreign_map = "not a dilation of the given map matrix"
    for call in (lambda: is_pure(ident, dilation=foreign),
                 lambda: is_extreme(ident, dilation=foreign),
                 lambda: nonextreme_decomposition(ident, dilation=foreign),
                 lambda: rn_operator(ident, 0.5 * ident, source_dilation=foreign)):
        with pytest.raises(ValidationError, match=foreign_map):
            call()
    # positivity, then the source; a map outside the unital class is
    # decided in its own C(rho(1))
    with pytest.raises(PositivityError):
        is_pure(-1.0 * ident, dilation=foreign)
    with pytest.raises(ValidationError, match=foreign_map):
        is_extreme(2.0 * ident, dilation=foreign)
    assert is_extreme(2.0 * ident, dilation=dilate(2.0 * ident)).extreme
    # an equal but distinct map matrix owns the dilation
    assert not is_pure(as_cpn(depolarizing_map(2)), dilation=foreign)
    assert is_extreme(as_cpn(depolarizing_map(2)), dilation=foreign).commutant_dim == 16
    # Phi (+) Phi with V (+) 0 factorizes the identity map but is not minimal:
    # answered for as given, it would call the pure, extreme map neither;
    # its canonical form keeps r_0 = 0, so the rows decide
    two = doubled(dilate(ident))
    assert verify_dilation(ident, two).factor_residual <= 1e-12
    assert not verify_dilation(ident, two).minimal
    canon = canonicalize(two)[0]
    assert canon.rep.multiplicities == (2,)
    for call in (lambda: is_pure(ident, dilation=canon),
                 lambda: is_extreme(ident, dilation=canon),
                 lambda: nonextreme_decomposition(ident, dilation=canon)):
        with pytest.raises(ValidationError, match="not minimal"):
            call()
    assert is_pure(ident) and is_extreme(ident).extreme
    # rn_operator needs no minimal source and still accepts it
    assert rn_operator(ident, 0.5 * ident, source_dilation=canon).spectrum[1] <= 0.5 + 1e-12
