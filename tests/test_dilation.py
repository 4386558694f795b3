import numpy as np
import pytest

from cpnkit import (CertificationError, CPnMap, LinearMap, PositivityError, Representation,
                    StinespringDilation, ValidationError, apply_map, as_cpn,
                    canonicalize, commutant, diagonal_direct_sum_check, dilate, dilate_from_gram,
                    depolarizing_map, equivalence_residual, gram_matrix,
                    identity_map, images_of, make_algebra, matrix_units,
                    random_cpn_map, random_element, require_cpn, rep_apply,
                    spanning_matrix,
                    unflatten, unitary_equivalence, verify_dilation,
                    verify_representation, zero_map)
import cpnkit.dilation as cpnkit_dilation


def test_identity_dilation_is_two_dimensional():
    rho = as_cpn(identity_map(make_algebra((2,))))
    dil = dilate(rho)
    assert dil.space_dim == 2
    rep = verify_dilation(rho, dil)
    assert rep.factor_residual <= 1e-12
    assert rep.minimal


def test_all_identity_pair_shares_one_copy():
    # frozen: both operators collapse onto the same 2-dimensional space
    # and are the identity there
    ident = identity_map(make_algebra((2,)))
    rho = CPnMap(((ident, ident), (ident, ident)))
    dil = dilate(rho)
    assert dil.space_dim == 2
    assert np.allclose(dil.isometries[0], np.eye(2))
    assert np.allclose(dil.isometries[1], np.eye(2))
    assert verify_dilation(rho, dil).minimal


def test_depolarizing_dilation_dimension():
    # frozen: full-rank pattern on a 2x2 block gives multiplicity 4
    dil = dilate(as_cpn(depolarizing_map(2)))
    assert dil.space_dim == 8
    assert dil.rep.multiplicities == (4,)


def test_random_dilations_verify():
    rng = np.random.default_rng(0)
    shapes = [((2,), 2, 2), ((2, 1), 3, 1), ((3,), 1, 2), ((2, 2), 2, 2),
              ((1,), 1, 1), ((1, 1, 1), 2, 3)]
    for dims, m, n in shapes:
        alg = make_algebra(dims)
        rho = random_cpn_map(alg, m, n, 3, rng)
        dil = dilate(rho)
        rep = verify_dilation(rho, dil)
        assert rep.factor_residual <= 1e-9 * rep.scale, (dims, m, n)
        assert rep.minimal, (dims, m, n)
        rr = verify_representation(dil.rep)
        assert rr.ok(1e-9)


def test_zero_map_dilation_is_empty():
    alg = make_algebra((2,))
    rho = random_cpn_map(alg, 2, 2, 0, np.random.default_rng(0))
    dil = dilate(rho)
    assert dil.space_dim == 0
    rep = verify_dilation(rho, dil)
    assert rep.factor_residual == 0.0
    assert rep.minimal


def test_dilate_rejects_non_cpn():
    ident = identity_map(make_algebra((2,)))
    bad = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    with pytest.raises(PositivityError):
        dilate(bad)


def test_dilate_positivity_error_matches_require_cpn():
    # dilate reads its verdict off the eigendecomposition it dilates with;
    # its error is require_cpn's, min_eig equal up to rounding (eigh and
    # eigvalsh are different LAPACK drivers)
    rng = np.random.default_rng(8)
    alg = make_algebra((2, 1))
    ident = identity_map(make_algebra((2,)))
    phi = random_cpn_map(alg, 2, 1, 2, rng).entries[0][0]
    skew = LinearMap(alg, 2, tuple(b + 0.1 * np.triu(np.ones(b.shape), 1)
                                   for b in phi.choi_blocks))
    cases = [CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident))),
             random_cpn_map(alg, 2, 2, 3, rng) - 0.3 * random_cpn_map(alg, 2, 2, 1, rng),
             as_cpn(skew)]
    messages = set()
    for rho in cases:
        with pytest.raises(PositivityError) as expected:
            require_cpn(rho)
        with pytest.raises(PositivityError) as got:
            dilate(rho)
        assert str(got.value) == str(expected.value)
        assert got.value.min_eig == pytest.approx(expected.value.min_eig, rel=1e-12)
        messages.add(str(got.value).split(" (")[0])
    assert messages == {"map is not completely n-positive",
                        "map matrix is not Hermitian-symmetric"}


def test_padded_dilation_is_not_minimal():
    # enlarging the space while keeping the factorization must flip the
    # minimality verdict
    alg = make_algebra((2,))
    rho = as_cpn(identity_map(alg))
    dil = dilate(rho)
    units = matrix_units(alg)
    padded_images = []
    for idx in range(alg.dim):
        img = np.zeros((4, 4), dtype=complex)
        img[:2, :2] = dil.rep.images[idx]
        img[2:, 2:] = np.array(units[idx].blocks[0])
        padded_images.append(img)
    padded_rep = Representation(alg, 4, tuple(padded_images))
    padded_v = np.vstack([dil.isometries[0], np.zeros((2, 2))])
    padded = StinespringDilation(padded_rep, (padded_v,), rho)
    rep = verify_dilation(rho, padded)
    assert rep.factor_residual <= 1e-12
    assert not rep.minimal
    assert rep.span_dim == 2 and rep.space_dim == 4


def test_spanning_matrix_columns():
    rng = np.random.default_rng(1)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 2, rng)
    dil = dilate(rho)
    s = spanning_matrix(dil)
    assert s.shape == (dil.space_dim, rho.domain.dim * rho.n * rho.codomain_dim)
    assert np.linalg.matrix_rank(s, tol=1e-9) == dil.space_dim


def test_gram_matrix_matches_dilation_rank():
    rng = np.random.default_rng(2)
    for dims, m, n in [((2,), 2, 2), ((2, 1), 2, 1), ((3,), 1, 2), ((1, 2), 2, 2)]:
        alg = make_algebra(dims)
        rho = random_cpn_map(alg, m, n, 3, rng)
        g = gram_matrix(rho)
        assert np.allclose(g, g.conj().T)
        assert np.linalg.eigvalsh(g).min() > -1e-10
        assert np.linalg.matrix_rank(g, tol=1e-9) == dilate(rho).space_dim
        # the definition, entry by entry: G[(a, i, u), (b, j, v)] is
        # rho_ij(e_a* e_b)[u, v], the closed form's copies of C_k exactly
        units = matrix_units(alg)
        want = np.zeros_like(g)
        for a, ea in enumerate(units):
            for b, eb in enumerate(units):
                for i in range(n):
                    for j in range(n):
                        img = apply_map(rho.entries[i][j], ea.adjoint() @ eb)
                        want[(a * n + i) * m:(a * n + i + 1) * m,
                             (b * n + j) * m:(b * n + j + 1) * m] = img
        assert np.array_equal(g, want)


def test_gram_route_unitarily_equivalent():
    rng = np.random.default_rng(3)
    for dims, m, n in [((2,), 2, 2), ((2, 1), 2, 2), ((3,), 2, 1)]:
        rho = random_cpn_map(make_algebra(dims), m, n, 3, rng)
        a = dilate_from_gram(rho)
        b = dilate(rho)
        assert verify_dilation(rho, a).ok(1e-9)
        u = unitary_equivalence(a, b)
        assert u is not None
        assert equivalence_residual(a, b, u) <= 1e-9


def test_unitary_equivalence_none_on_dimension_mismatch():
    alg = make_algebra((2,))
    d1 = dilate(as_cpn(identity_map(alg)))
    d2 = dilate(as_cpn(depolarizing_map(2)))
    assert unitary_equivalence(d1, d2) is None


def test_unitary_equivalence_skips_the_source_gate_on_a_shared_source(monkeypatch):
    # as dilation_of: one source object needs no cpn_distance; an equal copy does
    rng = np.random.default_rng(9)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    copy = unflatten(LinearMap(rho.domain, 4, rho.flat.choi_blocks), 2)
    real, calls = cpnkit_dilation.cpn_distance, []
    monkeypatch.setattr(cpnkit_dilation, "cpn_distance",
                        lambda *args: calls.append(args) or real(*args))
    shared = unitary_equivalence(dilate_from_gram(rho), dilate(rho))
    assert calls == []
    other = unitary_equivalence(dilate_from_gram(rho), dilate(copy))
    assert len(calls) == 1 and np.array_equal(shared, other)


def test_unitary_equivalence_rejects_different_sources():
    rng = np.random.default_rng(4)
    alg = make_algebra((2,))
    r1 = random_cpn_map(alg, 2, 1, 4, rng)
    r2 = random_cpn_map(alg, 2, 1, 4, rng)
    d1, d2 = dilate(r1), dilate(r2)
    assert d1.space_dim == d2.space_dim
    with pytest.raises(ValidationError):
        unitary_equivalence(d1, d2)


def test_unitary_equivalence_failure_carries_value_and_bound(monkeypatch):
    rho = as_cpn(depolarizing_map(2))
    d = dilate(rho)
    monkeypatch.setattr(cpnkit_dilation, "equivalence_residual", lambda *args: 1.0)
    with pytest.raises(CertificationError, match="intertwining unitary") as info:
        unitary_equivalence(d, d)
    bound = max(1e-9 * rho.scale, 1e3 * np.finfo(float).eps * rho.scale * d.space_dim)
    assert (info.value.value, info.value.bound) == (1.0, bound)


def test_rep_apply_is_multiplicative():
    rng = np.random.default_rng(6)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 2, 2, rng)
    rep = dilate(rho).rep
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    assert np.allclose(rep_apply(rep, a @ b),
                       rep_apply(rep, a) @ rep_apply(rep, b), atol=1e-10)
    assert np.allclose(rep_apply(rep, a.adjoint()),
                       rep_apply(rep, a).conj().T, atol=1e-10)


def test_diagonal_direct_sum():
    alg = make_algebra((2,))
    z = zero_map(alg, 2)
    rho = CPnMap(((identity_map(alg), z), (z, depolarizing_map(2))))
    report = diagonal_direct_sum_check(rho)
    assert report.space_dim == 10
    assert report.part_dims == (2, 8)
    assert report.additive
    assert report.residual <= 1e-8


def test_diagonal_direct_sum_rejects_off_diagonal():
    ident = identity_map(make_algebra((2,)))
    rho = CPnMap(((ident, ident), (ident, ident)))
    with pytest.raises(ValidationError):
        diagonal_direct_sum_check(rho)


def test_direct_sum_random_diagonals():
    rng = np.random.default_rng(7)
    alg = make_algebra((2,))
    for _ in range(5):
        d1 = random_cpn_map(alg, 2, 1, 2, rng).entries[0][0]
        d2 = random_cpn_map(alg, 2, 1, 3, rng).entries[0][0]
        z = zero_map(alg, 2)
        rho = CPnMap(((d1, z), (z, d2)))
        report = diagonal_direct_sum_check(rho)
        assert report.additive
        assert report.residual <= 1e-8
        assert report.space_dim == sum(report.part_dims)


def test_multiplicities_sum_to_space_dim():
    rng = np.random.default_rng(8)
    alg = make_algebra((2, 3))
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    dil = dilate(rho)
    mults = dil.rep.multiplicities
    assert dil.space_dim == sum(d * r for d, r in zip(alg.block_dims, mults))


def test_representation_rejects_contradicting_multiplicities(monkeypatch):
    # multiplicities are read off the frame, so none can be handed in to
    # contradict it: images carry none, commutant reads them off the frame
    # (the kernel of Phi(1) as a last block), and a dilate() output carries
    # its own
    alg = make_algebra((2,))
    dil = dilate(random_cpn_map(alg, 2, 1, 2, np.random.default_rng(16)))
    imgs = dil.rep.images
    with pytest.raises(TypeError):
        Representation(alg, 4, imgs, multiplicities=(5,))
    padded = np.zeros((alg.dim, 5, 5), dtype=complex)
    padded[:, :4, :4] = imgs
    for rep, mults in ((Representation(alg, 4, imgs), (2,)),
                       (Representation(alg, 5, padded), (2, 1))):
        assert rep.multiplicities is None and commutant(rep).multiplicities == mults
    monkeypatch.setattr(cpnkit_dilation, "canonical_frame", None)
    assert dil.rep.multiplicities == (2,) and dil.space_dim == 4
    # the canonical constructor takes one integer r_k >= 0 per block
    two = make_algebra((2, 1))
    for bad in ((1,), (1, 1, 1), (-1, 1), (1, -2), (1.5, 1), (1.0, 1)):
        with pytest.raises(ValidationError):
            Representation.canonical(two, bad)
    rep = Representation.canonical(two, (2, 0))
    assert rep.multiplicities == (2, 0) and rep.space_dim == 4
    assert rep.images.shape == (two.dim, 4, 4)


def test_factor_residual_matches_per_matrix_loop():
    rng = np.random.default_rng(14)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    dil = dilate(rho)
    # perturb the operators so the residual is far from rounding level
    vs = tuple(v + 1e-6 * rng.standard_normal(v.shape) for v in dil.isometries)
    bent = StinespringDilation(dil.rep, vs, rho)
    worst = 0.0
    for idx, img in enumerate(bent.rep.images):
        for i in range(rho.n):
            for j in range(rho.n):
                got = vs[i].conj().T @ img @ vs[j]
                expect = images_of(rho.entries[i][j])[idx]
                worst = max(worst, np.linalg.norm(got - expect, 2))
    assert worst > 1e-7
    assert verify_dilation(rho, bent).factor_residual == pytest.approx(worst, rel=1e-9)


def test_representation_images_are_a_validated_stack():
    alg = make_algebra((2, 1))
    dil = dilate(random_cpn_map(alg, 2, 1, 2, np.random.default_rng(15)))
    h = dil.space_dim
    imgs = dil.rep.images
    assert imgs.shape == (alg.dim, h, h)
    assert not imgs.flags.writeable
    assert len(imgs) == alg.dim and len(list(imgs)) == alg.dim
    rebuilt = Representation(alg, h, tuple(imgs))
    assert np.array_equal(rebuilt.images, imgs)
    own = np.array(imgs)  # an array of the right shape is copied too
    assert np.array_equal(Representation(alg, h, own).images, own) and own.flags.writeable
    ragged = list(imgs[:-1]) + [np.eye(h + 1)]
    with pytest.raises(ValidationError):
        Representation(alg, h, tuple(ragged))
    with pytest.raises(ValidationError):
        Representation(alg, h, tuple(imgs[:-1]))
    with pytest.raises(ValidationError):
        Representation(alg, h + 1, imgs)


def test_dilate_seeds_the_positivity_verdict(monkeypatch):
    # dilate keeps the verdict it decides from its eigh spectra, so a
    # dilation passed on to is_pure, rn_operator or intertwiner is not
    # followed by a second decision on rho; a verdict decided first is kept
    import cpnkit.maps as cpnkit_maps
    from cpnkit import intertwiner, is_completely_n_positive, is_pure, rn_operator

    rng = np.random.default_rng(41)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    theta = 0.5 * rho
    decided = []
    real = cpnkit_maps._cpn_verdicts

    def counting(*args, **kwargs):
        decided.append(1)
        return real(*args, **kwargs)

    # dilate decides through maps._verdict, as is_completely_n_positive does
    monkeypatch.setattr(cpnkit_maps, "_cpn_verdicts", counting)
    dil = dilate(rho)
    assert len(decided) == 1 and is_completely_n_positive(rho) is rho._verdicts[1e-9]
    is_pure(rho, dilation=dil)
    assert len(decided) == 1
    # each decides the new map rho - theta, and intertwiner dilates theta
    rn_operator(rho, theta, source_dilation=dil)
    assert len(decided) == 2
    intertwiner(rho, theta, source_dilation=dil)
    assert len(decided) == 4
    other = 2.0 * rho
    first = is_completely_n_positive(other)
    dilate(other)
    assert is_completely_n_positive(other) is first and len(decided) == 5


def test_no_verdict_on_a_dilate_output_builds_the_images(monkeypatch):
    # dilate returns Representation.canonical, whose images are built only
    # when read; every verdict reads the frame, the norm and the frame rows
    from cpnkit import (are_disjoint, compress, extension_witness, intertwiner,
                        is_extreme, is_pure, rn_operator, sample_unit_interval)
    from cpnkit.serialize import dilation_to_json

    def unbuildable(*args):
        raise AssertionError("canonical_images was built")

    monkeypatch.setattr(cpnkit_dilation, "canonical_images", unbuildable)
    rng = np.random.default_rng(42)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 1, 3, rng)
    dil = dilate(rho)
    assert is_pure(rho, dilation=dil) is False
    report = is_extreme(rho, dilation=dil)
    assert not report.extreme and 0 < report.decomposition().beta < 1
    theta = 0.5 * rho
    assert rn_operator(rho, theta, source_dilation=dil).dilation is dil
    intertwiner(rho, theta, source_dilation=dil)
    compress(dil, sample_unit_interval(dil, rng))
    assert not are_disjoint(rho, random_cpn_map(alg, 2, 1, 2, rng))
    assert extension_witness(rho, rho) is not None
    assert dilation_to_json(dil)["multiplicities"] == list(dil.rep.multiplicities)
    assert "images" not in dil.rep.__dict__


def test_dilation_stores_v_once():
    # V = [V_1 ... V_n] is one read-only complex copy of the input, and
    # the V_i are column views of it
    rng = np.random.default_rng(43)
    dil = dilate(random_cpn_map(make_algebra((2, 1)), 3, 2, 3, rng))
    given = [np.array(v).real for v in dil.isometries]
    made = StinespringDilation(dil.rep, given, dil.source)
    v = made.joint_isometry
    assert v.dtype == complex and not v.flags.writeable and v.shape == (dil.space_dim, 6)
    assert np.array_equal(v, np.hstack(given)) and not np.shares_memory(v, given[0])
    assert all(x.base is v and np.array_equal(x, g) for x, g in zip(made.isometries, given))
    assert all(x.base is dil.joint_isometry for x in dil.isometries)
    with pytest.raises(ValidationError, match="expected 2 operators"):
        StinespringDilation(dil.rep, given[:1], dil.source)
    with pytest.raises(ValidationError, match="operator 1 must have shape"):
        StinespringDilation(dil.rep, (given[0], given[1][:, :2]), dil.source)


def test_canonicalize_conjugates_by_the_certified_frame():
    # canonicalize(D) = (D', U): D' canonical with V'_i = U* V_i, U unitary
    # with U* Phi(.) U the canonical images; a kernel of Phi(1) is refused,
    # and images that are not a representation fail the frame's gate
    rng = np.random.default_rng(44)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    dil = dilate(rho)
    h = dil.space_dim
    u = np.linalg.qr(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))[0]
    moved = StinespringDilation(Representation(rho.domain, h, u @ dil.rep.images @ u.conj().T),
                                tuple(u @ v for v in dil.isometries), rho)
    for d in (dil, moved, dilate_from_gram(rho)):
        canon, w = canonicalize(d)
        assert canon.source is rho and canon.rep.multiplicities == dil.rep.multiplicities
        assert np.abs(w.conj().T @ w - np.eye(h)).max() <= 1e-12
        assert np.abs(w.conj().T @ d.rep.images @ w - dil.rep.images).max() <= 1e-12
        assert np.abs(canon.joint_isometry - w.conj().T @ d.joint_isometry).max() <= 1e-12
        assert verify_dilation(rho, canon).ok(1e-9)
    assert np.array_equal(canonicalize(dil)[1], np.eye(h))
    padded = np.zeros((rho.domain.dim, h + 1, h + 1), dtype=complex)
    padded[:, :h, :h] = dil.rep.images
    with pytest.raises(ValidationError, match="not minimal"):
        canonicalize(StinespringDilation(Representation(rho.domain, h + 1, padded),
                                         tuple(np.vstack([v, np.zeros((1, 2))])
                                               for v in dil.isometries), rho))
    noise = rng.standard_normal(padded[:, :h, :h].shape)
    with pytest.raises(CertificationError, match=r"not a \*-representation"):
        canonicalize(StinespringDilation(
            Representation(rho.domain, h, moved.rep.images + 1e-3 * noise), moved.isometries, rho))
