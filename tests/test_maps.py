import numpy as np
import pytest

from cpnkit import (CPnMap, LinearMap, PositivityError, Representation,
                    ValidationError, apply_map, as_cpn, check_hermitian_symmetry, compress,
                    compression_map, cpn_distance, depolarizing_map, dilate,
                    flatten, identity_map, images_of,
                    is_completely_n_positive, make_algebra, map_from_images,
                    matrix_units, random_cpn_map, random_element,
                    require_cpn, trace_map, unflatten, unit_index, zero_map)
import cpnkit.maps as cpnkit_maps
from cpnkit.dilation import dilation_of
from cpnkit.linalg import herm


def test_identity_map_acts_as_identity():
    alg = make_algebra((2, 3))
    rng = np.random.default_rng(0)
    phi = identity_map(alg)
    a = random_element(alg, rng)
    expected = np.zeros((5, 5), dtype=complex)
    expected[:2, :2] = a.blocks[0]
    expected[2:, 2:] = a.blocks[1]
    assert np.allclose(apply_map(phi, a), expected)


def test_compression_map_picks_one_block():
    alg = make_algebra((2, 3))
    rng = np.random.default_rng(1)
    a = random_element(alg, rng)
    assert np.allclose(apply_map(compression_map(alg, 0), a), a.blocks[0])
    assert np.allclose(apply_map(compression_map(alg, 1), a), a.blocks[1])


def test_depolarizing_and_trace_maps():
    alg = make_algebra((2,))
    rng = np.random.default_rng(2)
    a = random_element(alg, rng)
    tr = np.trace(a.blocks[0])
    assert np.allclose(apply_map(depolarizing_map(2), a), tr / 2.0 * np.eye(2))
    assert np.allclose(apply_map(trace_map(alg), a), [[tr]])


def test_map_from_images_round_trip():
    alg = make_algebra((2, 1))
    rng = np.random.default_rng(3)
    imgs = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(alg.dim)]
    phi = map_from_images(alg, 3, imgs)
    back = images_of(phi)
    assert all(np.allclose(x, y) for x, y in zip(imgs, back))
    # linearity against the matrix unit expansion
    a = random_element(alg, rng)
    expected = sum(c * img for c, img in zip(a.coords(), imgs))
    assert np.allclose(apply_map(phi, a), expected)


def test_identity_choi_spectrum():
    # frozen: the transposition-symmetric rank-one pattern has eigenvalues
    # (2, 0, 0, 0) for a single 2x2 block
    phi = identity_map(make_algebra((2,)))
    w = np.linalg.eigvalsh(phi.choi_blocks[0])
    assert np.allclose(sorted(w), [0.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_all_identity_flatten_spectrum():
    # frozen: doubling the identity into an all-ones 2x2 coefficient
    # pattern gives one eigenvalue 4 and seven zeros after flattening
    ident = identity_map(make_algebra((2,)))
    rho = CPnMap(((ident, ident), (ident, ident)))
    w = np.linalg.eigvalsh(flatten(rho).choi_blocks[0])
    assert np.allclose(sorted(w), [0.0] * 7 + [4.0], atol=1e-12)
    assert is_completely_n_positive(rho).verdict


def test_off_diagonal_two_pattern_fails():
    # frozen: coefficients [[1, 2], [2, 1]] push the smallest flattened
    # eigenvalue to exactly -2
    ident = identity_map(make_algebra((2,)))
    rho = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    chk = is_completely_n_positive(rho)
    assert not chk.verdict
    assert chk.min_eig == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(PositivityError):
        require_cpn(rho)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(4)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 3, 4, rng)
    back = unflatten(flatten(rho), 3)
    assert cpn_distance(rho, back) < 1e-14


def test_unflatten_rejects_bad_order():
    alg = make_algebra((2,))
    phi = identity_map(alg)
    with pytest.raises(ValidationError):
        unflatten(phi, 3)
    with pytest.raises(ValidationError):
        unflatten(phi, 0)


def brute_force_gram(rho):
    """Matrix of flattened images on products of adjoint pairs of units.

    Entry ((alpha, x), (beta, y)) is the (x, y) entry of the flattened
    map applied to e_alpha* e_beta.  Positivity of this matrix is the
    defining positivity condition restricted to the matrix-unit basis,
    computed here by literal loops as an independent oracle.
    """
    alg = rho.domain
    units = matrix_units(alg)
    flat = flatten(rho)
    nm = rho.n * rho.codomain_dim
    g = np.zeros((alg.dim * nm, alg.dim * nm), dtype=complex)
    for a_idx, ea in enumerate(units):
        for b_idx, eb in enumerate(units):
            blockval = apply_map(flat, ea.adjoint() @ eb)
            g[a_idx * nm:(a_idx + 1) * nm, b_idx * nm:(b_idx + 1) * nm] = blockval
    return g


def test_brute_force_positivity_oracle_agrees():
    rng = np.random.default_rng(5)
    for alg_dims, m, n in [((2,), 2, 2), ((2, 1), 1, 2), ((3,), 2, 1)]:
        alg = make_algebra(alg_dims)
        rho = random_cpn_map(alg, m, n, 3, rng)
        g = brute_force_gram(rho)
        assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() > -1e-10
        assert is_completely_n_positive(rho).verdict
    ident = identity_map(make_algebra((2,)))
    bad = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    g = brute_force_gram(bad)
    assert np.linalg.eigvalsh((g + g.conj().T) / 2).min() < -0.5
    assert not is_completely_n_positive(bad).verdict


def test_quadratic_forms_nonnegative():
    # the defining condition evaluated on random element and vector tuples
    rng = np.random.default_rng(6)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    flat = flatten(rho)
    nm = rho.n * rho.codomain_dim
    for _ in range(25):
        elems = [random_element(alg, rng) for _ in range(3)]
        vecs = [rng.standard_normal(nm) + 1j * rng.standard_normal(nm)
                for _ in range(3)]
        total = 0.0j
        for a, x in zip(elems, vecs):
            for b, y in zip(elems, vecs):
                total += np.vdot(x, apply_map(flat, a.adjoint() @ b) @ y)
        assert abs(total.imag) < 1e-10
        assert total.real > -1e-10


def test_hermitian_symmetry_checker():
    rng = np.random.default_rng(7)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 3, rng)
    assert check_hermitian_symmetry(rho)
    # breaking one off-diagonal entry must be detected
    e = rho.entries
    broken = CPnMap(((e[0][0], e[0][1] + identity_map(rho.domain)),
                     (e[1][0], e[1][1])))
    assert not check_hermitian_symmetry(broken)
    assert not is_completely_n_positive(broken).verdict


def reference_asymmetry(rho):
    """Per-matrix loop: max over units e_pq and slots i, j of
    ||rho_ji(e_qp) - rho_ij(e_pq)*||, with the relative-tolerance scale."""
    alg, n = rho.domain, rho.n
    worst = 0.0
    for k, d in enumerate(alg.block_dims):
        for p in range(d):
            for q in range(d):
                for i in range(n):
                    for j in range(n):
                        a = images_of(rho.entries[j][i])[unit_index(alg, k, q, p)]
                        b = images_of(rho.entries[i][j])[unit_index(alg, k, p, q)]
                        worst = max(worst, np.linalg.norm(a - b.conj().T, 2))
    scale = 1.0 + max(np.linalg.norm(c, 2) for c in flatten(rho).choi_blocks)
    return worst, scale


def test_hermitian_symmetry_matches_per_matrix_loop():
    rng = np.random.default_rng(12)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    for size in (1e-7, 1e-4):
        z = size * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        bump = [np.zeros((2, 2), dtype=complex) for _ in range(alg.dim)]
        bump[unit_index(alg, 0, 0, 1)] = z
        e = rho.entries
        broken = CPnMap(((e[0][0], e[0][1] + map_from_images(alg, 2, bump)),
                         (e[1][0], e[1][1])))
        worst, scale = reference_asymmetry(broken)
        assert worst > 0.5 * np.linalg.norm(z, 2)
        # the injected asymmetry sits just below, then just above tol * scale
        assert check_hermitian_symmetry(broken, worst / scale * (1 + 1e-9))
        assert not check_hermitian_symmetry(broken, worst / scale * (1 - 1e-9))


def test_images_are_a_stack_and_validated():
    alg = make_algebra((2, 1))
    rng = np.random.default_rng(13)
    phi = random_cpn_map(alg, 3, 1, 2, rng).entries[0][0]
    imgs = images_of(phi)
    assert imgs.shape == (alg.dim, 3, 3)
    assert cpn_distance(CPnMap(((map_from_images(alg, 3, imgs),),)),
                        CPnMap(((phi,),))) == 0.0
    with pytest.raises(ValidationError):
        map_from_images(alg, 3, imgs[:-1])
    with pytest.raises(ValidationError):
        map_from_images(alg, 3, list(imgs[:-1]) + [np.eye(2)])


def test_sizes_must_be_integers():
    # a size is taken through operator.index: 2.0 and 2.5 are rejected,
    # never truncated, and numpy integers pass
    phi = identity_map(make_algebra((2,)))
    for bad in (2.5, 1.9, 2.0):
        for call in (lambda: make_algebra((bad,)),
                     lambda: LinearMap(phi.domain, bad, phi.choi_blocks),
                     lambda: Representation(phi.domain, bad, np.zeros((4, 2, 2))),
                     lambda: unflatten(phi, bad)):
            with pytest.raises(ValidationError, match="must be an integer"):
                call()
    two = np.int64(2)
    got = (make_algebra((two,)).block_dims[0],
           LinearMap(phi.domain, two, phi.choi_blocks).codomain_dim,
           Representation(phi.domain, two, np.zeros((4, 2, 2))).space_dim,
           unflatten(phi, two).n)
    assert got == (2, 2, 2, 2) and all(type(x) is int for x in got)



def test_random_cpn_map_sizes_must_be_integers():
    # random_cpn_map's sizes go through the same operator.index check
    alg = make_algebra((2,))
    for args in ((2.0, 1, 1), (2, 1.0, 1), (2, 1, 1.0), (1.5, 1, 1)):
        with pytest.raises(ValidationError, match="must be an integer"):
            random_cpn_map(alg, *args, np.random.default_rng(0))
    rho = random_cpn_map(alg, np.int64(2), np.int64(1), np.int64(1), np.random.default_rng(0))
    assert (rho.codomain_dim, rho.n) == (2, 1)
    assert type(rho.n) is int

def test_entry_accessor_and_dims():
    rng = np.random.default_rng(9)
    alg = make_algebra((2,))
    rho = random_cpn_map(alg, 3, 2, 2, rng)
    assert rho.n == 2
    assert rho.codomain_dim == 3
    assert rho.entry(0, 1) is rho.entries[0][1]
    with pytest.raises(ValidationError):
        CPnMap(((identity_map(alg), zero_map(alg, 3)),
                (zero_map(alg, 2), identity_map(alg))))


def test_random_cpn_map_determinism_and_zero_rank():
    alg = make_algebra((2,))
    a = random_cpn_map(alg, 2, 2, 3, np.random.default_rng(42))
    b = random_cpn_map(alg, 2, 2, 3, np.random.default_rng(42))
    assert cpn_distance(a, b) == 0.0
    z = random_cpn_map(alg, 2, 2, 0, np.random.default_rng(1))
    assert all(not img.any()
               for row in z.entries for phi in row for img in images_of(phi))
    assert is_completely_n_positive(z).verdict


def test_cpn_arithmetic():
    rng = np.random.default_rng(10)
    alg = make_algebra((2,))
    rho = random_cpn_map(alg, 2, 2, 2, rng)
    sig = random_cpn_map(alg, 2, 2, 2, rng)
    lhs = 2.0 * rho + sig - rho
    a = random_element(alg, rng)
    want = (2.0 * apply_map(flatten(rho), a) + apply_map(flatten(sig), a)
            - apply_map(flatten(rho), a))
    assert np.allclose(apply_map(flatten(lhs), a), want)


def loop_entry_blocks(phi, n):
    """Entry Choi blocks by literal loops over the flattened Choi blocks:
    C_ij[(p, a), (q, b)] = C[(p, i, a), (q, j, b)], keyed (i, j, k)."""
    m = phi.codomain_dim // n
    out = {}
    for k, (d, c) in enumerate(zip(phi.domain.block_dims, phi.choi_blocks)):
        for i in range(n):
            for j in range(n):
                blk = np.zeros((d * m, d * m), dtype=complex)
                for p in range(d):
                    for q in range(d):
                        r, s = (p * n + i) * m, (q * n + j) * m
                        blk[p * m:(p + 1) * m, q * m:(q + 1) * m] = c[r:r + m, s:s + m]
                out[i, j, k] = blk
    return out


def test_flat_storage_entries_and_round_trip():
    rng = np.random.default_rng(20)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 3, 2, 4, rng)
    flat = flatten(rho)
    assert unflatten(flat, 2).flat is flat and flatten(unflatten(flat, 2)) is flat
    want = loop_entry_blocks(flat, 2)
    for (i, j, k), blk in want.items():
        assert np.array_equal(rho.entries[i][j].choi_blocks[k], blk)
    assert rho.entries is rho.entries
    rebuilt = CPnMap(rho.entries)
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.flat.choi_blocks, flat.choi_blocks))
    assert (rebuilt.n, rebuilt.codomain_dim, rebuilt.domain) == (2, 3, alg)
    one = as_cpn(rho.entries[0][1])
    assert flatten(one) is rho.entries[0][1] and one.n == 1


def test_flat_arithmetic_is_entrywise():
    rng = np.random.default_rng(21)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    sig = random_cpn_map(alg, 2, 2, 2, rng)
    cases = [(rho + sig, np.add, sig), (rho - sig, np.subtract, sig),
             (2.5 * rho, lambda a, _: 2.5 * a, None),
             (rho * (1 - 2j), lambda a, _: (1 - 2j) * a, None),
             (np.float64(0.5) * rho, lambda a, _: 0.5 * a, None)]
    for got, op, other in cases:
        assert got.n == 2 and got.codomain_dim == 2
        for i in range(2):
            for j in range(2):
                for k in range(alg.num_blocks):
                    a = rho.entries[i][j].choi_blocks[k]
                    b = other.entries[i][j].choi_blocks[k] if other is not None else None
                    assert np.array_equal(got.entries[i][j].choi_blocks[k], op(a, b))
    phi = rho.entries[0][1]
    assert all(np.array_equal(x, -y) for x, y in zip((-phi).choi_blocks, phi.choi_blocks))
    with pytest.raises(ValidationError):
        rho + random_cpn_map(alg, 2, 1, 2, rng)
    with pytest.raises(ValidationError):
        rho + random_cpn_map(alg, 1, 4, 2, rng)


def test_public_constructors_still_validate():
    alg = make_algebra((2,))
    phi = identity_map(alg)
    other = identity_map(make_algebra((1, 1)))
    for bad in ((), ((phi, phi), (phi,)), ((phi,), (phi,)), ((phi, other), (other, phi))):
        with pytest.raises(ValidationError):
            CPnMap(bad)
    with pytest.raises(ValidationError):
        LinearMap(alg, 2, (np.eye(3),))
    with pytest.raises(ValidationError):
        LinearMap(alg, 2, (np.eye(4), np.eye(4)))
    with pytest.raises(ValidationError):
        unflatten(random_cpn_map(alg, 3, 2, 2, np.random.default_rng(22)).flat, 4)


def test_library_built_arrays_are_read_only():
    rng = np.random.default_rng(23)
    alg = make_algebra((2, 1))
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    dil = dilate(rho)
    maps = [rho.flat, (rho + rho).flat, (rho - rho).flat, (3 * rho).flat,
            rho.entries[1][0], -rho.entries[0][0], identity_map(alg),
            map_from_images(alg, 2, images_of(rho.entries[0][0])),
            compress(dil, 0.5 * np.eye(dil.space_dim)).flat]
    arrays = [b for phi in maps for b in phi.choi_blocks] + [dil.joint_isometry]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    assert dil.joint_isometry is dil.joint_isometry


def test_closed_form_choi_blocks_match_image_loops():
    alg = make_algebra((2, 1, 3))
    dims, m = alg.block_dims, sum(alg.block_dims)
    ident, comp, trace = [], [], []
    off = 0
    for k, d in enumerate(dims):
        for p in range(d):
            for q in range(d):
                img = np.zeros((m, m))
                img[off + p, off + q] = 1.0
                ident.append(img)
                img = np.zeros((3, 3))
                if k == 2:
                    img[p, q] = 1.0
                comp.append(img)
                trace.append([[float(p == q)]])
        off += d
    depol = [np.eye(3) / 3 if p == q else np.zeros((3, 3)) for p in range(3) for q in range(3)]
    for phi, images in ((identity_map(alg), ident), (compression_map(alg, 2), comp),
                        (trace_map(alg), trace), (depolarizing_map(3), depol)):
        assert np.array_equal(images_of(phi), np.array(images, dtype=complex))


def spectral_radius(c):
    """max |w| over the spectrum of herm(C): the block norm scale and the
    verdict read."""
    return np.abs(np.linalg.eigvalsh(herm(c))).max()


def test_cpn_scale_is_computed_once_per_map():
    rng = np.random.default_rng(21)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    theta = random_cpn_map(make_algebra((2, 1)), 2, 2, 2, rng)
    fresh = 1.0 + max(spectral_radius(b) for b in flatten(rho).choi_blocks)
    assert "scale" not in rho.__dict__
    assert rho.scale == fresh
    assert rho.__dict__["scale"] == fresh
    assert rho.scale is rho.scale
    # maps derived by arithmetic are new objects with their own scale
    for derived in (2.0 * rho, rho + theta, rho - theta, -1 * rho,
                    unflatten(flatten(rho), 2), CPnMap(rho.entries)):
        assert "scale" not in derived.__dict__
        expect = 1.0 + max(spectral_radius(b) for b in flatten(derived).choi_blocks)
        assert derived.scale == expect
    assert (2.0 * rho).scale != rho.scale


def test_scale_reads_the_block_norms_of_the_verdict(monkeypatch):
    # the verdict of is_completely_n_positive, and the one dilate decides,
    # takes the eigvalsh spectrum of every flattened Choi block; scale
    # reads those spectra and takes no decomposition of its own
    alg = make_algebra((2, 1))
    rng = np.random.default_rng(23)
    calls = []

    def counting(real):
        return lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs)

    for decide in (is_completely_n_positive, dilate):
        rho = random_cpn_map(alg, 2, 2, 3, rng)
        decide(rho)
        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
        scale = rho.scale
        monkeypatch.undo()
        assert calls == []
        fresh = unflatten(LinearMap(alg, 4, tuple(b.copy() for b in rho.flat.choi_blocks)), 2)
        expect = 1.0 + max(spectral_radius(b) for b in fresh.flat.choi_blocks)
        assert scale.hex() == fresh.scale.hex() == expect.hex()


def test_verdict_takes_the_skew_svd_only_when_the_bound_leaves_it_open(monkeypatch):
    # a fresh Hermitian-symmetric map: no SVD call for its verdict and
    # scale; an asymmetric one: one per block, over the sub-blocks
    alg = make_algebra((2, 1))
    rng = np.random.default_rng(29)
    rho = random_cpn_map(alg, 2, 2, 3, rng)
    skews = [rng.standard_normal(b.shape) * 1j for b in rho.flat.choi_blocks]
    asym = unflatten(LinearMap(alg, 4, tuple(
        b + 1e-3 * (k + k.T) for b, k in zip(rho.flat.choi_blocks, skews))), 2)
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    assert is_completely_n_positive(rho).verdict and rho.scale > 1.0
    assert calls == []
    assert not is_completely_n_positive(asym).hermitian_symmetric and asym.scale > 1.0
    assert len(calls) == alg.num_blocks


def test_cpn_verdict_is_kept_per_map_and_tolerance(monkeypatch):
    rng = np.random.default_rng(22)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    first = is_completely_n_positive(rho)
    decided = []
    real = cpnkit_maps._cpn_verdicts

    def counting(*args, **kwargs):
        decided.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cpnkit_maps, "_cpn_verdicts", counting)
    assert is_completely_n_positive(rho) is first
    assert require_cpn(rho) is first and check_hermitian_symmetry(rho)
    assert decided == []
    # another tolerance is another verdict, decided once
    other = is_completely_n_positive(rho, 1e-6)
    assert is_completely_n_positive(rho, 1e-6) is other and len(decided) == 1
    # maps derived by arithmetic are new objects, deciding their own
    assert is_completely_n_positive(2 * rho) is not first
    assert not is_completely_n_positive(rho - 2 * rho).verdict
    assert len(decided) == 3 and first.verdict


def test_cpn_verdict_memo_follows_tolerance_not_call_order():
    # one flattened Choi eigenvalue of -1e-8 against a block norm of 1
    def slightly_negative():
        return as_cpn(LinearMap(make_algebra((2,)), 1, (np.diag([1.0, -1e-8]),)))

    for order in ((1e-9, 1e-7), (1e-7, 1e-9)):
        rho = slightly_negative()
        verdicts = {tol: is_completely_n_positive(rho, tol) for tol in order}
        assert not verdicts[1e-9].verdict and verdicts[1e-7].verdict
        assert verdicts[1e-9].min_eig == verdicts[1e-7].min_eig == -1e-8
        assert all(is_completely_n_positive(rho, tol) is v for tol, v in verdicts.items())


def test_memoised_verdict_raises_the_same_error():
    ident = identity_map(make_algebra((2,)))
    negative = CPnMap(((ident, 2.0 * ident), (2.0 * ident, ident)))
    e = random_cpn_map(make_algebra((2,)), 2, 2, 3, np.random.default_rng(23)).entries
    asymmetric = CPnMap(((e[0][0], e[0][1] + ident), (e[1][0], e[1][1])))
    foreign = dilate(as_cpn(depolarizing_map(2)))
    negative_text = r"map is not completely n-positive \(min eigenvalue -2\.000e\+00\)"
    # the first call decides, the rest read the kept verdict; dilate decides its own
    for rho, text in ((negative, negative_text),
                      (asymmetric, "map matrix is not Hermitian-symmetric")):
        for call in (require_cpn, require_cpn, lambda r: dilation_of(r, 1e-9, foreign),
                     lambda r: dilation_of(r, 1e-9, None)):
            with pytest.raises(PositivityError, match=f"^{text}$"):
                call(rho)
