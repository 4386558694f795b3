"""Deterministic property tests of the certified commutant and of
canonicalize, the one door for foreign dilations, of the stacked
compression gates, of the stacked map-side verdicts, of the Radon-Nikodym
operator and intertwiner on canonical dilations, of CommutantBasis.lift,
the one assembly of them all, and of is_extreme's frame-row matrix and
the disjointness witness against the oracles in oracles.py.  Foreign
dilations (conjugated, from the Gram route) reach every verdict through
canonicalize, and its U conjugates the answers back for the oracles;
padded ones, whose Phi(1) has a kernel, are refused there.

Hypothesis runs derandomized with a fixed example count, so every run
draws the same cases.  The cases cover multi-block domains, zero Choi
blocks, rank-deficient maps and the zero map (H = 0), which the
acceptance criteria, all on single-block domains, do not.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cpnkit import (LinearMap, Representation, StinespringDilation,
                    ValidationError, are_disjoint, canonicalize, commutant, compress, cpn_distance, dilate,
                    dilate_from_gram, extension_witness, intertwiner,
                    is_completely_n_positive, is_extreme, is_pure, make_algebra,
                    map_from_images, rn_operator, star_index, order_equivalence_check,
                    sample_unit_interval, spanning_matrix, unflatten)
import cpnkit.dilation as cpnkit_dilation
import cpnkit.radon as cpnkit_radon
import cpnkit.structure as cpnkit_structure
from cpnkit.acceptance import _instance, criterion_4_order
from cpnkit.dilation import CommutantBasis, canonical_frame, canonical_images
from cpnkit.linalg import (commutant_basis_of, herm, solve_sandwich, spectral_norm,
                           spectral_norms)
from cpnkit.maps import (_cpn_distances, _cpn_verdicts, _hermitian_partner, _trusted_map,
                         apply_map, images_of, subblocks)
from cpnkit.radon import (_coefficients, _gated_compressions, _maps, _operator_compressions,
                          _order_checks, _unit_interval)

from oracles import (choi_extreme, pair_basis, polar_witness_images, svd_cpn_verdicts,
                     svd_is_extreme)
from test_structure import (certified_rank, conjugated, ptp_route, random_unitary_matrix,
                            report_tuple, unital_map)

DOMAINS = ((2,), (3,), (2, 1), (2, 2), (3, 1), (1, 1, 2))

DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None,
                         database=None)


@st.composite
def shapes(draw, domains=DOMAINS):
    """(block dims, n, m, Choi rank per block, seed); ranks start at 0 and
    stay below d n m, so zero blocks and rank-deficient maps occur."""
    dims = draw(st.sampled_from(domains))
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    ranks = tuple(draw(st.integers(0, min(d * n * m, 3))) for d in dims)
    return dims, n, m, ranks, draw(st.integers(0, 2**32 - 1))


def map_with_ranks(dims, n, m, ranks, rng):
    nm = n * m
    blocks = []
    for d, r in zip(dims, ranks):
        g = rng.standard_normal((d * nm, r)) + 1j * rng.standard_normal((d * nm, r))
        blocks.append(g @ g.conj().T)
    return unflatten(LinearMap(make_algebra(dims), nm, tuple(blocks)), n)


def moved(dil, rng):
    """The dilation conjugated by a random unitary."""
    u = random_unitary_matrix(dil.space_dim, rng)
    return StinespringDilation(conjugated(dil.rep, u),
                               tuple(u @ v for v in dil.isometries), dil.source)


@DETERMINISTIC
@given(shapes())
def test_dimension_matches_nullspace_oracle(shape):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    dil = dilate(rho)
    for rep in (dil.rep, moved(dil, rng).rep, dilate_from_gram(rho).rep):
        oracle = commutant_basis_of(list(rep.images), rep.space_dim, 1e-9)
        assert commutant(rep).dimension == len(oracle) == sum(r * r for r in ranks)


@DETERMINISTIC
@given(shapes())
def test_verdicts_invariant_under_unitary_conjugation(shape):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = unital_map(dims, n, m, ranks, rng)
    assume(rho is not None)
    dil = dilate(rho)
    foreign = moved(dil, rng)
    other = canonicalize(foreign)[0]
    assert commutant(foreign.rep).dimension == commutant(dil.rep).dimension
    assert other.rep.multiplicities == dil.rep.multiplicities
    assert is_pure(rho, dilation=other) == is_pure(rho, dilation=dil)
    assert report_tuple(is_extreme(rho, dilation=other)) \
        == report_tuple(is_extreme(rho, dilation=dil))


@DETERMINISTIC
@given(shapes())
def test_verdicts_invariant_under_rescaling(shape):
    # every cutoff is relative, so c rho has the structure of rho
    dims, n, m, ranks, seed = shape
    rho = map_with_ranks(dims, n, m, ranks, np.random.default_rng(seed))

    def structure(r):
        dil = dilate(r)
        return (dil.space_dim, dil.rep.multiplicities, commutant(dil.rep).dimension,
                is_pure(r, dilation=dil))

    want = structure(rho)
    for c in (1e-6, 1e-3, 1e3, 1e6):
        assert structure(c * rho) == want


@DETERMINISTIC
@given(shapes())
def test_frame_extremality_matches_ptp_route_on_drawn_maps(shape):
    dims, n, m, ranks, seed = shape
    rho = unital_map(dims, n, m, ranks, np.random.default_rng(seed))
    assume(rho is not None)
    dil = dilate(rho)
    assert report_tuple(is_extreme(rho, dilation=dil)) == ptp_route(dil)[0]


@DETERMINISTIC
@given(shapes())
@example(((2, 1), 2, 1, (0, 0), 0))  # the zero map: C(0) = {0}, so it is extreme
@example(((3, 1), 1, 2, (2, 0), 1))  # a zero-rank block
def test_extremality_in_the_class_of_rho_one_matches_the_choi_oracle(shape):
    # the drawn maps are not unital: the verdict is relative to rho(1), and
    # every decomposition stays in C(rho(1))
    dims, n, m, ranks, seed = shape
    rho = map_with_ranks(dims, n, m, ranks, np.random.default_rng(seed))
    rep = is_extreme(rho)
    assert (rep.extreme, rep.compression_rank, rep.commutant_dim) == choi_extreme(rho)
    if not rep.extreme:
        dec = rep.decomposition()
        one = rho.domain.unit()
        for part in (dec.part1, dec.part2):
            dev = apply_map(part.flat, one) - apply_map(rho.flat, one)
            assert spectral_norm(dev) <= 1e-9 * rho.scale


@st.composite
def extremality_draws(draw):
    """(dims, n, m, ranks, tweak, exponent, tol, split, seed): wide maps, and
    square ones whose first block has r = n m, on (2,) and (2, 1).  tweak
    makes one Kraus column 2^-30 times another ("parallel") or the last
    block zero; the map is scaled by 2^exponent, 2^530 about 3.5e159 so
    that its Gram overflows; split factors every Gram of order 2 or more
    in two blocks."""
    dims = draw(st.sampled_from(((2,), (2, 1))))
    n, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        ranks = (n * m,) + tuple(draw(st.integers(0, 1)) for _ in dims[1:])
    else:
        ranks = tuple(draw(st.integers(0, d * n * m)) for d in dims)
    return (dims, n, m, ranks, draw(st.sampled_from(("none", "parallel", "zero"))),
            draw(st.sampled_from((-20, 0, 20, 530))), draw(st.sampled_from((1e-9, 0.5))),
            draw(st.booleans()), draw(st.integers(0, 2**32 - 1)))


@DETERMINISTIC
@given(extremality_draws())
@example(((2,), 2, 2, (4,), "none", 0, 1e-9, False, 0))  # square and extreme
@example(((2, 1), 1, 3, (3, 0), "zero", 20, 1e-9, False, 1))  # square, a zero block
@example(((2,), 1, 2, (4,), "parallel", -20, 1e-9, False, 2))  # wide, a dependent column
@example(((2,), 1, 2, (2,), "none", 0, 0.5, False, 3))  # tol 0.5
@example(((2, 1), 2, 2, (4, 1), "none", 0, 1e-9, True, 4))  # square, in two blocks
@example(((2,), 1, 3, (5,), "none", 20, 1e-9, True, 5))  # wide, in two blocks
@example(((2,), 2, 2, (4,), "none", 530, 1e-9, False, 6))  # the Gram overflows
def test_gram_certificate_matches_the_svd_and_choi_oracles(draw):
    # the Gram certificate never reads full rank where the SVD does not:
    # every verdict is the all-SVD one, and a certified one is full rank;
    # under the CLI's errstate an overflowing Gram leaves it to the SVD
    dims, n, m, ranks, tweak, exponent, tol, split, seed = draw
    rng = np.random.default_rng(seed)
    nm, blocks = n * m, []
    for k, (d, r) in enumerate(zip(dims, ranks)):
        g = rng.standard_normal((d * nm, r)) + 1j * rng.standard_normal((d * nm, r))
        if tweak == "parallel" and r >= 2:
            g[:, 1] = 2.0 ** -30 * g[:, 0]
        if tweak == "zero" and k == len(dims) - 1:
            g[:] = 0.0
        blocks.append(2.0 ** exponent * (g @ g.conj().T))
    rho = unflatten(LinearMap(make_algebra(dims), nm, tuple(blocks)), n)
    split_above = 1 if split else cpnkit_structure._SPLIT_ABOVE
    with mock.patch.object(cpnkit_structure, "_SPLIT_ABOVE", split_above), \
            np.errstate(over="raise", invalid="raise"):
        rep = is_extreme(rho, tol)
        certified = certified_rank(rep)
        assert report_tuple(rep) == svd_is_extreme(rho, tol)
        if tol == 1e-9:
            extreme, rank, dim = choi_extreme(rho, tol)
            assert report_tuple(rep) == (extreme, dim, rank)
    assert certified in (None, min(nm * nm, rep.commutant_dim))
    assert certified is None or certified == rep.compression_rank
    if exponent == 530:
        assert certified is None


@DETERMINISTIC
@given(shapes(), st.sampled_from(("dilate", "moved", "gram")))
@example(((2, 1), 1, 2, (2, 1), 3), "gram")  # two algebra blocks, U != I
def test_frame_row_matrix_and_intertwiners_match_the_frame_basis(shape, source_kind):
    # is_extreme's matrix is vec(V* b V) over the oracle commutant basis b,
    # and the oracle intertwiner basis is orthonormal and intertwines, on
    # any frame
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = unital_map(dims, n, m, ranks, rng)
    assume(rho is not None)
    dil = source_of(source_kind, dilate(rho), rho, rng)
    canon, u = canonicalize(dil)
    rep = is_extreme(rho, 1e-9, canon)
    comm, mat = rep.comm, rep.matrix
    basis, v = pair_basis(comm, comm, u, u), dil.joint_isometry
    want = (v.conj().T @ basis @ v).reshape(len(basis), -1).T
    assert mat.shape == want.shape
    assert spectral_norm(mat - want) <= 1e-12 * (1.0 + spectral_norm(want))
    other = map_with_ranks(dims, n, m, tuple(rng.integers(0, 3, len(dims))), rng)
    for target in (dil, moved(dilate(other), rng)):
        to, ut = canonicalize(target)
        got = pair_basis(comm, commutant(to.rep), u, ut)
        flat = got.reshape(len(got), target.space_dim * dil.space_dim)
        assert spectral_norm(flat.conj() @ flat.T - np.eye(len(got))) <= 1e-12
        res = got[:, None] @ dil.rep.images - target.rep.images @ got[:, None]
        assert spectral_norm(res) <= 1e-12


def kron_canonical_images(alg, mults):
    """(+)_k a_k (x) I_{r_k} on the matrix units, one np.kron per unit."""
    h = sum(d * r for d, r in zip(alg.block_dims, mults))
    images = np.zeros((alg.dim, h, h), dtype=complex)
    idx = lo = 0
    for d, r in zip(alg.block_dims, mults):
        for p in range(d):
            for q in range(d):
                unit = np.zeros((d, d))
                unit[p, q] = 1.0
                images[idx, lo:lo + d * r, lo:lo + d * r] = np.kron(unit, np.eye(r))
                idx += 1
        lo += d * r
    return images


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@DETERMINISTIC
@given(shapes(((2,), (3,), (2, 1), (2, 2), (3, 1))))
@example(((2, 1), 2, 1, (0, 0), 0))  # the zero map, H = 0
@example(((3, 1), 1, 2, (2, 0), 1))  # a zero-rank block
def test_seeded_frame_is_the_computed_one(shape):
    # dilate() returns Representation.canonical, which sets r and the norm
    # in closed form and builds its images on first read: those are
    # canonical_images, read-only and kept; canonical_frame and
    # spectral_norm on a fresh, validated copy of them are the oracle, and
    # find U = I, r and eps = 0, as canonicalize does on the dilation
    dims, n, m, ranks, seed = shape
    dil = dilate(map_with_ranks(dims, n, m, ranks, np.random.default_rng(seed)))
    rep = dil.rep
    assert "images" not in rep.__dict__
    images = rep.images
    assert same_bits(images, canonical_images(rep.algebra, ranks))
    assert not images.flags.writeable and rep.images is images
    fresh = Representation(rep.algebra, rep.space_dim, images)
    u, mults, eps = canonical_frame(fresh)
    assert same_bits(u, np.eye(rep.space_dim, dtype=complex)) and not u.flags.writeable
    assert mults == rep.multiplicities + (0,) == ranks + (0,)
    assert same_bits(np.float64(eps), np.float64(0.0))
    canon, w = canonicalize(dil)
    assert same_bits(w, u) and canon.rep.multiplicities == ranks
    assert np.array_equal(canon.joint_isometry, dil.joint_isometry)
    assert same_bits(np.float64(rep.norm), np.float64(spectral_norm(fresh.images)))
    assert same_bits(canonical_images(rep.algebra, ranks),
                     kron_canonical_images(rep.algebra, ranks))


def unit_interval_stack(dil, rng, k):
    """k draws from [0, I] in the commutant, the identity last."""
    draws = [sample_unit_interval(dil, rng) for _ in range(k - 1)]
    return np.array(draws + [np.eye(dil.space_dim, dtype=complex)]).reshape(
        k, dil.space_dim, dil.space_dim)


def product_compress(dil, t):
    """V* T Phi(.) V matrix unit by matrix unit, with no gate."""
    v = dil.joint_isometry
    images = [v.conj().T @ t @ img @ v for img in dil.rep.images]
    return unflatten(map_from_images(dil.source.domain, v.shape[1], images), dil.n)


def stacked_compress(dil, ts):
    """The maps rho_T of a (k, H, H) stack through the stacked path that
    compress runs on a stack of one."""
    return _maps(dil, _operator_compressions(dil, ts, 1e-9)[1])


def stacked_order_checks(dil, t1s, t2s):
    """OrderChecks of paired stacks through the path order_equivalence_check
    runs: one gated compression of [T1s; T2s], then _order_checks on the
    frame blocks."""
    xs, blocks = _operator_compressions(dil, np.concatenate([t1s, t2s]), 1e-9)
    k = len(t1s)
    return _order_checks(dil, [x[:k] for x in xs], [x[k:] for x in xs], blocks, 1e-9)


def assert_product_route(dil, t, got):
    """got is rho_T to 1e-12 (1 + ||T||) times the scale of the source."""
    bound = 1e-12 * (1.0 + spectral_norm(t)) * dil.source.scale
    assert cpn_distance(got, product_compress(dil, t)) <= bound


def raised(call):
    with pytest.raises(ValidationError) as exc:
        call()
    return str(exc.value)


@DETERMINISTIC
@given(shapes(), st.integers(1, 4))
def test_stacked_compress_matches_single_calls(shape, k):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    dil = dilate(map_with_ranks(dims, n, m, ranks, rng))
    ts = unit_interval_stack(dil, rng, k)
    stacked = stacked_compress(dil, ts)
    assert len(stacked) == k
    for t, got in zip(ts, stacked):
        want = compress(dil, t)
        assert got.n == want.n and got.codomain_dim == want.codomain_dim
        assert all(np.array_equal(a, b) for a, b in
                   zip(got.flat.choi_blocks, want.flat.choi_blocks))
        assert_product_route(dil, t, got)
    assert stacked_compress(dil, ts[:0]) == []


@DETERMINISTIC
@given(shapes(), st.sampled_from(("dilate", "moved", "gram", "padded")))
@example(((2, 1), 2, 1, (0, 0), 0), "dilate")  # the zero map, H = 0
@example(((3, 1), 1, 2, (2, 0), 1), "gram")  # U != I, a zero-rank block
@example(((2, 1), 1, 2, (2, 1), 3), "padded")  # r_0 = 2
def test_block_compressions_match_the_product_route(shape, source_kind):
    # A_k* X_k A_k against V* (U T U*) Phi(.) V on every kind of dilation,
    # through compress and through the block path criterion 4 and
    # decomposition run on its canonical form
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    dil = source_of(source_kind, dilate(rho), rho, rng)
    if refused(source_kind, dil):
        return
    canon, u = canonicalize(dil)
    comm = commutant(canon.rep)
    ts = unit_interval_stack(canon, rng, 3)
    by_blocks = _maps(canon, _gated_compressions(canon, comm, comm.blocks(ts), 1e-9))
    for t, got, block in zip(ts, stacked_compress(canon, ts), by_blocks):
        assert_product_route(dil, u @ t @ u.conj().T, got)
        assert_product_route(dil, u @ t @ u.conj().T, block)


@DETERMINISTIC
@given(shapes(((2,), (3,), (2, 1), (2, 2), (3, 1))),
       st.sampled_from(("dilate", "moved", "gram", "padded")))
def test_commutant_gate_reads_the_distance_to_the_commutant(shape, source_kind):
    # T = lift(X) + delta G, G a unit Hermitian operator orthogonal to the
    # commutant: accepted at delta = 1e-3 tol, rejected at 1e3 tol, on the
    # canonical form of every kind of dilation
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    dil = source_of(source_kind, dilate(rho), rho, rng)
    if refused(source_kind, dil):
        return
    canon, u = canonicalize(dil)
    comm = commutant(canon.rep)
    h = dil.space_dim
    g = herm(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)))
    g = g - comm.lift(comm.blocks(g))
    assume(spectral_norm(g) > 1e-6)  # not every operator commutes
    g = herm(g) / spectral_norm(g)
    t, tol = sample_unit_interval(canon, rng), 1e-9
    assert_product_route(dil, u @ t @ u.conj().T, compress(canon, t + 1e-3 * tol * g, tol))
    with pytest.raises(ValidationError, match="not in the commutant"):
        compress(canon, t + 1e3 * tol * g, tol)


def test_negative_on_the_kernel_of_phi_one_is_not_positive():
    # the maps never see the kernel of Phi(1): an operator negative there
    # compresses to rho, so a dilation with such a kernel is refused, at
    # canonicalize and at every entry point, instead of read as positive
    rng = np.random.default_rng(31)
    rho = map_with_ranks((2, 1), 1, 2, (2, 1), rng)
    dil = padded(dilate(rho), rng)
    comm = commutant(dil.rep)
    assert comm.block_dims[-1] == 1 and comm.multiplicities[-1] == 2
    u = canonical_frame(dil.rep)[0]
    t = u @ comm.lift([np.eye(r) for r in comm.multiplicities[:-1]] + [-np.eye(2)]) @ u.conj().T
    assert cpn_distance(product_compress(dil, t), rho) <= 1e-12 * rho.scale
    with pytest.raises(ValidationError, match="not minimal"):
        canonicalize(dil)
    with pytest.raises(ValidationError, match="canonicalize"):
        compress(dil, t)
    with pytest.raises(ValidationError, match="canonicalize"):
        order_equivalence_check(dil, np.eye(dil.space_dim), t)


@DETERMINISTIC
@given(shapes(), st.integers(1, 4))
def test_stacked_order_checks_match_single_calls(shape, k):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    dil = dilate(map_with_ranks(dims, n, m, ranks, rng))
    t1s = unit_interval_stack(dil, rng, k)
    # ordered, reversed and unrelated pairs
    t2s = np.array([t1 + 0.5 * (t1s[-1] - t1) if i % 3 == 0
                    else 0.5 * t1 if i % 3 == 1 else sample_unit_interval(dil, rng)
                    for i, t1 in enumerate(t1s)]).reshape(t1s.shape)
    assert stacked_order_checks(dil, t1s, t2s) == \
        [order_equivalence_check(dil, t1, t2) for t1, t2 in zip(t1s, t2s)]


@DETERMINISTIC
@given(shapes(), st.integers(2, 5), st.data())
def test_first_bad_element_raises_its_single_call_message(shape, k, data):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    dil = dilate(map_with_ranks(dims, n, m, ranks, rng))
    h = dil.space_dim
    assume(h > 0)
    eye = np.eye(h, dtype=complex)
    g = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    # a Hermitian g + g* - c I fails the commutator gate or, where every
    # operator commutes, the PSD gate
    noncommuting = g + g.conj().T - 4.0 * np.abs(g).sum() * eye
    bads = {"commutant": noncommuting, "hermitian": 1j * eye, "psd": -eye}
    first = data.draw(st.sampled_from(sorted(bads)))
    i = data.draw(st.integers(0, k - 2))
    ts = unit_interval_stack(dil, rng, k)
    ts[i] = bads[first]
    ts[-1] = bads["psd" if first != "psd" else "hermitian"]
    want = raised(lambda: compress(dil, ts[i]))
    assert raised(lambda: stacked_compress(dil, ts)) == want
    # the T1 stack is gated before the T2 stack
    assert raised(lambda: stacked_order_checks(dil, ts[::-1], ts)) \
        == raised(lambda: compress(dil, ts[-1]))


@DETERMINISTIC
@given(shapes(((2,), (2, 1), (2, 2))))
def test_hermitian_partner_matches_the_images_route(shape):
    # a -> phi(a*)* from adjoint Choi blocks against its definition on the
    # matrix units, e -> phi(e*)*, for a map with no symmetry at all
    dims, _, m, _, seed = shape
    rng = np.random.default_rng(seed)
    alg = make_algebra(dims)
    phi = LinearMap(alg, m, tuple(rng.standard_normal((d * m, d * m))
                                  + 1j * rng.standard_normal((d * m, d * m)) for d in dims))
    images = images_of(phi)[[star_index(alg, idx) for idx in range(alg.dim)]]
    want = map_from_images(alg, m, images.conj().swapaxes(-2, -1))
    got = _hermitian_partner(phi)
    assert (got.domain, got.codomain_dim) == (alg, m)
    assert all(np.array_equal(a, b) and not a.flags.writeable
               for a, b in zip(got.choi_blocks, want.choi_blocks))
    assert all(np.array_equal(a, b) for a, b in
               zip(_hermitian_partner(got).choi_blocks, phi.choi_blocks))


def spoiled(rho, rng, kind):
    """rho as drawn, or with every Choi block made non-Hermitian-symmetric
    or shifted below zero."""
    if kind == "drawn":
        return rho
    blocks = []
    for c in rho.flat.choi_blocks:
        q = len(c)
        if kind == "asymmetric":
            blocks.append(c + 1e-3 * (1.0 + np.abs(c).max())
                          * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))))
        else:
            blocks.append(c - (1.0 + np.abs(c).sum()) * np.eye(q))
    return unflatten(LinearMap(rho.domain, rho.flat.codomain_dim, tuple(blocks)), rho.n)


def choi_stacks(maps, rho):
    """Per-block (k, q, q) stacks of the flattened Choi blocks of maps
    shaped like rho."""
    return [np.array([r.flat.choi_blocks[b] for r in maps]).reshape((len(maps),) + c.shape)
            for b, c in enumerate(rho.flat.choi_blocks)]


def verdict_bits(v):
    return v.verdict, v.min_eig.hex(), v.hermitian_symmetric


@DETERMINISTIC
@given(shapes(), st.integers(0, 5))
def test_stacked_verdicts_and_distances_match_single_calls(shape, k):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    kinds = ("drawn", "asymmetric", "not_positive")
    maps = [spoiled(map_with_ranks(dims, n, m, ranks, rng), rng, kinds[i % 3])
            for i in range(k)]
    others = [map_with_ranks(dims, n, m, ranks, rng) for _ in range(k)]
    stacks = choi_stacks(maps, rho)
    want = [verdict_bits(is_completely_n_positive(r)) for r in maps]
    assert [verdict_bits(v) for v in _cpn_verdicts(stacks, m, 1e-9)] == want
    spectra = [np.linalg.eigvalsh(herm(c)) for c in stacks]
    assert [verdict_bits(v) for v in _cpn_verdicts(stacks, m, 1e-9, spectra)] == want
    assert not any(bits[0] for i, bits in enumerate(want) if i % 3)
    diffs = [a - b for a, b in zip(stacks, choi_stacks(others, rho))]
    assert [d.hex() for d in _cpn_distances(diffs, dims, n, m)] == \
        [cpn_distance(a, b).hex() for a, b in zip(maps, others)]


def test_stacked_verdicts_on_empty_spectra():
    # blocks with no rows: every member is vacuously positive, min_eig 0.0
    flat = _trusted_map(make_algebra((1, 1)), 0, [np.zeros((0, 0), dtype=complex)] * 2)
    single = _cpn_verdicts([c[None] for c in flat.choi_blocks], 1, 1e-9,
                           [np.zeros((1, 0))] * 2)[0]
    assert verdict_bits(single) == (True, (0.0).hex(), True)
    got = _cpn_verdicts([np.zeros((3, 0, 0), dtype=complex)] * 2, 1, 1e-9)
    assert [verdict_bits(v) for v in got] == [verdict_bits(single)] * 3


def symmetry_ratio(blocks, m, tol):
    """The largest m x m sub-block norm of C - C* over tol (1 + max ||C||)."""
    asym = max(spectral_norm(subblocks(c - c.conj().T, m)) for c in blocks)
    return asym / (tol * (1.0 + max(spectral_norm(c) for c in blocks)))


def at_gate(blocks, m, tol, kind, theta, rng):
    """Flattened Choi blocks of a Hermitian-symmetric map moved to theta
    times a gate: an anti-Hermitian part on every block puts the symmetry
    gap there ("skew"), a multiple of I on block 0 the least eigenvalue
    ("low", against -tol (1 + ||C_0||)).  A few fixed-point steps absorb
    the move's effect on the norms."""
    if kind == "skew":
        ks = [1j * herm(rng.standard_normal(c.shape)) for c in blocks]
        s = tol
        for _ in range(4):
            s *= theta / symmetry_ratio([c + s * k for c, k in zip(blocks, ks)], m, tol)
        return [c + s * k for c, k in zip(blocks, ks)]
    if kind == "low":
        eye, shift = np.eye(len(blocks[0])), 0.0
        for _ in range(4):
            b = blocks[0] - shift * eye
            shift += np.linalg.eigvalsh(herm(b))[0] + theta * tol * (1.0 + spectral_norm(b))
        return [blocks[0] - shift * eye] + list(blocks[1:])
    return list(blocks)


GATES = st.tuples(st.sampled_from(("drawn", "skew", "low")),
                  st.sampled_from((1.0 - 1e-6, 1.0 + 1e-6)))


@DETERMINISTIC
@given(shapes(), st.lists(GATES, max_size=4), st.sampled_from((1e-9, 1e-6)), st.booleans())
@example(((2,), 1, 1, (2,), 7), [("skew", 1.0 - 1e-6), ("skew", 1.0 + 1e-6),
                                  ("low", 1.0 - 1e-6), ("low", 1.0 + 1e-6)], 1e-6, False)
@example(((2, 1), 2, 2, (0, 1), 8), [("skew", 1.0 - 1e-6), ("skew", 1.0 + 1e-6),
                                      ("low", 1.0 - 1e-6), ("low", 1.0 + 1e-6)], 1e-6, True)
def test_bounded_verdicts_match_the_svd_oracle(shape, gates, tol, empty):
    # members at (1 +- 1e-6) x the symmetry or positivity gate, with and
    # without norms: a bound settles only what the SVDs decide alike
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    members = [at_gate(map_with_ranks(dims, n, m, ranks, rng).flat.choi_blocks, m, tol,
                       kind, theta, rng) for kind, theta in gates]
    stacks = [np.array([blocks[b] for blocks in members], dtype=complex)
              .reshape(len(members), d * n * m, d * n * m) for b, d in enumerate(dims)]
    if empty:  # a block with no rows takes no part
        stacks.append(np.zeros((len(members), 0, 0), dtype=complex))
    spectra = [np.linalg.eigvalsh(herm(c)) for c in stacks]
    norms = [spectral_norms(c).tolist() for c in stacks]
    want = [verdict_bits(v) for v in svd_cpn_verdicts(stacks, m, tol)]
    assert [verdict_bits(v) for v in _cpn_verdicts(stacks, m, tol)] == want
    assert [verdict_bits(v) for v in _cpn_verdicts(stacks, m, tol, spectra)] == want
    assert [verdict_bits(v) for v in _cpn_verdicts(stacks, m, tol, spectra, norms)] == want
    if tol == 1e-6:  # far above rounding, every move lands on its side of the gate
        assert [bits[0] for bits in want] == [kind == "drawn" or theta < 1.0
                                             for kind, theta in gates]


def test_bounds_that_overflow_settle_nothing():
    # ||C||_F of entries near 1e160 overflows: under the CLI's errstate the
    # verdicts still match the oracle instead of raising
    rng = np.random.default_rng(12)
    maps = [map_with_ranks((2, 1), 2, 2, (3, 2), rng) for _ in range(3)]
    stacks = [1e160 * c for c in choi_stacks(maps, maps[0])]
    with np.errstate(over="raise", invalid="raise"):
        got = [verdict_bits(v) for v in _cpn_verdicts(stacks, 2, 1e-9)]
        assert got == [verdict_bits(v) for v in svd_cpn_verdicts(stacks, 2, 1e-9)]


@DETERMINISTIC
@given(shapes(), st.integers(1, 5))
def test_stacked_unit_interval_draws_match_sequential_calls(shape, k):
    dims, n, m, ranks, seed = shape
    dil = dilate(map_with_ranks(dims, n, m, ranks, np.random.default_rng(seed)))
    basis = commutant(dil.rep)
    assume(basis.dimension > 0)
    sequential, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [sample_unit_interval(dil, sequential) for _ in range(k)]
    coeffs = np.array([_coefficients(basis, stacked) for _ in range(k)])
    got = basis.lift(_unit_interval(basis, coeffs, 1e-9))
    assert got.shape == (k, dil.space_dim, dil.space_dim)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert sequential.standard_normal() == stacked.standard_normal()
    elements = basis.element(coeffs)
    assert all(np.array_equal(e, basis.element(c)) for e, c in zip(elements, coeffs))


def test_stacked_unit_interval_draws_take_the_scalar_branch():
    half = 0.5 * np.eye(2)
    for dims, ranks in (((2,), (1,)), ((2, 1), (1, 0))):
        # commutant dimension 1: every draw is a multiple of I, hence I / 2
        dil = dilate(map_with_ranks(dims, 1, 1, ranks, np.random.default_rng(5)))
        basis = commutant(dil.rep)
        assert basis.dimension == 1
        sequential, stacked = np.random.default_rng(7), np.random.default_rng(7)
        want = [sample_unit_interval(dil, sequential) for _ in range(3)]
        got = basis.lift(_unit_interval(
            basis, np.array([_coefficients(basis, stacked) for _ in range(3)]), 1e-9))
        assert all(np.array_equal(a, b) and np.array_equal(a, half) for a, b in zip(got, want))
        assert sequential.standard_normal() == stacked.standard_normal()
    # a stack mixing a drawn element with the identity, whose coordinates
    # are sqrt(d_k) I_{r_k} per block
    dil = dilate(map_with_ranks((2, 1), 1, 2, (2, 1), np.random.default_rng(9)))
    basis = commutant(dil.rep)
    ident = np.concatenate([np.sqrt(d) * np.eye(r).ravel()
                            for d, r in zip(basis.block_dims, basis.multiplicities)])
    coeffs = np.array([_coefficients(basis, np.random.default_rng(3)), ident])
    got = _unit_interval(basis, coeffs, 1e-9)
    assert all(np.array_equal(x[1], 0.5 * np.eye(len(x[1]))) for x in got)
    assert not all(np.array_equal(x[0], x[1]) for x in got)
    assert all(np.array_equal(x[i], y[0]) for i, c in enumerate(coeffs)
               for x, y in zip(got, _unit_interval(basis, c[None], 1e-9)))


def reference_criterion_4(seed, pairs, tol=1e-9):
    """criterion_4_order's details from one compress and one order check
    per call, pair by pair, in the same draw order."""
    rng = np.random.default_rng([seed, 4])
    per_instance = 20
    agree, worst_affine, worst_unit, done = True, 0.0, 0.0, 0
    for i in range(-(-pairs // per_instance)):
        rho = _instance(rng, i, max_rank=4)
        dil = dilate(rho, tol)
        eye = np.eye(dil.space_dim, dtype=complex)
        scale = rho.scale
        worst_unit = max(worst_unit, cpn_distance(compress(dil, eye, tol), rho) / scale)
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
    return {"pairs": done, "verdicts_agree": agree,
            "max_affine_residual": worst_affine, "max_unit_residual": worst_unit}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_criterion_4_matches_pairwise_reference(seed):
    # 47 runs two full instances and a third of 7 pairs; 33 ends on a
    # partial instance of 13, and 13 on a partial group of 3 pairs
    for pairs in (40, 33, 47, 13):
        assert criterion_4_order(seed, pairs=pairs).details \
            == reference_criterion_4(seed, pairs)


# Radon-Nikodym operator and intertwiner in frame coordinates against the
# spanning-matrix route: W solves W X_rho = X_theta, T = W* W


def sandwich_route(dr, theta):
    """(T, W) from dilate(theta) and the minimal-norm least-squares W."""
    w = solve_sandwich(spanning_matrix(dr), spanning_matrix(dilate(theta)))
    return w.conj().T @ w, w


def padded(dil, rng, pad=2):
    """A non-minimal dilation: dil (+) 0_pad, conjugated by a random
    unitary, so Phi(1) has a kernel (r_0 = pad)."""
    u = random_unitary_matrix(dil.space_dim + pad, rng)
    return StinespringDilation(
        conjugated(dil.rep, u, pad),
        tuple(u @ np.vstack([v, np.zeros((pad, v.shape[1]))]) for v in dil.isometries),
        dil.source)


def source_of(kind, dil, rho, rng):
    """A dilation of rho: dil itself, moved, from the Gram route or padded."""
    return {"dilate": lambda: dil, "moved": lambda: moved(dil, rng),
            "gram": lambda: dilate_from_gram(rho), "padded": lambda: padded(dil, rng)}[kind]()


def refused(kind, dil):
    """Whether dil is source_of's padded kind, after asserting that
    canonicalize refuses it and compress refuses it as given."""
    if kind != "padded":
        return False
    with pytest.raises(ValidationError, match="not minimal"):
        canonicalize(dil)
    with pytest.raises(ValidationError, match="canonicalize"):
        compress(dil, np.eye(dil.space_dim))
    return True


def counted_calls(call):
    """call() with dilate and np.linalg.lstsq counted: (result, dilates, lstsqs)."""
    counts = {"dilate": 0, "lstsq": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for module in (cpnkit_dilation, cpnkit_radon):
            mp.setattr(module, "dilate", counting("dilate", module.dilate))
        mp.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        out = call()
    return out, counts["dilate"], counts["lstsq"]


@DETERMINISTIC
@given(shapes(), st.sampled_from(("drawn", "zero", "same")),
       st.sampled_from(("dilate", "moved", "gram", "padded")))
@example(((2, 1), 2, 1, (0, 0), 0), "drawn", "dilate")  # the zero map, H = 0
@example(((3, 1), 1, 2, (2, 0), 1), "drawn", "dilate")  # a zero-rank block
@example(((3, 1), 1, 2, (2, 0), 1), "drawn", "gram")  # U != I, zero-rank block
@example(((2, 2), 2, 1, (2, 3), 2), "zero", "dilate")  # theta = 0
@example(((2, 2), 2, 1, (2, 3), 2), "same", "moved")  # theta = rho
@example(((2, 1), 1, 2, (2, 1), 3), "drawn", "padded")  # r_0 = 2
def test_frame_route_matches_the_sandwich_route(shape, theta_kind, source_kind):
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    dil = dilate(rho)
    dr = source_of(source_kind, dil, rho, rng)
    if refused(source_kind, dr):
        return
    canon, u = canonicalize(dr)
    theta = {"drawn": lambda: compress(canon, sample_unit_interval(canon, rng)),
             "zero": lambda: 0.0 * rho, "same": lambda: rho}[theta_kind]()
    want_t, want_w = sandwich_route(dr, theta)
    elem, dilates, lstsqs = counted_calls(lambda: rn_operator(rho, theta, source_dilation=canon))
    assert (dilates, lstsqs) == (0, 0)
    w, dilates, lstsqs = counted_calls(lambda: intertwiner(rho, theta, source_dilation=canon))
    assert (dilates, lstsqs) == (1, 0)
    # conjugated by U, the answers on the canonical form are dr's
    for got, want in ((u @ elem.matrix @ u.conj().T, want_t), (w.matrix @ u.conj().T, want_w)):
        assert got.shape == want.shape
        assert spectral_norm(got - want) <= 1e-10 * (1.0 + spectral_norm(want))
    if theta_kind == "same":
        assert spectral_norm(elem.matrix - np.eye(dr.space_dim)) <= 1e-10
    # T commutes and W intertwines by construction
    images = canon.rep.images
    assert spectral_norm(elem.matrix @ images - images @ elem.matrix) == 0.0
    assert spectral_norm(w.matrix @ images - w.target.rep.images @ w.matrix) == 0.0


# One assembly path: CommutantBasis.lift is the frame-basis combination, and
# every element, Radon-Nikodym operator and intertwiner is a lift


@DETERMINISTIC
@given(shapes(), st.sampled_from(("dilate", "moved", "gram", "padded")), st.booleans())
@example(((2, 1), 2, 1, (0, 0), 0), "dilate", False)  # the zero map, H = 0
@example(((2, 1), 2, 1, (0, 0), 0), "dilate", True)  # H = 0 into a target
@example(((3, 1), 1, 2, (2, 0), 1), "gram", True)  # U != I, a zero-rank block
@example(((2, 1), 1, 2, (2, 1), 3), "padded", True)  # r_0 = 2
def test_lift_is_the_frame_basis_combination(shape, source_kind, other_target):
    # lift(xs, target) = sum over (k, a, b) of sqrt(d_k) X_k[a, b] times the
    # outer-product basis element; a stack of 3 matches its members bitwise
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    source = commutant(source_of(source_kind, dilate(rho), rho, rng).rep)
    target = source
    if other_target:
        other = map_with_ranks(dims, n, m, tuple(rng.integers(0, 3, len(dims))), rng)
        target = commutant(moved(dilate(other), rng).rep)
    shape_out = (target.space_dim, source.space_dim)
    pairs = list(zip(source.multiplicities, target.multiplicities))
    count = int(rng.integers(1, len(pairs) + 1))  # blocks past count are zero
    xs = [rng.standard_normal((3, s, r)) + 1j * rng.standard_normal((3, s, r))
          for r, s in pairs[:count]]
    coeffs = np.concatenate([np.sqrt(d) * x.reshape(3, -1) for d, x in zip(source.block_dims, xs)]
                            + [np.zeros((3, sum(r * s for r, s in pairs[count:])))], axis=1)
    basis = pair_basis(source, target)
    stacked = source.lift(xs, target)
    assert stacked.shape == (3,) + shape_out
    for i in range(3):
        single = source.lift([x[i] for x in xs], target)
        assert same_bits(stacked[i], single)
        want = np.tensordot(coeffs[i], basis, 1)
        assert spectral_norm(single - want) <= 1e-12 * (1.0 + spectral_norm(want))
    empty = source.lift([], target)
    assert empty.shape == shape_out and not empty.any()
    if not other_target:
        assert same_bits(source.lift(xs), stacked)


@DETERMINISTIC
@given(shapes(), st.sampled_from(("dilate", "moved", "gram", "padded")))
@example(((2, 1), 2, 1, (0, 0), 0), "dilate")  # the zero map, H = 0
@example(((2, 1), 1, 2, (2, 1), 3), "padded")  # r_0 = 2
def test_blocks_are_the_conditional_expectation(shape, source_kind):
    # blocks inverts lift, bitwise, and T - lift(blocks(T)) is
    # Frobenius-orthogonal to the oracle commutant basis; a stack of 3
    # matches its members bitwise
    dims, n, m, ranks, seed = shape
    rng = np.random.default_rng(seed)
    rho = map_with_ranks(dims, n, m, ranks, rng)
    comm = commutant(source_of(source_kind, dilate(rho), rho, rng).rep)
    h = comm.space_dim
    xs = [rng.standard_normal((3, r, r)) + 1j * rng.standard_normal((3, r, r))
          for r in comm.multiplicities]
    back = comm.blocks(comm.lift(xs))
    assert all(np.array_equal(b, x) for b, x in zip(back, xs))
    ts = rng.standard_normal((3, h, h)) + 1j * rng.standard_normal((3, h, h))
    stacked = comm.blocks(ts)
    for i, t in enumerate(ts):
        assert all(same_bits(a[i], b) for a, b in zip(stacked, comm.blocks(t)))
        rest = t - comm.lift([x[i] for x in stacked])
        inner = np.einsum("kab,ab->k", pair_basis(comm, comm).conj(), rest)
        assert np.abs(inner).max(initial=0.0) <= 1e-12 * (1.0 + spectral_norm(t))


@st.composite
def map_pairs(draw, domains=DOMAINS):
    """(block dims, m, Choi ranks of two maps (n = 1), seed)."""
    dims = draw(st.sampled_from(domains))
    m = draw(st.integers(1, 2))
    ranks = [tuple(draw(st.integers(0, min(d * m, 3))) for d in dims) for _ in range(2)]
    return dims, m, ranks[0], ranks[1], draw(st.integers(0, 2**32 - 1))


@DETERMINISTIC
@given(map_pairs())
@example(((2, 1), 1, (0, 1), (1, 1), 0))  # the first intertwining block is k = 1
@example(((2, 2), 2, (2, 0), (0, 3), 1))  # disjoint
@example(((1, 1, 2), 2, (0, 0, 0), (1, 2, 3), 2))  # the zero map, H = 0
def test_extension_witness_lifts_the_first_intertwiner(pair):
    # the witness reads the frame rows of the first intertwining block and
    # builds no operator between the dilations: no lift, no basis element;
    # its off-diagonal is the images-and-polar oracle's
    dims, m, ranks1, ranks2, seed = pair
    rng = np.random.default_rng(seed)
    rho11, rho22 = (map_with_ranks(dims, 1, m, r, rng) for r in (ranks1, ranks2))

    def forbidden(*args, **kwargs):
        raise AssertionError("extension_witness built an operator on the dilation spaces")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CommutantBasis, "lift", forbidden)
        mp.setattr(CommutantBasis, "element", forbidden)
        witness = extension_witness(rho11, rho22)
    want = polar_witness_images(dilate(rho11), dilate(rho22))
    assert (witness is None) == (want is None) == are_disjoint(rho11, rho22)
    if witness is None:
        return
    assert is_completely_n_positive(witness).verdict
    got = images_of(witness.entry(0, 1))
    assert spectral_norm(got - want) <= 1e-12 * witness.scale


def test_every_frame_assembly_is_a_lift(monkeypatch):
    lifts = []
    real = CommutantBasis.lift

    def counting(self, xs, target=None):
        lifts.append(len(xs))
        return real(self, xs, target)

    monkeypatch.setattr(CommutantBasis, "lift", counting)
    rng = np.random.default_rng(17)
    rho = map_with_ranks((2, 1), 1, 2, (2, 1), rng)
    dil = dilate(rho)
    comm = commutant(dil.rep)
    theta = compress(dil, sample_unit_interval(dil, rng))
    calls = [lambda: comm.element(np.ones(comm.dimension)),
             lambda: rn_operator(rho, theta, source_dilation=dil),
             lambda: intertwiner(rho, theta, source_dilation=dil)]
    for call in calls:
        lifts.clear()
        call()
        assert len(lifts) == 1
