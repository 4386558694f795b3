import numpy as np
import pytest

from cpnkit import (CertificationError, DominationError, PositivityError,
                    StinespringDilation, ValidationError, as_cpn, canonicalize, compress,
                    commutant, cpn_distance, depolarizing_map, dilate,
                    identity_map, images_of, intertwiner, is_extreme, is_pure,
                    make_algebra, order_equivalence_check, random_cpn_map,
                    rn_operator, sample_unit_interval, zero_map)
import cpnkit.dilation as cpnkit_dilation
import cpnkit.radon as cpnkit_radon
from cpnkit.linalg import herm, spectral_norm
from cpnkit.radon import _block_gates
from test_structure import conjugated, random_unitary_matrix


def commutant_residual(dil, t):
    """max over matrix units of ||[T, Phi(e)]||."""
    return spectral_norm(t @ dil.rep.images - dil.rep.images @ t)


def test_half_map_recovers_half_identity():
    rho = as_cpn(identity_map(make_algebra((2,))))
    theta = 0.5 * rho
    elem = rn_operator(rho, theta)
    assert np.allclose(elem.matrix, 0.5 * np.eye(2), atol=1e-10)
    w = intertwiner(rho, theta)
    assert w.norm == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_compress_identity_returns_source():
    rng = np.random.default_rng(0)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 3, rng)
    dil = dilate(rho)
    back = compress(dil, np.eye(dil.space_dim))
    assert cpn_distance(back, rho) <= 1e-10 * rho.scale


def test_round_trip_many_instances():
    rng = np.random.default_rng(1)
    shapes = [((2,), 2, 2), ((2, 1), 2, 1), ((3,), 1, 2), ((2,), 1, 3)]
    for dims, m, n in shapes:
        rho = random_cpn_map(make_algebra(dims), m, n, 2, rng)
        dil = dilate(rho)
        for _ in range(5):
            t0 = sample_unit_interval(dil, rng)
            theta = compress(dil, t0)
            elem = rn_operator(rho, theta, source_dilation=dil)
            err = np.abs(elem.matrix - t0).max()
            assert err <= 1e-8 * (1.0 + np.abs(t0).max())
            again = compress(dil, elem.matrix)
            assert cpn_distance(again, theta) <= 1e-9 * theta.scale


def test_domination_failure_raises():
    rng = np.random.default_rng(2)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 3, rng)
    with pytest.raises(DominationError) as exc:
        rn_operator(rho, 2.0 * rho)
    assert exc.value.min_eig is not None
    assert exc.value.min_eig < 0


def test_theta_outside_the_cone_raises_positivity_error():
    # rho - theta = 2 rho is completely positive, theta = -rho is not: the
    # failed certificates are the input's fault, reported as such
    rng = np.random.default_rng(2)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    for call in (rn_operator, intertwiner):
        with pytest.raises(PositivityError, match="not completely n-positive") as exc:
            call(rho, -1.0 * rho)
        assert not isinstance(exc.value, DominationError) and exc.value.min_eig < 0


def test_intertwiner_certificates():
    rng = np.random.default_rng(3)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    dil = dilate(rho)
    t0 = sample_unit_interval(dil, rng)
    theta = compress(dil, t0)
    w = intertwiner(rho, theta, source_dilation=dil)
    scale = rho.scale
    assert w.norm <= 1.0 + 1e-10
    assert w.isometry_residual <= 1e-9 * scale
    # W intertwines the canonical representations by construction
    assert spectral_norm(w.matrix @ dil.rep.images - w.target.rep.images @ w.matrix) == 0.0
    assert w.matrix.shape[1] == dil.space_dim


def test_compress_validates_operator():
    rng = np.random.default_rng(4)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 2, rng)
    dil = dilate(rho)
    n = dil.space_dim
    with pytest.raises(ValidationError):
        compress(dil, np.eye(n + 1))
    with pytest.raises(ValidationError):
        compress(dil, -np.eye(n))
    upper = np.triu(np.ones((n, n)), 1) + np.eye(n)
    with pytest.raises(ValidationError):
        compress(dil, upper)
    # a positive matrix outside the commutant must also be rejected
    off = np.eye(n)
    off[0, 0] = 2.0
    if commutant_residual(dil, off) > 1e-6:
        with pytest.raises(ValidationError):
            compress(dil, off)


def test_order_equivalence_ordered_pair():
    rng = np.random.default_rng(5)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 2, rng)
    dil = dilate(rho)
    t1 = sample_unit_interval(dil, rng)
    t2 = t1 + 0.5 * (np.eye(dil.space_dim) - t1)
    chk = order_equivalence_check(dil, t1, t2)
    assert chk.operator_leq and chk.map_leq and chk.agree


def test_order_equivalence_incomparable_pair():
    # complementary projections inside a large commutant dominate in
    # neither direction; both readings must say so
    dep = as_cpn(depolarizing_map(2))
    dil = dilate(dep)
    p = np.zeros((8, 8))
    p[0, 0] = p[1, 1] = 1.0
    q = np.eye(8) - p
    if commutant_residual(dil, p) < 1e-10:
        chk = order_equivalence_check(dil, p, q)
        assert not chk.operator_leq and not chk.map_leq and chk.agree


def test_sample_unit_interval_properties():
    rng = np.random.default_rng(6)
    dep = as_cpn(depolarizing_map(2))
    dil = dilate(dep)
    for _ in range(10):
        t = sample_unit_interval(dil, rng)
        assert commutant_residual(dil, t) <= 1e-9
        w = np.linalg.eigvalsh((t + t.conj().T) / 2)
        assert w.min() >= -1e-10 and w.max() <= 1.0 + 1e-10
    a = sample_unit_interval(dil, np.random.default_rng(9))
    b = sample_unit_interval(dil, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_frame_is_computed_once_per_dilation(monkeypatch):
    # canonicalize is the one reader of a frame: a dilate() output needs
    # none, any other dilation computes it once there, and is_pure,
    # is_extreme and repeated draws on the canonical dilation compute none,
    # keeping their count and order; the foreign dilation itself is refused
    rho = as_cpn(depolarizing_map(2))
    dil = dilate(rho)
    u = random_unitary_matrix(dil.space_dim, np.random.default_rng(4))
    turned = StinespringDilation(conjugated(dil.rep, u),
                                 tuple(u @ v for v in dil.isometries), rho)
    real = cpnkit_dilation.canonical_frame
    for d, frames in ((dil, 0), (turned, 1)):
        made = []

        def counting(rep):
            made.append(rep)
            return real(rep)

        monkeypatch.setattr(cpnkit_dilation, "canonical_frame", counting)
        canon = d if d is dil else canonicalize(d)[0]
        assert not is_pure(rho, dilation=canon)
        assert not is_extreme(rho, dilation=canon).extreme
        a = sample_unit_interval(canon, np.random.default_rng(3))
        b = sample_unit_interval(canon, np.random.default_rng(3))
        monkeypatch.undo()
        assert len(made) == frames and all(rep is d.rep for rep in made)
        assert np.array_equal(a, b)
    with pytest.raises(ValidationError, match="canonicalize"):
        sample_unit_interval(turned, np.random.default_rng(3))


def test_rn_operator_reports_certificates():
    rng = np.random.default_rng(8)
    rho = random_cpn_map(make_algebra((3,)), 2, 2, 3, rng)
    dil = dilate(rho)
    t0 = sample_unit_interval(dil, rng)
    theta = compress(dil, t0)
    elem = rn_operator(rho, theta, source_dilation=dil)
    assert commutant_residual(dil, elem.matrix) <= 1e-9
    assert elem.reconstruction_residual <= 1e-9 * theta.scale
    assert min(elem.spectrum) >= -1e-9
    assert max(elem.spectrum) <= 1.0 + 1e-9


def test_compress_matches_per_matrix_products():
    rng = np.random.default_rng(16)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    dil = dilate(rho)
    t = sample_unit_interval(dil, rng)
    theta = compress(dil, t)
    vs = dil.isometries
    for i in range(rho.n):
        for j in range(rho.n):
            got = images_of(theta.entry(i, j))
            for idx, img in enumerate(dil.rep.images):
                expect = vs[i].conj().T @ t @ img @ vs[j]
                assert np.abs(got[idx] - expect).max() <= 1e-13 * rho.scale


def test_fused_gates_match_separate_norms():
    # compress takes ||herm X||, ||X - X*|| and the least eigenvalue over
    # the frame blocks from one eigvalsh call per block, over [herm X;
    # i (X - X*)]: bitwise the values of separate calls, for each member of
    # a stack too; empty blocks take no part
    rng = np.random.default_rng(19)
    for dims in ((2,), (3,), (2, 1), (2, 2), (3, 1)):
        alg = make_algebra(dims)
        for rank in (1, 2, 3):
            comm = commutant(dilate(random_cpn_map(alg, 2, 2, rank, rng)).rep)
            xs = [rng.standard_normal((3, r, r)) + 1j * rng.standard_normal((3, r, r))
                  for r in comm.multiplicities]
            stacked = _block_gates(xs)
            for i in range(3):
                fused = tuple(v[i].item() for v in stacked)
                single = tuple(v[0].item() for v in _block_gates([x[i:i + 1] for x in xs]))
                spectra = [(np.linalg.eigvalsh(herm(x[i])),
                            np.linalg.eigvalsh(1j * (x[i] - x[i].conj().T)))
                           for x in xs if len(x[i])]
                separate = (max(np.abs(h).max() for h, _ in spectra),
                            max(np.abs(a).max() for _, a in spectra),
                            min(h[0] for h, _ in spectra))
                assert fused == single == separate
    empty = commutant(dilate(as_cpn(zero_map(make_algebra((2, 1)), 2))).rep)
    assert empty.space_dim == 0
    values = _block_gates([np.zeros((2, 0, 0))] * len(empty.multiplicities))
    assert [v.tolist() for v in values] == [[0.0, 0.0], [0.0, 0.0], [np.inf, np.inf]]


def test_herm_is_stack_aware():
    # .T on a 3-D stack reverses every axis; the Hermitian part must be
    # taken matrix by matrix, and stay bitwise the 2-D formula on a matrix
    rng = np.random.default_rng(21)
    stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    got = herm(stack)
    for a, h in zip(stack, got):
        assert np.array_equal(h, 0.5 * (a + a.conj().T))
        assert np.array_equal(herm(a), h)
    assert np.array_equal(got, got.conj().swapaxes(-1, -2))


def test_compress_gate_order_and_messages():
    # the commutator gate is checked before the Hermitian one, as before
    rng = np.random.default_rng(20)
    dil = dilate(random_cpn_map(make_algebra((2,)), 2, 2, 2, rng))
    n = dil.space_dim
    skew_outside = np.triu(np.ones((n, n)), 1) + np.eye(n)
    assert commutant_residual(dil, skew_outside) > 1e-6
    with pytest.raises(ValidationError, match="not in the commutant"):
        compress(dil, skew_outside)
    with pytest.raises(ValidationError, match="not Hermitian"):
        compress(dil, 1j * np.eye(n))
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        compress(dil, -np.eye(n))


def test_rn_operator_gates_t_once(monkeypatch):
    # T is solved once per call, block by block, and certified once, with
    # one compression of its blocks for the reconstruction
    rng = np.random.default_rng(22)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 3, rng)
    dil = dilate(rho)
    theta = compress(dil, sample_unit_interval(dil, rng))
    calls = {"_rn_blocks": [], "_compressions": []}
    for name, log in calls.items():
        real = getattr(cpnkit_radon, name)
        monkeypatch.setattr(cpnkit_radon, name,
                            lambda *args, real=real, log=log: log.append(args) or real(*args))
    elem = rn_operator(rho, theta, source_dilation=dil)
    assert len(calls["_rn_blocks"]) == 1
    # one compression, of per-block stacks of one
    assert [{len(x) for x in args[1]} for args in calls["_compressions"]] == [{1}]
    assert elem.reconstruction_residual <= 1e-9 * theta.scale


def test_rn_operator_failed_certificate_reports_values(monkeypatch):
    # inflated T_k give T with spectrum above 1 and a wrong
    # reconstruction; both values reach the message
    rng = np.random.default_rng(23)
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 2, rng)
    dil = dilate(rho)
    theta = compress(dil, sample_unit_interval(dil, rng))
    real = cpnkit_radon._rn_blocks
    monkeypatch.setattr(cpnkit_radon, "_rn_blocks",
                        lambda *args: [1.5 * t for t in real(*args)])
    with pytest.raises(CertificationError,
                       match=r"Radon-Nikodym certificate failed .*spectrum .*reconstruction") \
            as info:
        rn_operator(rho, theta, source_dilation=dil)
    assert info.value.value > info.value.bound > 0  # the ceiling or the reconstruction


def test_intertwiner_failed_certificate_carries_value_and_bound(monkeypatch):
    # doubled frame solutions Y_k give ||W|| = 2 ||W_true|| > 1
    rho = as_cpn(identity_map(make_algebra((2,))))
    real = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kw: 2.0 * real(*args, **kw))
    with pytest.raises(CertificationError, match="intertwiner certificate failed") as info:
        intertwiner(rho, 0.5 * rho)
    assert info.value.value == pytest.approx(2.0 * np.sqrt(0.5))
    assert info.value.bound == 1.0 + 1e-9 * rho.scale
