import numpy as np
import pytest

from cpnkit import (DominationError, ValidationError, as_cpn, compress,
                    cpn_distance, depolarizing_map, dilate,
                    identity_map, images_of, intertwiner, is_extreme, is_pure,
                    make_algebra, order_equivalence_check, random_cpn_map,
                    rn_operator, sample_unit_interval, zero_map)
import cpnkit.dilation as cpnkit_dilation
from cpnkit.linalg import spectral_norm, spectral_norms
from cpnkit.radon import _norm_and_commutator


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
    assert w.intertwining_residual <= 1e-9 * scale
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
    # is_pure, is_extreme and repeated draws share the frame cached on the
    # representation; the draws keep their count and order
    rho = as_cpn(depolarizing_map(2))
    dil = dilate(rho)
    made = []
    real = cpnkit_dilation.canonical_frame

    def counting(rep):
        made.append(rep)
        return real(rep)

    monkeypatch.setattr(cpnkit_dilation, "canonical_frame", counting)
    assert not is_pure(rho, dilation=dil)
    assert not is_extreme(rho, dilation=dil).extreme
    a = sample_unit_interval(dil, np.random.default_rng(3))
    b = sample_unit_interval(dil, np.random.default_rng(3))
    assert len(made) == 1 and made[0] is dil.rep
    assert np.array_equal(a, b)


def test_rn_operator_reports_certificates():
    rng = np.random.default_rng(8)
    rho = random_cpn_map(make_algebra((3,)), 2, 2, 3, rng)
    dil = dilate(rho)
    t0 = sample_unit_interval(dil, rng)
    theta = compress(dil, t0)
    elem = rn_operator(rho, theta, source_dilation=dil)
    assert elem.commutant_residual <= 1e-9
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
    # compress, rn_operator and intertwiner take ||T|| (or ||W||), ||T - T*||
    # and the commutator residual from one batched SVD: bitwise the values
    # of separate spectral_norm calls, and plain floats
    rng = np.random.default_rng(19)
    for dims in ((2,), (3,), (2, 1), (2, 2), (3, 1)):
        alg = make_algebra(dims)
        for rank in (1, 2, 3):
            dil = dilate(random_cpn_map(alg, 2, 2, rank, rng))
            h = dil.space_dim
            imgs = dil.rep.images
            t = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
            fused = _norm_and_commutator(dil, t, t - t.conj().T)
            separate = (spectral_norm(t), spectral_norm(t - t.conj().T),
                        commutant_residual(dil, t))
            assert fused == separate
            assert all(type(x) is float for x in fused)
            w = rng.standard_normal((h + 1, h)) + 1j * rng.standard_normal((h + 1, h))
            other = rng.standard_normal((alg.dim, h + 1, h + 1))
            norm, *inter = spectral_norms(np.concatenate([w[None], w @ imgs - other @ w]))
            assert norm == spectral_norm(w)
            assert max(inter) == spectral_norm(w @ imgs - other @ w)
    empty = dilate(as_cpn(zero_map(make_algebra((2, 1)), 2)))
    assert empty.space_dim == 0
    assert _norm_and_commutator(empty, np.zeros((0, 0)), np.zeros((0, 0))) == (0.0, 0.0, 0.0)


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
