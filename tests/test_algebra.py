import numpy as np
import pytest

from cpnkit import (ValidationError, cstar_norm, distance,
                    element_from_coords, is_unitary, make_algebra,
                    matrix_units, random_element, star_index, unit_index)
from cpnkit.algebra import unit_product_index


def test_make_algebra_basic():
    alg = make_algebra((2, 3))
    assert alg.block_dims == (2, 3)
    assert alg.dim == 4 + 9
    assert alg.num_blocks == 2


def test_make_algebra_rejects_bad_dims():
    with pytest.raises(ValidationError):
        make_algebra(())
    with pytest.raises(ValidationError):
        make_algebra((0,))
    with pytest.raises(ValidationError):
        make_algebra((2, -1))


def test_element_shape_validation():
    alg = make_algebra((2, 1))
    with pytest.raises(ValidationError):
        alg.element([np.eye(2)])
    with pytest.raises(ValidationError):
        alg.element([np.eye(2), np.eye(2)])


def test_unit_and_zero():
    alg = make_algebra((2, 3))
    one = alg.unit()
    z = alg.zero()
    for blk, d in zip(one.blocks, alg.block_dims):
        assert np.array_equal(blk, np.eye(d))
    for blk in z.blocks:
        assert not blk.any()


def test_coords_round_trip():
    alg = make_algebra((2, 3))
    rng = np.random.default_rng(3)
    a = random_element(alg, rng)
    b = element_from_coords(alg, a.coords())
    assert distance(a, b) < 1e-14


def test_matrix_unit_order_and_indexing():
    alg = make_algebra((2, 3))
    units = matrix_units(alg)
    assert len(units) == alg.dim
    # block-major, then row-major within each block
    for k, d in enumerate(alg.block_dims):
        for p in range(d):
            for q in range(d):
                idx = unit_index(alg, k, p, q)
                e = units[idx]
                expected = np.zeros((d, d))
                expected[p, q] = 1.0
                assert np.array_equal(e.blocks[k], expected)
                other = 1 - k
                assert not e.blocks[other].any()


def test_star_index_is_adjoint():
    for alg in (make_algebra((2, 3)), make_algebra((1, 2, 1))):
        units = matrix_units(alg)
        for idx, e in enumerate(units):
            assert distance(e.adjoint(), units[star_index(alg, idx)]) == 0.0


def test_unit_product_index_rule():
    for alg in (make_algebra((2, 3)), make_algebra((1, 2, 1))):
        units = matrix_units(alg)
        for i, a in enumerate(units):
            for j, b in enumerate(units):
                prod = a @ b
                got = unit_product_index(alg, i, j)
                if got is None:
                    assert cstar_norm(prod) == 0.0
                else:
                    assert distance(prod, units[got]) == 0.0


def test_unit_indices_out_of_range_are_rejected():
    # a flat index names one of the dim A matrix units: a negative one is
    # not read from the end, and none past the last unit exists
    alg = make_algebra((1, 2, 1))
    for bad in (-1, -alg.dim, alg.dim, alg.dim + 3, 1.0):
        with pytest.raises(ValidationError):
            star_index(alg, bad)
        with pytest.raises(ValidationError):
            unit_product_index(alg, bad, 0)
        with pytest.raises(ValidationError):
            unit_product_index(alg, 0, bad)
    assert star_index(alg, np.int64(alg.dim - 1)) == alg.dim - 1


def test_arithmetic():
    alg = make_algebra((2,))
    rng = np.random.default_rng(5)
    a = random_element(alg, rng)
    b = random_element(alg, rng)
    lhs = (2.0 * a - b + (-a)).blocks[0]
    rhs = 2.0 * a.blocks[0] - b.blocks[0] - a.blocks[0]
    assert np.allclose(lhs, rhs)
    assert np.allclose((a @ b).blocks[0], a.blocks[0] @ b.blocks[0])
    assert np.allclose(a.adjoint().blocks[0], a.blocks[0].conj().T)


def test_product_requires_same_algebra():
    a = make_algebra((2,)).unit()
    b = make_algebra((3,)).unit()
    with pytest.raises(ValidationError):
        a @ b


def test_cstar_norm_is_max_block_norm():
    alg = make_algebra((2, 2))
    a = alg.element([np.diag([3.0, 1.0]), np.diag([0.5, -4.0])])
    assert cstar_norm(a) == pytest.approx(4.0)


def test_cstar_norm_is_computed_once_per_element(monkeypatch):
    alg = make_algebra((2, 3))
    a = random_element(alg, np.random.default_rng(5))
    first = cstar_norm(a)
    real, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or real(*args, **kw))
    second = cstar_norm(a)
    monkeypatch.undo()
    assert calls == []
    expect = max(np.linalg.norm(b, 2) for b in a.blocks)
    assert first.hex() == second.hex() == expect.hex()
    # arithmetic returns new elements, each with its own norm
    assert cstar_norm(2 * a) == max(np.linalg.norm(2 * b, 2) for b in a.blocks)


def test_is_unitary_predicate():
    alg = make_algebra((2,))
    assert is_unitary(alg.unit())
    assert not is_unitary(2.0 * alg.unit())


def test_elements_are_immutable():
    alg = make_algebra((2,))
    a = alg.unit()
    with pytest.raises(ValueError):
        a.blocks[0][0, 0] = 5.0
