import numpy as np
import pytest

from cpnkit import (ContinuousCPnMap, ValidationError, apply_connecting,
                    apply_map, as_cpn, check_thread, cstar_norm,
                    depolarizing_map, evaluate_continuous_map, flatten,
                    make_algebra, make_tower, matrix_units, projection_tower,
                    random_element, seminorm, unit_index)


def two_level():
    return projection_tower((2, 2), (0,))


def test_projection_tower_shape():
    tower = two_level()
    assert tower.num_levels == 2
    assert tower.levels[0].block_dims == (2,)
    assert tower.levels[1].block_dims == (2, 2)
    rng = np.random.default_rng(0)
    a2 = random_element(tower.levels[1], rng)
    a1 = apply_connecting(tower, 1, a2)
    assert np.allclose(a1.blocks[0], a2.blocks[0])


@pytest.mark.parametrize("dims, keep", [((2, 2), (0,)), ((1, 2, 3), (2, 0)),
                                        ((3, 1, 2), (0, 1, 2))])
def test_projection_tower_matrix_is_unit_coordinates(dims, keep):
    # pi(e_pq^(old)) = e_pq^(new) for the kept blocks, and 0 on the others
    tower = projection_tower(dims, keep)
    lower, upper = tower.levels
    want = np.zeros((lower.dim, upper.dim), dtype=complex)
    for new, old in enumerate(keep):
        d = upper.block_dims[old]
        for p in range(d):
            for q in range(d):
                want[unit_index(lower, new, p, q), unit_index(upper, old, p, q)] = 1.0
    assert np.array_equal(tower.connecting[0], want)


def connecting_matrix(upper, lower, fn):
    """Coordinate matrix of an element map, column by column."""
    cols = [fn(e).coords() for e in matrix_units(upper)]
    return np.stack(cols, axis=1)


def test_make_tower_rejects_sum_of_blocks():
    # a1 + a2 is linear and star preserving but not multiplicative
    upper = make_algebra((2, 2))
    lower = make_algebra((2,))
    mat = connecting_matrix(upper, lower,
                            lambda e: lower.element([e.blocks[0] + e.blocks[1]]))
    with pytest.raises(ValidationError) as exc:
        make_tower((lower, upper), (mat,))
    assert "multiplicative" in str(exc.value)
    assert "1" in str(exc.value)


def test_make_tower_rejects_transpose():
    upper = make_algebra((2,))
    lower = make_algebra((2,))
    mat = connecting_matrix(upper, lower,
                            lambda e: lower.element([e.blocks[0].T]))
    with pytest.raises(ValidationError) as exc:
        make_tower((lower, upper), (mat,))
    assert "multiplicative" in str(exc.value)


def test_make_tower_rejects_non_surjective():
    # duplicating one block lands in a proper subalgebra of the target
    upper = make_algebra((2, 2))
    lower = make_algebra((2, 2))
    mat = connecting_matrix(upper, lower,
                            lambda e: lower.element([e.blocks[0], e.blocks[0]]))
    with pytest.raises(ValidationError) as exc:
        make_tower((lower, upper), (mat,))
    assert "surjective" in str(exc.value)


def test_make_tower_rejects_non_unital():
    # the zero map is multiplicative and star preserving but not unital
    upper = make_algebra((2, 1))
    lower = make_algebra((1,))
    mat = np.zeros((lower.dim, upper.dim))
    with pytest.raises(ValidationError) as exc:
        make_tower((lower, upper), (mat,))
    assert "unital" in str(exc.value)


def test_three_level_tower():
    a1 = make_algebra((2,))
    a2 = make_algebra((2, 2))
    a3 = make_algebra((2, 2, 1))
    m1 = connecting_matrix(a2, a1, lambda e: a1.element([e.blocks[0]]))
    m2 = connecting_matrix(a3, a2,
                           lambda e: a2.element([e.blocks[0], e.blocks[1]]))
    tower = make_tower((a1, a2, a3), (m1, m2))
    rng = np.random.default_rng(1)
    x3 = random_element(a3, rng)
    x2 = apply_connecting(tower, 2, x3)
    x1 = apply_connecting(tower, 1, x2)
    thread = (x1, x2, x3)
    assert max(check_thread(tower, thread)) <= 1e-12
    # seminorms increase toward finer levels
    s = [seminorm(tower, k, thread) for k in (1, 2, 3)]
    assert s[0] <= s[1] + 1e-12
    assert s[1] <= s[2] + 1e-12


def test_check_thread_rejects_incoherence():
    tower = two_level()
    rng = np.random.default_rng(2)
    a2 = random_element(tower.levels[1], rng)
    a1 = apply_connecting(tower, 1, a2)
    bad = (a1 + tower.levels[0].unit(), a2)
    with pytest.raises(ValidationError) as exc:
        seminorm(tower, 1, bad)
    assert "level" in str(exc.value)
    with pytest.raises(ValidationError):
        evaluate_continuous_map(
            ContinuousCPnMap(two_level(), 1, as_cpn(depolarizing_map(2))), bad)


def test_thread_length_must_match():
    tower = two_level()
    rng = np.random.default_rng(3)
    a2 = random_element(tower.levels[1], rng)
    with pytest.raises(ValidationError):
        check_thread(tower, (a2,))


def test_continuous_map_level_domain_must_match():
    tower = two_level()
    with pytest.raises(ValidationError):
        ContinuousCPnMap(tower, 2, as_cpn(depolarizing_map(2)))
    with pytest.raises(ValidationError):
        ContinuousCPnMap(tower, 0, as_cpn(depolarizing_map(2)))


def test_evaluate_factors_through_level():
    tower = two_level()
    base = as_cpn(depolarizing_map(2))
    cm = ContinuousCPnMap(tower, 1, base)
    flat = flatten(base)
    rng = np.random.default_rng(4)
    for _ in range(20):
        a2 = random_element(tower.levels[1], rng)
        a1 = apply_connecting(tower, 1, a2)
        got = evaluate_continuous_map(cm, (a1, a2))
        assert np.allclose(got, apply_map(flat, a1), atol=1e-12)
        # changing the dropped block never changes the value
        bump = random_element(tower.levels[1], rng)
        a2_mod = tower.levels[1].element(
            [a2.blocks[0], a2.blocks[1] + bump.blocks[1]])
        assert np.allclose(evaluate_continuous_map(cm, (a1, a2_mod)), got,
                           atol=1e-12)


def test_evaluate_depolarizing_value():
    tower = two_level()
    cm = ContinuousCPnMap(tower, 1, as_cpn(depolarizing_map(2)))
    up = tower.levels[1]
    a2 = up.element([np.diag([3.0, 1.0]), np.zeros((2, 2))])
    a1 = apply_connecting(tower, 1, a2)
    got = evaluate_continuous_map(cm, (a1, a2))
    assert np.allclose(got, 2.0 * np.eye(2))


def test_seminorm_values():
    tower = two_level()
    up = tower.levels[1]
    a2 = up.element([np.diag([3.0, 1.0]), np.diag([0.0, 5.0])])
    a1 = apply_connecting(tower, 1, a2)
    assert seminorm(tower, 1, (a1, a2)) == pytest.approx(3.0)
    assert seminorm(tower, 2, (a1, a2)) == pytest.approx(5.0)
    with pytest.raises(ValidationError):
        seminorm(tower, 3, (a1, a2))
    assert cstar_norm(a1) <= cstar_norm(a2)


def test_connecting_shape_validation():
    lower = make_algebra((2,))
    upper = make_algebra((2, 2))
    with pytest.raises(ValidationError):
        make_tower((lower, upper), (np.eye(3),))
    with pytest.raises(ValidationError):
        make_tower((lower, upper), ())
    # a single-level tower is the degenerate but legal base case
    assert make_tower((lower,), ()).num_levels == 1
