"""Deterministic property tests of the certified commutant.

Hypothesis runs derandomized with a fixed example count, so every run
draws the same cases.  The cases cover multi-block domains, zero Choi
blocks and rank-deficient maps, which the acceptance criteria, all on
single-block domains, do not.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpnkit import (LinearMap, StinespringDilation, commutant, dilate,
                    dilate_from_gram, is_extreme, is_pure, make_algebra,
                    unflatten)
from cpnkit.linalg import commutant_basis_of

from test_structure import (conjugated, ptp_route, random_unitary_matrix,
                            report_tuple, unital_map)

DOMAINS = ((2,), (3,), (2, 1), (2, 2), (3, 1), (1, 1, 2))

DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None,
                         database=None)


@st.composite
def shapes(draw):
    """(block dims, n, m, Choi rank per block, seed); ranks start at 0 and
    stay below d n m, so zero blocks and rank-deficient maps occur."""
    dims = draw(st.sampled_from(DOMAINS))
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
    other = moved(dil, rng)
    assert commutant(other.rep).dimension == commutant(dil.rep).dimension
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
