import json

import numpy as np
import pytest

from cpnkit import SchemaError, cpn_distance, dilate, make_algebra, random_cpn_map
from cpnkit import serialize as ser


def test_complex_pairs():
    assert ser.complex_to_pair(1 + 2j) == [1.0, 2.0]
    assert ser.pair_to_complex([1.0, -2.0]) == 1 - 2j
    for bad in ([1.0], [1.0, 2.0, 3.0], ["a", 0.0], [True, 0.0], 5):
        with pytest.raises(SchemaError):
            ser.pair_to_complex(bad)


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    back = ser.json_to_matrix(ser.matrix_to_json(m))
    assert np.allclose(m, back)
    assert back.shape == (2, 3)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        ser.json_to_matrix([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]])
    with pytest.raises(SchemaError):
        ser.json_to_matrix("nope")
    with pytest.raises(SchemaError):
        ser.json_to_matrix([])
    # empty matrices are fine when the shape is pinned
    z = ser.json_to_matrix([], shape=(0, 3))
    assert z.shape == (0, 3)
    with pytest.raises(SchemaError):
        ser.json_to_matrix([[[1.0, 0.0]]], shape=(2, 1))


def test_algebra_round_trip():
    alg = make_algebra((2, 1, 3))
    back = ser.algebra_from_json(ser.algebra_to_json(alg))
    assert back == alg
    for bad in ({}, {"blocks": []}, {"blocks": [0]}, {"blocks": [2.5]},
                {"blocks": [True]}, {"blocks": [-1]}):
        with pytest.raises(SchemaError):
            ser.algebra_from_json(bad)


def test_cpn_map_round_trip():
    rng = np.random.default_rng(2)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 3, 3, rng)
    back = ser.cpn_map_from_json(ser.cpn_map_to_json(rho))
    assert cpn_distance(rho, back) < 1e-15


def test_cpn_map_schema_errors():
    rho = random_cpn_map(make_algebra((2,)), 2, 2, 2,
                         np.random.default_rng(3))
    good = ser.cpn_map_to_json(rho)
    bad = dict(good)
    bad.pop("entries")
    with pytest.raises(SchemaError):
        ser.cpn_map_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["n"] = 3
    with pytest.raises(SchemaError):
        ser.cpn_map_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["n"] = True
    with pytest.raises(SchemaError):
        ser.cpn_map_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["entries"][0] = bad["entries"][0][:1]
    with pytest.raises(SchemaError):
        ser.cpn_map_from_json(bad)
    with pytest.raises(SchemaError):
        ser.cpn_map_from_json([])


def test_linear_map_round_trip():
    rng = np.random.default_rng(4)
    alg = make_algebra((2,))
    rho = random_cpn_map(alg, 3, 1, 2, rng)
    phi = rho.entries[0][0]
    back = ser.linear_map_from_json(ser.linear_map_to_json(phi), alg, 3)
    assert np.allclose(phi.choi_blocks[0], back.choi_blocks[0])


def test_dilation_serialization():
    rng = np.random.default_rng(5)
    rho = random_cpn_map(make_algebra((2, 1)), 2, 2, 2, rng)
    dil = dilate(rho)
    obj = ser.dilation_to_json(dil)
    assert obj["space_dim"] == dil.space_dim
    assert obj["multiplicities"] == list(dil.rep.multiplicities)
    assert len(obj["images"]) == rho.domain.dim
    assert len(obj["isometries"]) == rho.n
    img0 = ser.json_to_matrix(obj["images"][0],
                              (dil.space_dim, dil.space_dim))
    assert np.allclose(img0, dil.rep.images[0])
