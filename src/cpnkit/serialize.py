"""JSON wire format.

Complex numbers are [re, im] pairs of finite numbers, matrices are
row-major lists of rows.  Schema violations raise SchemaError.
"""
from __future__ import annotations

import cmath

import numpy as np

from .algebra import CStarAlgebra, make_algebra
from .dilation import StinespringDilation
from .errors import SchemaError
from .maps import CPnMap, LinearMap


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def pair_to_complex(obj) -> complex:
    if (not isinstance(obj, (list, tuple)) or len(obj) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj)):
        raise SchemaError(f"expected [re, im] pair, got {obj!r}")
    try:
        z = complex(obj[0], obj[1])
    except OverflowError:
        raise SchemaError(f"number out of range in {obj!r}") from None
    if not cmath.isfinite(z):
        raise SchemaError(f"expected finite numbers, got {obj!r}")
    return z


def matrix_to_json(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise SchemaError(f"expected a matrix, got ndim {mat.ndim}")
    return [[complex_to_pair(z) for z in row] for row in mat]


def json_to_matrix(obj, shape: tuple[int, int] | None = None) -> np.ndarray:
    if not isinstance(obj, list):
        raise SchemaError(f"expected a matrix (list of rows), got {type(obj).__name__}")
    if len(obj) == 0:
        if shape is None:
            raise SchemaError("empty matrix needs an expected shape")
        if shape[0] != 0:
            raise SchemaError(f"expected {shape[0]} rows, got 0")
        return np.zeros(shape, dtype=complex)
    widths = set()
    rows = []
    for row in obj:
        if not isinstance(row, list):
            raise SchemaError("matrix rows must be lists")
        widths.add(len(row))
        rows.append([pair_to_complex(z) for z in row])
    if len(widths) != 1:
        raise SchemaError("matrix rows have inconsistent lengths")
    mat = np.array(rows, dtype=complex)
    if shape is not None and mat.shape != shape:
        raise SchemaError(f"expected matrix of shape {shape}, got {mat.shape}")
    return mat


def algebra_to_json(alg: CStarAlgebra) -> dict:
    return {"blocks": list(alg.block_dims)}


def algebra_from_json(obj) -> CStarAlgebra:
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise SchemaError("algebra must be an object with a 'blocks' list")
    blocks = obj["blocks"]
    if (not isinstance(blocks, list) or len(blocks) == 0
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in blocks)):
        raise SchemaError("'blocks' must be a nonempty list of positive integers")
    return make_algebra(blocks)


def linear_map_to_json(phi: LinearMap) -> dict:
    return {"choi_blocks": [matrix_to_json(b) for b in phi.choi_blocks]}


def linear_map_from_json(obj, domain: CStarAlgebra, codomain_dim: int) -> LinearMap:
    if not isinstance(obj, dict) or "choi_blocks" not in obj:
        raise SchemaError("map entry must be an object with 'choi_blocks'")
    raw = obj["choi_blocks"]
    if not isinstance(raw, list) or len(raw) != domain.num_blocks:
        raise SchemaError(
            f"'choi_blocks' must list {domain.num_blocks} matrices")
    m = codomain_dim
    blocks = tuple(json_to_matrix(b, (d * m, d * m))
                   for b, d in zip(raw, domain.block_dims))
    return LinearMap(domain, m, blocks)


def cpn_map_to_json(rho: CPnMap) -> dict:
    return {
        "n": rho.n,
        "codomain_dim": rho.codomain_dim,
        "domain": algebra_to_json(rho.domain),
        "entries": [[linear_map_to_json(e) for e in row] for row in rho.entries],
    }


def cpn_map_from_json(obj) -> CPnMap:
    if not isinstance(obj, dict):
        raise SchemaError("map matrix must be a JSON object")
    for key in ("n", "codomain_dim", "domain", "entries"):
        if key not in obj:
            raise SchemaError(f"map matrix is missing '{key}'")
    n = obj["n"]
    m = obj["codomain_dim"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError("'n' must be a positive integer")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise SchemaError("'codomain_dim' must be a positive integer")
    domain = algebra_from_json(obj["domain"])
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != n \
            or any(not isinstance(row, list) or len(row) != n for row in entries):
        raise SchemaError(f"'entries' must be an {n} x {n} array of map objects")
    rows = tuple(tuple(linear_map_from_json(e, domain, m) for e in row)
                 for row in entries)
    return CPnMap(rows)


def dilation_to_json(dil: StinespringDilation) -> dict:
    mults = dil.rep.multiplicities
    return {
        "space_dim": dil.space_dim,
        "multiplicities": list(mults) if mults is not None else None,
        "images": [matrix_to_json(img) for img in dil.rep.images],
        "isometries": [matrix_to_json(v) for v in dil.isometries],
    }
