"""Dilation, Radon-Nikodym and structure theory for matrices of
completely positive maps on finite-dimensional C*-algebras, with a
two-sided tower model for inverse limits of such algebras."""

from .errors import (CertificationError, DominationError, PositivityError,
                     SchemaError, ValidationError)
from .algebra import (AlgebraElement, CStarAlgebra, cstar_norm, distance,
                      element_from_coords, is_unitary, make_algebra,
                      matrix_units, random_element, star_index, unit_index)
from .maps import (CPnMap, CpnVerdict, LinearMap, apply_map, as_cpn,
                   check_hermitian_symmetry, compression_map, cpn_distance,
                   depolarizing_map, flatten, identity_map, images_of,
                   is_completely_n_positive, map_from_images, order_leq,
                   random_cpn_map, require_cpn, trace_map, unflatten,
                   zero_map)
from .dilation import (CommutantBasis, DilationReport, Representation,
                       StinespringDilation, commutant,
                       diagonal_direct_sum_check, dilate, dilate_from_gram,
                       equivalence_residual, gram_matrix, rep_apply,
                       spanning_matrix, unitary_equivalence,
                       verify_dilation, verify_representation)
from .radon import (CommutantElement, Intertwiner, OrderCheck, compress,
                    intertwiner, order_equivalence_check, rn_operator,
                    sample_unit_interval)
from .structure import (ConvexDecomposition, ExtremalityReport,
                        ExtremeFamilySpec, build_extreme_family,
                        extension_witness, are_disjoint, intertwiner_space,
                        is_extreme, is_pure, nonextreme_decomposition)
from .towers import (ContinuousCPnMap, Tower, apply_connecting, check_thread,
                     evaluate_continuous_map, make_tower, projection_tower,
                     seminorm)
from . import serialize

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "CStarAlgebra", "CPnMap", "CpnVerdict", "LinearMap",
    "CertificationError", "DominationError", "PositivityError", "SchemaError",
    "ValidationError", "DilationReport", "Representation",
    "StinespringDilation", "CommutantElement", "Intertwiner", "OrderCheck",
    "CommutantBasis", "ConvexDecomposition", "ExtremalityReport",
    "ExtremeFamilySpec", "ContinuousCPnMap", "Tower", "apply_connecting",
    "apply_map", "as_cpn", "build_extreme_family", "check_hermitian_symmetry",
    "check_thread", "commutant", "compress", "compression_map",
    "cpn_distance", "cstar_norm", "depolarizing_map",
    "diagonal_direct_sum_check", "dilate", "dilate_from_gram", "distance",
    "element_from_coords", "equivalence_residual", "evaluate_continuous_map",
    "extension_witness", "flatten", "gram_matrix", "identity_map",
    "images_of", "intertwiner", "intertwiner_space",
    "is_completely_n_positive", "are_disjoint", "is_extreme", "is_pure",
    "is_unitary", "make_algebra", "make_tower", "map_from_images",
    "matrix_units", "nonextreme_decomposition", "order_equivalence_check",
    "order_leq", "projection_tower", "random_cpn_map", "random_element",
    "rep_apply", "require_cpn", "rn_operator", "sample_unit_interval",
    "seminorm", "serialize", "spanning_matrix", "star_index", "trace_map",
    "unit_index", "unitary_equivalence", "unflatten", "verify_dilation",
    "verify_representation", "zero_map", "__version__",
]
