"""Cardy-Frobenius algebras of polynomial superpotentials.

The package builds the closed-sector commutative algebra of a depressed
monic potential, pairs it with its quaternionic open sector, moves between
the coefficient chart and the flat chart on the space of potentials, and
verifies the full axiom stack numerically: Frobenius pairings, the
open/closed compatibility trace identity, associativity of the potential's
third derivatives, and the extended system coupling both sectors.
"""

from .polycore import (
    EQ_TOL,
    DegenerateModelError,
    LGPolynomial,
    critical_points,
    residue_functional,
    reversion_polynomials,
)
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    matrix_pair,
    number_pair,
    orthogonal_sum,
    orthogonal_sum_list,
    quaternion_pair,
    verify_frobenius,
)
from .cardy import (
    CardyFrobeniusAlgebra,
    decompose_commutative,
    matrix_cf,
    quaternionic_cf,
    verify_cardy_frobenius,
)
from .landau_ginzburg import (
    LGClosedAlgebra,
    QuaternionLGModel,
    build_closed,
    build_quaternion_model,
    model_from_dict,
    model_to_dict,
)
from .moduli import (
    FlatChart,
    PotentialPoly,
    coefficients_from_flat,
    euler_check,
    flat_chart,
    reconstruct_potential,
    sample_charts,
    structure_tensor,
    wdvv_check,
)
from .tensor_series import (
    TensorSeries,
    ext_wdvv_check,
    series_from_dict,
    series_to_dict,
)
from .bundle import (
    CORRUPTIONS,
    PREDICTED_CONDITION,
    BundleReport,
    assemble_potential,
    corrupt_model,
    verify_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "EQ_TOL",
    "DegenerateModelError",
    "LGPolynomial",
    "critical_points",
    "residue_functional",
    "reversion_polynomials",
    "FiniteAlgebra",
    "FrobeniusPair",
    "VerificationReport",
    "matrix_pair",
    "number_pair",
    "orthogonal_sum",
    "orthogonal_sum_list",
    "quaternion_pair",
    "verify_frobenius",
    "CardyFrobeniusAlgebra",
    "decompose_commutative",
    "matrix_cf",
    "quaternionic_cf",
    "verify_cardy_frobenius",
    "LGClosedAlgebra",
    "QuaternionLGModel",
    "build_closed",
    "build_quaternion_model",
    "model_from_dict",
    "model_to_dict",
    "FlatChart",
    "PotentialPoly",
    "coefficients_from_flat",
    "euler_check",
    "flat_chart",
    "reconstruct_potential",
    "sample_charts",
    "structure_tensor",
    "wdvv_check",
    "TensorSeries",
    "ext_wdvv_check",
    "series_from_dict",
    "series_to_dict",
    "CORRUPTIONS",
    "PREDICTED_CONDITION",
    "BundleReport",
    "assemble_potential",
    "corrupt_model",
    "verify_bundle",
    "__version__",
]
