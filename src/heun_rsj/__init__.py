"""Josephson phase dynamics under harmonic bias via Heun polynomials.

The package follows the exact reduction of the overdamped junction equation
``phi' + sin(phi) = B + A*cos(omega*t)`` to a double confluent Heun equation:
closed-form polynomial solutions, their spectral constraints, and numerical
oracles cross-checking every closed-form object.
"""

from .errors import (
    ConvergenceFailure,
    DegreeZeroUnsupported,
    HeunRsjError,
    IndexOutOfRange,
    InvalidParams,
    LambdaZero,
    MuNotPositive,
    NonFiniteState,
    NonIntegralDegree,
    NonPositiveArgument,
    NonPositiveDiscriminant,
    NotSpectral,
    NotUnimodular,
    OriginUndefined,
    PoleAtAlpha,
    PolynomialZeroOnPath,
    QuadratureFailure,
    SingularPoint,
    ZeroArgument,
    ZeroAtOne,
    ZeroOnUnitCircle,
)
from .model import (
    DcheCandidate,
    DcheParams,
    HeunPolynomial,
    RsjParams,
    Trajectory,
    dche_to_params,
    params_to_dche,
)
from .dynamics import bias, integrate_phase, integrate_xy, phase_from_xy
from .transforms import (
    CanonicalDche,
    canonical_dche_params,
    mobius,
    mobius_inverse,
    residual_dche_form,
    residual_symmetric_form,
    residual_v_equation,
    transport,
    v_pair_on_circle,
    xy_to_v,
    z_of_t,
)
from .heun_poly import (
    SAMPLE_POINTS,
    TriDiagMatrix,
    build_polynomial,
    coefficient_matrix,
    necessary_condition,
    residual_linear_system,
    residual_master,
    spectral_det,
    spectral_det_scaled,
    spectral_det_transfer,
    transfer_matrix,
)
from .spectral import (
    SpectralSet,
    SymmetryMatrix,
    factorization,
    lambda_spectrum,
    physical_point,
    root_params,
    symmetry_matrix,
)
from .structure import (
    coeff_relations_residual,
    norm_integral,
    orthogonality_integral,
    orthogonality_weight,
    phase_from_poly,
    phase_series,
    reflected_polynomial,
    second_solution,
    second_solution_jet,
    symmetry_residual,
    symmetry_sign,
    weight_divergence_residual,
)

__version__ = "0.1.0"
