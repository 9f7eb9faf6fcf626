"""Josephson phase dynamics under harmonic bias via Heun polynomials.

The package follows the exact reduction of the overdamped junction equation
``phi' + sin(phi) = B + A*cos(omega*t)`` to a double confluent Heun equation:
closed-form polynomial solutions, their spectral constraints, and numerical
oracles cross-checking every closed-form object.

The names below are the ones the quick start and the scripts use, plus the
base error class and the triplet type; everything else, the other error
classes included, is imported from its module (``heun_rsj.structure``,
``heun_rsj.errors``, ...).
"""

from .errors import HeunRsjError
from .model import DcheParams, dche_to_params
from .dynamics import integrate_phase
from .heun_poly import build_polynomial
from .spectral import lambda_spectra, lambda_spectrum, root_params
from .structure import phase_rate, phase_series

__all__ = [
    "DcheParams",
    "HeunRsjError",
    "build_polynomial",
    "dche_to_params",
    "integrate_phase",
    "lambda_spectra",
    "lambda_spectrum",
    "phase_rate",
    "phase_series",
    "root_params",
]

__version__ = "0.1.0"
