"""Josephson phase dynamics under harmonic bias via Heun polynomials.

The package follows the exact reduction of the overdamped junction equation
``phi' + sin(phi) = B + A*cos(omega*t)`` to a double confluent Heun equation:
closed-form polynomial solutions, their spectral constraints, and numerical
oracles cross-checking every closed-form object.

The names below are the ones the quick start and the scripts use; everything
else is imported from its module (``heun_rsj.structure``, ...).
"""

from .errors import HeunRsjError, ZeroOnUnitCircle
from .model import DcheParams, dche_to_params
from .dynamics import integrate_phase
from .heun_poly import build_polynomial
from .spectral import lambda_spectra, lambda_spectrum, root_params
from .structure import phase_series

__all__ = [
    "DcheParams",
    "HeunRsjError",
    "ZeroOnUnitCircle",
    "build_polynomial",
    "dche_to_params",
    "integrate_phase",
    "lambda_spectra",
    "lambda_spectrum",
    "phase_series",
    "root_params",
]

__version__ = "0.1.0"
