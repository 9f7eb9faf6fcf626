"""Parameter records tying the driven junction to its polynomial reduction.

The overdamped junction phase obeys ``phi' + sin(phi) = B + A*cos(omega*t)``.
Writing ``z = exp(i*omega*t)`` and peeling off an exponential prefactor turns
the problem into a second order equation of double confluent Heun type whose
polynomial solutions are governed by the triplet

    n      = -(B/omega + 1)        (candidate polynomial degree)
    mu     = A / (2*omega)         (drive strength in the rotated frame)
    lambda = 1/(4*omega**2) - mu**2

``dche_to_params`` maps the reduced record ``(n, mu, lambda)`` back to the
physical record ``(A, B, omega)``, and always satisfies
``4*omega**2*(lambda + mu**2) = 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NonPositiveDiscriminant

__all__ = [
    "RsjParams",
    "DcheParams",
    "HeunPolynomial",
    "Trajectory",
    "dche_to_params",
    "finite_real",
    "frequency_scale",
    "mu_squared",
]


def finite_real(name: str, value) -> float:
    """``value`` as a float, or ``InvalidParams`` unless it is a finite real
    (an int too large for a double included)."""
    if isinstance(value, (int, float)):
        try:
            x = float(value)
        except OverflowError:
            raise InvalidParams(
                f"{name} is a {value.bit_length()}-bit int, too large for a double"
            ) from None
        if math.isfinite(x):
            return x
    raise InvalidParams(f"{name} must be a finite real, got {value!r}")


@dataclass(frozen=True)
class RsjParams:
    """Harmonic bias ``q(t) = B + A*cos(omega*t)`` for the phase equation.

    The constant and first-harmonic amplitudes are unconstrained apart from
    ``A != 0``; ``omega != 0`` so the drive period is finite.
    """

    A: float
    B: float
    omega: float

    def __post_init__(self):
        for name in ("A", "B", "omega"):
            finite_real(name, getattr(self, name))
        if self.A == 0:
            raise InvalidParams("bias amplitude A must be nonzero")
        if self.omega == 0:
            raise InvalidParams("drive frequency omega must be nonzero")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / abs(self.omega)


@dataclass(frozen=True)
class DcheParams:
    """Reduced triplet ``(n, mu, lambda)`` of the polynomial-form equation.

    ``n`` is the candidate polynomial degree and must be a non-negative
    integer.  ``mu = 0`` is admitted so the drive-free degenerate spectrum can
    be studied; the map back to physical parameters then has no valid image
    (it would need bias amplitude ``A = 0``).
    """

    n: int
    mu: float
    lam: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise InvalidParams(f"degree n must be an int, got {self.n!r}")
        if self.n < 0:
            raise InvalidParams(f"degree n must be >= 0, got {self.n}")
        for name in ("mu", "lam"):
            finite_real(name, getattr(self, name))


def mu_squared(mu: float) -> float:
    """``mu**2``, or ``InvalidParams`` where the square overflows a double."""
    try:
        return mu**2
    except OverflowError:
        raise InvalidParams(f"mu**2 overflows a double at mu = {mu!r}") from None


def frequency_scale(d: DcheParams) -> float:
    """``c = sqrt(lambda + mu**2)``, the inverse of twice the drive frequency.

    ``NonPositiveDiscriminant`` where ``lambda + mu**2 <= 0`` (no real drive
    frequency), ``InvalidParams`` where ``mu**2`` overflows a double.
    """
    disc = d.lam + mu_squared(d.mu)
    if disc <= 0:
        raise NonPositiveDiscriminant(
            f"lambda + mu**2 = {disc!r} <= 0: no real drive frequency exists"
        )
    return math.sqrt(disc)


def dche_to_params(d: DcheParams) -> RsjParams:
    """Invert the reduction, picking the canonical ``omega > 0`` branch.

    Requires ``lambda + mu**2 > 0`` (real drive frequency, see
    :func:`frequency_scale`) and ``mu != 0`` (nonzero bias amplitude).
    """
    omega = 1.0 / (2.0 * frequency_scale(d))
    return RsjParams(A=2.0 * d.mu * omega, B=-(d.n + 1.0) * omega, omega=omega)


@dataclass(frozen=True)
class HeunPolynomial:
    """Polynomial ``P(z) = sum a_k z^k`` of the root (params, epsilon).

    ``coeffs`` is ascending, length ``n + 1`` for ``n = params.n``, with
    ``a_n != 0`` so the degree is exact.  ``epsilon`` in {+1, -1} is the
    reflection sign of the root,
    ``P'(z) - mu*P(z) = epsilon * c * z**n * P(1/z)``, that the symmetry
    residuals and the closed-form phase read.
    ``heun_poly.build_polynomial`` normalises ``a_n = 1``; derived objects
    (e.g. the reflected polynomial) may carry another leading coefficient.
    """

    coeffs: tuple[float, ...]
    params: DcheParams
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise InvalidParams(f"epsilon must be +1 or -1, got {self.epsilon!r}")
        if len(self.coeffs) != self.n + 1:
            raise InvalidParams(
                f"need {self.n + 1} coefficients for degree {self.n}, "
                f"got {len(self.coeffs)}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise InvalidParams("coefficients must all be finite")
        if self.coeffs[-1] == 0:
            raise InvalidParams("leading coefficient must be nonzero")

    @property
    def n(self) -> int:
        """Degree, from the triplet."""
        return self.params.n

    def value(self, z):
        """Evaluate P(z); scalar or array, real or complex."""
        return np.polynomial.polynomial.polyval(z, np.asarray(self.coeffs))

    def deriv1(self, z):
        """Evaluate P'(z) exactly from the coefficients."""
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
        return np.polynomial.polynomial.polyval(z, c)

    def deriv2(self, z):
        """Evaluate P''(z) exactly from the coefficients."""
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs), 2)
        return np.polynomial.polynomial.polyval(z, c)

    def norm_l1(self) -> float:
        """Coefficient l1 norm; bounds |P| on the closed unit disc."""
        return float(sum(abs(c) for c in self.coeffs))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled solution: ``values[i]`` is the state at ``times[i]``.

    ``values`` has one column for a phase trajectory and two columns (x, y)
    for the companion system; :attr:`kind` follows from the count.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or len(times) < 1:
            raise InvalidParams("times must be a non-empty 1-d array")
        if np.any(np.diff(times) <= 0):
            raise InvalidParams("times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise InvalidParams(
                f"values rows {values.shape[0]} != samples {times.shape[0]}"
            )
        if values.shape[1] not in (1, 2):
            raise InvalidParams(f"values must have 1 or 2 columns, got {values.shape[1]}")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise InvalidParams("trajectory samples must be finite")

    @property
    def kind(self) -> str:
        """``"phase"`` for one column, ``"xy"`` for two."""
        return "phase" if self.values.shape[1] == 1 else "xy"

    def __len__(self) -> int:
        return len(self.times)
