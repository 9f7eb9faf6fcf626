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
    "drive_columns",
    "finite_real",
    "frequency_scale",
    "mu_squared",
]


def finite_real(name: str, value) -> float:
    """``value`` as a float, or ``InvalidParams`` unless it is a finite real
    (an int too large for a double included) other than a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
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
    """``mu**2`` as the correctly rounded product ``float(mu) * float(mu)``,
    the one double mu**2 of the package, or ``InvalidParams`` where it
    overflows.  (libm's ``pow`` behind ``mu**2`` misrounds about one drive
    in 1,200 drawn uniformly from [0.2, 3].)"""
    mu2 = float(mu) * float(mu)
    if mu2 == math.inf:
        raise InvalidParams(f"mu**2 overflows a double at mu = {mu!r}")
    return mu2


def frequency_scale(d: DcheParams) -> float:
    """``c = sqrt(lambda + mu**2)``, the inverse of twice the drive frequency,
    with mu**2 the correctly rounded product of :func:`mu_squared`.

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


def drive_columns(n, mu, lam) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`dche_to_params` over whole columns of triplets, without raising.

    ``lam`` is a 1-d array, and ``n`` and ``mu`` are arrays of its length or
    scalars.  Returns ``(omega, A, B, error)``: ``error`` names the error
    that :func:`dche_to_params` raises for the row, checked in its order
    (mu**2 overflows, then ``lambda + mu**2 <= 0``, then a non-finite or zero
    A or omega), or is ``""`` where it returns.  There omega, A and B are
    its values bit for bit: the same operations in the same order, with
    mu**2 the product ``mu * mu`` that :func:`mu_squared` forms.  Elsewhere
    they mean nothing.
    """
    lam = np.asarray(lam, dtype=float)
    n, mu = (np.broadcast_to(np.asarray(x, dtype=float), lam.shape) for x in (n, mu))
    with np.errstate(all="ignore"):
        mu2 = mu * mu
        disc = lam + mu2
        omega = 1.0 / (2.0 * np.sqrt(disc))
        A = (2.0 * mu) * omega
        B = -(n + 1.0) * omega
    nonpositive = disc <= 0  # an overflowed mu**2 leaves disc = inf
    physical = (
        np.isfinite(mu2)
        & ~nonpositive
        & np.isfinite(A)
        & np.isfinite(B)
        & np.isfinite(omega)
        & (A != 0)
        & (omega != 0)
    )
    error = np.where(
        physical,
        "",
        np.where(nonpositive, NonPositiveDiscriminant.__name__, InvalidParams.__name__),
    )
    return omega, A, B, error


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
