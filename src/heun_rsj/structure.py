"""Structure theory of the polynomial solutions.

Every polynomial solution P of degree n enjoys a reflection symmetry

    P'(z) - mu*P(z) = eps * c * z**n * P(1/z),      eps**2 = 1,

with ``c = sqrt(lambda + mu**2)`` the positive inverse of twice the drive
frequency (``model.frequency_scale``).  The sign names the root together
with lambda, and every ``HeunPolynomial`` carries it.  The symmetry fixes
the phase trajectory in closed form,

    exp(-i*phi(t)) = i*eps * z**(n+1) * P(1/z) / P(z),   z = exp(i*omega*t).

P has real coefficients, so P(1/z) = conj P(z) on |z| = 1, and one
evaluation of P per sample gives the phase and its exact time derivative:

    phi(t)  = -eps*pi/2 - (n+1)*omega*t + 2*arg P(z),
    phi'(t) = -omega*(n+1) + 2*omega * Re(z*P'(z) / P(z)).

Solutions of different degree sharing the same mu are orthogonal on
(0, inf) under a pair weight.

``certify`` collects every residual that vouches for a polynomial solution
into one record of checks run and checks skipped.

The orthogonality quadrature is the package's only use of scipy:
``scipy.integrate`` is imported at its first call, so the spectrum,
certification and closed-form phase never load it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidParams,
    MuNotPositive,
    NonPositiveArgument,
    QuadratureFailure,
    ZeroOnUnitCircle,
)
from . import heun_poly, spectral
from .dynamics import unwrap
from .heun_poly import SAMPLE_POINTS
from .model import HeunPolynomial, dche_to_params, frequency_scale, mu_squared

__all__ = [
    "TOL",
    "residuals",
    "certify",
    "symmetry_residual",
    "coeff_relations_residual",
    "phase_series",
    "phase_rate",
    "orthogonality_weight",
    "orthogonality_integral",
]

#: Pass bounds of the certification record, plus the closed-form phase bound
#: used against brute-force integration.
TOL = {
    "master": 1e-9,
    "linear_system": 1e-10,
    "symmetry": 1e-9,
    "coeff_relations": 1e-10,
    "factorization": 1e-10,
    "det_product": 1e-9,
    "det_min": 1e-10,
    "phase": 1e-6,
}

# Samples per block of the closed-form phase: one block's complex temporaries
# stay in cache.
_PHASE_BLOCK = 8192

# Largest refined phase grid in samples (1 GiB of float64): just above
# lambda + mu**2 = 0 the period is tiny and a short span needs a huge grid.
_PHASE_MAX_SAMPLES = 2**27

# Checks that need c = sqrt(lambda + mu**2), in report order.
_C_CHECKS = (
    "reflection_symmetry",
    "coeff_relations_rel",
    "factorization_rel",
    "factorization_sign",
    "det_product_rel",
    "det_min_rel",
)


def _reflection_parts(P: HeunPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the reflection shuffle of P's coefficients.

    Entry k of the first is ``mu*a_{n-k}`` and of the second
    ``(n+1-k)*a_{n+1-k}`` (0 at k = 0), for k = 0..n.
    """
    a = np.asarray(P.coeffs, dtype=float)
    up = np.zeros_like(a)
    up[1:] = np.arange(P.n, 0, -1.0) * a[:0:-1]
    return P.params.mu * a[::-1], up


def symmetry_residual(P: HeunPolynomial) -> float:
    """Worst relative defect of the reflection relation over the sample set.

    Each point contributes ``|P'(z) - mu*P(z) - eps*c*z**n*P(1/z)|`` divided
    by the largest of its three summand magnitudes, with P's own sign eps.
    """
    eps = P.epsilon
    c = frequency_scale(P.params)
    n, mu = P.n, P.params.mu
    worst = 0.0
    for z in SAMPLE_POINTS:
        t1 = complex(P.deriv1(z))
        t2 = -mu * complex(P.value(z))
        t3 = -eps * c * z**n * complex(P.value(1.0 / z))
        scale = max(abs(t1), abs(t2), abs(t3))
        if scale == 0.0:
            continue
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return worst


def coeff_relations_residual(P: HeunPolynomial) -> np.ndarray:
    """Residuals of the coefficient form of the reflection relation.

    Entry k is ``eps*c*a_k - (n+1-k)*a_{n+1-k} + mu*a_{n-k}`` for k = 0..n
    (the k = 0 entry degenerates to ``eps*c*a_0 + mu*a_n``), with P's own
    sign eps.
    """
    c = frequency_scale(P.params)
    rev, up = _reflection_parts(P)
    return (P.epsilon * c * np.asarray(P.coeffs, dtype=float) + rev) - up


def residuals(P: HeunPolynomial) -> tuple[float, float]:
    """Worst relative residuals ``(master_rel, linear_rel)`` of P.

    ``master_rel`` is the master-equation residual over the sample set, each
    point divided by its largest summand; ``linear_rel`` is the largest row
    residual of the coefficient system divided by max |a_k|.
    """
    master = max(
        abs(res) / max(scale, 1e-300)
        for res, scale in (heun_poly.residual_master(P, z) for z in SAMPLE_POINTS)
    )
    rows = heun_poly.residual_linear_system(P)
    amax = max(abs(c) for c in P.coeffs)
    return float(master), float(np.max(np.abs(rows))) / amax


def certify(P: HeunPolynomial) -> tuple[list[dict], list[dict]]:
    """Certification record of P: ``(checks, skipped)``.

    Each check is ``{"name", "value", "tolerance", "pass"}`` with its bound
    from ``TOL``.  The master and linear-system residuals always run.  The
    checks that need c run only when lambda + mu**2 clears
    ``spectral.DISC_MARGIN``; otherwise each is listed in ``skipped`` as
    ``{"name", "reason"}``.  ``InvalidParams`` where mu**2 overflows a double.
    """
    d = P.params
    disc = d.lam + mu_squared(d.mu)
    checks: list[dict] = []

    def add(name: str, value: float, tol: float) -> None:
        checks.append(
            {"name": name, "value": value, "tolerance": tol, "pass": value <= tol}
        )

    master, linear = residuals(P)
    add("master_equation_rel", master, TOL["master"])
    add("linear_system_rel", linear, TOL["linear_system"])

    if disc <= spectral.DISC_MARGIN:
        reason = "NonPositiveDiscriminant" if disc <= 0 else "DiscriminantBelowMargin"
        return checks, [{"name": name, "reason": reason} for name in _C_CHECKS]

    amax = max(abs(c) for c in P.coeffs)
    add("reflection_symmetry", float(symmetry_residual(P)), TOL["symmetry"])
    rel = coeff_relations_residual(P)
    add("coeff_relations_rel", float(np.max(np.abs(rel))) / amax, TOL["coeff_relations"])

    rel_dev, sign, det_p, det_m = spectral.factorization(d)
    add("factorization_rel", rel_dev, TOL["factorization"])
    add("factorization_sign", sign, -1)  # sign is +-1: passes only at -1
    delta, scale = heun_poly.spectral_det(d)
    det_gap = abs(abs(det_p * det_m) - abs(delta))
    add("det_product_rel", det_gap / scale, TOL["det_product"])
    add("det_min_rel", min(abs(det_p), abs(det_m)) / scale, TOL["det_min"])
    return checks, []


def _quad(f, a: float, b: float, abserr_ok: float | None = None) -> float:
    """Adaptive quadrature of a real integrand over [a, b].

    ``scipy.integrate`` is imported here, on first use.  A non-convergence
    warning raises ``QuadratureFailure`` unless the reported absolute error
    is at most ``abserr_ok``.
    """
    from scipy.integrate import quad

    res = quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=400, full_output=1)
    if len(res) > 3 and (abserr_ok is None or res[1] > abserr_ok):
        raise QuadratureFailure(f"quadrature did not converge: {res[3]}")
    return float(res[0])


def _unit_circle_clear(P: HeunPolynomial) -> None:
    angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = np.abs(P.value(np.exp(1j * angles)))
    if float(vals.min()) < 1e-10 * P.norm_l1():
        raise ZeroOnUnitCircle(
            "P has a (numerical) zero on |z| = 1; the phase formula degenerates"
        )


def _times(times) -> np.ndarray:
    """``times`` as a float array, or ``InvalidParams`` unless it is a
    non-empty 1-d array of finite values."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise InvalidParams("times must be a non-empty 1-d array")
    if not np.all(np.isfinite(times)):
        raise InvalidParams("times must be finite")
    return times


def _check_grid_size(samples: int) -> None:
    if samples > _PHASE_MAX_SAMPLES:
        raise InvalidParams(
            f"phase grid needs {samples} samples, over {_PHASE_MAX_SAMPLES}"
        )


def _on_circle(P: HeunPolynomial, omega: float, times: np.ndarray, f) -> np.ndarray:
    """``f(z, P(z))`` at ``z = exp(i*omega*t)``, one block of samples at a time."""
    out = np.empty(len(times))
    for start in range(0, len(times), _PHASE_BLOCK):
        block = slice(start, start + _PHASE_BLOCK)
        z = np.exp(1j * omega * times[block])
        out[block] = f(z, P.value(z))
    return out


def _phase_on_grid(P: HeunPolynomial, times: np.ndarray) -> np.ndarray:
    omega = dche_to_params(P.params).omega
    arg = unwrap(_on_circle(P, omega, times, lambda z, v: np.angle(v)))
    raw = 2.0 * arg - (P.n + 1) * omega * times
    # Start on the principal branch [-pi, pi): at t = 0 an arg P(1) of +-pi
    # is taken off exactly, so the phase there is -eps*pi/2 to the bit.
    half = P.epsilon * (0.5 * np.pi)
    turns = math.floor((raw[0] - half + np.pi) / (2.0 * np.pi))
    return (raw - 2.0 * np.pi * turns) - half


def phase_series(P: HeunPolynomial, times) -> np.ndarray:
    """Closed-form phase at the given increasing times, branch-continuous.

    Internally refines the grid so that no step advances the phase by more
    than a small fraction of pi before unwrapping; ``InvalidParams`` where
    that grid exceeds 2**27 samples.
    """
    times = _times(times)
    if np.any(np.diff(times) <= 0):
        raise InvalidParams("times must be strictly increasing")
    _unit_circle_clear(P)
    p = dche_to_params(P.params)
    max_step = p.period / (64.0 * (P.n + 2))
    factor = 1
    if len(times) > 1:
        widest = float(np.max(np.diff(times)))
        factor = max(1, math.ceil(widest / max_step))
    _check_grid_size(1 + (len(times) - 1) * factor)
    if factor == 1:
        return _phase_on_grid(P, times)
    inner = np.linspace(times[:-1], times[1:], factor + 1, axis=1)[:, 1:]
    grid = np.concatenate([times[:1], inner.ravel()])
    return _phase_on_grid(P, grid)[::factor].copy()


def phase_rate(P: HeunPolynomial, times) -> np.ndarray:
    """Exact time derivative of the closed-form phase at the given times.

    ``-omega*(n+1) + 2*omega*Re(z*P'(z)/P(z))`` at ``z = exp(i*omega*t)``;
    ``ZeroOnUnitCircle`` where P vanishes on the circle.
    """
    times = _times(times)
    _unit_circle_clear(P)
    omega = dche_to_params(P.params).omega
    ratio = _on_circle(P, omega, times, lambda z, v: (z * P.deriv1(z) / v).real)
    return 2.0 * omega * ratio - (P.n + 1) * omega


def _shared_mu(P1: HeunPolynomial, P2: HeunPolynomial) -> float:
    if P1.params.mu != P2.params.mu:
        raise InvalidParams(
            f"polynomials carry different mu: {P1.params.mu} vs {P2.params.mu}"
        )
    return P1.params.mu


def orthogonality_weight(z, P1: HeunPolynomial, P2: HeunPolynomial):
    """Weight pairing solutions of degrees n1, n2 at shared mu, for z > 0.

    ``z**(-(n1+n2)/2) * exp(-mu*(z+1/z)) * [(lam1 - lam2
    - (n1-n2)*(n1+n2+2)/4)/z**2 + mu*(n1-n2)*(1 + 1/z**2)/(2*z)]``.
    Vanishes identically when both triplets coincide.
    """
    mu = _shared_mu(P1, P2)
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise NonPositiveArgument("the weight is defined for z > 0")
    n1, n2 = P1.n, P2.n
    lam1, lam2 = P1.params.lam, P2.params.lam
    bracket = (lam1 - lam2 - 0.25 * (n1 - n2) * (n1 + n2 + 2.0)) / z**2
    bracket = bracket + 0.5 * mu * (n1 - n2) * (1.0 + 1.0 / z**2) / z
    return z ** (-(n1 + n2) / 2.0) * np.exp(-mu * (z + 1.0 / z)) * bracket


def _decay_halfwidth(mu: float, growth: float) -> float:
    u = 4.0
    while 2.0 * mu * (math.cosh(u) - 1.0) < 46.0 + growth * u:
        u += 0.5
        if u > 700.0:
            raise QuadratureFailure("could not find a decaying truncation point")
    return u


def orthogonality_integral(
    P1: HeunPolynomial, P2: HeunPolynomial
) -> tuple[float, float]:
    """Weighted pairing integral over (0, inf) and its absolute-value scale.

    Substituting ``z = exp(u)`` turns the measure into a doubly exponentially
    decaying one (``exp(-2*mu*cosh(u))``), integrated adaptively on a
    truncated symmetric interval.  For different degrees and mu > 0 the value
    vanishes; ``scale`` is the same integral of the absolute integrand.
    """
    mu = _shared_mu(P1, P2)
    if mu <= 0:
        raise MuNotPositive(f"orthogonality needs mu > 0, got {mu}")

    def f(u: float) -> float:
        z = math.exp(u)
        return float(orthogonality_weight(z, P1, P2)) * float(
            P1.value(z)
        ) * float(P2.value(z)) * z

    half = _decay_halfwidth(mu, (P1.n + P2.n) / 2.0 + 2.0)
    grid = np.linspace(-half, half, 8193)
    z_grid = np.exp(grid)
    dense = (
        orthogonality_weight(z_grid, P1, P2)
        * np.asarray(P1.value(z_grid), dtype=float)
        * np.asarray(P2.value(z_grid), dtype=float)
        * z_grid
    )
    scale = float(np.trapezoid(np.abs(dense), grid))
    # When the true integral is zero up to cancellation, the integrator
    # cannot meet its relative target and flags roundoff; the value is still
    # good to its reported absolute error, which is accepted below 1e-9 of
    # the absolute integral.
    value = _quad(f, -half, half, abserr_ok=1e-9 * max(scale, 1.0))
    return value, scale
