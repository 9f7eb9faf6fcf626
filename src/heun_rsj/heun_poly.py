"""Polynomial solutions of the reduced equation and their determinant.

Substituting ``P(z) = sum_{k=0}^n a_k z^k`` into the polynomial-form equation

    z*(z*P' - n*P)' - mu*z*(z*P' - n*P) + (mu - z)*P' + lambda*P = 0

closes into a homogeneous tridiagonal linear system for the coefficients:

    row 0:  lambda*a_0 + mu*a_1
    row k:  mu*(n-k+1)*a_{k-1} + (lambda - k*(n+1-k))*a_k + mu*(k+1)*a_{k+1}
    row n:  mu*a_{n-1} + (lambda - n)*a_n

A nontrivial solution exists iff the determinant of that system vanishes;
``spectral_det`` evaluates it, with its scale, by the classic three-term
minor recurrence.  The coefficients themselves come from the reflection
relation of the solution (``build_polynomial``): an eigenvector of a
symmetric Jacobi matrix whose eigenvalue fixes both lambda and the
reflection sign.  The exact-rational transfer-matrix product that
cross-checks the determinant lives with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams, NotSpectral
from .model import DcheParams, HeunPolynomial, mu_squared

__all__ = [
    "SAMPLE_POINTS",
    "SPECTRAL_TOL",
    "coefficient_matrix",
    "spectral_det",
    "residual_master",
    "residual_linear_system",
    "build_polynomial",
]

#: Largest relative eigen-residual ``||(J - kappa*I) v|| / ||J||`` (infinity
#: norms, ``||v|| = 1``) at which :func:`build_polynomial` accepts a root.
SPECTRAL_TOL = 1e-8

# Deterministic residual sample set: two reciprocal pairs on the real axis,
# sixteen points on the unit circle and the point z = -1 once more.
SAMPLE_POINTS: tuple[complex, ...] = (
    (0.5 + 0j),
    (1.0 + 0j),
    (2.0 + 0j),
    *(np.exp(1j * np.pi * k / 8.0) for k in range(16)),
    (-1.0 + 0j),
)


def coefficient_matrix(d: DcheParams) -> np.ndarray:
    """Dense matrix of the coefficient system at (n, mu, lambda), by rows as
    in the module docstring (the literature also writes its transpose)."""
    n, mu, lam = d.n, d.mu, d.lam
    j = np.arange(n + 1)
    return (
        np.diag(lam - j * (n + 1 - j))
        + np.diag(mu * (j[:-1] + 1), 1)
        + np.diag(mu * (n - j[:-1]), -1)
    )


def _det_scan(n: int, mu: float, lam: np.ndarray):
    """Leading-minor recurrence with power-of-two renormalisation, per lambda.

    Runs the recurrence on a 1-D array of lambda at once and returns arrays
    ``(det, ddet_dlambda, summand_max, e)``; the true values are each entry
    times ``2**e`` of its own element.  Whenever the binary exponent of an
    element's largest magnitude passes +-300, that element's four recurrence
    values and its summand maximum are scaled by the same power of two (the
    others by exactly 1), which keeps Newton ratios exact and prevents
    overflow for large n.
    """
    mu2 = mu * mu
    prev2, prev = np.ones_like(lam), lam  # D_{-1}, D_0
    dprev2, dprev = np.zeros_like(lam), np.ones_like(lam)  # their lambda-derivatives
    smax = np.abs(lam)
    e = np.zeros(lam.shape, dtype=np.int64)
    for j in range(1, n + 1):
        dj = lam - j * (n + 1 - j)
        cj = mu2 * j * (n - j + 1)
        t1 = dj * prev
        t2 = cj * prev2
        cur = t1 - t2
        dcur = dj * dprev + prev - cj * dprev2
        smax = np.fmax(np.fmax(smax, np.abs(t1)), np.abs(t2))
        prev2, prev = prev, cur
        dprev2, dprev = dprev, dcur
        m = np.maximum(
            np.maximum(np.abs(prev), np.abs(prev2)),
            np.maximum(np.maximum(np.abs(dprev), np.abs(dprev2)), smax),
        )
        ex = np.frexp(m)[1]
        far = np.abs(ex) > 300
        if far.any():
            # At a double root (mu = 0) the recurrence values all reach
            # exactly zero while earlier frames shrank the summand maximum to
            # a subnormal; a shift of 2**-ex past 2**1022 would be inf.
            ex = np.maximum(ex, -1022)
            s = np.where(far, np.ldexp(1.0, -ex), 1.0)
            prev2, prev, dprev2, dprev = prev2 * s, prev * s, dprev2 * s, dprev * s
            smax = smax * s
            e += np.where(far, ex, 0)
    return prev, dprev, smax, e


def _ldexp_clamped(m: float, e: int) -> float:
    """m * 2**e as a float, saturating to +-inf / signed zero at the range ends."""
    if m == 0.0:
        return m
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def spectral_det(d: DcheParams) -> tuple[float, float]:
    """Determinant of the coefficient system and its scale, from one scan.

    The determinant is zero iff a polynomial exists; it is a polynomial of
    exact degree n + 1 in lambda (monic).  The scale is the largest absolute
    summand met in the recurrence, floored at 1: the natural yardstick for
    'is this determinant numerically zero'.  Both may saturate to +-inf for
    very large n; :func:`_det_scan` keeps the mantissas and the exponent.
    """
    lam = np.array([d.lam], dtype=float)
    det, _, smax, e = (a[0].item() for a in _det_scan(d.n, d.mu, lam))
    return _ldexp_clamped(det, e), max(1.0, _ldexp_clamped(smax, e))


def residual_master(P: HeunPolynomial, z) -> tuple[complex, float]:
    """Residual of the polynomial-form equation at z, and its scale.

    The residual uses exact derivatives; the scale is the largest absolute
    value among its four summands.
    """
    n, mu, lam = P.params.n, P.params.mu, P.params.lam
    v = P.value(z)
    dv = P.deriv1(z)
    d2v = P.deriv2(z)
    inner = z * dv - n * v
    terms = (
        z * ((1.0 - n) * dv + z * d2v),
        -mu * z * inner,
        (mu - z) * dv,
        lam * v,
    )
    t1, t2, t3, t4 = terms
    return t1 + t2 + t3 + t4, float(max(abs(t) for t in terms))


def residual_linear_system(P: HeunPolynomial) -> np.ndarray:
    """Row residuals of the coefficient system applied to P's coefficients."""
    return coefficient_matrix(P.params) @ np.asarray(P.coeffs)


def _reflection_jacobi(n: int, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric Jacobi form of the reflection relations at (n, mu).

    A solution with sign eps has ``K^T a = kappa*a``, ``kappa = -eps*c``, for
    ``K = G_eps - eps*c*I`` (``spectral.symmetry_matrix``).  In the
    interleaved index order ``(0, n, 1, n-1, ...)`` K^T is tridiagonal:
    (i, n-i) couple through ``mu`` both ways, (n-i, i+1) through ``-(i+1)``
    and ``-(n-i)``, and the last position holds ``mu`` (n even) or
    ``-(n+1)/2`` (n odd).  Every pair product is positive, so
    ``J = D^-1 K^T D`` is symmetric for a diagonal D.  Returns
    ``(jac, order, log_d)``: an eigenvector v of J gives the coefficients
    ``a[order] = exp(log_d) * v``.
    """
    m = n + 1
    order = np.empty(m, dtype=np.intp)
    order[0::2] = np.arange((m + 1) // 2)
    order[1::2] = n - np.arange(m // 2)
    i = np.arange(n) // 2
    odd = np.arange(n) % 2 == 1
    off = np.where(odd, -np.sqrt((i + 1.0) * (n - i)), mu)
    # d_{p+1} / d_p = sqrt(lower / upper) of each pair; 1 where both are mu.
    ratio = np.where(odd, 0.5 * np.log((n - i) / (i + 1.0)), 0.0)
    log_d = np.concatenate(([0.0], np.cumsum(ratio)))
    diag = np.zeros(m)
    diag[-1] = -(n + 1) / 2 if n % 2 else mu
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return jac, order, log_d


def build_polynomial(d: DcheParams, epsilon: int) -> HeunPolynomial:
    """The polynomial of the spectral root (lambda, epsilon), with a_n = 1.

    ``spectral.root_params`` gives the pair.  The coefficients are the
    eigenvector of J (:func:`_reflection_jacobi`) at
    ``kappa = -epsilon*sqrt(lambda + mu**2)`` (0 where lambda + mu**2 <= 0):
    two inverse-iteration solves of ``J - kappa*I`` from the all-ones
    vector, mapped back through the similarity.  ``NotSpectral`` is raised
    unless the solve vector v, scaled to ``max|v_k| = 1``, has
    ``max|((J - kappa*I) v)_k| <= SPECTRAL_TOL * ||J||`` (largest row sum);
    ``InvalidParams`` where a_n = 1 overflows the other coefficients, or
    where mu = 0 makes every root of degree n >= 1 double.
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    n, mu = d.n, d.mu
    if mu == 0 and n >= 1:
        raise InvalidParams("mu must be nonzero: at mu = 0 every root is double")
    kappa = -epsilon * math.sqrt(max(d.lam + mu_squared(mu), 0.0))
    jac, order, log_d = _reflection_jacobi(n, mu)
    # Infinity norms throughout: no square of an entry of J can overflow.
    norm = float(np.linalg.norm(jac, np.inf))
    # A shift on an exact eigenvalue would make the solve singular; moving
    # it a few ulps of ||J|| changes the convergence rate, not the limit.
    nudge = 4.0 * np.finfo(float).eps * max(norm, 1.0)
    shifted = jac - (kappa + nudge) * np.eye(n + 1)
    v = np.ones(n + 1)
    for _ in range(2):
        v = np.linalg.solve(shifted, v)
        v /= np.max(np.abs(v))
    resid = float(np.max(np.abs(jac @ v - kappa * v)))
    if not resid <= SPECTRAL_TOL * norm:  # a NaN residual fails too
        raise NotSpectral(
            f"eigen-residual {resid:.3e} exceeds {SPECTRAL_TOL:g} * ||J|| "
            f"({norm:.3e}) at (n={n}, mu={mu}, lambda={d.lam}, epsilon={epsilon})"
        )
    lead = min(n, 1)  # position of a_n in the interleaved order
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a = np.exp(log_d - log_d[lead]) * (v / v[lead])
    if not np.all(np.isfinite(a)):
        raise InvalidParams(
            f"a_n = 1 overflows the other coefficients at (n={n}, mu={mu})"
        )
    coeffs = np.empty(n + 1)
    coeffs[order] = a
    return HeunPolynomial(n=n, coeffs=tuple(coeffs.tolist()), params=d)
