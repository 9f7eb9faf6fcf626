"""Polynomial solutions of the reduced equation and their determinant gate.

Substituting ``P(z) = sum_{k=0}^n a_k z^k`` into the polynomial-form equation

    z*(z*P' - n*P)' - mu*z*(z*P' - n*P) + (mu - z)*P' + lambda*P = 0

closes into a homogeneous tridiagonal linear system for the coefficients:

    row 0:  lambda*a_0 + mu*a_1
    row k:  mu*(n-k+1)*a_{k-1} + (lambda - k*(n+1-k))*a_k + mu*(k+1)*a_{k+1}
    row n:  mu*a_{n-1} + (lambda - n)*a_n

A nontrivial solution exists iff the determinant of that system vanishes;
``spectral_det`` evaluates it, with its scale, by the classic three-term
minor recurrence and ``spectral_det_transfer`` independently through ordered
products of 2x2 transfer matrices, so the two routes cross-check each other.
Coefficients come either from the terminating ratio recurrence
(``coeffs_from_ratios``) or, again independently, from transfer-matrix
products (``coeff_transfer``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegreeZeroUnsupported,
    IndexOutOfRange,
    InvalidParams,
    LambdaZero,
    NotSpectral,
    ZeroRatioDivision,
)
from .model import DcheParams, HeunPolynomial

__all__ = [
    "SAMPLE_POINTS",
    "SPECTRAL_TOL",
    "TriDiagMatrix",
    "coefficient_matrix",
    "spectral_det",
    "spectral_det_scaled",
    "transfer_matrix",
    "spectral_det_transfer",
    "coefficient_ratios",
    "coeffs_from_ratios",
    "coeff_transfer",
    "residual_master",
    "residual_linear_system",
    "necessary_condition",
    "build_polynomial",
]

#: Largest |det| / max(1, largest recurrence summand) that
#: :func:`build_polynomial` accepts as a spectral triplet.
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


@dataclass(frozen=True, eq=False)
class TriDiagMatrix:
    """Tridiagonal coefficient matrix, stored in row orientation.

    ``upper[j]`` is the entry (j, j+1) and ``lower[j]`` the entry (j+1, j).
    The literature writes the same system in both this orientation and its
    transpose ("index-shuffled"); the determinant is shared.
    """

    n: int
    diag: tuple[float, ...]
    upper: tuple[float, ...]
    lower: tuple[float, ...]

    def dense(self) -> np.ndarray:
        return (
            np.diag(self.diag)
            + np.diag(self.upper, 1)
            + np.diag(self.lower, -1)
        )


def coefficient_matrix(d: DcheParams) -> TriDiagMatrix:
    """Matrix of the homogeneous coefficient system at (n, mu, lambda)."""
    n, mu, lam = d.n, d.mu, d.lam
    diag = tuple(lam - j * (n + 1 - j) for j in range(n + 1))
    upper = tuple(mu * (j + 1) for j in range(n))
    lower = tuple(mu * (n - j) for j in range(n))
    return TriDiagMatrix(n=n, diag=diag, upper=upper, lower=lower)


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


def _scan_at(d: DcheParams) -> tuple[float, float, float, int]:
    """:func:`_det_scan` at the single lambda of a triplet, as Python scalars."""
    det, ddet, smax, e = _det_scan(d.n, d.mu, np.array([d.lam], dtype=float))
    return float(det[0]), float(ddet[0]), float(smax[0]), int(e[0])


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
    very large n; :func:`spectral_det_scaled` never does.
    """
    det, _, smax, e = _scan_at(d)
    return _ldexp_clamped(det, e), max(1.0, _ldexp_clamped(smax, e))


def spectral_det_scaled(d: DcheParams) -> tuple[float, int]:
    """Determinant as ``(mantissa, exponent)`` with value mantissa * 2**exponent."""
    det, _, _, e = _scan_at(d)
    return det, e


def transfer_matrix(k: int, d: DcheParams) -> np.ndarray:
    """2x2 step matrix M_k = [[Z_k + lambda, mu^2], [Z_k, 0]], Z_k = k(k-n-1)."""
    zk = float(k) * (float(k) - d.n - 1.0)
    return np.array([[zk + d.lam, d.mu**2], [zk, 0.0]])


def _transfer_product_times(col: np.ndarray, d: DcheParams, lo: int) -> np.ndarray:
    """Apply M_lo * M_{lo+1} * ... * M_{n-1} to a column (larger index first)."""
    out = col
    for j in range(d.n - 1, lo - 1, -1):
        out = transfer_matrix(j, d) @ out
    return out


def spectral_det_transfer(d: DcheParams) -> float:
    """Determinant through the ordered 2x2 transfer-matrix product.

    Independent of :func:`spectral_det`: no minor recurrence is shared.
    The product runs in exact rational arithmetic on the float inputs,
    because its entries grow far beyond the determinant and cancel down to
    it: in floating point, (n, mu, lambda) = (12, 1, -1) came out as -32
    instead of -1.  Degree 0 has no transfer representation.
    """
    if d.n == 0:
        raise DegreeZeroUnsupported("transfer product needs degree n >= 1")
    lam, mu2 = Fraction(d.lam), Fraction(d.mu) ** 2
    x, y = d.n - lam, Fraction(d.n)
    for j in range(d.n - 1, 0, -1):  # apply M_{n-1} first, M_1 last
        zj = j * (j - d.n - 1)
        x, y = (zj + lam) * x + mu2 * y, zj * x
    det = -(lam * x + mu2 * y)
    try:
        return float(det)
    except OverflowError:
        return math.inf if det > 0 else -math.inf


def coefficient_ratios(d: DcheParams) -> np.ndarray:
    """Scaled ratios R_k = (mu/k) * a_{k-1}/a_k for k = 1..n (index k-1).

    Downward recurrence terminating at R_n = 1 - lambda/n; each step uses
    R_k = 1 + lambda/(k(k-n-1)) + mu^2/(k(k-n-1)*R_{k+1}).  No ratio below
    k = 1 is ever formed.
    """
    n, mu, lam = d.n, d.mu, d.lam
    if n == 0:
        return np.empty(0)
    r = np.empty(n)
    r[n - 1] = 1.0 - lam / n
    for k in range(n - 1, 0, -1):
        if r[k] == 0.0:
            raise ZeroRatioDivision(k)
        denom = k * (k - n - 1.0)
        r[k - 1] = 1.0 + lam / denom + mu**2 / (denom * r[k])
    return r


def coeffs_from_ratios(d: DcheParams) -> np.ndarray:
    """Coefficients a_0..a_n with a_n = 1, chained down through the ratios."""
    if d.mu == 0:
        raise InvalidParams("mu must be nonzero to chain coefficients from ratios")
    r = coefficient_ratios(d)
    a = np.empty(d.n + 1)
    a[d.n] = 1.0
    for k in range(d.n, 0, -1):
        a[k - 1] = (k / d.mu) * r[k - 1] * a[k]
    return a


def coeff_transfer(k: int, d: DcheParams) -> float:
    """Coefficient a_k (a_n = 1) from the transfer-matrix representation.

    Valid for 1 <= k <= n directly; k = 0 is the limit of the k -> k + eps
    regularised formula, taken by Richardson extrapolation over
    eps in {1e-6, 1e-7}.  Independent of :func:`coeffs_from_ratios`.
    """
    if d.n == 0:
        raise DegreeZeroUnsupported("transfer coefficients need degree n >= 1")
    if not 0 <= k <= d.n:
        raise IndexOutOfRange(f"k = {k} outside [0, {d.n}]")
    n, mu = d.n, d.mu
    if k >= 1:
        col = _transfer_product_times(np.array([n - d.lam, float(n)]), d, k)
        return (-mu) ** (k - n) / (k * math.factorial(n + 1 - k)) * col[1]
    col = _transfer_product_times(np.array([n - d.lam, float(n)]), d, 1)

    def reg(eps: float) -> float:
        z_eps = eps * (eps - n - 1.0)
        head = z_eps * col[0]  # [0, 1] . M_eps . col
        return (-mu) ** (-n) / (eps * math.factorial(n + 1)) * head

    f1, f2 = reg(1e-6), reg(1e-7)
    return (10.0 * f2 - f1) / 9.0


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
    phi = coefficient_matrix(P.params).dense()
    return phi @ np.asarray(P.coeffs)


def necessary_condition(d: DcheParams) -> float:
    """Scalar whose vanishing is necessary for a polynomial solution.

    Row-times-product form ``[1, mu^2/lambda] . (M_1 ... M_{n-1})
    . [1 - lambda/n, 1]^T``; proportional to the determinant up to a nonzero
    factor, so only its sign and zero set carry information.
    """
    if d.n == 0:
        raise DegreeZeroUnsupported("necessary condition needs degree n >= 1")
    if d.lam == 0:
        raise LambdaZero("necessary condition divides by lambda")
    col = _transfer_product_times(np.array([1.0 - d.lam / d.n, 1.0]), d, 1)
    return float(col[0] + (d.mu**2 / d.lam) * col[1])


def build_polynomial(d: DcheParams) -> HeunPolynomial:
    """Construct the normalised polynomial at a spectral triplet.

    Gates on the determinant being numerically zero (``SPECTRAL_TOL``)
    relative to the largest summand of its recurrence, then chains the
    coefficients from the ratio recurrence with a_n = 1.
    """
    det, _, smax, e = _scan_at(d)
    # Compare |det| against tol * max(1, summand_max) in log2 space so the
    # shared 2**e frame can never overflow the gate itself.
    if det != 0.0:
        log_det = math.log2(abs(det)) + e
        log_scale = max(0.0, math.log2(smax) + e) if smax else 0.0
        if log_det > math.log2(SPECTRAL_TOL) + log_scale:
            raise NotSpectral(
                f"determinant magnitude 2**{log_det:.2f} exceeds {SPECTRAL_TOL:g} * "
                f"scale (2**{log_scale:.2f}) at (n={d.n}, mu={d.mu}, lambda={d.lam})"
            )
    if d.n == 0:
        return HeunPolynomial(n=0, coeffs=(1.0,), params=d)
    try:
        coeffs = coeffs_from_ratios(d)
    except ZeroRatioDivision:
        # An interior coefficient vanishes exactly (isolated zero: a simple
        # root has a one-dimensional kernel, so zeros cannot be consecutive);
        # the transfer route computes each coefficient independently.
        coeffs = np.array([coeff_transfer(k, d) for k in range(d.n + 1)])
    if not np.all(np.isfinite(coeffs)):
        raise InvalidParams("ratio chain produced non-finite coefficients")
    return HeunPolynomial(n=d.n, coeffs=tuple(float(c) for c in coeffs), params=d)
