"""Independent coefficient routes, kept as test oracles.

``heun_poly.build_polynomial`` takes the coefficients from the Jacobi form of
the reflection relations.  The two routes below build them from the
coefficient system alone -- a downward ratio chain and per-coefficient
transfer-matrix products -- so the tests can cross-check all three.
"""

from __future__ import annotations

import math

import numpy as np

from heun_rsj.errors import DegreeZeroUnsupported, IndexOutOfRange, InvalidParams
from heun_rsj.heun_poly import _transfer_product_times
from heun_rsj.model import DcheParams


class ZeroRatioDivision(ZeroDivisionError):
    """A downward ratio R_{k+1} vanished exactly, blocking the recurrence."""

    def __init__(self, k: int):
        self.k = k
        super().__init__(f"ratio recurrence hit R_{k + 1} = 0 while forming R_{k}")


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
