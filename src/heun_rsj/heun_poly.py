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
    "SPECTRAL_TOL",
    "spectral_det",
    "residual_linear_system",
    "build_polynomial",
]

#: Largest relative eigen-residual ``||(J - kappa*I) v|| / ||J||`` (infinity
#: norms, ``||v|| = 1``) at which :func:`build_polynomial` accepts a root.
SPECTRAL_TOL = 1e-8


def _by_degree(n, size: int) -> list[tuple[int, int, int]]:
    """Lay out a leading-minor recurrence over per-element degrees.

    ``n`` is a scalar shared by all ``size`` elements or an array of their
    degrees, sorted descending.  Element i takes part in step j iff
    ``n[i] >= j``, so the active elements always form a prefix.  Each run
    ``(d, k, c)`` says that the steps up to d act on the first k elements,
    the last c of which end at step d.
    """
    if not isinstance(n, np.ndarray):
        return [(n, size, size)]
    degrees, counts = np.unique(n, return_counts=True)
    active = np.cumsum(counts[::-1])[::-1]
    return list(zip(degrees.tolist(), active.tolist(), counts.tolist()))


def _take(index, *values) -> tuple:
    """Each per-element array at ``index``; a shared scalar stays as it is."""
    return tuple(x[index] if isinstance(x, np.ndarray) else x for x in values)


def _det_scan(n, mu, lam: np.ndarray):
    """Leading-minor recurrence with power-of-two renormalisation, per lambda.

    Runs the recurrence on a 1-D array of lambda at once, in lambda's dtype,
    and returns arrays ``(det, ddet_dlambda, summand_max, e)``; the true
    values are each entry times ``2**e`` of its own element.  The gate scans
    doubles; ``spectral``'s root polish scans long doubles, with mu passed as
    a long double so that mu**2 is formed, and cannot overflow, there.
    ``n`` and ``mu`` are scalars or per-element arrays with the degrees
    descending: each element runs its own degree's recurrence
    (:func:`_by_degree`) with exactly the arithmetic of a scalar call, up to
    its frame.
    Whenever a frame test finds the binary exponent of an element's largest
    magnitude past +-300, that element's four recurrence values and its
    summand maximum are scaled by the same power of two (the others by
    exactly 1), which keeps Newton ratios exact and prevents overflow for
    large n.  A step multiplies that largest magnitude by at most
    ``g = max|lam| + (1 + max mu**2) * (max n + 1)**2 / 4 + 1``, and it is
    below 2**301 at the start (where g bounds it) and after every test, so
    the test runs only every ``(1023 - 301 - 2) / log2(g)`` steps, and at
    each degree's last step: in between no element can pass 2**1021.
    Frames are exact, so ``det * 2**e``, ``ddet * 2**e`` and
    ``summand_max * 2**e`` are bit for bit those of a test at every step,
    which the scan still makes where g is 2**300 or more, or not finite, and
    where mu**2 is below 2**-300 (see below).
    """
    runs = _by_degree(n, lam.size)
    prev2, prev = np.ones_like(lam), lam  # D_{-1}, D_0
    dprev2, dprev = np.zeros_like(lam), np.ones_like(lam)  # their lambda-derivatives
    smax = np.abs(lam)
    e = np.zeros(lam.shape, dtype=np.int64)
    one = lam.dtype.type(1)
    n1, mu2 = n + 1, mu * mu
    # The growth bound g of the docstring.  Where some mu**2 is below
    # 2**-300 (mu = 0 among them) the frame is tested at every step: as
    # mu**2 -> 0 the roots pair up and the recurrence carries values 2**-600
    # and more below its largest, which frames set a few steps apart can
    # round to different subnormals.
    top = max((d for d, _, _ in runs), default=0)  # the largest degree
    g = float(np.max(smax, initial=0.0)) + 1.0
    g += (1.0 + float(np.max(mu2))) * (top + 1) ** 2 / 4
    every = 1
    if g < 2.0**300 and float(np.min(mu2)) >= 2.0**-300:  # a NaN g fails too
        every = int((1023 - 301 - 2) / math.log2(g))
    done, step = [], 0
    for d, k, c in runs:
        if k < lam.size:
            lam, prev2, prev, dprev2, dprev, smax, e, n1, mu2 = _take(
                slice(k), lam, prev2, prev, dprev2, dprev, smax, e, n1, mu2
            )
        for j in range(step + 1, d + 1):
            r = n1 - j  # dj, cj: j*(n+1-j) and mu2*j*(n-j+1), as in a scalar call
            dj = lam - j * r
            cj = mu2 * j * r
            t1 = dj * prev
            t2 = cj * prev2
            cur = t1 - t2
            dcur = dj * dprev + prev - cj * dprev2
            smax = np.fmax(np.fmax(smax, np.abs(t1)), np.abs(t2))
            prev2, prev = prev, cur
            dprev2, dprev = dprev, dcur
            if (j - step) % every and j < d:
                continue
            m = np.maximum(
                np.maximum(np.abs(prev), np.abs(prev2)),
                np.maximum(np.maximum(np.abs(dprev), np.abs(dprev2)), smax),
            )
            ex = np.frexp(m)[1]
            far = np.abs(ex) > 300
            if far.any():
                # At a double root (mu = 0) the recurrence values all reach
                # exactly zero while earlier frames shrank the summand maximum
                # to a subnormal; a shift of 2**-ex past the smallest normal
                # exponent could overflow.  The shift is taken in lambda's
                # dtype: a long-double exponent passes the double range.
                ex = np.maximum(ex, np.finfo(lam.dtype).minexp)
                s = np.where(far, np.ldexp(one, -ex), one)
                prev2, prev, dprev2, dprev = prev2 * s, prev * s, dprev2 * s, dprev * s
                smax = smax * s
                e += np.where(far, ex, 0)
        done.append((prev[k - c:], dprev[k - c:], smax[k - c:], e[k - c:]))
        step = d
    if len(done) == 1:
        return done[0]
    # The runs end in ascending degree, so their blocks come in reverse order.
    return tuple(np.concatenate(blocks[::-1]) for blocks in zip(*done))


def spectral_det(d: DcheParams) -> tuple[float, float]:
    """Determinant of the coefficient system and its scale, from one scan.

    The determinant is zero iff a polynomial exists; it is a polynomial of
    exact degree n + 1 in lambda (monic).  The scale is the largest absolute
    summand met in the recurrence, floored at 1: the natural yardstick for
    'is this determinant numerically zero'.  Both may saturate to +-inf for
    very large n; :func:`_det_scan` keeps the mantissas and the exponent.
    """
    det, _, smax, e = _det_scan(d.n, d.mu, np.array([d.lam], dtype=float))
    det, scale = _det_and_scale(det, smax, e)
    return det.item(), scale.item()


def _det_and_scale(det, smax, e) -> tuple[np.ndarray, np.ndarray]:
    """The determinants and scales of :func:`spectral_det` from the arrays
    ``det``, ``summand_max`` and ``e`` of a :func:`_det_scan`, per element:
    ``det * 2**e`` and ``summand_max * 2**e`` floored at 1."""
    with np.errstate(over="ignore"):  # saturates to +-inf; signed zeros stay
        return np.ldexp(det, e), np.fmax(np.ldexp(smax, e), 1.0)


def residual_linear_system(P: HeunPolynomial) -> np.ndarray:
    """Row residuals of the coefficient system applied to P's coefficients,
    each summed from the three bands of the module docstring as
    ``(diagonal + lower) + upper``: :func:`_linear_rows` of P alone."""
    a = np.asarray(P.coeffs, dtype=float)
    return _linear_rows(P.params.n, P.params.mu, np.array([P.params.lam]), a[None])[0]


def _linear_rows(n: int, mu: float, lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`residual_linear_system` of each row of coefficients ``a`` of
    degree n at mu, with the lambda of its row."""
    k = np.arange(n + 1)
    rows = (lam[:, None] - k * (n + 1 - k)) * a
    rows[:, 1:] += mu * (n + 1 - k[1:]) * a[:, :-1]
    rows[:, :-1] += mu * k[1:] * a[:, 1:]
    return rows


def _reflection_jacobi(n: int, mu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric Jacobi form of the reflection relations at (n, mu).

    A solution with sign eps has ``K^T a = kappa*a``, ``kappa = -eps*c``, for
    ``K = G_eps - eps*c*I``, G_eps the matrix of the reflection relations
    (``eps*c*delta(j,k) + mu*delta(j,n-k) - j*delta(j,n+1-k)``).  In the
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


def _build_rows(n: int, mu: float, kappa: np.ndarray) -> tuple:
    """Coefficient rows of the eigenvectors of J at the spectral shifts
    ``kappa`` of one (n, mu), a_n = 1 in each: :func:`build_polynomial` on
    a stack, each row bit for bit that of a stack of one.

    Returns ``(coeffs, resid, norm, shift)``: the ascending coefficients,
    one row per kappa, each row's eigen-residual, ``||J||`` and the nudged
    shifts.  A row whose a_n = 1 overflows holds non-finite coefficients,
    for the caller to type.  LAPACK refuses a stack as a whole where one
    shift makes its solve singular: ``coeffs`` and ``resid`` are then None.
    """
    jac, order, log_d = _reflection_jacobi(n, mu)
    # Infinity norms throughout: no square of an entry of J can overflow.
    norm = float(np.linalg.norm(jac, np.inf))
    # A shift on an exact eigenvalue would make the solve singular; moving
    # it a few ulps of ||J|| changes the convergence rate, not the limit.
    shift = kappa + 4.0 * np.finfo(float).eps * max(norm, 1.0)
    # jac - shift*I, bit for bit: off the diagonal each entry less shift*0.0
    # is itself, as J holds no -0.0.
    shifted = np.repeat(jac[None], kappa.size, axis=0)
    diagonal = np.arange(n + 1)
    shifted[:, diagonal, diagonal] -= shift[:, None]
    v = np.ones((kappa.size, n + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        try:
            for _ in range(2):
                # numpy reads a 2-d right-hand side as one matrix for the
                # whole stack: each row goes as a column of its own.
                v = np.linalg.solve(shifted, v[..., None])[..., 0]
                v /= np.max(np.abs(v), axis=1, keepdims=True)
        except np.linalg.LinAlgError:
            return None, None, norm, shift
        resid = np.max(np.abs((jac @ v[..., None])[..., 0] - kappa[:, None] * v), axis=1)
        lead = min(n, 1)  # position of a_n in the interleaved order
        a = np.exp(log_d - log_d[lead]) * (v / v[:, lead : lead + 1])
    coeffs = np.empty_like(a)
    coeffs[:, order] = a
    return coeffs, resid, norm, shift


def build_polynomial(d: DcheParams, epsilon: int) -> HeunPolynomial:
    """The polynomial of the spectral root (lambda, epsilon), with a_n = 1.

    ``spectral.root_params`` gives the pair, and the polynomial carries
    epsilon.  The coefficients are the
    eigenvector of J (:func:`_reflection_jacobi`) at
    ``kappa = -epsilon*sqrt(lambda + mu**2)`` (0 where lambda + mu**2 <= 0):
    two inverse-iteration solves of ``J - kappa*I`` from the all-ones
    vector, mapped back through the similarity, by :func:`_build_rows` on a
    stack of one.  ``NotSpectral`` is raised
    unless the solve vector v, scaled to ``max|v_k| = 1``, has
    ``max|((J - kappa*I) v)_k| <= SPECTRAL_TOL * ||J||`` (largest row sum),
    and where the nudged shift makes the solve exactly singular;
    ``InvalidParams`` where a_n = 1 overflows the other coefficients, or
    where mu = 0 makes every root of degree n >= 1 double.
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    n, mu = d.n, d.mu
    if mu == 0 and n >= 1:
        raise InvalidParams("mu must be nonzero: at mu = 0 every root is double")
    kappa = -epsilon * math.sqrt(max(d.lam + mu_squared(mu), 0.0))
    coeffs, resid, norm, shift = _build_rows(n, mu, np.array([kappa]))
    if coeffs is None:
        raise NotSpectral(
            f"J - shift*I is singular at shift {float(shift[0])} (n={n}, mu={mu}, "
            f"lambda={d.lam}, epsilon={epsilon})"
        )
    if not resid[0] <= SPECTRAL_TOL * norm:  # a NaN residual fails too
        raise NotSpectral(
            f"eigen-residual {float(resid[0]):.3e} exceeds {SPECTRAL_TOL:g} * ||J|| "
            f"({norm:.3e}) at (n={n}, mu={mu}, lambda={d.lam}, epsilon={epsilon})"
        )
    if not np.all(np.isfinite(coeffs)):
        raise InvalidParams(
            f"a_n = 1 overflows the other coefficients at (n={n}, mu={mu})"
        )
    return HeunPolynomial(coeffs=tuple(coeffs[0].tolist()), params=d, epsilon=epsilon)
