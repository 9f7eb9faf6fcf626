"""Polynomial solutions of the reduced equation and their determinant.

Substituting ``P(z) = sum_{k=0}^n a_k z^k`` into the polynomial-form equation

    z*(z*P' - n*P)' - mu*z*(z*P' - n*P) + (mu - z)*P' + lambda*P = 0

closes into a homogeneous tridiagonal linear system for the coefficients:

    row 0:  lambda*a_0 + mu*a_1
    row k:  mu*(n-k+1)*a_{k-1} + (lambda - k*(n+1-k))*a_k + mu*(k+1)*a_{k+1}
    row n:  mu*a_{n-1} + (lambda - n)*a_n

A nontrivial solution exists iff the determinant of that system vanishes.
The coefficients themselves come from the reflection relation of the
solution (``build_polynomial``): an eigenvector of a symmetric Jacobi matrix
J whose eigenvalue fixes both lambda and the reflection sign, by a
long-double twisted factorization, O(n) per root (``_build_rows``).  The
determinant and the two reflection factors det(J -+ c*I) that it splits
into are continuants, and one framed three-term recurrence,
``_continuant``, evaluates either on an array of lambda or kappa, with its
derivative and its largest summand where the caller asks for them: for the
spectral gate and polish, the build and the certification pass.  One
element runs on numpy scalars, a fraction of an array's fixed cost per
step.  The build steps each root's kappa on its own factor; the check pass
reads both factors of each root from one value-only call
(``_reflection_factors``), for a lone root and a batch alike, and
``kappa = -eps*sqrt(lambda + mu**2)`` has one formula for both
(``_reflection_kappa``).  The double determinant of one triplet and
the exact-rational transfer-matrix product that cross-checks it live with
the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidParams, NotSpectral
from .model import DcheParams, HeunPolynomial, mu_squared

__all__ = [
    "SPECTRAL_TOL",
    "build_polynomial",
]

#: Largest relative eigen-residual ``||(J - kappa*I) v|| / ||J||`` (infinity
#: norms, ``||v|| = 1``) at which :func:`build_polynomial` accepts a root.
SPECTRAL_TOL = 1e-8

_LD = np.finfo(np.longdouble)


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


def _linear_rows(n: int, mu: float, lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row residuals of the coefficient system applied to each row of
    coefficients ``a`` of degree n at mu, with the lambda of its row, each
    summed from the three bands of the module docstring as ``(diagonal +
    lower) + upper``."""
    k = np.arange(n + 1)
    rows = (lam[:, None] - k * (n + 1 - k)) * a
    rows[:, 1:] += mu * (n + 1 - k[1:]) * a[:, :-1]
    rows[:, :-1] += mu * k[1:] * a[:, 1:]
    return rows


def _reflection_jacobi(n: int, mu: float) -> tuple:
    """Symmetric Jacobi form of the reflection relations at (n, mu), by its
    bands, in long double.

    A solution with sign eps has ``K^T a = kappa*a``, ``kappa = -eps*c``, for
    ``K = G_eps - eps*c*I``, G_eps the matrix of the reflection relations
    (``eps*c*delta(j,k) + mu*delta(j,n-k) - j*delta(j,n+1-k)``).  In the
    interleaved index order ``(0, n, 1, n-1, ...)`` K^T is tridiagonal:
    (i, n-i) couple through ``mu`` both ways, (n-i, i+1) through ``-(i+1)``
    and ``-(n-i)``, and the last position holds ``mu`` (n even) or
    ``-(n+1)/2`` (n odd).  Every pair product is positive, so
    ``J = D^-1 K^T D`` is symmetric for a diagonal D.  Returns
    ``(diag, off, order, scale)``: J's diagonal and off-diagonal, the order,
    and D as running products of ``sqrt((n-i)/(i+1))`` from 1: an
    eigenvector v of J gives the coefficients ``a[order] = scale * v``.
    The order and D are shared by every call at degree n, read only.
    """
    order, odd, paths, scale = _jacobi_pattern(n)
    diag = np.zeros(n + 1, dtype=np.longdouble)
    diag[-1] = -(n + 1) / 2 if n % 2 else mu
    return diag, np.where(odd, paths, np.longdouble(mu)), order, scale


@functools.lru_cache(maxsize=64)
def _jacobi_pattern(n: int) -> tuple:
    """What :func:`_reflection_jacobi` at degree n takes from n alone, read
    only: the order, the mask of the off-diagonal entries that are not mu,
    ``-sqrt((i+1)*(n-i))`` at every position (read where the mask is set),
    and D.  At most 64 degrees are kept, 41 KB at n = 1000."""
    ld, p = np.longdouble, np.arange(n + 1)
    order = np.where(p % 2 == 1, n - p // 2, p // 2)
    i, odd = p[:-1] // 2, p[:-1] % 2 == 1
    paths = -np.sqrt(((i + 1) * (n - i)).astype(ld))
    # d_{p+1} / d_p = sqrt(lower / upper) of each pair; 1 where both are mu.
    ratio = np.where(odd, np.sqrt((n - i).astype(ld) / (i + 1)), ld(1))
    scale = np.cumprod(np.concatenate(([ld(1)], ratio)))
    for part in (order, odd, paths, scale):
        part.flags.writeable = False
    return order, odd, paths, scale


def _continuant(matrix: str, n, mu, x: np.ndarray, *, derivative=False, summand=False):
    """Determinant of T or J by its three-term recurrence, with power-of-two
    frames, per x, in x's dtype.

    ``matrix="T"`` is the coefficient system, ``det(x*I - T)`` at x =
    lambda, by the leading minors ``p_j = alpha_j*p_{j-1} - beta_j*p_{j-2}``
    with ``alpha_j = x - j*(n+1-j)`` and ``beta_j = mu**2*j*(n+1-j)``.
    ``"J"`` is a reflection factor, ``det(J - x*I)`` at x = kappa
    (:func:`_reflection_jacobi`): ``alpha_j = -x``, beta_j the squared
    off-diagonals (mu**2 and (i+1)*(n-i) in turn), and the last diagonal
    entry a_n (mu for even n, -(n+1)/2 for odd n) closes each degree as
    ``p_n + a_n*p_{n-1}``.  mu is taken to x's dtype, so mu**2 is formed,
    and cannot overflow, in long double.  ``n`` and ``mu`` are scalars or
    per-element arrays with the degrees descending: each element runs its
    own degree's recurrence (:func:`_by_degree`) with the arithmetic of a
    scalar call, up to its frame.  A one-element x with a scalar n runs on
    its 0-d view, in numpy scalar arithmetic, with the same bits.
    Returns arrays ``(det, ddet_dx, summand_max, e)``, each entry times
    ``2**e`` of its element.  The derivative is formed with ``derivative``,
    the largest |x|, |alpha_j*p_{j-1}|, |beta_j*p_{j-2}| (and |a_n*p_{n-1}|)
    with ``summand``, and each is None otherwise.  The gate scans T with
    both, in double unless mu**2 overflows it; the polish T and J in long
    double with the derivative; the build J with the derivative
    (:func:`_build_rows`); and the certification pass T with the summand
    maximum, and J with neither (:func:`_reflection_factors`).
    A step multiplies the largest magnitude of an element's formed values
    by at most ``g = max|x| + (1 + max mu**2)*(max n + 1)**2/4 + 1``, plus
    max|a_n| for J.  After a frame test (:func:`_framed`) it is below
    2**301, so every element is tested every ``(emax - 301 - 2)/log2(g)``
    steps, emax the largest binary exponent of x's dtype (1023 for a double,
    16383 for x87 long double), and no element passes 2**(emax - 2) in
    between; each degree's elements are also tested at its last step.
    Frames are exact, so each value times ``2**e`` is bit for bit that of a
    test at every step, which the recurrence still makes where g is 2**300
    or more, or not finite, and where mu**2 is below 2**-300 (see below);
    only where the derivative passes the value by more than the dtype's
    range does its frame leave the value subnormal, or 0.
    """
    if x.ndim and x.size == 1 and not isinstance(n, np.ndarray):
        # One element runs on its 0-d view: each step is numpy scalar
        # arithmetic, the same operations at a fraction of an array's cost.
        scan = _recurrence(matrix, n, mu, x.reshape(()), derivative, summand)
        return tuple(v if v is None else v.reshape(x.shape) for v in scan)
    return _recurrence(matrix, n, mu, x, derivative, summand)


def _recurrence(matrix: str, n, mu, x: np.ndarray, derivative: bool, summand: bool):
    """:func:`_continuant` on ``x`` as it comes: an array, or the 0-d view
    of one element."""
    jacobi = matrix == "J"
    runs = _by_degree(n, x.size)
    mu = x.dtype.type(mu)
    n1, mu2, last = n + 1, mu * mu, None
    shared = not isinstance(mu2, np.ndarray)  # one mu**2 for every element
    # The growth bound g of the docstring.  Where some mu**2 is below
    # 2**-300 (mu = 0 among them) the frame is tested at every step: as
    # mu**2 -> 0 the roots pair up and the recurrence carries values 2**-600
    # and more below its largest, which frames set a few steps apart can
    # round to different subnormals.
    top = max((d for d, _, _ in runs), default=0)  # the largest degree
    g = float(np.abs(x).max(initial=0.0) if x.ndim else abs(x)) + 1.0
    if shared:
        mu2_max = mu2_min = mu2
    else:
        mu2_max, mu2_min = mu2.max(), mu2.min()
    g += (1.0 + float(mu2_max)) * (top + 1) ** 2 / 4
    if jacobi:
        if shared and not isinstance(n, np.ndarray):
            last = mu.dtype.type(-n1 / 2) if n % 2 == 1 else mu
            g += float(abs(last))
        else:
            last = np.where(n % 2 == 1, -n1 / 2, mu)[()]
            g += float(np.max(np.abs(last)))
        x = -x  # alpha_j up to the closing entry
    every = 1
    if g < 2.0**300 and float(mu2_min) >= 2.0**-300:  # a NaN g fails too
        every = int((np.finfo(x.dtype).maxexp - 1 - 301 - 2) / math.log2(g))

    def filled(value):  # like x: an array, or a scalar for a 0-d view
        if not x.ndim:
            return x.dtype.type(value)
        out = np.empty_like(x)
        out.fill(value)
        return out

    prev2, prev = filled(1), x  # p_{-1}, p_0
    dprev2 = dprev = None  # their x-derivatives
    if derivative:
        dprev2, dprev = filled(0), filled(-1 if jacobi else 1)
    smax = np.abs(x) if summand else None
    e = np.zeros(x.shape, dtype=np.int64)
    done, step = [], 0
    for d, k, c in runs:
        if k < x.size:
            x, prev2, prev, dprev2, dprev, smax, e, n1, mu2, last = _take(
                slice(k), x, prev2, prev, dprev2, dprev, smax, e, n1, mu2, last
            )
        for j in range(step + 1, d + 1):
            if jacobi:  # b_{j-1}**2, an exact integer for even j
                alpha, beta = x, mu2 if j % 2 else (j // 2) * (n1 - j // 2)
            else:  # as in a scalar call
                r = n1 - j
                alpha, beta = x - j * r, mu2 * j * r
            t1 = alpha * prev
            t2 = beta * prev2
            if derivative:
                da = alpha * dprev
                dcur = (da - prev if jacobi else da + prev) - beta * dprev2
                dprev2, dprev = dprev, dcur
            if summand:
                smax = np.fmax(np.fmax(smax, np.abs(t1)), np.abs(t2))
            prev2, prev = prev, t1 - t2
            if j % every == 0:
                (prev2, prev, dprev2, dprev, smax), e = _framed(
                    (prev2, prev, dprev2, dprev, smax), e
                )
        ending = (prev2, prev, dprev2, dprev, smax, e, last)
        if c < k:  # the elements of degree d
            ending = _take(slice(k - c, k), *ending)
        (p2, p, dp2, dp, sm), frame = _framed(ending[:5], ending[5])
        if jacobi:  # the closing entry
            a = ending[6]
            closing = a * p2
            p = p + closing
            if derivative:
                dp = dp + a * dp2
            if summand:
                sm = np.fmax(sm, np.abs(closing))
        done.append((p, dp, sm, frame))
        step = d
    if len(done) == 1:
        return done[0]
    # The runs end in ascending degree, so their blocks come in reverse order.
    return tuple(None if b[0] is None else np.concatenate(b[::-1]) for b in zip(*done))


def _framed(values: tuple, e: np.ndarray) -> tuple:
    """A frame test of :func:`_continuant`: each element whose largest
    magnitude among ``values`` (None stays None) has a binary exponent past
    +-300 has them scaled by the power of two that brings it to [1/2, 1),
    which its frame ``e`` takes up."""
    m = None
    for v in values:
        if v is not None:
            m = abs(v) if m is None else np.maximum(m, abs(v))
    ex = np.frexp(m)[1]  # 0 for a NaN or an infinity
    far = np.abs(ex) > 300
    if not far.any():
        return values, e
    # At a double root (mu = 0) the values all reach exactly zero while
    # earlier frames shrank the summand maximum to a subnormal: a shift past
    # the smallest normal exponent could overflow.  It is taken in the
    # values' dtype, as a long-double exponent passes the double range.
    one = m.dtype.type(1)
    ex = np.maximum(ex, np.finfo(m.dtype).minexp)
    s = np.where(far, np.ldexp(one, -ex), one)
    return tuple(v if v is None else v * s for v in values), e + np.where(far, ex, 0)


def _reflection_kappa(mu: float, lam: np.ndarray, eps: np.ndarray) -> tuple:
    """``kappa = -eps*sqrt(lambda + mu**2)`` of each root with sign eps, in
    long double, 0 where lambda + mu**2 <= 0, and the mask of the roots
    where lambda + mu**2 < 0."""
    ld = np.longdouble
    disc = lam.astype(ld) + ld(mu) ** 2
    return -eps * np.sqrt(np.maximum(disc, 0)), disc < 0


def _reflection_factors(n: int, mu: float, lam: np.ndarray, eps: np.ndarray) -> tuple:
    """det G_eps and det G_-eps of each root ``lam`` with sign eps of one
    (n, mu): the values and power-of-two frames of ``det(J - x*I)`` at
    ``x = [kappa, -kappa]``, as two rows each, from one value-only call of
    :func:`_continuant` on J.  A value is NaN at a root whose lambda + mu**2
    is below 0 in long double, where c has no real value."""
    with np.errstate(over="ignore", invalid="ignore"):
        kappa, below = _reflection_kappa(mu, lam, eps)
        values, _, _, frames = _continuant("J", n, mu, np.concatenate([kappa, -kappa]))
    values, frames = values.reshape(2, -1), frames.reshape(2, -1)
    values[:, below] = np.nan
    return values, frames


def _build_rows(n: int, mu: float, lam: np.ndarray, eps: np.ndarray) -> tuple:
    """Coefficient rows of the eigenvectors of J at the roots ``lam`` with
    signs ``eps`` of one (n, mu), a_n = 1 in each: :func:`build_polynomial`
    on a stack, in long double, each row bit for bit that of a stack of one.

    ``kappa = -eps*sqrt(lambda + mu**2)`` (:func:`_reflection_kappa`) takes
    Newton steps on its own factor (:func:`_continuant` on J) until a step
    is at most 2**-40 of kappa, when the next would be rounding: one for
    most roots, up to 8 for root 0 just above -mu**2; one root alone steps
    on numpy scalars (:func:`_continuant`).  The twisted factorization of
    J - kappa*I (Parlett and Dhillon, LAA 1997) gives the eigenvector:
    pivots D+ and D- of its top-down and bottom-up LDL^T by ratio
    recurrences, ``v_r = 1`` at the smallest
    ``|gamma_r| = |D+_r + D-_r - (J_rr - kappa)|``, and running products of
    ``-J_{k,k+1}/D-_{k+1}`` below r and ``-J_{k,k+1}/D+_k`` above.  As
    LAPACK's ``dlar1v`` does, a stack with a dividing pivot below ``pivmin``
    is factored again with it floored, here to minus its rounding (eps times
    its two terms, plus pivmin), which keeps v finite where a pivot cancels
    to 0, as at a huge mu.

    Returns the ascending coefficients (not finite where a_n = 1 overflows
    a double), each row's ``max|((J - kappa*I) v)_k|`` at the unrefined
    kappa with ``max|v_k| = 1``, and ``||J||`` (largest row sum).
    """
    ld = np.longdouble
    diag, off, order, scale = _reflection_jacobi(n, mu)
    band = np.abs(np.concatenate(([0], off, [0])))
    norm = float((np.abs(diag) + band[:-1] + band[1:]).max())
    beta = off * off
    pivmin = _LD.tiny * beta.max(initial=1)  # LAPACK's
    roots = lam.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kappa0, _ = _reflection_kappa(mu, lam, eps)
        kappa, live = kappa0.copy(), np.arange(roots)
        for _ in range(8):  # each pass squares the error of root 0 from 1e-9
            value, slope, _, _ = _continuant("J", n, mu, kappa[live], derivative=True)
            step = value / slope
            ok = np.isfinite(step)
            kappa[live[ok]] -= step[ok]
            live = live[ok & (abs(step) > 2.0**-40 * abs(kappa[live]))]
            if not live.size:
                break
        # Step k of lane 0 forms D+_k, of lane 1 D-_{n-k}; one column per root.
        lanes = np.empty((n + 1, 2, roots), dtype=ld)
        shifted = np.subtract(diag[:, None], kappa, out=lanes[:, 0])
        lanes[:, 1] = shifted[::-1]
        betas = np.empty((n, 2, 1), dtype=ld)
        betas[:, 0, 0], betas[:, 1, 0] = beta, beta[::-1]
        pivots = np.empty_like(lanes)
        for floor in (False, True):
            ratio = np.zeros((2, roots), dtype=ld)
            for k in range(n + 1):
                if k:
                    np.divide(betas[k - 1], pivots[k - 1], out=ratio)
                np.subtract(lanes[k], ratio, out=pivots[k])
                if floor and k < n:  # D+_n and D-_0 divide nothing
                    noise = _LD.eps * (abs(lanes[k]) + abs(ratio)) + pivmin
                    np.copyto(pivots[k], -noise, where=abs(pivots[k]) < pivmin)
            if floor or not (abs(pivots[:-1]) < pivmin).any():
                break
        top, bottom = pivots[:, 0], pivots[::-1, 1]
        twist = np.argmin(abs(top + bottom - shifted), axis=0)
        k, link = np.arange(n)[:, None], -off[:, None]
        # The factors of the two running products, 1 off their side of r.
        down, up = np.ones((2, n, roots), dtype=ld)
        np.divide(link, bottom[1:], out=down, where=k >= twist)
        np.divide(link, top[:-1], out=up, where=k < twist)
        v = np.empty((n + 1, roots), dtype=ld)
        v[0] = 1
        np.cumprod(down, axis=0, out=v[1:])
        v[:-1] *= np.cumprod(up[::-1], axis=0)[::-1]
        v /= abs(v).max(axis=0)
        rows = (diag[:, None] - kappa0) * v
        rows[1:] += off[:, None] * v[:-1]
        rows[:-1] += off[:, None] * v[1:]
        coeffs = np.empty((roots, n + 1))
        coeffs[:, order] = ((v / v[min(n, 1)]) * scale[:, None]).T  # a_n is v[1]
    return coeffs, abs(rows).max(axis=0), norm


def build_polynomial(d: DcheParams, epsilon: int) -> HeunPolynomial:
    """The polynomial of the spectral root (lambda, epsilon) that
    ``spectral.root_params`` gives, with a_n = 1: :func:`_build_rows` on a
    stack of one.  ``NotSpectral`` unless its eigen-residual is at most
    ``SPECTRAL_TOL * ||J||``; ``InvalidParams`` where a_n = 1 overflows the
    other coefficients, where mu**2 overflows a double, or where mu = 0
    makes every root of degree n >= 1 double.
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    n, mu = d.n, d.mu
    if mu == 0 and n >= 1:
        raise InvalidParams("mu must be nonzero: at mu = 0 every root is double")
    mu_squared(mu)  # raises where the square overflows
    coeffs, resid, norm = _build_rows(n, mu, np.array([d.lam]), np.array([epsilon]))
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
