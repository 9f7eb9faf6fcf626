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
J whose eigenvalue fixes both lambda and the reflection sign.  The
determinant and the two reflection factors det(J -+ c*I) that it splits
into are continuants, and one framed three-term recurrence,
``_continuant``, evaluates either on an array of lambda or kappa, with its
derivative and its largest summand where the caller asks for them: for the
spectral gate and polish and for the certification pass.  The double
determinant of one triplet and the exact-rational transfer-matrix product
that cross-checks it live with the tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams, NotSpectral
from .model import DcheParams, HeunPolynomial, mu_squared

__all__ = [
    "SPECTRAL_TOL",
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
    scalar call, up to its frame.
    Returns arrays ``(det, ddet_dx, summand_max, e)``, each entry times
    ``2**e`` of its element.  The derivative is formed with ``derivative``,
    the largest |x|, |alpha_j*p_{j-1}|, |beta_j*p_{j-2}| (and |a_n*p_{n-1}|)
    with ``summand``, and each is None otherwise.  The gate scans T in
    double with both; the polish T and J in long double with the
    derivative; the certification pass T with the summand maximum and J
    with neither.
    A step multiplies the largest magnitude of an element's formed values
    by at most ``g = max|x| + (1 + max mu**2)*(max n + 1)**2/4 + 1``, plus
    max|a_n| for J.  After a frame test (:func:`_framed`) it is below
    2**301, so every element is tested every ``(emax - 301 - 2)/log2(g)``
    steps, emax the largest binary exponent of x's dtype (1023 for a double,
    16383 for x87 long double), and no element passes 2**(emax - 2) in
    between; each degree's elements are also tested at its last step.
    Frames are exact, so each value times ``2**e`` is bit for bit that of a
    test at every step, which the recurrence still makes where g is 2**300
    or more, or not finite, and where mu**2 is below 2**-300 (see below).
    """
    jacobi = matrix == "J"
    runs = _by_degree(n, x.size)
    mu = x.dtype.type(mu)
    n1, mu2, last = n + 1, mu * mu, None
    # The growth bound g of the docstring.  Where some mu**2 is below
    # 2**-300 (mu = 0 among them) the frame is tested at every step: as
    # mu**2 -> 0 the roots pair up and the recurrence carries values 2**-600
    # and more below its largest, which frames set a few steps apart can
    # round to different subnormals.
    top = max((d for d, _, _ in runs), default=0)  # the largest degree
    g = float(np.max(np.abs(x), initial=0.0)) + 1.0
    g += (1.0 + float(np.max(mu2))) * (top + 1) ** 2 / 4
    if jacobi:
        last = np.where(n % 2 == 1, -n1 / 2, mu)[()]
        g += float(np.max(np.abs(last)))
        x = -x  # alpha_j up to the closing entry
    every = 1
    if g < 2.0**300 and float(np.min(mu2)) >= 2.0**-300:  # a NaN g fails too
        every = int((np.finfo(x.dtype).maxexp - 1 - 301 - 2) / math.log2(g))
    prev2, prev = np.ones_like(x), x  # p_{-1}, p_0
    dprev2 = dprev = None  # their x-derivatives
    if derivative:
        dprev2, dprev = np.zeros_like(x), np.full_like(x, -1 if jacobi else 1)
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
        end = slice(k - c, k)  # the elements of degree d
        (p2, p, dp2, dp, sm), frame = _framed(
            _take(end, prev2, prev, dprev2, dprev, smax), e[end]
        )
        if jacobi:  # the closing entry
            (a,) = _take(end, last)
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
            m = np.abs(v) if m is None else np.maximum(m, np.abs(v))
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
