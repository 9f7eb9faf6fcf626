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
(0, inf) under a pair weight.  After ``z = exp(u)`` their pairing integrand
decays doubly exponentially, and the trapezoid rule converges exponentially.

``certify`` collects every residual that vouches for a polynomial solution
into one record of checks run and checks skipped.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import (
    InvalidParams,
    MuNotPositive,
    NonPositiveArgument,
    QuadratureFailure,
    ZeroOnUnitCircle,
)
from . import heun_poly, spectral
from .dynamics import _MAX_SAMPLES, unwrap
from .model import DcheParams, HeunPolynomial, dche_to_params, frequency_scale, mu_squared

__all__ = [
    "SAMPLE_POINTS",
    "TOL",
    "residuals",
    "certify",
    "symmetry_residual",
    "coeff_relations_residual",
    "phase_series",
    "phase_rate",
    "phase_and_rate",
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
    "det_product": 1e-9,
    "det_min": 1e-10,
    "phase": 1e-6,
}

# Deterministic residual sample set: two reciprocal pairs on the real axis,
# sixteen points on the unit circle and the point z = -1 once more.
SAMPLE_POINTS: tuple[complex, ...] = (
    (0.5 + 0j),
    (1.0 + 0j),
    (2.0 + 0j),
    *(np.exp(1j * np.pi * k / 8.0) for k in range(16)),
    (-1.0 + 0j),
)

# Samples per block of the closed-form phase: one block's complex temporaries
# stay in cache.
_PHASE_BLOCK = 8192

# Checks that need c = sqrt(lambda + mu**2), in report order.
_C_CHECKS = (
    "reflection_symmetry",
    "coeff_relations_rel",
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


# residuals and symmetry_residual read the same P in turn within certify.
@functools.lru_cache(maxsize=1)
def _on_samples(P: HeunPolynomial) -> np.ndarray:
    """P(z), P(1/z), P'(z) and P''(z) at each z of ``SAMPLE_POINTS``, in
    that order: ``table[k]`` is the real and imaginary parts of value k,
    one column per point.

    All 80 values come from one pass (:func:`_lane_values`), bit for bit the
    scalar ``polyval`` of each, signed zeros included.  A value that
    overflows stays infinite or NaN, for the readers to type.  The table is
    read only.
    """
    a = np.asarray(P.coeffs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        table = _lane_values((a, a, *_derivatives(a)))
    table.flags.writeable = False
    return table


def _derivatives(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P' and P'' from P's ascending ``a``: the products
    ``k*a_k`` that numpy's ``polyder(a)`` and ``polyder(a, 2)`` form, bit for
    bit, without their per-call overhead.  Like ``polyder``, a derivative
    past the degree is ``a_0*0`` (a signed zero)."""
    k = np.arange(1.0, a.size)
    dp = a[1:] * k if a.size > 1 else a[:1] * 0
    return dp, dp[1:] * k[:-1] if a.size > 2 else a[:1] * 0


def _pairs(points) -> np.ndarray:
    """Real and imaginary parts of complex ``points``, as rows."""
    return np.array([[x.real for x in points], [x.imag for x in points]])


_POINTS = _pairs(SAMPLE_POINTS)
# The point of each lane of the sample table, row by row: z, 1/z, z and z.
_LANE_POINTS = np.concatenate(
    [_POINTS, _pairs(1.0 / np.array(SAMPLE_POINTS)), _POINTS, _POINTS], axis=1
)
# Each lane point x and i*x, as pairs: v*x = Re(v)*x + Im(v)*(i*x).
_LANE_MAPS = np.array([_LANE_POINTS, [-_LANE_POINTS[1], _LANE_POINTS[0]]])


def _lane_values(polys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Each polynomial of ``polys`` (ascending real coefficients, no longer
    than the one before) at the lane points of its row: for each, the real
    and imaginary parts, one column per point.

    Every lane runs numpy's scalar ``polyval`` recurrence, ``v = c[-1] +
    x*0`` and then ``v = a + v*x`` for each lower coefficient, as numpy
    forms each complex product and sum, on real pairs and with ``+`` and
    ``*`` alone: ``v*x`` is ``Re(v)*x + Im(v)*(i*x)``, and a product by
    ``-Im(x)`` added is one by ``Im(x)`` subtracted, bit for bit.  A lane
    starts at its own degree, from ``v = 0``: its first step is ``c[-1] +
    0*x``, which is ``c[-1] + x*0`` bit for bit.  The lanes that have
    started are a prefix, so each step runs on one slice.
    """
    points = len(SAMPLE_POINTS)
    sizes = [c.size for c in polys]
    coef = np.zeros((sizes[0], 2, len(polys) * points))
    for row, c in enumerate(polys):
        coef[: c.size, 0, row * points : (row + 1) * points] = c[:, None]
    v, t = np.zeros((2, coef.shape[2])), np.empty((2, coef.shape[2]))
    parts = np.empty((2, 2, coef.shape[2]))
    # The first `rows` polynomials run down to coefficient `stop`, where the
    # next one starts.
    for rows, stop in enumerate([*sizes[1:], 0], start=1):
        lanes = slice(rows * points)
        v_, t_, c_ = v[:, lanes], t[:, lanes], coef[:, :, lanes]
        parts_, maps = parts[:, :, lanes], _LANE_MAPS[:, :, lanes]
        (re_x, im_ix), v_col = parts_, v_[:, None]
        for k in range(sizes[rows - 1] - 1, stop - 1, -1):
            np.multiply(v_col, maps, out=parts_)  # Re(v)*x and Im(v)*(i*x)
            np.add(re_x, im_ix, out=t_)
            np.add(c_[k], t_, out=v_)
    return v.reshape(2, len(polys), points).transpose(1, 0, 2)


# Complex products on arrays of complex values held as real pairs, a (2, N)
# array of real and imaginary parts, each formed as (ac - bd, ad + bc).
# The left factor a is held as ``(Re a, Im a * (-1, 1))``: then a*b is
# ``Re(a)*b + (Im(a)*(-1, 1))*b[::-1]``, and the product by -Im(a) added is
# the one by Im(a) subtracted, bit for bit.  A real factor multiplies a
# pair directly.
_SWAP_SIGNS = np.array([[-1.0], [1.0]])


def _left(a: np.ndarray) -> tuple:
    return a[0], a[1] * _SWAP_SIGNS


def _mul(left: tuple, b: np.ndarray) -> np.ndarray:
    return left[0] * b + left[1] * b[::-1]


# z as a left factor.
_Z_LEFT = _left(_POINTS)


@functools.lru_cache(maxsize=1024)
def _powers(n: int) -> np.ndarray:
    """``z**n`` at each sample point, as real pairs, taken once per degree:
    square and multiply with :func:`_mul`, low bit first from 1.  Exact at
    the real points while in range; elsewhere within (n - 1)*sqrt(5)*2**-53
    of the power of the double z, relative, to first order (each product
    after 1*z adds at most sqrt(5)*2**-53).  From n = 1024 the power at
    z = 2 overflows.
    """
    r = np.zeros_like(_POINTS)
    r[0] = 1.0
    p = _POINTS
    while n:
        if n & 1:
            r = _mul(_left(r), p)
        n >>= 1
        if n:
            p = _mul(_left(p), p)
    r.flags.writeable = False
    return r


def _largest_summand(terms: np.ndarray, relation: str, n: int, mu: float) -> np.ndarray:
    """The largest modulus among ``terms`` (summands as real pairs) at each
    point, or ``InvalidParams`` where one is not finite: ``relation``
    overflows a double there."""
    scale = np.hypot(terms[:, 0], terms[:, 1]).max(axis=0)
    if not math.isfinite(scale.max()):  # max keeps a NaN
        raise InvalidParams(f"the {relation} overflows a double at (n={n}, mu={mu})")
    return scale


def symmetry_residual(P: HeunPolynomial) -> float:
    """Worst relative defect of the reflection relation over the sample set.

    Each point contributes ``|P'(z) - mu*P(z) - eps*c*z**n*P(1/z)|`` divided
    by the largest of its three summand moduli, with P's own sign eps and
    z**n from :func:`_powers`.  A point whose summands all vanish is
    skipped.  ``InvalidParams`` where a summand is not finite: z**n at
    z = 2 from n = 1024 on, or an overflowing value of P.
    """
    eps = P.epsilon
    c = frequency_scale(P.params)
    n, mu = P.n, P.params.mu
    v, v_inv, dv, _ = _on_samples(P)
    with np.errstate(over="ignore", invalid="ignore"):  # typed; 0/0 is skipped
        terms = np.array([dv, -mu * v, _mul(_left(-eps * c * _powers(n)), v_inv)])
        scale = _largest_summand(terms, "reflection relation", n, mu)
        total = np.add.reduce(terms)
        ratio = np.hypot(total[0], total[1]) / scale
    return float(ratio[scale != 0.0].max(initial=0.0))


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

    ``master_rel`` is the residual of the polynomial-form equation (see
    ``heun_poly``) over the sample set, each point divided by its largest
    summand modulus (at least 1e-300); ``linear_rel`` is the largest row
    residual of the coefficient system divided by max |a_k|.
    ``InvalidParams`` where a summand is not finite: from n = 1024 on,
    P(2) can overflow.
    """
    n, mu, lam = P.params.n, P.params.mu, P.params.lam
    v, _, dv, d2v = _on_samples(P)
    z = _Z_LEFT
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed
        terms = np.array([
            _mul(z, (1.0 - n) * dv + _mul(z, d2v)),
            _mul(_left(-mu * _POINTS), _mul(z, dv) - n * v),
            _mul(_left(np.array([[mu], [0.0]]) - _POINTS), dv),  # (mu - z)*dv
            lam * v,
        ])
        scale = np.maximum(_largest_summand(terms, "master equation", n, mu), 1e-300)
        total = np.add.reduce(terms)
        master = (np.hypot(total[0], total[1]) / scale).max()
    rows = heun_poly.residual_linear_system(P)
    amax = max(map(abs, P.coeffs))
    return float(master), float(np.max(np.abs(rows))) / amax


def certify(P: HeunPolynomial) -> tuple[list[dict], list[dict]]:
    """Certification record of P: ``(checks, skipped)``.

    Each check is ``{"name", "value", "tolerance", "pass"}`` with its bound
    from ``TOL``.  The master and linear-system residuals always run.  The
    checks that need c run only when lambda + mu**2 clears
    ``spectral.DISC_MARGIN``; otherwise each is listed in ``skipped`` as
    ``{"name", "reason"}``.  ``InvalidParams`` where mu**2 overflows a
    double, where the reflection relation overflows
    (:func:`symmetry_residual`), and where a determinant check cannot be
    formed (:func:`_det_checks`).
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

    amax = max(map(abs, P.coeffs))
    add("reflection_symmetry", float(symmetry_residual(P)), TOL["symmetry"])
    rel = coeff_relations_residual(P)
    add("coeff_relations_rel", float(np.max(np.abs(rel))) / amax, TOL["coeff_relations"])
    det_product, det_min = _det_checks(d)
    add("det_product_rel", det_product, TOL["det_product"])
    add("det_min_rel", det_min, TOL["det_min"])
    return checks, []


def _det_checks(d: DcheParams) -> tuple[float, float]:
    """``||det G+ * det G-| - |Delta|| / scale`` and ``min(|det G+|,
    |det G-|) / scale`` at d, in long double, each rounded once to a double.

    Delta and its scale are the gate's (``spectral._gate_det``); det G+- are
    the reflection factors ``det(J - kappa*I)`` at ``kappa = -+c``
    (``spectral._reflection_dets``), with c formed in long double as the
    root polish forms it.  ``InvalidParams`` where the scale or a check is
    not finite: a check would be NaN, infinite, or a 0 that only an infinite
    scale makes.
    """
    ld = np.longdouble
    c = np.sqrt(ld(d.lam) + ld(d.mu) ** 2)
    delta, scale = spectral._gate_det(d)  # no second scan of a memoised root
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed below
        det_p, det_m = spectral._reflection_dets(d.n, d.mu, c)
        det_product = float(abs(abs(det_p * det_m) - abs(delta)) / scale)
        det_min = float(min(abs(det_p), abs(det_m)) / scale)
    if not all(map(math.isfinite, (scale, det_product, det_min))):
        raise InvalidParams(
            f"the determinants overflow a double at (n={d.n}, mu={d.mu})"
        )
    return det_product, det_min


# phase_series and phase_rate guard the same P in turn: the verdict on the
# last P is kept (a raise is not), so the circle is sampled once per P.
@functools.lru_cache(maxsize=1)
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
    # Just above lambda + mu**2 = 0 the period is tiny and a short span needs
    # a huge grid.
    if samples > _MAX_SAMPLES:
        raise InvalidParams(
            f"phase grid needs {samples} samples, over {_MAX_SAMPLES}"
        )


def _on_circle(P: HeunPolynomial, omega: float, times: np.ndarray, *readers) -> tuple:
    """``f(z, P(z))`` for each reader f at ``z = exp(i*omega*t)``.

    z and P(z) are computed once per block of samples, whatever the number
    of readers; each reader's samples are those of a pass of its own.
    """
    outs = tuple(np.empty(len(times)) for _ in readers)
    for start in range(0, len(times), _PHASE_BLOCK):
        block = slice(start, start + _PHASE_BLOCK)
        z = np.exp(1j * omega * times[block])
        v = P.value(z)
        for out, f in zip(outs, readers):
            out[block] = f(z, v)
    return outs


def _arg_reader(z, v):
    return np.angle(v)


def _rate_reader(P: HeunPolynomial, omega: float):
    return lambda z, v: 2.0 * omega * (z * P.deriv1(z) / v).real - (P.n + 1) * omega


def _phase_from_arg(P: HeunPolynomial, omega: float, times, arg) -> np.ndarray:
    raw = 2.0 * unwrap(arg) - (P.n + 1) * omega * times
    # Start on the principal branch [-pi, pi): at t = 0 an arg P(1) of +-pi
    # is taken off exactly, so the phase there is -eps*pi/2 to the bit.
    half = P.epsilon * (0.5 * np.pi)
    turns = math.floor((raw[0] - half + np.pi) / (2.0 * np.pi))
    return (raw - 2.0 * np.pi * turns) - half


def _closed_form(P: HeunPolynomial, times, rate: bool) -> tuple:
    """The phase at increasing ``times``, and its rate there if ``rate``.

    Without refinement both come from one pass over the circle; on a
    refined grid the rate is ``phase_rate``, a pass over ``times`` of its own.
    """
    times = _times(times)
    if np.any(np.diff(times) <= 0):
        raise InvalidParams("times must be strictly increasing")
    _unit_circle_clear(P)
    p = dche_to_params(P.params)
    max_step = p.period / (64.0 * (P.n + 2))
    factor = 1
    if len(times) > 1:
        ratio = float(np.max(np.diff(times))) / max_step
        if not ratio < math.inf:  # an overflowing ratio has no int ceiling
            raise InvalidParams(f"phase grid needs over {_MAX_SAMPLES} samples")
        factor = max(1, math.ceil(ratio))
    _check_grid_size(1 + (len(times) - 1) * factor)
    if factor == 1:
        readers = (_rate_reader(P, p.omega),) if rate else ()
        arg, *rates = _on_circle(P, p.omega, times, _arg_reader, *readers)
        return _phase_from_arg(P, p.omega, times, arg), *rates
    inner = np.linspace(times[:-1], times[1:], factor + 1, axis=1)[:, 1:]
    grid = np.concatenate([times[:1], inner.ravel()])
    (arg,) = _on_circle(P, p.omega, grid, _arg_reader)
    phase = _phase_from_arg(P, p.omega, grid, arg)[::factor].copy()
    return (phase, phase_rate(P, times)) if rate else (phase,)


def phase_series(P: HeunPolynomial, times) -> np.ndarray:
    """Closed-form phase at the given increasing times, branch-continuous.

    Internally refines the grid so that no step advances the phase by more
    than a small fraction of pi before unwrapping; ``InvalidParams`` where
    that grid exceeds 2**27 samples.
    """
    (phase,) = _closed_form(P, times, rate=False)
    return phase


def phase_rate(P: HeunPolynomial, times) -> np.ndarray:
    """Exact time derivative of the closed-form phase at the given times.

    ``-omega*(n+1) + 2*omega*Re(z*P'(z)/P(z))`` at ``z = exp(i*omega*t)``;
    ``ZeroOnUnitCircle`` where P vanishes on the circle.
    """
    times = _times(times)
    _unit_circle_clear(P)
    omega = dche_to_params(P.params).omega
    (rate,) = _on_circle(P, omega, times, _rate_reader(P, omega))
    return rate


def phase_and_rate(P: HeunPolynomial, times) -> tuple[np.ndarray, np.ndarray]:
    """``phase_series`` and ``phase_rate`` at the same increasing times, bit
    for bit, from one evaluation of P per sample where the phase grid needs
    no refinement."""
    return _closed_form(P, times, rate=True)


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
    decaying one (``exp(-2*mu*cosh(u))``), integrated by the trapezoid rule
    on a truncated symmetric interval.  For different degrees and mu > 0 the
    value vanishes; ``scale`` is the same integral of the absolute integrand.
    ``QuadratureFailure`` where the sums on the grid and on every other point
    of it differ by more than ``1e-10 * scale``, and, for different degrees,
    where ``scale`` is zero or subnormal: the integrand has underflowed, and
    a ratio against it would pass or fail on rounding alone.
    """
    mu = _shared_mu(P1, P2)
    if mu <= 0:
        raise MuNotPositive(f"orthogonality needs mu > 0, got {mu}")
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
    if P1.n != P2.n and scale < sys.float_info.min:
        raise QuadratureFailure(
            f"the absolute integral {scale:.3g} is below the normal double "
            f"range at mu = {mu}: the integrand underflows"
        )
    value = float(np.trapezoid(dense, grid))
    # Halving the grid estimates the error for free; a NaN fails here too.
    gap = abs(value - float(np.trapezoid(dense[::2], grid[::2])))
    if not gap <= 1e-10 * scale:
        raise QuadratureFailure(
            f"quadrature did not converge: halving the grid moves the "
            f"integral by {gap:.3g}, absolute integral {scale:.3g}"
        )
    return value, scale
