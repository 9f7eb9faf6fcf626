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
    "certify_root",
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

# The checks of a certification record, in report order, each with its key
# in ``TOL``; all but the first two need c = sqrt(lambda + mu**2).
_CHECKS = (
    ("master_equation_rel", "master"),
    ("linear_system_rel", "linear_system"),
    ("reflection_symmetry", "symmetry"),
    ("coeff_relations_rel", "coeff_relations"),
    ("det_product_rel", "det_product"),
    ("det_min_rel", "det_min"),
)

# Doubles that one certification chunk may hold: (n + 1)**2 per root for its
# matrix J - kappa*I in the stacked solve, and 8*(n + 1) for its
# coefficients in the lane table.  The dense solves cost O(n**3) per root,
# so a chunk spends that on every root it holds where one root may be all
# that is asked for: at n = 100 a cold verify of one root took about 1.7
# times as long as the root alone with a chunk of 7, and would take about
# 2.4 times with 13 and 14 times with all 101 roots.  This budget is the
# least round one that keeps every n <= 40 one chunk (41 roots at n = 40,
# 82,369 doubles: each spectrum of the certify benchmark); n = 100 takes 7
# roots at a time.
_CHUNK_DOUBLES = 84_000


def _chunk(n: int, root: int) -> slice:
    """The roots of (n, .) certified together with ``root``: consecutive
    indices, as many as ``_CHUNK_DOUBLES`` holds, and at least one."""
    size = max(1, _CHUNK_DOUBLES // ((n + 1) * (n + 9)))
    start = root - root % size
    return slice(start, min(start + size, n + 1))


def _reflection_parts(mu: float, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of the reflection shuffle of each row of ascending
    coefficients ``a`` (or of one 1-d row).

    Entry k of the first is ``mu*a_{n-k}`` and of the second
    ``(n+1-k)*a_{n+1-k}`` (0 at k = 0), for k = 0..n.
    """
    up = np.zeros_like(a)
    up[..., 1:] = np.arange(a.shape[-1] - 1, 0, -1.0) * a[..., :0:-1]
    return mu * a[..., ::-1], up


def _on_samples(a: np.ndarray) -> np.ndarray:
    """P(z), P(1/z), P'(z) and P''(z) at each z of ``SAMPLE_POINTS``, in
    that order, for the polynomial P of each row of ascending coefficients
    ``a``: ``table[k]`` is the real and imaginary parts of value k, one
    column per point, the points of one row after another.

    All values come from one pass (:func:`_lane_values`), bit for bit the
    scalar ``polyval`` of each, signed zeros included, whatever the rows
    beside it.  A value that overflows stays infinite or NaN, for the
    readers to type.  The table is read only.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = _lane_values((a, a, *_derivatives(a)))
    table.flags.writeable = False
    return table


def _derivatives(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of P' and P'' from P's ascending ``a`` (each row, or one
    1-d row): the products ``k*a_k`` that numpy's ``polyder(a)`` and
    ``polyder(a, 2)`` form, bit for bit, without their per-call overhead.
    Like ``polyder``, a derivative past the degree is ``a_0*0`` (a signed
    zero)."""
    size = a.shape[-1]
    k = np.arange(1.0, size)
    dp = a[..., 1:] * k if size > 1 else a[..., :1] * 0
    return dp, dp[..., 1:] * k[:-1] if size > 2 else a[..., :1] * 0


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
    """Each polynomial of ``polys`` (rows of ascending real coefficients,
    the same number of rows in each, no longer than the one before) at the
    lane points of its kind, for each row: the real and imaginary parts, one
    column per point, the points of one row after another.

    Every lane runs numpy's scalar ``polyval`` recurrence, ``v = c[-1] +
    x*0`` and then ``v = a + v*x`` for each lower coefficient, as numpy
    forms each complex product and sum, on real pairs and with ``+`` and
    ``*`` alone: ``v*x`` is ``Re(v)*x + Im(v)*(i*x)``, and a product by
    ``-Im(x)`` added is one by ``Im(x)`` subtracted, bit for bit.  A lane
    starts at its own degree, from ``v = 0``: its first step is ``c[-1] +
    0*x``, which is ``c[-1] + x*0`` bit for bit.  The kinds that have
    started are a prefix, so each step runs on one slice.
    """
    points, kinds, roots = len(SAMPLE_POINTS), len(polys), polys[0].shape[0]
    sizes = [c.shape[-1] for c in polys]
    # Each coefficient once per row, with a zero imaginary part, added to
    # the lanes of every point of its row by broadcasting.
    coef = np.zeros((sizes[0], 2, kinds, roots, 1))
    for kind, c in enumerate(polys):
        coef[: c.shape[-1], 0, kind, :, 0] = c.T
    lane_maps = np.repeat(_LANE_MAPS.reshape(2, 2, kinds, 1, points), roots, axis=3)
    v, t = np.zeros((2, kinds, roots, points)), np.empty((2, kinds, roots, points))
    parts = np.empty((2, 2, kinds, roots, points))
    # The first `rows` kinds run down to coefficient `stop`, where the next
    # one starts.
    for rows, stop in enumerate([*sizes[1:], 0], start=1):
        v_, t_, c_ = v[:, :rows], t[:, :rows], coef[:, :, :rows]
        parts_, maps = parts[:, :, :rows], lane_maps[:, :, :rows]
        (re_x, im_ix), v_col = parts_, v_[:, None]
        for k in range(sizes[rows - 1] - 1, stop - 1, -1):
            np.multiply(v_col, maps, out=parts_)  # Re(v)*x and Im(v)*(i*x)
            np.add(re_x, im_ix, out=t_)
            np.add(c_[k], t_, out=v_)
    return v.reshape(2, kinds, roots * points).transpose(1, 0, 2)


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


def _largest_summands(terms: np.ndarray, roots: int) -> np.ndarray:
    """The largest modulus among ``terms`` (summands as real pairs, the
    points of one row after another) at each point, one row per root.  A
    row with a summand that is not finite has an infinite or NaN largest."""
    return np.hypot(terms[:, 0], terms[:, 1]).max(axis=0).reshape(roots, -1)


def _refuse_overflow(scale: np.ndarray, relation: str, n: int, mu: float) -> None:
    """``InvalidParams`` unless every largest summand in ``scale`` is finite:
    ``relation`` overflows a double."""
    if not math.isfinite(scale.max()):  # max keeps a NaN
        raise InvalidParams(f"the {relation} overflows a double at (n={n}, mu={mu})")


def _rel_max(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The largest modulus of each row of ``rows`` over that of its row of
    coefficients ``a``."""
    return np.abs(rows).max(axis=1) / np.abs(a).max(axis=1)


def _coeff_rows(P: HeunPolynomial) -> np.ndarray:
    """P's coefficients as the one row of a batch."""
    return np.asarray(P.coeffs, dtype=float)[None]


def _symmetry_rows(n: int, mu: float, eps_c: np.ndarray, table: np.ndarray) -> tuple:
    """:func:`symmetry_residual` of each row of the sample ``table`` of
    degree n at mu, with its row's eps*c, and the largest summands
    (:func:`_largest_summands`), for the caller to type."""
    v, v_inv, dv, _ = table
    roots = eps_c.size
    with np.errstate(over="ignore", invalid="ignore"):  # typed; 0/0 is skipped
        image = np.repeat(-eps_c, len(SAMPLE_POINTS)) * np.tile(_powers(n), roots)
        terms = np.array([dv, -mu * v, _mul(_left(image), v_inv)])
        scale = _largest_summands(terms, roots)
        total = np.add.reduce(terms)
        ratio = np.hypot(total[0], total[1]).reshape(roots, -1) / scale
    return np.where(scale != 0.0, ratio, 0.0).max(axis=1), scale


def symmetry_residual(P: HeunPolynomial, table: np.ndarray | None = None) -> float:
    """Worst relative defect of the reflection relation over the sample set.

    Each point contributes ``|P'(z) - mu*P(z) - eps*c*z**n*P(1/z)|`` divided
    by the largest of its three summand moduli, with P's own sign eps and
    z**n from :func:`_powers`.  A point whose summands all vanish is
    skipped.  ``InvalidParams`` where a summand is not finite: z**n at
    z = 2 from n = 1024 on, or an overflowing value of P.  ``table`` is P's
    sample table (:func:`_on_samples`) where the caller has formed it.
    """
    c = frequency_scale(P.params)
    if table is None:
        table = _on_samples(_coeff_rows(P))
    n, mu = P.n, P.params.mu
    value, scale = _symmetry_rows(n, mu, np.array([P.epsilon * c]), table)
    _refuse_overflow(scale, "reflection relation", n, mu)
    return float(value[0])


def coeff_relations_residual(P: HeunPolynomial) -> np.ndarray:
    """Residuals of the coefficient form of the reflection relation.

    Entry k is ``eps*c*a_k - (n+1-k)*a_{n+1-k} + mu*a_{n-k}`` for k = 0..n
    (the k = 0 entry degenerates to ``eps*c*a_0 + mu*a_n``), with P's own
    sign eps.
    """
    eps_c = np.array([P.epsilon * frequency_scale(P.params)])
    return _coeff_relations(P.params.mu, eps_c, _coeff_rows(P))[0]


def _coeff_relations(mu: float, eps_c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """:func:`coeff_relations_residual` of each row of coefficients ``a``,
    with its row's eps*c."""
    rev, up = _reflection_parts(mu, a)
    return (eps_c[:, None] * a + rev) - up


def _master_rows(n: int, mu: float, lam: np.ndarray, table: np.ndarray) -> tuple:
    """The master residual of :func:`residuals` for each row of the sample
    ``table`` of degree n at mu, with its row's lambda, and the largest
    summands (:func:`_largest_summands`), for the caller to type."""
    v, _, dv, d2v = table
    roots = lam.size
    points = np.tile(_POINTS, roots)
    z = _left(points)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed
        terms = np.array([
            _mul(z, (1.0 - n) * dv + _mul(z, d2v)),
            _mul(_left(-mu * points), _mul(z, dv) - n * v),
            _mul(_left(np.array([[mu], [0.0]]) - points), dv),  # (mu - z)*dv
            np.repeat(lam, len(SAMPLE_POINTS)) * v,
        ])
        scale = _largest_summands(terms, roots)
        total = np.add.reduce(terms)
        ratio = np.hypot(total[0], total[1]).reshape(roots, -1) / np.maximum(scale, 1e-300)
    return ratio.max(axis=1), scale


def residuals(P: HeunPolynomial, table: np.ndarray | None = None) -> tuple[float, float]:
    """Worst relative residuals ``(master_rel, linear_rel)`` of P.

    ``master_rel`` is the residual of the polynomial-form equation (see
    ``heun_poly``) over the sample set, each point divided by its largest
    summand modulus (at least 1e-300); ``linear_rel`` is the largest row
    residual of the coefficient system divided by max |a_k|.
    ``InvalidParams`` where a summand is not finite: from n = 1024 on,
    P(2) can overflow.  ``table`` is P's sample table (:func:`_on_samples`)
    where the caller has formed it.
    """
    n, mu = P.params.n, P.params.mu
    a = _coeff_rows(P)
    if table is None:
        table = _on_samples(a)
    master, scale = _master_rows(n, mu, np.array([P.params.lam]), table)
    _refuse_overflow(scale, "master equation", n, mu)
    linear = _rel_max(heun_poly.residual_linear_system(P)[None], a)
    return float(master[0]), float(linear[0])


def _record(values, disc: float) -> tuple[list[dict], list[dict]]:
    """The record of :func:`certify` from its check values in report order,
    of which only the first two are read where ``disc`` = lambda + mu**2
    does not clear ``spectral.DISC_MARGIN``."""
    checks = [
        {"name": name, "value": value, "tolerance": TOL[key], "pass": value <= TOL[key]}
        for (name, key), value in zip(_CHECKS, values)
    ]
    if disc > spectral.DISC_MARGIN:
        return checks, []
    reason = "NonPositiveDiscriminant" if disc <= 0 else "DiscriminantBelowMargin"
    return checks[:2], [{"name": name, "reason": reason} for name, _ in _CHECKS[2:]]


def certify(P: HeunPolynomial) -> tuple[list[dict], list[dict]]:
    """Certification record of P: ``(checks, skipped)``.

    Each check is ``{"name", "value", "tolerance", "pass"}`` with its bound
    from ``TOL``.  The master and linear-system residuals always run.  The
    checks that need c run only when lambda + mu**2 clears
    ``spectral.DISC_MARGIN``; otherwise each is listed in ``skipped`` as
    ``{"name", "reason"}``.  ``InvalidParams`` where mu**2 overflows a
    double, where the reflection relation overflows
    (:func:`symmetry_residual`), and where a determinant check cannot be
    formed (:func:`_det_checks`).  P is sampled once, for both readers.
    """
    d = P.params
    disc = d.lam + mu_squared(d.mu)
    a = _coeff_rows(P)
    table = _on_samples(a)
    master, linear = residuals(P, table)
    if disc <= spectral.DISC_MARGIN:
        return _record((master, linear), disc)
    symmetry = symmetry_residual(P, table)
    rel = _rel_max(coeff_relations_residual(P)[None], a)
    return _record((master, linear, symmetry, float(rel[0]), *_det_checks(d)), disc)


def certify_root(n: int, mu: float, root: int) -> tuple[list[dict], list[dict]]:
    """``certify(build_polynomial(*spectral.root_params(n, mu, root)))``,
    bit for bit, its typed errors included.

    The roots of (n, mu) are certified in chunks of consecutive indices
    (:func:`_chunk`), each in one array pass (:func:`_certify_rows`), and
    the six check values of each root are kept beside its spectrum in the
    memo of :func:`spectral.root_params`: a later root of the chunk reads
    its row.  A root that the pass could not form is certified alone.
    """
    d, epsilon = spectral.root_params(n, mu, root)
    chunk = _chunk(d.n, root)

    def form(lambdas, dets):
        signs = spectral._root_signs(d.n, d.mu, np.arange(chunk.start, chunk.stop))
        lam = np.array(lambdas[chunk])
        return _certify_rows(d.n, d.mu, lam, signs.astype(float), dets[chunk])

    values = spectral._memo_rows(d.n, d.mu, chunk.start, form)[root - chunk.start]
    if math.isnan(values[0]):
        return certify(heun_poly.build_polynomial(d, epsilon))
    return _record(values.tolist(), d.lam + mu_squared(d.mu))


def _certify_rows(
    n: int, mu: float, lam: np.ndarray, eps: np.ndarray, dets: np.ndarray
) -> np.ndarray:
    """The check values of :func:`certify` at the roots ``lam`` with signs
    ``eps`` of one validated (n, float mu), one row of six per root, from
    one stacked build (``heun_poly._build_rows``) and one pass of each
    reader; ``dets`` holds the gate's determinant and scale at each root.

    Each row is bit for bit that of the root alone: the reflection factors
    come from ``spectral._factor_newton_extended``, whose values at
    ``kappa = -+c`` are those of ``spectral._reflection_dets``.  The four
    values that need c are NaN where lambda + mu**2 does not clear
    ``spectral.DISC_MARGIN``.  A root that build_polynomial or certify
    would refuse, or whose values are not all finite, has a NaN row: so has
    every root where LAPACK refuses the stacked solve.
    """
    values = np.full((lam.size, len(_CHECKS)), np.nan)
    if mu == 0 and n >= 1:
        return values  # every root is double: build_polynomial refuses it
    disc = lam + mu_squared(mu)
    kappa = -eps * np.sqrt(np.maximum(disc, 0.0))
    a, resid, norm, _ = heun_poly._build_rows(n, mu, kappa)
    if a is None:
        return values
    ok = (resid <= heun_poly.SPECTRAL_TOL * norm) & np.isfinite(a).all(axis=1)
    if not ok.any():
        return values
    a, lam, eps, disc, dets = a[ok], lam[ok], eps[ok], disc[ok], dets[ok]
    table = _on_samples(a)
    ld = np.longdouble
    # c has no value below the margin, and a row that overflows is not
    # formed: the root alone types it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eps_c = eps * np.sqrt(disc)
        c = np.sqrt(lam.astype(ld) + ld(mu) ** 2)
        factors = spectral._factor_newton_extended(n, mu, np.concatenate([-c, c]))[0]
        master, master_scale = _master_rows(n, mu, lam, table)
        symmetry, symmetry_scale = _symmetry_rows(n, mu, eps_c, table)
        det_product, det_min = _det_rows(factors[: lam.size], factors[lam.size :], dets)
        rows = np.stack([
            master,
            _rel_max(heun_poly._linear_rows(n, mu, lam, a), a),
            symmetry,
            _rel_max(_coeff_relations(mu, eps_c, a), a),
            det_product,
            det_min,
        ], axis=1)
    full = disc > spectral.DISC_MARGIN
    rows[~full, 2:] = np.nan
    formed = np.isfinite(master_scale.max(axis=1)) & np.isfinite(rows[:, :2]).all(axis=1)
    formed &= ~full | (
        np.isfinite(symmetry_scale.max(axis=1))
        & np.isfinite(dets[:, 1])
        & np.isfinite(rows[:, 2:]).all(axis=1)
    )
    rows[~formed] = np.nan
    values[ok] = rows
    return values


def _det_rows(det_p: np.ndarray, det_m: np.ndarray, dets: np.ndarray) -> tuple:
    """``||det G+ * det G-| - |Delta|| / scale`` and ``min(|det G+|,
    |det G-|) / scale`` of each row, from long-double det G+- and the
    gate's determinant Delta and scale (``dets``, one pair per row), each
    rounded once to a double."""
    delta, scale = dets[:, 0], dets[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed
        det_product = (abs(abs(det_p * det_m) - abs(delta)) / scale).astype(float)
        det_min = (np.minimum(abs(det_p), abs(det_m)) / scale).astype(float)
    return det_product, det_min


def _det_checks(d: DcheParams) -> tuple[float, float]:
    """``||det G+ * det G-| - |Delta|| / scale`` and ``min(|det G+|,
    |det G-|) / scale`` at d, in long double, each rounded once to a double
    (:func:`_det_rows` of one row).

    Delta and its scale are the gate's (``spectral._gate_det``); det G+- are
    the reflection factors ``det(J - kappa*I)`` at ``kappa = -+c``
    (``spectral._reflection_dets``), with c formed in long double as the
    root polish forms it.  ``InvalidParams`` where the scale or a check is
    not finite: a check would be NaN, infinite, or a 0 that only an infinite
    scale makes.
    """
    ld = np.longdouble
    c = np.sqrt(ld(d.lam) + ld(d.mu) ** 2)
    dets = np.array([spectral._gate_det(d)])  # no second scan of a memoised root
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed below
        det_p, det_m = spectral._reflection_dets(d.n, d.mu, c)
    det_product, det_min = _det_rows(np.array([det_p]), np.array([det_m]), dets)
    if not np.isfinite([dets[0, 1], det_product[0], det_min[0]]).all():
        raise InvalidParams(
            f"the determinants overflow a double at (n={d.n}, mu={d.mu})"
        )
    return float(det_product[0]), float(det_min[0])


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
