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
into one record of checks run and checks skipped.  Two of them compare the
reflection factors det G+ and det G- with the determinant Delta of the
coefficient system, whose vanishing is the spectral condition: all three
in long double, from the one framed recurrence of ``heun_poly``, compared
in Delta's power-of-two frame.
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
from .dynamics import _BLOCK, _MAX_SAMPLES, unwrap
from .model import DcheParams, HeunPolynomial, dche_to_params, mu_squared

__all__ = [
    "SAMPLE_POINTS",
    "TOL",
    "PHASE_TOL",
    "residuals",
    "certify",
    "certify_root",
    "phase_series",
    "phase_rate",
    "phase_and_rate",
    "orthogonality_weight",
    "orthogonality_integral",
]

#: The certification record: each check's name, in report order, with its
#: pass bound.
TOL = {
    "master_equation_rel": 1e-9,
    "linear_system_rel": 1e-10,
    "reflection_symmetry": 1e-9,
    "coeff_relations_rel": 1e-10,
    "det_product_rel": 1e-9,
    "det_min_rel": 1e-10,
}

# The checks of ``TOL`` that need no c = sqrt(lambda + mu**2) and those that
# do, and the determinant checks, as slices of the record.
_NO_C, _NEEDS_C, _DETS = slice(None, 2), slice(2, None), slice(4, None)

#: Bound on the closed-form phase against brute-force integration.
PHASE_TOL = 1e-6

# Deterministic residual sample set: two reciprocal pairs on the real axis,
# sixteen points on the unit circle and the point z = -1 once more.
SAMPLE_POINTS: tuple[complex, ...] = (
    (0.5 + 0j),
    (1.0 + 0j),
    (2.0 + 0j),
    *(np.exp(1j * np.pi * k / 8.0) for k in range(16)),
    (-1.0 + 0j),
)

# Values per working array in a batch of :func:`certify_root` (n + 1 per root,
# 8*(n + 1) in the sample table): a cold verify at n = 1000 peaked at 87 MB.
_BATCH_VALUES = 2**18


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
    readers to type, under the caller's ``np.errstate``, as in the readers.
    The table is read only.
    """
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
    lane_maps = np.empty((2, 2, kinds, roots, points))
    lane_maps[...] = _LANE_MAPS.reshape(2, 2, kinds, 1, points)  # each row's points
    v, t = np.zeros((2, kinds, roots, points)), np.empty((2, kinds, roots, points))
    parts = np.empty((2, 2, kinds, roots, points))
    # The first `rows` kinds run down to coefficient `stop`, where the next
    # one starts.
    for rows, stop in enumerate([*sizes[1:], 0], start=1):
        if stop == sizes[rows - 1]:
            continue  # the next kind starts at the same coefficient
        v_, t_, c_ = v[:, :rows], t[:, :rows], coef[:, :, :rows]
        parts_, maps = parts[:, :, :rows], lane_maps[:, :, :rows]
        (re_x, im_ix), v_col = parts_, v_[:, None]
        for k in range(sizes[rows - 1] - 1, stop - 1, -1):
            np.multiply(v_col, maps, out=parts_)  # Re(v)*x and Im(v)*(i*x)
            np.add(re_x, im_ix, out=t_)
            np.add(c_[k], t_, out=v_)
    return v.reshape(2, kinds, roots * points).transpose(1, 0, 2)


# Complex products on arrays of complex values held as real pairs, a (2, ...)
# array of real and imaginary parts, each formed as (ac - bd, ad + bc).
# The left factor a is held as ``(Re a, Im a * (-1, 1))``: then a*b is
# ``Re(a)*b + (Im(a)*(-1, 1))*b[::-1]``, and the product by -Im(a) added is
# the one by Im(a) subtracted, bit for bit.  A real factor multiplies a
# pair directly.
_SWAP_SIGNS = np.array([-1.0, 1.0])


def _left(a: np.ndarray) -> tuple:
    return a[0], np.multiply.outer(_SWAP_SIGNS, a[1])


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


# The sample points as real pairs, (2, 1, points), and as the left factor
# of a product: they broadcast over the rows of a table read as (2, roots,
# points) (:func:`_table_rows`).
_ROW_POINTS = _POINTS[:, None]
_ROW_Z = _left(_ROW_POINTS)


def _table_rows(table: np.ndarray, roots: int) -> np.ndarray:
    """The sample ``table`` of :func:`_on_samples` with the points of each
    row on an axis of their own: entry ``[k, part, row, point]``."""
    return table.reshape(len(table), 2, roots, len(SAMPLE_POINTS))


def _largest_summands(terms: np.ndarray) -> np.ndarray:
    """The largest modulus among ``terms`` (summands as real pairs, each
    ``(2, roots, points)``) at each point, one row per root.  A row with a
    summand that is not finite has an infinite or NaN largest."""
    return np.hypot(terms[:, 0], terms[:, 1]).max(axis=0)


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
    """Worst relative defect of the reflection relation for each row of the
    sample ``table`` of degree n at mu, with its row's eps*c, and the
    largest summands (:func:`_largest_summands`), for the caller to type.

    Each point contributes ``|P'(z) - mu*P(z) - eps*c*z**n*P(1/z)|`` divided
    by the largest of its three summand moduli, with z**n from
    :func:`_powers`; a point whose summands all vanish is skipped.  A
    summand is not finite where z**n at z = 2 overflows (from n = 1024 on)
    or a value of P does.  The caller ignores overflow and invalid values
    (``np.errstate``): they are typed, and 0/0 is skipped.
    """
    v, v_inv, dv, _ = _table_rows(table, eps_c.size)
    image = -eps_c[:, None] * _powers(n)[:, None]
    terms = np.array([dv, -mu * v, _mul(_left(image), v_inv)])
    scale = _largest_summands(terms)
    total = np.add.reduce(terms)
    ratio = np.hypot(total[0], total[1]) / scale
    return np.where(scale != 0.0, ratio, 0.0).max(axis=1), scale


def _coeff_relations(mu: float, eps_c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Residuals of the coefficient form of the reflection relation for each
    row of coefficients ``a``, with its row's eps*c: entry k is
    ``eps*c*a_k - (n+1-k)*a_{n+1-k} + mu*a_{n-k}`` for k = 0..n (the k = 0
    entry degenerates to ``eps*c*a_0 + mu*a_n``)."""
    rev, up = _reflection_parts(mu, a)
    return (eps_c[:, None] * a + rev) - up


def _master_rows(n: int, mu: float, lam: np.ndarray, table: np.ndarray) -> tuple:
    """The master residual of :func:`residuals` for each row of the sample
    ``table`` of degree n at mu, with its row's lambda, and the largest
    summands (:func:`_largest_summands`), for the caller to type: it
    ignores overflow and invalid values (``np.errstate``)."""
    v, _, dv, d2v = _table_rows(table, lam.size)
    z = _ROW_Z
    terms = np.array([
        _mul(z, (1.0 - n) * dv + _mul(z, d2v)),
        _mul(_left(-mu * _ROW_POINTS), _mul(z, dv) - n * v),
        _mul(_left(np.array([mu, 0.0])[:, None, None] - _ROW_POINTS), dv),  # (mu - z)*dv
        lam[:, None] * v,
    ])
    scale = _largest_summands(terms)
    total = np.add.reduce(terms)
    ratio = np.hypot(total[0], total[1]) / np.maximum(scale, 1e-300)
    return ratio.max(axis=1), scale


def residuals(P: HeunPolynomial) -> tuple[float, float]:
    """Worst relative residuals ``(master_rel, linear_rel)`` of P.

    ``master_rel`` is the residual of the polynomial-form equation (see
    ``heun_poly``) over the sample set, each point divided by its largest
    summand modulus (at least 1e-300); ``linear_rel`` is the largest row
    residual of the coefficient system divided by max |a_k|.
    ``InvalidParams`` where a summand is not finite: from n = 1024 on,
    P(2) can overflow.
    """
    n, mu, lam = P.params.n, P.params.mu, np.array([P.params.lam])
    a = _coeff_rows(P)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is typed
        master, scale = _master_rows(n, mu, lam, _on_samples(a))
    _refuse_overflow(scale, "master equation", n, mu)
    linear = _rel_max(heun_poly._linear_rows(n, mu, lam, a), a)
    return float(master[0]), float(linear[0])


def _record(values, disc: float) -> tuple[list[dict], list[dict]]:
    """The record of :func:`certify` from its check values in the order of
    ``TOL``, of which only those that need no c are read where ``disc`` =
    lambda + mu**2 does not clear ``spectral.DISC_MARGIN``."""
    checks = [
        {"name": name, "value": value, "tolerance": tol, "pass": value <= tol}
        for (name, tol), value in zip(TOL.items(), values)
    ]
    if disc > spectral.DISC_MARGIN:
        return checks, []
    reason = "NonPositiveDiscriminant" if disc <= 0 else "DiscriminantBelowMargin"
    return checks[_NO_C], [{"name": name, "reason": reason} for name in list(TOL)[_NEEDS_C]]


def certify(P: HeunPolynomial) -> tuple[list[dict], list[dict]]:
    """Certification record of P: ``(checks, skipped)``.

    Each check is ``{"name", "value", "tolerance", "pass"}`` with its bound
    from ``TOL``.  The master and linear-system residuals are always
    reported.  The checks that need c are reported only when lambda + mu**2
    clears ``spectral.DISC_MARGIN``; otherwise each is listed in ``skipped``
    as ``{"name", "reason"}``.  The values come from the check pass of
    :func:`certify_root` (:func:`_check_rows`) run on P's one row, and the
    typed errors from that pass's scales and values: ``InvalidParams`` where
    mu**2 overflows a double, where the master equation overflows
    (:func:`residuals`), where the reflection relation overflows (z**n at
    z = 2 from n = 1024 on, or a value of P), and where a determinant check
    is NaN or infinite: where the product of det G+ and det G- passes
    Delta's frame by more than the double range, or where long double is
    plain double and a framed value overflows within one step.
    """
    d = P.params
    disc = d.lam + mu_squared(d.mu)
    lam, eps = np.array([d.lam]), np.array([P.epsilon])
    values, master_scale, symmetry_scale = _check_rows(d.n, d.mu, lam, eps, _coeff_rows(P))
    _refuse_overflow(master_scale, "master equation", d.n, d.mu)
    if disc > spectral.DISC_MARGIN:
        _refuse_overflow(symmetry_scale, "reflection relation", d.n, d.mu)
        if not np.isfinite(values[0, _DETS]).all():
            raise InvalidParams(f"a determinant check overflows at (n={d.n}, mu={d.mu})")
    return _record(values[0].tolist(), disc)


def certify_root(
    n: int, mu: float, root: int
) -> tuple[DcheParams, int, list[dict], list[dict]]:
    """``(d, epsilon, checks, skipped)``: the triplet and sign of
    ``spectral.root_params(n, mu, root)`` and ``certify(build_polynomial(d,
    epsilon))``, bit for bit, its typed errors included, read from the row
    of ``root`` in its spectrum's check-row table (:func:`_spectrum_rows`).
    A root whose row is not formed is built and certified alone.
    """
    d, epsilon = spectral.root_params(n, mu, root)
    values = _spectrum_rows(d.n, d.mu)[root]
    if math.isnan(values[0]):
        return d, epsilon, *certify(heun_poly.build_polynomial(d, epsilon))
    return d, epsilon, *_record(values.tolist(), d.lam + mu_squared(d.mu))


# The certify benchmark's traffic: one cycle misses this cache 158 times in
# 861 calls, each miss one certification of a whole spectrum; each cycle
# draws new mu, so at 256 every repeat is a hit.  A table holds 48 bytes a
# root, about 19 KB at n = 400.
@functools.lru_cache(maxsize=256)
def _spectrum_rows(n: int, mu: float) -> np.ndarray:
    """The check values of every root of a validated ``(n, float(mu))``,
    one read-only row of ``len(TOL)`` per root (:func:`_certify_rows`), from
    one build and check pass per batch of consecutive roots of at most
    ``_BATCH_VALUES`` values per working array.  The lambdas come from the
    spectrum cache of :func:`spectral.root_params`."""
    lam = np.array(spectral._lambdas(n, mu))
    eps = spectral._root_signs(n, mu, np.arange(n + 1)).astype(float)
    size = max(1, _BATCH_VALUES // (n + 1))
    rows = np.concatenate([
        _certify_rows(n, mu, lam[i : i + size], eps[i : i + size])
        for i in range(0, n + 1, size)
    ])
    rows.flags.writeable = False
    return rows


def _certify_rows(n: int, mu: float, lam: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The check values of :func:`certify` at the roots ``lam`` with signs
    ``eps`` of one validated (n, float mu), one row of ``len(TOL)`` per
    root, from one build (``heun_poly._build_rows``) and one check pass
    (:func:`_check_rows`), the pass that :func:`certify` runs on one row.

    Each row is bit for bit that of the root alone.  The values that need c
    are NaN where lambda + mu**2 does not clear ``spectral.DISC_MARGIN``.  A
    root that build_polynomial or certify would refuse, or whose values are
    not all finite, has a NaN row.
    """
    values = np.full((lam.size, len(TOL)), np.nan)
    if mu == 0 and n >= 1:
        return values  # every root is double: build_polynomial refuses it
    a, resid, norm = heun_poly._build_rows(n, mu, lam, eps)
    ok = (resid <= heun_poly.SPECTRAL_TOL * norm) & np.isfinite(a).all(axis=1)
    if ok.all():
        ok = slice(None)  # every row, without copies
    elif not ok.any():
        return values
    lam, eps, a = lam[ok], eps[ok], a[ok]
    rows, master_scale, symmetry_scale = _check_rows(n, mu, lam, eps, a)
    # A row that overflows is not formed: the root alone types it.
    finite = np.isfinite(rows)
    formed = np.isfinite(master_scale) & finite[:, _NO_C].all(axis=1)
    formed &= (lam + mu_squared(mu) <= spectral.DISC_MARGIN) | (
        np.isfinite(symmetry_scale) & finite[:, _NEEDS_C].all(axis=1)
    )
    rows[~formed] = np.nan
    values[ok] = rows
    return values


def _check_rows(
    n: int, mu: float, lam: np.ndarray, eps: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The check pass of a certification record, on each row of ascending
    coefficients ``a`` of degree n at mu, with its row's lambda and sign.

    One sample table (:func:`_on_samples`) feeds both readers.  det G+- are
    the reflection factors ``det(J - kappa*I)`` at ``kappa = -+c``, the
    root's own sign first, each with its power-of-two frame, from one
    value-only long-double call on J over the rows
    (``heun_poly._reflection_factors``).  Delta, with its largest summand,
    is the determinant over the rows' lambda, from one long-double call of
    ``heun_poly._continuant`` on T.
    The two determinant checks are ``||det G+ * det G-| - |Delta|| /
    scale`` and ``min(|det G+|, |det G-|) / scale``, the scale that largest
    summand floored at 1; both are symmetric in det G+ and det G-.  They
    are formed in Delta's power-of-two frame, each factor taken to its
    mantissa and its own frame before the product, so no product leaves the
    long-double range first, and each is rounded once to a double.  Returns
    the check values of each row in the order of ``TOL``, NaN in those that
    need c where lambda + mu**2 does not clear ``spectral.DISC_MARGIN``, and
    the largest master and reflection summand of each row.  Nothing is
    typed here: a value or scale that overflows stays infinite or NaN.
    """
    ld = np.longdouble
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        table = _on_samples(a)
        disc = lam + mu_squared(mu)
        eps_c = eps * np.sqrt(disc)
        values, frames = heun_poly._reflection_factors(n, mu, lam, eps)
        (m_own, m_other), exponents = np.frexp(values)
        e_own, e_other = exponents + frames
        delta, _, top, e = heun_poly._continuant("T", n, mu, lam.astype(ld), summand=True)
        product = np.ldexp(m_own * m_other, e_own + e_other - e)
        least = np.minimum(
            np.ldexp(abs(m_own), e_own - e), np.ldexp(abs(m_other), e_other - e)
        )
        scale = np.fmax(top, np.ldexp(ld(1), -e))
        rows = np.empty((lam.size, len(TOL)))
        rows[:, 0], master_scale = _master_rows(n, mu, lam, table)
        rows[:, 1] = _rel_max(heun_poly._linear_rows(n, mu, lam, a), a)
        rows[:, 2], symmetry_scale = _symmetry_rows(n, mu, eps_c, table)
        rows[:, 3] = _rel_max(_coeff_relations(mu, eps_c, a), a)
        rows[:, 4] = abs(abs(product) - abs(delta)) / scale  # each rounded to a double
        rows[:, 5] = least / scale
    rows[disc <= spectral.DISC_MARGIN, _NEEDS_C] = np.nan
    return rows, master_scale.max(axis=1), symmetry_scale.max(axis=1)


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
    for start in range(0, len(times), _BLOCK):
        block = slice(start, start + _BLOCK)
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
    refined grid the rate is that of ``phase_rate``, a pass over ``times``
    of its own.
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
    readers = (_rate_reader(P, p.omega),) if rate else ()
    if factor == 1:
        arg, *rates = _on_circle(P, p.omega, times, _arg_reader, *readers)
        return _phase_from_arg(P, p.omega, times, arg), *rates
    inner = np.linspace(times[:-1], times[1:], factor + 1, axis=1)[:, 1:]
    grid = np.concatenate([times[:1], inner.ravel()])
    (arg,) = _on_circle(P, p.omega, grid, _arg_reader)
    phase = _phase_from_arg(P, p.omega, grid, arg)[::factor].copy()
    return (phase, *_on_circle(P, p.omega, times, *readers)) if rate else (phase,)


def phase_series(P: HeunPolynomial, times) -> np.ndarray:
    """Closed-form phase at the given increasing times, branch-continuous.

    Internally refines the grid so that no step advances the phase by more
    than a small fraction of pi before unwrapping; ``InvalidParams`` where
    that grid exceeds 2**27 samples, and ``ZeroOnUnitCircle`` as in
    :func:`phase_rate`.
    """
    (phase,) = _closed_form(P, times, rate=False)
    return phase


def phase_rate(P: HeunPolynomial, times) -> np.ndarray:
    """Exact time derivative of the closed-form phase at the given times.

    ``-omega*(n+1) + 2*omega*Re(z*P'(z)/P(z))`` at ``z = exp(i*omega*t)``;
    ``ZeroOnUnitCircle`` where min |P| over 4,096 points of the circle is
    below 1e-10*||a||_1: a test of cancellation, not a located zero.
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
