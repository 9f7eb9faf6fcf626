"""Independent and reference routes, kept as test oracles.

``heun_poly.build_polynomial`` takes the coefficients from the Jacobi form of
the reflection relations.  Two routes below build them from the coefficient
system alone -- a downward ratio chain and per-coefficient transfer-matrix
products -- so the tests can cross-check all three.

``spectral_det`` is the determinant of one triplet and its scale in
double, read from one minor recurrence (``heun_poly._continuant`` on T,
with the derivative and the summand maximum), the scan that the spectral
gate runs on doubles; the certification pass runs it on long doubles.
The ordered product of 2x2 transfer matrices gives the determinant
independently (``spectral_det_transfer``, in exact rationals) and, up to a
nonzero factor, as the scalar ``necessary_condition``.

``spectral._relative_dets`` gates every spectral root in one array
expression over the determinant scan; ``_refine_ratio`` is the same test one
root at a time, with a Python branch for each term that drops out.  Their
gate decisions must agree, and their values up to a last-bit difference.

The dense reflection matrix ``identities.symmetry_matrix`` and the
reflection shuffle in ``structure`` fill their arrays by index assignment;
the row loops below do the same arithmetic one entry at a time, and the
array forms must match them bit for bit.  ``linear_rows_loop`` sums the
rows of the coefficient system one term at a time in the order of
``heun_poly._linear_rows``, which must match it bit for bit.

A polynomial carries the reflection sign of its root, which
``spectral.root_params`` reads from the parity of the root's index.
``reflection_signs`` reads the signs from an mpmath eigensolve of the Jacobi
form of the reflection relations, at a precision raised until every root is
told apart from its neighbours; ``sign_at_one`` reads a polynomial's sign
again from the relation at the one point z = 1.  ``root_params`` reads each
(n, mu) spectrum from a cache; ``signed_spectrum`` computes it afresh, with
the mpmath signs, and the two must match bit for bit.

``heun_poly._continuant`` on J evaluates both reflection factors det G+-
on arrays of kappa, with power-of-two frames, with their kappa-derivatives
for the polish and without for the certification pass;
``reflection_dets_loop`` is the same continuant on long-double scalars,
without derivatives and with a frame test at every step, and the two must
match bit for bit once each applies its frame, overflows and underflows
included.  ``reflection_factor_mp`` is the continuant in mpmath, at the
exact kappa.  ``reflection_coeffs_mp`` is a root's coefficient vector in
mpmath, a_n = 1: the eigenvector of J at the root of the root's own factor,
which the long-double build must match componentwise.
``reflection_jacobi_dense`` fills the dense J from the build's bands, for
the tests that read a matrix.

``spectral.lambda_spectra`` gates each root on the determinant, which does
not say which root it is.  ``sturm_counts`` counts the eigenvalues of the
symmetrised tridiagonal matrix below each of an array of points (the
negative pivots of its LDL^T), so root i must lie between the counts i and
i + 1; ``mpmath_root`` bisects on the same counts in mpmath alone, in
60-digit arithmetic, to give root i to 30 digits.  It is the one that
``scripts/polish_report.py`` reports errors against, loaded from there.
``sturm_count_mp`` is the same count at one point in mpmath, at a precision
that resolves a bracket of 1e-9 against the norm of T at every double mu;
the contract test brackets each returned root with it.

``structure.residuals`` and ``identities.symmetry_residual`` (the
certification pass's readers on one row) read one table of P and its
derivatives on the sample set, from one lane pass; ``samples_polyval``
builds the same table with one numpy ``polyval`` call per value, and the
two must match bit for bit.  ``residual_master`` is
the master equation at one point, evaluating P, P' and P'' afresh;
``master_rel_points`` and ``symmetry_residual_points`` run both checks one
point at a time that way, and the table readers must match them bit for bit.

``cli.cmd_sweep`` computes its whole grid with one
``spectral.lambda_spectra`` call, maps it to the drive in one array pass
and writes it through the columnar emitter; ``sweep_loop`` is the sweep as
one ``lambda_spectrum`` call per grid point, one ``dche_to_params`` call per
row and ``write_csv``, and the CSV bytes must match.  ``write_csv`` is the
emitter's cell-by-cell reference: ``csv.writer`` with one ``fmt_float`` call
per float cell.

``serialize.json_dumps`` dispatches each value on its exact type first and
falls back on an ``isinstance`` chain for numpy values and subclasses;
``json_dumps_chain`` runs every value through that one chain, with
``json.dumps`` for each string, and the two must give the same bytes and
the same typed errors.

The trajectory routes below are the straightforward forms of the fast paths
in ``dynamics`` and ``structure``: RK4 loops that evaluate the drive with
``math.cos`` at every stage, the closed-form phase over the whole grid at
once with ``np.unwrap``, and a refinement grid built one interval at a
time.  The fast paths must reproduce them bit for bit, except the companion
pair: ``dynamics.integrate_xy`` applies closed-form step maps in array
passes and rounds differently from the stage loop (``integrate_xy_loop``).
``integrate_xy_maps_loop`` applies the same maps (``_step_maps`` on scalar
floats) one step at a time in the library's association, which it must
match bit for bit; each map must match one stage step (``xy_stage_step``)
to a few ulps, and the stage loop's samples must lie within a propagated
rounding bound.  The phase also has its older ratio form, which evaluates P
at both z and 1/z (``phase_on_grid_ratio``); it must agree modulo 2*pi.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from heun_rsj.dynamics import _grid, _step_maps
from heun_rsj.errors import HeunRsjError, IndexOutOfRange, InvalidParams
from heun_rsj.heun_poly import _reflection_jacobi
from heun_rsj.model import (
    DcheParams,
    HeunPolynomial,
    RsjParams,
    dche_to_params,
    frequency_scale,
)
from heun_rsj.serialize import fmt_float
from heun_rsj.spectral import lambda_spectrum
from heun_rsj.structure import SAMPLE_POINTS

from helpers import deriv2, gate_scan


class DegreeZeroUnsupported(HeunRsjError):
    """The transfer-matrix formulas need degree n >= 1."""


class LambdaZero(HeunRsjError):
    """lambda = 0 where a division by lambda is required."""


class NotUnimodular(HeunRsjError):
    """The ratio form of the phase factor drifted off the unit circle."""


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


def spectral_det(d: DcheParams) -> tuple[float, float]:
    """Determinant of the coefficient system at d and its scale, in double.

    The determinant is zero iff a polynomial exists; it is a polynomial of
    exact degree n + 1 in lambda (monic).  The scale is the largest absolute
    summand met in the recurrence, floored at 1: the natural yardstick for
    'is this determinant numerically zero'.  Both are the scan's mantissas
    times ``2**e`` and may saturate to +-inf for large n; signed zeros stay.
    """
    det, _, smax, e = gate_scan(d.n, d.mu, np.array([d.lam], dtype=float))
    with np.errstate(over="ignore"):
        return np.ldexp(det, e).item(), np.fmax(np.ldexp(smax, e), 1.0).item()


def spectral_det_transfer(d: DcheParams) -> float:
    """Determinant through the ordered 2x2 transfer-matrix product.

    Independent of ``spectral_det``: no minor recurrence is shared.
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


def symmetry_matrix_loop(epsilon: int, d: DcheParams) -> np.ndarray:
    """Reflection-relation matrix G_eps, filled row by row."""
    n = d.n
    g = epsilon * math.sqrt(d.lam + d.mu**2) * np.eye(n + 1)
    for j in range(n + 1):
        g[j, n - j] += d.mu
        if 1 <= j:
            g[j, n + 1 - j] -= j
    return g


def linear_rows_loop(P: HeunPolynomial) -> list[float]:
    """Rows of the coefficient system at P's coefficients, one row at a time:
    the dense matrix-vector product in column order without its zero terms,
    ``(lower*a_{k-1} + diagonal*a_k) + upper*a_{k+1}``, each band entry
    formed as in the module docstring of ``heun_poly``."""
    n, mu, lam, a = P.n, P.params.mu, P.params.lam, P.coeffs
    rows = []
    for k in range(n + 1):
        val = (lam - k * (n + 1 - k)) * a[k]
        if k >= 1:
            val += mu * (n + 1 - k) * a[k - 1]
        if k < n:
            val += mu * (k + 1) * a[k + 1]
        rows.append(val)
    return rows


def reflected_coeffs_loop(P: HeunPolynomial) -> list[float]:
    """Coefficients ``(n+1-k)*a_{n+1-k} - mu*a_{n-k}`` of the reflection image."""
    n, mu, a = P.n, P.params.mu, P.coeffs
    out = []
    for k in range(n + 1):
        val = -mu * a[n - k]
        if k >= 1:
            val += (n + 1.0 - k) * a[n + 1 - k]
        out.append(val)
    return out


def sign_at_one(P: HeunPolynomial) -> int:
    """Sign of the reflection ratio ``(P'(1) - mu*P(1)) / (c*P(1))`` at z = 1.

    At a solution the ratio is ``epsilon``; ``ZeroDivisionError`` where
    P(1) = 0.
    """
    c = math.sqrt(P.params.lam + P.params.mu**2)
    p1 = float(P.value(1.0))
    return 1 if (float(P.deriv1(1.0)) - P.params.mu * p1) / (c * p1) > 0 else -1


class UnresolvedSpectrum(HeunRsjError):
    """Two roots of the Jacobi form stay unresolved at the highest precision."""


@functools.lru_cache(maxsize=None)
def reflection_signs(n: int, mu: float) -> tuple[int, ...]:
    """Reflection sign of every root at (n, mu), ordered by exact lambda.

    The eigenvalues kappa of the Jacobi form J of the reflection relations
    (``heun_poly._reflection_jacobi``, rebuilt here entry by entry from the
    exact mu) give ``lambda = kappa**2 - mu**2`` and ``epsilon = -sign(kappa)``,
    so sorting kappa by magnitude orders the roots by exact lambda.  The
    eigensolve runs at 30, 60, 120 and 240 digits in turn, until every gap
    between neighbouring |kappa| and |kappa| itself clear 1e-6 of the working
    precision relative to the largest |kappa|; the pairs of a small |mu| can
    lie 1e-89 apart.  ``UnresolvedSpectrum`` where even 240 digits do not
    suffice, as at mu = 0, where every root of degree n >= 1 is double.
    """
    for dps in (30, 60, 120, 240):
        with mpmath.workdps(dps):
            m = mpmath.mpf(mu)
            jac = mpmath.zeros(n + 1, n + 1)
            for p in range(n):
                i = p // 2
                off = -mpmath.sqrt((i + 1) * (n - i)) if p % 2 else m
                jac[p, p + 1] = jac[p + 1, p] = off
            jac[n, n] = mpmath.mpf(-(n + 1)) / 2 if n % 2 else m
            kappa = sorted(mpmath.eigsy(jac, eigvals_only=True), key=abs)
            tol = mpmath.mpf(10) ** (6 - dps) * max(1, abs(kappa[-1]))
            gaps = [abs(kappa[0])] + [abs(b) - abs(a) for a, b in zip(kappa, kappa[1:])]
            if min(gaps) > tol:
                return tuple(-1 if k > 0 else 1 for k in kappa)
    raise UnresolvedSpectrum(f"roots of J at (n={n}, mu={mu}) closer than 1e-234")


def reflection_factor_mp(n: int, mu: float, kappa, dps: int = 60) -> tuple:
    """``det(J - kappa*I)`` for the Jacobi form J of the reflection relations,
    its kappa-derivative and the largest summand of the three-term
    recurrence, in mpmath at ``dps`` digits, at the exact value of ``kappa``
    (a float, a ``numpy.longdouble`` or an mpmath number).  J is the band that
    :func:`reflection_signs` fills: a zero diagonal but for its last entry
    (mu for even n, -(n+1)/2 for odd n), and squared off-diagonals mu**2
    and (i+1)*(n-i) in turn."""
    with mpmath.workdps(dps):
        if isinstance(kappa, mpmath.mpf):
            k = +kappa
        else:
            num, den = kappa.as_integer_ratio()
            k = mpmath.mpf(num) / den
        m = mpmath.mpf(mu)
        diag = [mpmath.mpf(0)] * (n + 1)
        diag[n] = mpmath.mpf(-(n + 1)) / 2 if n % 2 else m
        off2 = [(p // 2 + 1) * (n - p // 2) if p % 2 else m * m for p in range(n)]
        prev2, prev = mpmath.mpf(1), diag[0] - k
        dprev2, dprev = mpmath.mpf(0), mpmath.mpf(-1)
        top = abs(prev)
        for j in range(1, n + 1):
            t1, t2 = (diag[j] - k) * prev, off2[j - 1] * prev2
            top = max(top, abs(t1), abs(t2))
            cur, dcur = t1 - t2, (diag[j] - k) * dprev - prev - off2[j - 1] * dprev2
            prev2, prev, dprev2, dprev = prev, cur, dprev, dcur
        return +prev, +dprev, +top


def reflection_jacobi_dense(n: int, mu: float) -> np.ndarray:
    """The Jacobi form J of the reflection relations as a dense double
    matrix, filled from the bands of ``heun_poly._reflection_jacobi``."""
    diag, off, _, _ = _reflection_jacobi(n, mu)
    off = off.astype(float)
    return np.diag(diag.astype(float)) + np.diag(off, 1) + np.diag(off, -1)


def _jacobi_vector_mp(n: int, mu: float, lam: float, eps: int) -> list:
    """The coefficients of :func:`reflection_coeffs_mp` at the working
    precision."""
    m = mpmath.mpf(mu)
    k = -eps * mpmath.sqrt(max(mpmath.mpf(lam) + m * m, 0))
    for _ in range(100):
        g, dg, _ = reflection_factor_mp(n, mu, k, mpmath.mp.dps)
        step = g / dg
        k -= step
        if abs(step) <= mpmath.mpf(10) ** (10 - mpmath.mp.dps) * max(1, abs(k)):
            break
    else:
        raise UnresolvedSpectrum(f"Newton on the factor did not settle at (n={n}, mu={mu})")
    off = [m if p % 2 == 0 else -mpmath.sqrt((p // 2 + 1) * (n - p // 2)) for p in range(n)]
    v = [mpmath.mpf(1)]
    for p in range(n):  # row p of (J - kappa*I) v = 0 gives v_{p+1}
        lower = off[p - 1] * v[p - 1] if p else 0
        v.append(-(lower - k * v[p]) / off[p])
    scale, d = [], mpmath.mpf(1)
    for p in range(n + 1):
        scale.append(d)
        if p % 2:
            d *= mpmath.sqrt(mpmath.mpf(n - p // 2) / (p // 2 + 1))
    lead = min(n, 1)
    a = [mpmath.mpf(0)] * (n + 1)
    for p in range(n + 1):
        i = p // 2 if p % 2 == 0 else n - p // 2
        a[i] = scale[p] * v[p] / v[lead]
    return a


def reflection_coeffs_mp(n: int, mu: float, lam: float, eps: int, dps: int = 80) -> list:
    """The coefficients of the root (lam, eps) of (n, mu), a_n = 1, as
    mpmath numbers: the eigenvector of J at the root's own kappa.

    kappa is the root of the factor ``det(J - kappa*I)``
    (:func:`reflection_factor_mp`) that Newton reaches from ``-eps*sqrt(lam
    + mu**2)``, and v solves ``(J - kappa*I) v = 0`` row by row from
    ``v_0 = 1``; the similarity of ``heun_poly._reflection_jacobi``, rebuilt
    here from its formula, maps v to the coefficients.  The forward
    recurrence amplifies the error of kappa, so all of it runs at ``dps``
    digits and again at twice as many, doubling until two runs agree to
    1e-30 of each coefficient (of 10**(20 - dps) times the largest, where
    that is more), and the coefficients of the first of the two are
    returned; ``UnresolvedSpectrum`` past 1,280 digits.
    """
    with mpmath.workdps(dps):
        prev = _jacobi_vector_mp(n, mu, lam, eps)
    while dps < 1280:
        dps *= 2
        with mpmath.workdps(dps):
            cur = _jacobi_vector_mp(n, mu, lam, eps)
            floor = mpmath.mpf(10) ** (20 - dps // 2) * max(abs(x) for x in cur)
            if all(abs(x - y) <= 1e-30 * max(abs(y), floor) for x, y in zip(prev, cur)):
                return prev
        prev = cur
    raise UnresolvedSpectrum(f"the coefficients at (n={n}, mu={mu}) need over 1280 digits")


def reflection_dets_loop(n: int, mu: float, c: np.longdouble) -> tuple:
    """``det(J + c*I)`` and ``det(J - c*I)``, the factors det G+ and det G-,
    at one degree n and a long-double c: the values of
    ``heun_poly._continuant("J", n, mu, [-c, c])`` times its frame, bit for
    bit, by its operations on long-double scalars, with a frame test at
    every step as in ``tests/test_heun_poly.py``'s loop for T, and without
    its derivatives.  Each value is formed as a long-double mantissa and a
    power of two, which saturates to a signed infinity, or to a signed
    zero, only once the two are joined."""
    ld = np.longdouble
    m = ld(mu)
    n1, mu2 = n + 1, m * m
    last = ld(-n1 / 2) if n % 2 == 1 else m
    dets = []
    for minus in (c, -c):  # -kappa
        prev2, prev, e = ld(1), minus, 0
        for j in range(1, n + 1):
            b2 = mu2 if j % 2 else (j // 2) * (n1 - j // 2)
            prev2, prev = prev, minus * prev - b2 * prev2
            ex = max(int(np.frexp(max(abs(prev), abs(prev2)))[1]), np.finfo(ld).minexp)
            if abs(ex) > 300:
                s = np.ldexp(ld(1), -ex)
                prev2, prev, e = prev2 * s, prev * s, e + ex
        dets.append(np.ldexp(prev + last * prev2, e))
    return tuple(dets)


def sturm_counts(n: int, mu: float, x: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetrised T at (n, mu) below each x, in one
    array pass: the negative pivots of the LDL^T of ``T - x*I`` (diagonal
    j*(n+1-j), squared off-diagonals mu**2*(j+1)*(n-j)).  An exactly zero
    pivot is nudged to the smallest normal double."""
    d = -x
    count = (d < 0).astype(int)
    for j in range(1, n + 1):
        d = np.where(d == 0, np.finfo(float).tiny, d)
        d = j * (n + 1.0 - j) - x - mu * mu * j * (n + 1.0 - j) / d
        count += d < 0
    return count


def sturm_count_mp(n: int, mu: float, x, dps: int = 750) -> int:
    """Eigenvalues of T at (n, mu) below x, in mpmath at ``dps`` digits: the
    negative pivots of the LDL^T of ``T - x*I``, as in :func:`sturm_counts`,
    an exactly zero pivot nudged to 10**(-2*dps).

    The count is exact for a T whose entries are perturbed by a few units
    of 10**-dps relative (Kahan 1966, cited from memory), which moves an
    eigenvalue by at most about 10**-dps * ||T||.  With n <= 40 and |mu| up
    to the double maximum, ``||T|| <= (n+1)**2/4 + |mu|*(n+1) < 1e310``, so
    the default 750 digits resolve a bracket of 1e-9 with over 400 to spare.
    """
    with mpmath.workdps(dps):
        x, m2 = mpmath.mpf(x), mpmath.mpf(mu) ** 2
        tiny = mpmath.mpf(10) ** (-2 * dps)
        d = -x
        count = int(d < 0)
        for j in range(1, n + 1):
            r = j * (n + 1 - j)
            d = r - x - m2 * r / (tiny if d == 0 else d)
            count += int(d < 0)
    return count


def _script(name: str):
    """The module of ``scripts/<name>.py``, which is not a package."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mpmath_root = _script("polish_report").mpmath_root


def signed_spectrum(n: int, mu: float) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The lambdas at (n, mu), unmemoised, and the :func:`reflection_signs`."""
    return lambda_spectrum(n, mu).lambdas, reflection_signs(n, float(mu))


def samples_polyval(P: HeunPolynomial) -> tuple[tuple, ...]:
    """``(z, P(z), P'(z), P''(z), P(1/z))`` at each sample point, each value
    from its own scalar ``polyval`` call."""
    val, der = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    a = np.asarray(P.coeffs)
    d1, d2 = der(a), der(a, 2)
    return tuple(
        (z, val(z, a), val(z, d1), val(z, d2), val(1.0 / z, a)) for z in SAMPLE_POINTS
    )


def residual_master(P: HeunPolynomial, z) -> tuple[complex, float]:
    """Residual of the polynomial-form equation at z, and its scale.

    The residual uses exact derivatives; the scale is the largest absolute
    value among its four summands.
    """
    n, mu, lam = P.params.n, P.params.mu, P.params.lam
    v = P.value(z)
    dv = P.deriv1(z)
    d2v = deriv2(P, z)
    inner = z * dv - n * v
    terms = (
        z * ((1.0 - n) * dv + z * d2v),
        -mu * z * inner,
        (mu - z) * dv,
        lam * v,
    )
    t1, t2, t3, t4 = terms
    return t1 + t2 + t3 + t4, float(max(abs(t) for t in terms))


def master_rel_points(P: HeunPolynomial) -> float:
    """Worst ``|residual| / scale`` of :func:`residual_master` over the samples."""
    return float(
        max(
            abs(res) / max(scale, 1e-300)
            for res, scale in (residual_master(P, z) for z in SAMPLE_POINTS)
        )
    )


def power_by_squaring(z: complex, n: int) -> complex:
    """``z**n`` by square and multiply on Python complex, low bit first from
    1: the order of Python's own ``**`` for integer n up to 100."""
    r, p = 1 + 0j, z
    while n:
        if n & 1:
            r *= p
        n >>= 1
        if n:
            p *= p
    return r


def symmetry_residual_points(P: HeunPolynomial) -> float:
    """Worst relative defect of ``P' - mu*P = eps*c*z**n*P(1/z)`` over the
    samples, each point divided by its largest summand, with z**n from
    :func:`power_by_squaring` at every degree."""
    eps = P.epsilon
    c = frequency_scale(P.params)
    n, mu = P.n, P.params.mu
    worst = 0.0
    for z in SAMPLE_POINTS:
        t1 = complex(P.deriv1(z))
        t2 = -mu * complex(P.value(z))
        t3 = -eps * c * power_by_squaring(complex(z), n) * complex(P.value(1.0 / z))
        scale = max(abs(t1), abs(t2), abs(t3))
        if scale == 0.0:
            continue
        worst = max(worst, abs(t1 + t2 + t3) / scale)
    return worst


def coeff_relations_loop(P: HeunPolynomial) -> np.ndarray:
    """``eps*c*a_k - (n+1-k)*a_{n+1-k} + mu*a_{n-k}`` for k = 0..n."""
    eps = P.epsilon
    c = math.sqrt(P.params.lam + P.params.mu**2)
    n, mu, a = P.n, P.params.mu, P.coeffs
    out = np.empty(n + 1)
    for k in range(n + 1):
        val = eps * c * a[k] + mu * a[n - k]
        if k >= 1:
            val -= (n + 1.0 - k) * a[n + 1 - k]
        out[k] = val
    return out


def _refine_ratio(
    det: float, ddet: float, lam: float, smax: float, e: int
) -> float:
    """|det| over the local determinant scale, evaluated safely in log2 space.

    The scale is the largest of 1, the recurrence's largest summand, and the
    first-variation magnitude |lam * d(det)/d(lam)|.  The variation term makes
    the criterion a *relative root-location* test: at a polished simple root
    the smallest representable |det| is about |ddet| * ulp(lam), which can
    dwarf ``ROOT_TOL * smax`` at large n and |mu| even though lam itself is
    accurate to the last bit.  All three mantissas share the 2**e frame, so
    only the constant 1 needs the frame correction.
    """
    if det == 0.0:
        return 0.0
    x = math.log2(abs(det)) + e
    log_scale = 0.0
    if smax > 0.0:
        log_scale = max(log_scale, math.log2(smax) + e)
    if lam != 0.0 and ddet != 0.0:
        log_scale = max(
            log_scale, math.log2(abs(lam)) + math.log2(abs(ddet)) + e
        )
    x -= log_scale
    if x < -1074.0:
        return 0.0
    if x > 1023.0:
        return math.inf
    return 2.0**x


def write_csv(header: list[str], rows: list[list]) -> str:
    """CSV text with mandatory header; floats at 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [
                fmt_float(c) if isinstance(c, (float, np.floating)) else c
                for c in row
            ]
        )
    return buf.getvalue()


def _emit_chain(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise InvalidParams(f"JSON keys must be strings, got {k!r}")
            if i:
                out.append(", ")
            out.append(json.dumps(k))
            out.append(": ")
            _emit_chain(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _emit_chain(v, out)
        out.append("]")
    else:
        raise InvalidParams(f"cannot serialise {type(obj).__name__}")


def json_dumps_chain(obj) -> str:
    """``serialize.json_dumps`` with every value through one ``isinstance``
    chain."""
    out: list[str] = []
    _emit_chain(obj, out)
    return "".join(out) + "\n"


def sweep_loop(
    n_min: int, n_max: int, mu_start: float, mu_stop: float, mu_points: int
) -> str:
    """The ``sweep`` CSV, one ``lambda_spectrum`` call per (n, mu)."""
    rows = []
    for n in range(n_min, n_max + 1):
        for mu in np.linspace(mu_start, mu_stop, mu_points):
            for lam in lambda_spectrum(n, float(mu)).lambdas:
                try:
                    p = dche_to_params(DcheParams(n=n, mu=float(mu), lam=lam))
                    drive = [p.omega, p.A, p.B]
                except HeunRsjError:
                    drive = ["", "", ""]
                rows.append([n, float(mu), lam, *drive])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return write_csv(["n", "mu", "lambda", "omega", "A", "B"], rows)


def integrate_phase_loop(
    p: RsjParams, phi0: float, t_end: float, h: float | None = None
) -> np.ndarray:
    """Phase samples of classical RK4 with the drive evaluated in the loop,
    at the grid nodes i*dt and (i + 1)*dt and at the midpoint i*dt + dt/2."""
    n_steps, dt = _grid(p, t_end, h)
    A, B, w = p.A, p.B, p.omega
    cos, sin = math.cos, math.sin

    phi = float(phi0)
    out = np.empty(n_steps + 1)
    out[0] = phi
    for i in range(n_steps):
        t = i * dt
        k1 = B + A * cos(w * t) - sin(phi)
        q_mid = B + A * cos(w * (t + 0.5 * dt))
        k2 = q_mid - sin(phi + 0.5 * dt * k1)
        k3 = q_mid - sin(phi + 0.5 * dt * k2)
        k4 = B + A * cos(w * ((i + 1) * dt)) - sin(phi + dt * k3)
        phi += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out[i + 1] = phi
    return out


def xy_stage_step(
    q1: float, qm: float, q4: float, dt: float, x: float, y: float
) -> tuple[float, float]:
    """One classical RK4 step of the companion pair, stage by stage."""
    kx1 = 0.5 * (x + q1 * y)
    ky1 = -0.5 * (q1 * x + y)
    x2 = x + 0.5 * dt * kx1
    y2 = y + 0.5 * dt * ky1
    kx2 = 0.5 * (x2 + qm * y2)
    ky2 = -0.5 * (qm * x2 + y2)
    x3 = x + 0.5 * dt * kx2
    y3 = y + 0.5 * dt * ky2
    kx3 = 0.5 * (x3 + qm * y3)
    ky3 = -0.5 * (qm * x3 + y3)
    x4 = x + dt * kx3
    y4 = y + dt * ky3
    kx4 = 0.5 * (x4 + q4 * y4)
    ky4 = -0.5 * (q4 * x4 + y4)

    x += dt * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4) / 6.0
    y += dt * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4) / 6.0
    return x, y


def _drive_at(p: RsjParams, dt: float, i: int) -> tuple[float, float, float]:
    """Drive of step i by ``math.cos``: at its nodes i*dt and (i + 1)*dt and
    at its midpoint i*dt + dt/2."""
    A, B, w = p.A, p.B, p.omega
    t = i * dt
    return (
        B + A * math.cos(w * t),
        B + A * math.cos(w * (t + 0.5 * dt)),
        B + A * math.cos(w * ((i + 1) * dt)),
    )


def integrate_xy_loop(
    p: RsjParams, x0: float, y0: float, t_end: float, h: float | None = None
) -> np.ndarray:
    """Companion (x, y) samples of classical RK4 with the drive in the loop."""
    n_steps, dt = _grid(p, t_end, h)
    x, y = float(x0), float(y0)
    out = np.empty((n_steps + 1, 2))
    out[0] = (x, y)
    for i in range(n_steps):
        x, y = xy_stage_step(*_drive_at(p, dt, i), dt, x, y)
        out[i + 1] = (x, y)
    return out


def integrate_xy_maps_loop(
    p: RsjParams, x0: float, y0: float, t_end: float, h: float | None, lane: int
) -> np.ndarray:
    """Companion samples from the step maps, one step at a time.

    The grid is cut into lanes of ``lane`` steps.  Within a lane the running
    product P = R_k P of the maps is taken step by step and every sample is
    P times the lane's start state; the next lane starts from the lane's
    last sample.  The library's blocks are whole lanes, so they do not show.
    """
    n_steps, dt = _grid(p, t_end, h)
    x, y = float(x0), float(y0)
    out = np.empty((n_steps + 1, 2))
    out[0] = (x, y)
    for first in range(0, n_steps, lane):
        P = None
        for i in range(first, min(first + lane, n_steps)):
            r00, r01, r10, r11 = _step_maps(*_drive_at(p, dt, i), dt)
            if P is None:
                P = [[r00, r01], [r10, r11]]
            else:
                (p00, p01), (p10, p11) = P
                P = [
                    [r00 * p00 + r01 * p10, r00 * p01 + r01 * p11],
                    [r10 * p00 + r11 * p10, r10 * p01 + r11 * p11],
                ]
            out[i + 1] = (P[0][0] * x + P[0][1] * y, P[1][0] * x + P[1][1] * y)
        x, y = out[i + 1].tolist()
    return out


def phase_on_grid(P: HeunPolynomial, times: np.ndarray) -> np.ndarray:
    """Closed-form phase over the whole grid in one pass, unwrapped by numpy."""
    omega = dche_to_params(P.params).omega
    raw = 2.0 * np.unwrap(np.angle(P.value(np.exp(1j * omega * times))))
    raw = raw - (P.n + 1) * omega * times
    half = P.epsilon * (0.5 * np.pi)
    turns = math.floor((raw[0] - half + np.pi) / (2.0 * np.pi))
    return (raw - 2.0 * np.pi * turns) - half


def phase_on_grid_ratio(P: HeunPolynomial, times: np.ndarray) -> np.ndarray:
    """Closed-form phase from the ratio ``i*eps*z**(n+1)*P(1/z)/P(z)``,
    evaluating P at z and at 1/z, with its drift off |w| = 1 checked."""
    p = dche_to_params(P.params)
    z = np.exp(1j * p.omega * times)
    w = 1j * P.epsilon * z ** (P.n + 1) * P.value(1.0 / z) / P.value(z)
    if float(np.max(np.abs(np.abs(w) - 1.0))) > 1e-12:
        raise NotUnimodular("phase factor drifted off the unit circle")
    return -np.unwrap(np.angle(w))


def phase_series_loop(P: HeunPolynomial, times: np.ndarray) -> np.ndarray:
    """Closed-form phase at increasing ``times``, on a grid refined one
    interval at a time."""
    p = dche_to_params(P.params)
    max_step = p.period / (64.0 * (P.n + 2))
    factor = 1
    if len(times) > 1:
        factor = max(1, math.ceil(float(np.max(np.diff(times))) / max_step))
    pieces = [times[:1]]
    for i in range(len(times) - 1):
        pieces.append(np.linspace(times[i], times[i + 1], factor + 1)[1:])
    grid = np.concatenate(pieces)
    return phase_on_grid(P, grid)[np.arange(0, len(grid), factor)]
