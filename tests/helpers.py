"""Shared helpers for the test suite.

Admissibility filtering, zero-free evaluation windows and P'' (which the
package no longer evaluates on its own) are needed by several test
modules; keeping them here avoids re-deriving the same bookkeeping in each
file.
"""

from __future__ import annotations

import numpy as np

from heun_rsj import HeunRsjError, heun_poly, spectral, structure
from heun_rsj.model import DcheParams, HeunPolynomial, mu_squared


def deriv2(P: HeunPolynomial, z):
    """Evaluate P''(z) exactly from the coefficients."""
    c = np.polynomial.polynomial.polyder(np.asarray(P.coeffs), 2)
    return np.polynomial.polynomial.polyval(z, c)


def outcome(call) -> tuple:
    """The record ``(checks, skipped)`` that ``call()`` returns last, with
    every value by ``float.hex``, or the type and message of the typed error
    it raises.  What ``call()`` returns ahead of the record, as the triplet
    and sign of ``structure.certify_root``, is left out."""
    try:
        *_, checks, skipped = call()
    except HeunRsjError as exc:
        return type(exc).__name__, str(exc)
    return [(c["name"], c["value"].hex(), c["tolerance"], c["pass"]) for c in checks], skipped


def clear_caches() -> None:
    """Empty the spectrum cache of ``spectral.root_params`` and the
    check-row cache of ``structure.certify_root``."""
    spectral._lambdas.cache_clear()
    structure._spectrum_rows.cache_clear()


def spectral_points(n: int, mu: float) -> list[tuple[int, DcheParams, int]]:
    """All spectral roots at (n, mu): root index, triplet and reflection sign,
    from ``spectral.root_params`` at every index (one spectrum)."""
    return [(i, *spectral.root_params(n, mu, i)) for i in range(n + 1)]


def solution(n: int, mu: float, index: int) -> HeunPolynomial:
    """The polynomial of root ``index`` at (n, mu)."""
    return heun_poly.build_polynomial(*spectral.root_params(n, mu, index))


def admissible_points(n: int, mu: float) -> list[tuple[int, DcheParams, int]]:
    """Spectral triplets whose discriminant clears the certification margin.

    Roots with lambda + mu**2 below the margin exist (the lowest root can
    approach -mu**2 to within 1e-14), but c = sqrt(lambda + mu**2) then
    carries too few accurate bits for any c-dependent residual to be a
    meaningful certificate, so those roots are excluded from c-dependent
    checks.
    """
    return [
        point
        for point in spectral_points(n, mu)
        if point[1].lam + mu_squared(mu) > spectral.DISC_MARGIN
    ]


def positive_disc_points(n: int, mu: float) -> list[tuple[int, DcheParams, int]]:
    """Spectral roots with strictly positive discriminant (physical)."""
    mu2 = mu_squared(mu)
    return [point for point in spectral_points(n, mu) if point[1].lam + mu2 > 0.0]


def real_zeros_in_window(P: HeunPolynomial, lo: float, hi: float) -> list[float]:
    """Real zeros of P inside [lo, hi], via the companion matrix."""
    if P.n == 0:
        return []
    roots = np.roots(np.asarray(P.coeffs)[::-1])
    out = [
        float(r.real)
        for r in roots
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r)) and lo <= r.real <= hi
    ]
    return sorted(out)


def clear_windows(
    P: HeunPolynomial, lo: float = 0.5, hi: float = 2.0, margin: float = 0.05
) -> list[tuple[float, float]]:
    """Subintervals of [lo, hi] staying `margin` away from real zeros of P."""
    cuts = [lo]
    for r in real_zeros_in_window(P, lo - margin, hi + margin):
        cuts.extend([r - margin, r + margin])
    cuts.append(hi)
    windows = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        a, b = max(a, lo), min(b, hi)
        if b - a > 2 * margin:
            windows.append((a, b))
    return windows


def wronskian_pairs(P: HeunPolynomial) -> list[tuple[float, float]]:
    """(z, base) pairs whose connecting segment avoids zeros of P.

    One base per zero-free window of [0.5, 2]; z sweeps the same window so
    the quadrature path never meets a zero of P.
    """
    pairs = []
    for a, b in clear_windows(P):
        base = 0.5 * (a + b)
        for z in np.linspace(a, b, 5):
            pairs.append((float(z), base))
    return pairs


def master_jet_residual(
    P_or_jet, z: complex, jet: tuple[complex, complex, complex] | None = None
) -> tuple[float, float]:
    """|master-equation residual| and its scale for an arbitrary 2-jet.

    Accepts either (P, z) -- using P's own jet -- or (P, z, (q, dq, d2q))
    to test a second solution built on top of P's parameters.
    """
    P = P_or_jet
    n, mu, lam = P.params.n, P.params.mu, P.params.lam
    if jet is None:
        q, dq, d2q = P.value(z), P.deriv1(z), deriv2(P, z)
    else:
        q, dq, d2q = jet
    terms = (
        z**2 * d2q,
        (-mu * z**2 - n * z + mu) * dq,
        (mu * n * z + lam) * q,
    )
    return abs(sum(terms)), max(abs(t) for t in terms)


def gate_scan(n, mu, lam: np.ndarray) -> tuple:
    """The determinant recurrence (``heun_poly._continuant`` on T) with its
    derivative and its summand maximum, as the spectral gate runs it."""
    return heun_poly._continuant("T", n, mu, lam, derivative=True, summand=True)


def scaled_scan(scan) -> tuple:
    """The value, derivative and summand maximum of a framed recurrence
    (``heun_poly._continuant``), each times ``2**e``: what no choice of
    power-of-two frames can change.  A value that the mode does not form
    stays None."""
    *values, e = scan
    with np.errstate(over="ignore"):
        return tuple(
            None if x is None else np.ldexp(x, np.asarray(e, dtype=np.int64))
            for x in values
        )


def reflection_dets(d: DcheParams) -> np.ndarray:
    """det G+ and det G- of d in long double: the package's reflection-factor
    recurrence ``det(J - kappa*I)`` at ``kappa = -c`` and ``+c``, with c
    formed as ``structure.certify`` forms it, times its frame."""
    ld = np.longdouble
    c = np.sqrt(ld(d.lam) + ld(d.mu) ** 2)
    return scaled_scan(heun_poly._continuant("J", d.n, d.mu, np.array([-c, c])))[0]


def same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape, values, signs of zero and NaN positions.

    For float64 this is bit identity up to NaN payloads; for longdouble it
    also skips the padding bytes that ``tobytes`` would compare.
    """
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and bool(np.all(
            ((a == b) & (np.signbit(a) == np.signbit(b)))
            | (np.isnan(a) & np.isnan(b))
        ))
    )
