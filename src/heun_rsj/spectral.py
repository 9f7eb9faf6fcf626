"""Spectrum of the determinant gate and its symmetry-matrix factorisation.

For fixed degree n and drive strength mu the determinant of the coefficient
system is a monic polynomial of degree n + 1 in lambda.  Its roots are the
eigenvalues of a tridiagonal matrix ``T`` with ``T[j][j] = j*(n+1-j)`` and
off-diagonal pair products ``mu**2*(j+1)*(n-j)``; since those products are
non-negative, ``T`` is similar to a real symmetric tridiagonal matrix and the
whole spectrum is real.  ``lambda_spectrum`` solves the symmetric problem with
numpy's dense symmetric eigensolver (the same LAPACK eigenvalue iteration as
a dedicated tridiagonal solver, so this module needs no scipy) and then
polishes all n + 1 roots together in extended precision: the determinant
recurrence runs on the whole array of roots, so a spectrum costs O(n) numpy
calls per Newton pass.  Each root keeps its own Newton state, and a root whose
step goes wrong falls back to its eigenvalue seed without disturbing the
others; one array scan of the determinant then gates every returned root.

The reflection symmetry of the solutions induces two (n+1) x (n+1) matrices
(one per sign) whose product reproduces the coefficient matrix up to an
overall factor of -1 in its transposed orientation -- re-derived by brute
force on small n in the test-suite -- so the determinant splits into two
factors and every spectral lambda kills one of them.  The sign of the factor
it kills names the root together with lambda: ``root_params`` reads it from
the eigenvalues of the symmetric Jacobi form of the reflection relations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InvalidParams,
    NonPositiveDiscriminant,
)
from .heun_poly import _det_scan, _reflection_jacobi, coefficient_matrix
from .model import DcheParams, RsjParams, dche_to_params, mu_squared

__all__ = [
    "DISC_MARGIN",
    "ROOT_TOL",
    "SpectralSet",
    "lambda_spectrum",
    "symmetry_matrix",
    "factorization",
    "root_params",
    "physical_point",
]

#: Smallest lambda + mu**2 at which the reflection-symmetry certifications
#: are numerically meaningful in double precision.  The lowest spectral root
#: approaches -mu**2 super-exponentially in n, and once the gap falls below
#: ~1e-10 the frequency scale sqrt(lambda + mu**2) carries too few accurate
#: bits for any c-dependent identity to verify at its stated tolerance
#: (residual floor ~ 1e-16/sqrt(gap)).  Roots above this margin pass with
#: orders of magnitude to spare; roots below it are reported but excluded
#: from symmetry certification.
DISC_MARGIN = 1e-9

#: Bound on the relative determinant (:func:`_refine_ratio`) that every root
#: returned by :func:`lambda_spectrum` must meet.
ROOT_TOL = 1e-10


@dataclass(frozen=True)
class SpectralSet:
    """All n + 1 real roots of the determinant gate, ascending."""

    n: int
    mu: float
    lambdas: tuple[float, ...]


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


def lambda_spectrum(n: int, mu: float) -> SpectralSet:
    """All roots of the determinant gate at (n, mu), polished in extended precision.

    Eigenvalues of the symmetrised tridiagonal matrix seed the roots, and
    :func:`_polish_extended` polishes them all at once.  One array scan of the
    determinant then gates every root: each must bring the determinant below
    ``ROOT_TOL`` times the local determinant scale (largest recurrence summand
    or first-variation magnitude, whichever is bigger), or
    ``ConvergenceFailure`` names the lowest seed index that missed.  A root
    whose scan is not finite misses.  Where ``mu**2`` overflows a double no
    root is gated.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParams(f"degree n must be a non-negative int, got {n!r}")
    if not (isinstance(mu, (int, float)) and math.isfinite(mu)):
        raise InvalidParams(f"mu must be a finite real, got {mu!r}")

    lams = _polish_extended(n, mu, _eigen_seeds(n, mu))
    # Where mu**2 overflows a double the determinant has no double value to
    # gate; every use of such a triplet raises InvalidParams (mu_squared).
    if math.isfinite(mu * mu):
        det, ddet, smax, e = (a.tolist() for a in _det_scan(n, mu, lams))
        for i, lam in enumerate(lams.tolist()):
            ratio = _refine_ratio(det[i], ddet[i], lam, smax[i], e[i])
            if not ratio <= ROOT_TOL:  # a NaN ratio fails too
                raise ConvergenceFailure(
                    i,
                    f"root {i} of (n={n}, mu={mu}) polished to relative "
                    f"determinant {ratio:.3e} > {ROOT_TOL:g}",
                )

    return SpectralSet(n=n, mu=float(mu), lambdas=tuple(sorted(lams.tolist())))


def _eigen_seeds(n: int, mu: float) -> np.ndarray:
    """Eigenvalues of the symmetrised tridiagonal matrix, ascending.

    The matrix has diagonal ``j*(n+1-j)`` and off-diagonal
    ``|mu|*sqrt((j+1)*(n-j))``.  It is filled densely (diagonal plus lower
    band) for numpy's symmetric eigensolver: LAPACK's reduction to
    tridiagonal form leaves an already tridiagonal matrix unchanged, and the
    eigenvalues then come from the same ``dsterf`` iteration that a dedicated
    tridiagonal solver runs, so the seeds match ``eigh_tridiagonal`` bit for
    bit (checked in the tests).
    """
    diag = [j * (n + 1.0 - j) for j in range(n + 1)]
    off = [abs(mu) * math.sqrt((j + 1.0) * (n - j)) for j in range(n)]
    if not math.isfinite(max(off, default=0.0)):
        raise InvalidParams(f"mu = {mu!r} overflows the eigenproblem at n = {n}")
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def _det_newton_extended(n: int, mu: float, lam: np.ndarray):
    """Determinant and its lambda-derivative in extended precision, per lambda.

    Same leading-minor recurrence as :func:`heun_poly._det_scan`, run on a
    1-D ``numpy.longdouble`` array of lambda at once and without
    renormalisation (the extended exponent range covers every degree this
    library targets).  Used to place spectral roots closer than the double
    recurrence's own cancellation noise allows.
    """
    ld = np.longdouble
    mu2 = ld(mu) * ld(mu)
    prev2, prev = np.ones_like(lam), lam
    dprev2, dprev = np.zeros_like(lam), np.ones_like(lam)
    for j in range(1, n + 1):
        dj = lam - ld(j * (n + 1 - j))
        cj = mu2 * ld(j * (n - j + 1))
        cur = dj * prev - cj * prev2
        dcur = dj * dprev + prev - cj * dprev2
        prev2, prev = prev, cur
        dprev2, dprev = dprev, dcur
    return prev, dprev


def _polish_extended(n: int, mu: float, seeds: np.ndarray) -> np.ndarray:
    """Newton steps on the determinant in extended precision, all roots at once.

    Cancellation noise in the double recurrence near a root can misplace it
    by tens of ulps, which downstream coefficient relations amplify.  A few
    extended-precision steps from the eigenvalue seeds land within an ulp of
    the true zeros.  Every pass evaluates :func:`_det_newton_extended` on the
    roots still moving, and each root keeps its own state: it stops once its
    step no longer changes it, and falls back to its own seed on any sign of
    trouble (non-finite values, a zero derivative, or a correction larger than
    the seed's error could explain) while the others go on.  The caller's
    ``ROOT_TOL`` gate then decides.
    """
    cap = 1e-8 * np.maximum(1.0, np.abs(seeds))
    cur = seeds.astype(np.longdouble)
    live = np.arange(seeds.size)  # indices of the roots still stepping
    for _ in range(8):
        if live.size == 0:
            break
        at = cur[live]
        det, ddet = _det_newton_extended(n, mu, at)
        ok = np.isfinite(det) & np.isfinite(ddet) & (ddet != 0)
        nxt = at - det / np.where(ok, ddet, 1)
        ok &= np.abs(nxt.astype(float) - seeds[live]) <= cap[live]
        cur[live[~ok]] = seeds[live[~ok]]
        moving = ok & (nxt != at)
        cur[live[moving]] = nxt[moving]
        live = live[moving]
    return cur.astype(float)


def symmetry_matrix(epsilon: int, d: DcheParams) -> np.ndarray:
    """Matrix of the reflection-symmetry relations for epsilon in {+1, -1}.

    Entries ``eps*c*delta(j,k) + mu*delta(j,n-k) - j*delta(j,n+1-k)`` with
    ``c = sqrt(lambda + mu**2)`` the positive inverse of twice the drive
    frequency.
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    disc = d.lam + d.mu**2
    if disc <= 0:
        raise NonPositiveDiscriminant(
            f"lambda + mu**2 = {disc!r} <= 0: no real frequency scale"
        )
    n = d.n
    j = np.arange(n + 1)
    g = epsilon * math.sqrt(disc) * np.eye(n + 1)
    g[j, n - j] += d.mu
    g[j[1:], n + 1 - j[1:]] -= j[1:]  # column n+1-j exists only for j >= 1
    return g


def factorization(d: DcheParams) -> tuple[float, int, float, float]:
    """The factorization of the system matrix by the two symmetry matrices.

    Returns ``(rel_dev, sign, det_plus, det_minus)``.  ``sign`` in {+1, -1}
    marks the better of ``G+ G- = +Phi`` / ``G+ G- = -Phi`` in the
    transposed orientation (the consistent outcome is sign = -1), and
    ``rel_dev`` is its largest entry deviation divided by
    ``max(1, max|G+ G-|)``.  ``det_plus`` and ``det_minus`` are the
    determinants of G+ and G-: their product matches the gate determinant in
    magnitude, so lambda is spectral iff one of the pair (numerically)
    vanishes.
    """
    gp = symmetry_matrix(1, d)
    gm = symmetry_matrix(-1, d)
    prod = gp @ gm
    phi_t = coefficient_matrix(d).T
    dev_minus = float(np.max(np.abs(prod + phi_t)))
    dev_plus = float(np.max(np.abs(prod - phi_t)))
    dev, sign = (dev_minus, -1) if dev_minus <= dev_plus else (dev_plus, 1)
    scale = max(1.0, float(np.max(np.abs(prod))))
    return dev / scale, sign, float(np.linalg.det(gp)), float(np.linalg.det(gm))


def _root_signs(n: int, mu: float, lambdas) -> list[int]:
    """Reflection sign of every root, for the ascending spectrum ``lambdas``.

    A root is the pair (lambda, epsilon): the two members of a
    near-degenerate pair carry opposite signs and can round to one double
    lambda.  The eigenvalues kappa of the Jacobi form of the reflection
    relations (``heun_poly._reflection_jacobi``) give
    ``lambda = kappa**2 - mu**2`` and ``epsilon = -sign(kappa)`` (+1 at 0).
    Ranked by ``(kappa**2 - mu**2, epsilon)`` they match ``lambdas`` in
    order; a pair whose ``lambdas`` are one double is ordered by epsilon.
    """
    mu2 = mu_squared(mu)
    kappa = np.linalg.eigvalsh(_reflection_jacobi(n, mu)[0])
    signs = np.where(kappa > 0, -1, 1).tolist()
    ranked = sorted(zip((kappa * kappa - mu2).tolist(), signs))
    return [eps for _, eps in sorted(zip(lambdas, (eps for _, eps in ranked)))]


def root_params(n: int, mu: float, root_index: int) -> tuple[DcheParams, int]:
    """Triplet and reflection sign ``(d, epsilon)`` of one spectral root.

    The triplet carries the polished lambda of :func:`lambda_spectrum` and
    the sign comes from :func:`_root_signs`; the root need not be physical.
    A drive whose square overflows a double raises ``InvalidParams`` here,
    before any polynomial work.
    """
    spectrum = lambda_spectrum(n, mu)
    if not 0 <= root_index < len(spectrum.lambdas):
        raise IndexOutOfRange(
            f"root index {root_index} outside [0, {len(spectrum.lambdas) - 1}]"
        )
    d = DcheParams(n=n, mu=float(mu), lam=spectrum.lambdas[root_index])
    return d, _root_signs(n, mu, spectrum.lambdas)[root_index]


def physical_point(
    n: int, mu: float, root_index: int
) -> tuple[RsjParams, DcheParams, int]:
    """Bias parameters realising one spectral root, with its triplet and sign.

    The recovered record has ``B = -(n+1)*omega`` exactly and positive
    drive frequency.
    """
    d, epsilon = root_params(n, mu, root_index)
    return dche_to_params(d), d, epsilon
