"""Spectrum of the determinant gate and its symmetry-matrix factorisation.

For fixed degree n and drive strength mu the determinant of the coefficient
system is a monic polynomial of degree n + 1 in lambda.  Its roots are the
eigenvalues of a tridiagonal matrix ``T`` with ``T[j][j] = j*(n+1-j)`` and
off-diagonal pair products ``mu**2*(j+1)*(n-j)``; since those products are
non-negative, ``T`` is similar to a real symmetric tridiagonal matrix and the
whole spectrum is real.  ``lambda_spectrum`` solves the symmetric problem with
numpy's dense symmetric eigensolver (the same LAPACK eigenvalue iteration as
a dedicated tridiagonal solver) and then
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
it kills names the root together with lambda.  The signs alternate along
the ascending spectrum, so ``root_params`` reads a root's sign from its
index alone (the proof is in its docstring).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, IndexOutOfRange, InvalidParams
from .dynamics import _MAX_SAMPLES
from .heun_poly import _by_degree, _det_scan, _take, coefficient_matrix
from .model import (
    DcheParams,
    finite_real,
    frequency_scale,
    mu_squared,
)

__all__ = [
    "DISC_MARGIN",
    "ROOT_TOL",
    "SpectralSet",
    "lambda_spectrum",
    "lambda_spectra",
    "symmetry_matrix",
    "factorization",
    "root_params",
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

#: Bound on the relative determinant (:func:`_relative_dets`) that every root
#: returned by :func:`lambda_spectrum` must meet.
ROOT_TOL = 1e-10

# Most roots in one run of lambda_spectra, and so the longest per-root array
# of its polish and scan: a grid is cut, in order, into runs of whole
# problems under it, and a problem with more roots runs alone.  At 4096 a
# long-double working array is 64 KiB, and a sweep over n <= 200 at four mu
# peaks at the memory of one spectrum at a time (8192 added 2 MB), no slower.
_BATCH = 2**12


@dataclass(frozen=True)
class SpectralSet:
    """All n + 1 real roots of the determinant gate, ascending."""

    n: int
    mu: float
    lambdas: tuple[float, ...]


def _relative_dets(lam, det, ddet, smax, e) -> np.ndarray:
    """|det| over the local determinant scale of every root, in log2 space.

    The arguments are per-root arrays: the roots and their scan
    (:func:`heun_poly._det_scan`).  The scale is the largest of 1, the
    recurrence's largest summand, and the first-variation magnitude
    |lam * d(det)/d(lam)|.  The variation term makes the criterion a
    *relative root-location* test: at a polished simple root the smallest
    representable |det| is about |ddet| * ulp(lam), which can dwarf
    ``ROOT_TOL * smax`` at large n and |mu| even though lam itself is
    accurate to the last bit.  All three mantissas share the 2**e frame, so
    only the constant 1 needs the frame correction; a zero term is -inf in
    log2 space and drops out of ``np.fmax``.  A NaN or non-finite scan
    gives a NaN or infinite ratio.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        variation = np.log2(np.abs(lam)) + np.log2(np.abs(ddet))
        log_scale = np.fmax(np.fmax(np.log2(smax), variation) + e, 0.0)
        x = np.log2(np.abs(det)) + e - log_scale
        return np.where(x < -1074.0, 0.0, np.where(x > 1023.0, np.inf, np.exp2(x)))


def lambda_spectrum(n: int, mu: float) -> SpectralSet:
    """All roots of the determinant gate at (n, mu): :func:`lambda_spectra`
    of the one problem."""
    return lambda_spectra([(n, mu)])[0]


def lambda_spectra(problems) -> list[SpectralSet]:
    """The spectrum of every ``(n, mu)`` in ``problems``, in their order.

    Eigenvalues of each problem's symmetrised tridiagonal matrix seed its
    roots.  The roots of many problems then go through one
    extended-precision polish (:func:`_polish_extended`) and one array scan
    of the determinant, each element with its own degree and drive, so a
    grid costs about as many numpy calls as its largest degree.  The scan
    gates every root: each must bring the determinant below ``ROOT_TOL``
    times the local determinant scale (largest recurrence summand or
    first-variation magnitude, whichever is bigger), or
    ``ConvergenceFailure`` names the lowest seed index that missed.  A root
    whose scan is not finite misses.  Where ``mu**2`` overflows a double no
    root is gated.

    The problems are computed in runs of at most ``_BATCH`` roots, a larger
    problem alone.  The first problem in order that fails -- an invalid
    ``(n, mu)`` or a root that misses the gate -- raises, and no run after
    it is computed.  Each mu is taken as a float, so each spectrum is bit for
    bit the one computed alone.
    """
    out: list[SpectralSet] = []
    run: list[tuple] = []
    width = 0  # roots in the run
    for n, mu in problems:
        try:
            mu = _checked_mu(n, mu)
            seeds = _eigen_seeds(n, mu)
        except InvalidParams:
            _polish_and_gate(run)  # an earlier problem's failure wins
            raise
        if run and width + seeds.size > _BATCH:
            out += _polish_and_gate(run)
            run, width = [], 0
        run.append((n, mu, seeds))
        width += seeds.size
    return out + _polish_and_gate(run)


def _checked_mu(n: int, mu: float) -> float:
    """``float(mu)`` of the problem ``(n, mu)``, or ``InvalidParams`` unless n
    is a non-negative int and mu a finite real.  A degree whose dense
    (n+1) x (n+1) seed matrix (:func:`_eigen_seeds`) would hold more than
    ``dynamics._MAX_SAMPLES`` doubles is refused before it is allocated."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidParams(f"degree n must be a non-negative int, got {n!r}")
    if (n + 1) ** 2 > _MAX_SAMPLES:
        raise InvalidParams(
            f"degree n = {n} needs a {n + 1} x {n + 1} eigenproblem, over "
            f"{_MAX_SAMPLES} doubles"
        )
    return finite_real("mu", mu)


def _polish_and_gate(run: list[tuple]) -> list[SpectralSet]:
    """Polish and gate the seeded problems ``(n, mu, seeds)`` of one run.

    The recurrences take the run stably sorted by degree, descending
    (:func:`heun_poly._by_degree`); the spectra come back, and the first
    failing problem raises, in the run's own order.
    """
    if not run:
        return []
    order = sorted(range(len(run)), key=lambda p: -run[p][0])
    sizes = [run[p][2].size for p in order]
    degrees = [run[p][0] for p in order]
    drives = [run[p][1] for p in order]
    # A degree or drive that the whole run shares goes to the kernels as a
    # Python scalar (mu only enters squared, so -0.0 shares with 0.0).
    n = degrees[0] if degrees[0] == degrees[-1] else np.repeat(degrees, sizes)
    mu = drives[0] if len(set(drives)) == 1 else np.repeat(drives, sizes)
    seeds = run[0][2] if len(run) == 1 else np.concatenate([run[p][2] for p in order])
    lams = _polish_extended(n, mu, seeds)
    # A root whose scan overflows misses the gate: no warning is due.
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = _relative_dets(lams, *_det_scan(n, mu, lams))
    start = dict(zip(order, itertools.accumulate(sizes, initial=0)))
    spectra = []
    for p, (n_, mu_, seeds) in enumerate(run):
        roots = slice(start[p], start[p] + seeds.size)
        # Where mu**2 overflows a double the determinant has no double value
        # to gate; every use of such a triplet raises InvalidParams (mu_squared).
        missed = np.flatnonzero(~(ratios[roots] <= ROOT_TOL))  # NaN misses too
        if missed.size and math.isfinite(mu_ * mu_):
            i = int(missed[0])
            raise ConvergenceFailure(
                i,
                f"root {i} of (n={n_}, mu={mu_}) polished to relative "
                f"determinant {ratios[roots][i]:.3e} > {ROOT_TOL:g}",
            )
        spectra.append(
            SpectralSet(n=n_, mu=mu_, lambdas=tuple(sorted(lams[roots].tolist())))
        )
    return spectra


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


def _det_newton_extended(n, mu, lam: np.ndarray):
    """Determinant and its lambda-derivative in extended precision, per lambda.

    Same leading-minor recurrence as :func:`heun_poly._det_scan`, run on a
    1-D ``numpy.longdouble`` array of lambda at once and without
    renormalisation (the extended exponent range covers every degree this
    library targets).  ``n`` and ``mu`` are scalars or per-element arrays
    with the degrees descending, laid out by :func:`heun_poly._by_degree`.
    Used to place spectral roots closer than the double recurrence's own
    cancellation noise allows.
    """
    ld = np.longdouble
    runs = _by_degree(n, lam.size)
    m = ld(mu)
    n1, mu2 = n + 1, m * m
    prev2, prev = np.ones_like(lam), lam
    dprev2, dprev = np.zeros_like(lam), np.ones_like(lam)
    done, step = [], 0
    for d, k, c in runs:
        if k < lam.size:
            lam, prev2, prev, dprev2, dprev, n1, mu2 = _take(
                slice(k), lam, prev2, prev, dprev2, dprev, n1, mu2
            )
        for j in range(step + 1, d + 1):
            q = j * (n1 - j)  # j*(n+1-j) = j*(n-j+1), an exact integer
            dj = lam - q
            cj = mu2 * q
            cur = dj * prev - cj * prev2
            dcur = dj * dprev + prev - cj * dprev2
            prev2, prev = prev, cur
            dprev2, dprev = dprev, dcur
        done.append((prev[k - c:], dprev[k - c:]))
        step = d
    if len(done) == 1:
        return done[0]
    return tuple(np.concatenate(blocks[::-1]) for blocks in zip(*done))


def _polish_extended(n, mu, seeds: np.ndarray) -> np.ndarray:
    """Newton steps on the determinant in extended precision, all roots at once.

    Cancellation noise in the double recurrence near a root can misplace it
    by tens of ulps, which downstream coefficient relations amplify.  A few
    extended-precision steps from the eigenvalue seeds land within an ulp of
    the true zeros.  ``n`` and ``mu`` are scalars or per-seed arrays with
    the degrees descending, so the roots of many problems polish together.
    Every pass evaluates :func:`_det_newton_extended` on the roots still
    moving, and each root keeps its own state: it stops once its step no
    longer changes it, and falls back to its own seed on any sign of trouble
    (non-finite values, a zero derivative, or a correction larger than the
    seed's error could explain) while the others go on.  The caller's
    ``ROOT_TOL`` gate then decides.
    """
    cap = 1e-8 * np.maximum(1.0, np.abs(seeds))
    cur = seeds.astype(np.longdouble)
    live = np.arange(seeds.size)  # indices of the roots still stepping
    for _ in range(8):
        if live.size == 0:
            break
        at = cur[live]
        # A root whose recurrence overflows falls back to its seed: no
        # warning is due.
        with np.errstate(over="ignore", invalid="ignore"):
            det, ddet = _det_newton_extended(*_take(live, n, mu), at)
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
    ``c = sqrt(lambda + mu**2)`` (:func:`model.frequency_scale`).
    """
    if epsilon not in (1, -1):
        raise InvalidParams(f"epsilon must be +1 or -1, got {epsilon!r}")
    n = d.n
    j = np.arange(n + 1)
    g = epsilon * frequency_scale(d) * np.eye(n + 1)
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
    with np.errstate(over="ignore", invalid="ignore"):  # certify types overflow
        return dev / scale, sign, float(np.linalg.det(gp)), float(np.linalg.det(gm))


def root_params(n: int, mu: float, root_index: int) -> tuple[DcheParams, int]:
    """Triplet and reflection sign ``(d, epsilon)`` of one spectral root.

    The triplet carries the polished lambda of :func:`lambda_spectrum`, read
    from :func:`_cached_lambdas` so that the roots of one problem share one
    computation; the root need not be physical.  ``InvalidParams`` for an
    invalid ``(n, mu)`` or a root index that is not an int, before any
    spectral work; a drive whose square overflows a double raises it too,
    before any polynomial work.

    The sign is the parity of the index: ``epsilon_i = -sigma*(-1)**i`` along
    the ascending spectrum, with ``sigma = -1`` where n is even and mu < 0,
    and +1 otherwise.  Proof sketch: a root is an eigenvalue kappa of the
    Jacobi form J of the reflection relations (``heun_poly._reflection_jacobi``),
    with ``lambda = kappa**2 - mu**2`` and ``epsilon = -sign(kappa)``, so
    ascending lambda is ascending |kappa|.  J is a zero-diagonal path matrix
    plus one entry d at its last diagonal position (mu for even n, -(n+1)/2
    for odd n), so ``char(J)(+-t) = p0(t) -+ d*q0(t)``: p0 is the
    characteristic polynomial of the zero-diagonal path, q0 that of the path
    without its last row and column, and p0/q0 is odd.  Where mu != 0 the
    zeros of q0 interlace those of p0, and between them p0/q0 rises
    monotonically from -inf to +inf; for even n it starts at 0 from t = 0.
    On t > 0 each branch thus meets the levels d (kappa = t, epsilon = -1) and
    -d (kappa = -t, epsilon = +1) once each, the lower level first, and the
    first branch for even n meets only the positive level.  So the signs
    alternate, starting at -1 unless n is even and d = mu < 0; kappa = 0 is
    never a root.

    At mu = 0 every root of degree n >= 1 is double, and
    ``build_polynomial`` refuses it; at n = 0 the root is lambda = 0 with
    c = 0, where both signs hold.  The rule takes sigma = -1 for even n at
    mu <= 0 there, which -0.0 shares with 0.0.
    """
    mu = _checked_mu(n, mu)
    if not isinstance(root_index, (int, np.integer)) or isinstance(root_index, bool):
        raise InvalidParams(f"root index must be an int, got {root_index!r}")
    if not 0 <= root_index <= n:
        lambda_spectrum(n, mu)  # a spectrum that cannot be computed raises first
        raise IndexOutOfRange(f"root index {root_index} outside [0, {n}]")
    lam = _cached_lambdas(n, mu)[root_index]
    mu_squared(mu)  # raises where the square overflows
    sigma = -1 if n % 2 == 0 and mu <= 0 else 1
    return DcheParams(n=n, mu=mu, lam=lam), -sigma if root_index % 2 == 0 else sigma


# Sized from the traffic of the certify benchmark: one cycle verifies every
# root of n <= 40 with 943 lookups of 236-240 distinct (n, mu), and a problem
# comes back after at most 232 other problems (about 69 in the median), so at
# 256 every repeat is a hit.  An entry at n = 400 holds 401 float lambdas,
# about 13 KB (sys.getsizeof), so a full cache of those is 3.3 MB.
@functools.lru_cache(maxsize=256)
def _cached_lambdas(n: int, mu: float) -> tuple[float, ...]:
    """The lambdas of :func:`lambda_spectrum` at a validated
    ``(n, float(mu))``.  An error is raised, not kept.

    The key is the float: mu = -0.0 reads the entry of 0.0, whose lambdas are
    the same.
    """
    return lambda_spectrum(n, mu).lambdas
