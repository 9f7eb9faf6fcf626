"""Spectrum of the determinant gate and its reflection factors.

For fixed degree n and drive strength mu the determinant of the coefficient
system is a monic polynomial of degree n + 1 in lambda.  Its roots are the
eigenvalues of a tridiagonal matrix ``T`` with ``T[j][j] = j*(n+1-j)`` and
off-diagonal pair products ``mu**2*(j+1)*(n-j)``; since those products are
non-negative, ``T`` is similar to a real symmetric tridiagonal matrix and the
whole spectrum is real.  ``lambda_spectrum`` solves the symmetric problem with
numpy's dense symmetric eigensolver (the same LAPACK eigenvalue iteration as
a dedicated tridiagonal solver) and then polishes all n + 1 roots together
in extended precision, each recurrence on the whole array of roots, so a
spectrum costs O(n) numpy calls per Newton pass.  A root whose |seed| is
at least mu**2/128 steps in kappa on its own reflection factor (below) from
the first pass, with lambda = kappa**2 - mu**2 carried beside kappa, and
every other root, near lambda = 0, on the determinant, by the gate's own
framed recurrence (:func:`heun_poly._continuant` on T) in long double.
A root whose step goes wrong falls back to its seed alone; one array scan
of the determinant then gates every returned root, in double, or in long
double where mu**2 overflows a double.

The reflection symmetry of the solutions induces two (n+1) x (n+1) matrices
G+ and G- (one per sign) with ``G+ G- = -Phi^T`` for the coefficient matrix
Phi at every lambda (checked in the test-suite, where both live as
oracles), so the determinant splits into the two factors det G+ and det G-,
and every spectral lambda kills one of them.  Each factor is a continuant
of the Jacobi form J of the reflection relations, ``det G_eps = det(J +
eps*c*I)``, evaluated in extended precision with its derivative on
arrays by the same framed recurrence (:func:`heun_poly._continuant` on J).
The polish and the coefficient build step on it; ``structure``'s check pass
reads it value only, at ``kappa = -+c``.  The sign of the factor that a
root kills names the root together with lambda.  The signs alternate
along the ascending spectrum, so
``root_params`` reads a root's sign from its index alone (the proof is in
its docstring), and the two roots of a near-degenerate pair kill different
factors: on its own factor, a pair root is a simple zero, and Newton
converges quadratically.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, IndexOutOfRange, InvalidParams
from .dynamics import _MAX_SAMPLES
from .heun_poly import _continuant, _take
from .model import DcheParams, finite_real, mu_squared

__all__ = [
    "DISC_MARGIN",
    "ROOT_TOL",
    "SpectralSet",
    "lambda_spectrum",
    "lambda_spectra",
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

    The arguments are per-root arrays: the roots and their full scan
    (:func:`heun_poly._continuant` on T).  The scale is the largest of 1,
    the recurrence's largest summand, and the first-variation magnitude
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
    whose scan is not finite misses.  The scan runs in long double where
    ``mu**2`` overflows a double.

    The problems are computed in runs of at most ``_BATCH`` roots, a larger
    problem alone, with a new run wherever the finiteness of ``mu**2``
    changes.  The first problem in order that fails -- an invalid
    ``(n, mu)`` or a root that misses the gate -- raises, and no run after
    it is computed.  Each mu is taken as a float, so each spectrum is bit for
    bit the one computed alone.
    """
    out: list[SpectralSet] = []
    run: list[tuple] = []
    width, wide = 0, False  # roots in the run; whether its mu**2 overflows
    for n, mu in problems:
        try:
            mu = _checked_mu(n, mu)
            seeds = _eigen_seeds(n, mu)
        except InvalidParams:
            _polish_and_gate(run)  # an earlier problem's failure wins
            raise
        if run and (width + seeds.size > _BATCH or wide != (mu * mu == math.inf)):
            out += _polish_and_gate(run)
            run, width = [], 0
        run.append((n, mu, seeds))
        width, wide = width + seeds.size, mu * mu == math.inf
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
    # mu**2 overflows a double at every drive of a run or at none.
    at = lams.astype(np.longdouble) if drives[0] * drives[0] == math.inf else lams
    # A root whose scan overflows misses the gate: no warning is due.
    with np.errstate(over="ignore", invalid="ignore"):
        scan = _continuant("T", n, mu, at, derivative=True, summand=True)
        ratios = _relative_dets(at, *scan)
    start = dict(zip(order, itertools.accumulate(sizes, initial=0)))
    spectra = []
    for p, (n_, mu_, seeds) in enumerate(run):
        roots = slice(start[p], start[p] + seeds.size)
        missed = (~(ratios[roots] <= ROOT_TOL)).nonzero()[0]  # NaN misses too
        if missed.size:
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
    bit (checked in the tests).  ``InvalidParams`` where an off-diagonal
    entry or an eigenvalue passes the double range.
    """
    diag = [j * (n + 1.0 - j) for j in range(n + 1)]
    off = [abs(mu) * math.sqrt((j + 1.0) * (n - j)) for j in range(n)]
    if not math.isfinite(max(off, default=0.0)):
        raise InvalidParams(f"mu = {mu!r} overflows the eigenproblem at n = {n}")
    band = np.diag(diag)
    band.flat[n + 1 :: n + 2] = off  # the subdiagonal
    seeds = np.linalg.eigvalsh(band)
    if not np.isfinite(seeds).all():  # the extreme ones overflow where no entry does
        raise InvalidParams(f"mu = {mu!r} overflows the eigenproblem at n = {n}")
    return seeds


def _root_signs(n, mu, index):
    """Reflection sign of root ``index`` (ascending) of ``(n, mu)`` by the
    parity rule of :func:`root_params`; scalars or arrays that broadcast."""
    sigma = 1 - 2 * ((n % 2 == 0) & (mu <= 0))  # plain ints for scalars
    return sigma * (2 * (index & 1) - 1)


# Newton passes of the polish.
_PASSES = 8

# A Newton step stops its root once it is at most this fraction of a double
# ulp: 1/256 with the 64-bit mantissa of x87 extended precision, and one ulp
# where long double is plain double, since no smaller step can be taken.
_STEP_STOP = max(2.0**-8, float(np.finfo(np.longdouble).eps / np.finfo(float).eps))

# Rounding noise of a long-double Newton step on a reflection factor at its
# root, in double ulps: seven long-double ulps.  Once a factor root has
# converged, its next step is that noise, at most 6.94 long-double ulps over
# n <= 110 at the eight mu of scripts/polish_report.py; a kappa step moves
# lambda by at most three long-double ulps of the larger of |lambda| and
# lambda + mu**2 there.  Where long double is plain double this exceeds
# _STEP_STOP, and no root stops on :func:`_kappa_step_bound`.
_STEP_NOISE = 7 * float(np.finfo(np.longdouble).eps / np.finfo(float).eps)

# A seed steps in kappa on its factor where |seed| is at least this fraction
# of mu**2, which the rounding bound of :func:`_polish_extended` covers.
_KAPPA_COVER = 2.0**-7


def _kappa_gaps(seeds, mu, cap, signs, start) -> np.ndarray:
    """Per seed, the distance from its kappa, ``-sign * sqrt(seed +
    mu**2)``, to the nearest other seed's kappa of its problem (``start``
    names the problem), less the ``slack`` of both: how far in kappa a value
    within ``cap`` of the seed in lambda can lie.  Where every root lies
    within the cap of its seed, no kappa within the cap of a seed comes
    nearer than that to another root.  One lexsort over the run finds the
    neighbours; a problem of one root gives inf.
    """
    a = np.maximum(seeds + mu * mu, 0.0)
    root = np.sqrt(a)
    kappa = -signs * root
    # Where a < cap the value may lie at kappa of either sign.
    below = root - np.sqrt(np.maximum(a - cap, 0.0))
    slack = np.where(a < cap, root + np.sqrt(a + cap), below)
    order = np.lexsort((kappa, start))
    kappa, slack, start = kappa[order], slack[order], start[order]
    same, apart = start[1:] == start[:-1], kappa[1:] - kappa[:-1]
    near = np.empty(seeds.size)
    near[-1] = np.inf
    near[:-1] = np.where(same, apart - slack[1:], np.inf)
    near[1:] = np.minimum(near[1:], np.where(same, apart - slack[:-1], np.inf))
    gaps = np.empty(seeds.size)
    gaps[order] = near - slack
    return gaps


def _kappa_step_bound(step, kappa, n, gap):
    """Bound on how far the next Newton step in kappa on a reflection factor
    moves lambda = kappa**2 - mu**2, after the step ``step`` to ``kappa``,
    rounding noise aside.

    The factor is a polynomial in kappa with n + 1 simple real roots; at x,
    ``R = sum_{i != k} 1/(x - kappa_i)`` over the roots other than the one
    sought, and ``|R| <= n / gap`` (:func:`_kappa_gaps`).  A step d from x
    with error e is ``d = e / (1 + e*R)``, so it leaves the error ``e' = e -
    d = d**2 * R / (1 - d*R)``, and the next step is ``d' = e' / (1 +
    e'*R')``.  Where ``4 * |d| * n <= gap``, ``|d*R| <= 1/4``, so ``|e'| <=
    4/3 * d**2 * n / gap``, ``|e'*R'| <= 1/12`` and ``|d'| <= 16/11 * d**2 *
    n / gap``, below ``b = 2 * d**2 * n / gap``.  Through the new kappa, d'
    moves lambda by ``|2*kappa*d' - d'**2| <= b * (2*|kappa| + b)``, the
    value returned.  A step too long for the proof gives inf, a gap that is
    not positive inf or NaN.
    """
    s, k = np.abs(step.astype(float)), np.abs(kappa.astype(float))
    b = 2 * s * s * n / np.fmax(gap, 0.0)
    return np.where(4 * s * n <= gap, b * (2 * k + b), np.inf)


def _polish_extended(n, mu, seeds: np.ndarray) -> np.ndarray:
    """Newton steps in extended precision from the eigenvalue seeds, all
    roots at once.

    Cancellation noise in the double recurrence near a root can misplace it
    by tens of ulps, which downstream coefficient relations amplify, so the
    roots are polished in long double.  ``n`` and ``mu`` are scalars or
    per-seed arrays with the degrees descending, and each problem's seeds
    come whole and ascending, so the roots of many problems polish together
    and a seed's index in its problem is its place in its degree's block
    modulo n + 1.

    The roots split once, by seed, onto two kernels.  The determinant is
    -det G+ * det G-, and each root kills exactly the factor of its own sign
    (:func:`root_params`).  Where two roots are closer than the seed's
    error, a near-degenerate pair, the determinant has a double zero to
    working precision and Newton on it converges only linearly, but each
    root is still a simple zero of its own factor det(J - kappa*I), where
    Newton converges quadratically.  Both are :func:`heun_poly._continuant`
    with its derivative, on T and on J.  So:

    * a root whose |seed| is at least mu**2/128 (``_KAPPA_COVER``) steps
      in kappa on its own factor, from ``kappa = -epsilon*sqrt(max(seed +
      mu**2, 0))``, with lambda = kappa**2 - mu**2 formed from it in long
      double and then carried beside kappa: a step d in kappa moves lambda
      by exactly d*(2*kappa - d), and lambda takes that step.  kappa**2 is
      at most 129*|lambda| below mu**2 and 2*lambda above it, so forming
      lambda costs at most 130 * 2**-64 * |lambda|, under 1/15 of a double
      ulp, and each step only the rounding of a correction far below
      lambda.  The rounding of kappa itself never reaches lambda; read
      back as kappa**2 - mu**2, each long-double ulp of kappa would move
      lambda by up to kappa**2 * 2**-62, about 1/4 ulp at the cover's edge;
    * every other root steps on the determinant: a seed within mu**2/128
      of lambda = 0, where kappa**2 - mu**2 would cancel more than seven
      bits.  Once |mu| is large against n that is every root, as |lambda|
      is then at most about n*|mu|.  The kernel is the gate's recurrence
      on long-double lambda; its power-of-two frames hold a determinant
      whose powers of mu**2 pass the long-double range, and det and its
      derivative share a frame, so the Newton step is frame-free, as is
      the factor's.

    A root stops once its step is at most ``_STEP_STOP`` of a double ulp,
    1/256; at most ``_PASSES`` passes run.  A factor root also stops once
    its step proves the next one that small: the bound of
    :func:`_kappa_step_bound`, mapped to lambda through the new kappa, with
    the distance to its neighbours from :func:`_kappa_gaps`, plus
    ``_STEP_NOISE``, is at most ``_STEP_STOP``.  Nearly every factor root
    thus takes one pass.  A determinant root has no such proof: its steps
    can sit at the determinant's noise floor.

    These figures assume the 64-bit mantissa of x87 extended precision,
    which ``numpy.longdouble`` has on x86-64 Linux.  Where long double is
    plain double, the polish runs in double, a step stops at one ulp, no
    root stops on the bound, and the roots are no more accurate than double
    Newton leaves them.

    Each root keeps its own state: on any sign of trouble (non-finite
    values, a zero derivative, or a correction larger than the seed's error
    could explain) it falls back to its seed while the others go on.  The
    caller's ``ROOT_TOL`` gate then decides.
    """
    ld = np.longdouble
    cap = 1e-8 * np.maximum(1.0, np.abs(seeds))
    cur = seeds.astype(ld)
    m2 = ld(mu) ** 2
    on_factor = np.abs(cur) >= m2 * _KAPPA_COVER
    live, factor = (~on_factor).nonzero()[0], on_factor.nonzero()[0]
    # Each degree's block starts where its first seed sits.
    place = np.arange(seeds.size)
    first = np.searchsorted(-n, -n) if isinstance(n, np.ndarray) else 0
    index = (place - first) % (n + 1)
    signs = _root_signs(n, mu, index)

    def advance(roots, at, nxt, moved, ok, bound):
        """Take each root's step to ``nxt``, or its seed where it is in
        trouble; the mask of the roots still moving: neither the step,
        ``moved`` in lambda, nor the ``bound`` on the next one has met the
        stop."""
        seed = seeds[roots]
        ok &= np.abs(nxt.astype(float) - seed) <= cap[roots]
        cur[roots] = np.where(ok, nxt, seed)
        ulp = np.abs(np.spacing(at.astype(float)))
        proved = bound <= ulp * (_STEP_STOP - _STEP_NOISE)  # a NaN bound proves nothing
        return ok & (moved > ulp * _STEP_STOP) & ~proved

    # A root whose recurrence overflows falls back: no warning is due.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if factor.size:
            eps, mu2 = _take(factor, signs, m2)
            gap = _kappa_gaps(seeds, mu, cap, signs, place - index)[factor]
            kappa = -eps * np.sqrt(np.maximum(cur[factor] + mu2, 0))
            cur[factor] = kappa * kappa - mu2
        for _ in range(_PASSES):
            if live.size:
                at = cur[live]
                n_, mu_ = _take(live, n, mu)
                det, ddet, _, _ = _continuant("T", n_, mu_, at, derivative=True)
                ok = np.isfinite(det) & np.isfinite(ddet) & (ddet != 0)
                step = det / np.where(ok, ddet, 1)
                live = live[advance(live, at, at - step, np.abs(step), ok, np.inf)]
            if factor.size:
                at = cur[factor]
                n_, mu_ = _take(factor, n, mu)
                g, dg, _, _ = _continuant("J", n_, mu_, kappa, derivative=True)
                # The step d in kappa moves lambda = kappa**2 - mu**2 by
                # d*(2*kappa - d), exactly; lambda takes that step beside
                # kappa rather than being formed from the rounded kappa.
                d = g / dg
                step = d * (2 * kappa - d)
                kappa = kappa - d
                nxt = at - step
                bound = _kappa_step_bound(d, kappa, n_, gap)
                ok = np.isfinite(nxt)
                moving = advance(factor, at, nxt, np.abs(step), ok, bound)
                factor, gap, kappa = _take(moving, factor, gap, kappa)
    return cur.astype(float)


def root_params(n: int, mu: float, root_index: int) -> tuple[DcheParams, int]:
    """Triplet and reflection sign ``(d, epsilon)`` of one spectral root.

    The triplet carries the polished lambda of :func:`lambda_spectrum`, read
    from the cache :func:`_lambdas` so that the roots of one problem share
    one computation; the root need not be physical.  ``InvalidParams`` for an
    invalid ``(n, mu)``, a drive whose square overflows a double or a root
    index that is not an int, before any spectral work.

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
    mu_squared(mu)  # raises where the square overflows
    lambdas = _lambdas(n, mu)  # a spectrum that cannot be computed raises first
    if not 0 <= root_index <= n:
        raise IndexOutOfRange(f"root index {root_index} outside [0, {n}]")
    d = DcheParams(n=n, mu=mu, lam=lambdas[root_index])
    return d, int(_root_signs(n, mu, root_index))


# Sized from the traffic of the certify benchmark: one cycle verifies every
# root of n <= 40 and misses this cache 236 times in 1,962 calls, and a
# problem comes back after at most 215 other problems (70 in the median), so
# at 256 every repeat is a hit.  An entry at n = 400 holds 401
# float lambdas, about 13 KB (sys.getsizeof).  An error is raised, not kept.
@functools.lru_cache(maxsize=256)
def _lambdas(n: int, mu: float) -> tuple[float, ...]:
    """The lambdas of :func:`lambda_spectrum` at a validated ``(n,
    float(mu))``, cached so that the roots of one problem share one
    computation.  The key is the float: mu = -0.0 reads the entry of 0.0,
    whose lambdas are the same (mu enters the recurrences squared)."""
    return lambda_spectrum(n, mu).lambdas
