"""Spectral roots, reflection matrices, and physical-point recovery."""

import functools
import math
import random
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from heun_rsj import cli, heun_poly, spectral, structure
from heun_rsj.errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InvalidParams,
    NonPositiveDiscriminant,
)
from heun_rsj.heun_poly import _continuant
from heun_rsj.model import DcheParams, dche_to_params
from heun_rsj.spectral import (
    DISC_MARGIN,
    ROOT_TOL,
    SpectralSet,
    lambda_spectra,
    lambda_spectrum,
    root_params,
)

from helpers import clear_caches, gate_scan, reflection_dets, same_values, scaled_scan
from identities import coefficient_matrix, factorization, symmetry_matrix
from oracles import (
    _refine_ratio,
    mpmath_root,
    reflection_jacobi_dense,
    signed_spectrum,
    spectral_det,
    sturm_counts,
    symmetry_matrix_loop,
)


def _eigen_oracle(n: int, mu: float) -> np.ndarray:
    """Roots of the determinant via LAPACK on the companion of the system.

    The coefficient matrix is lambda*I + C with C independent of lambda, so
    the determinant's roots are exactly the eigenvalues of -C.  This route
    shares no code with the recurrence-plus-Newton implementation.
    """
    c = coefficient_matrix(DcheParams(n=n, mu=mu, lam=0.0))
    return np.linalg.eigvals(-c)


def _scipy_seeds(n: int, mu: float) -> np.ndarray:
    """Eigenvalue seeds from scipy's dedicated tridiagonal solver."""
    if n == 0:
        return np.array([0.0])
    diag = np.array([j * (n + 1.0 - j) for j in range(n + 1)])
    off = np.array([abs(mu) * math.sqrt((j + 1.0) * (n - j)) for j in range(n)])
    return eigh_tridiagonal(diag, off, eigvals_only=True)


_ORACLE_DEGREES = list(range(61)) + list(range(67, 250, 7))


def _kappa_gaps_loop(n: int, mu: float, seeds) -> list[float]:
    """Reference for :func:`spectral._kappa_gaps` on seeds laid out as whole
    ascending spectra of (n, mu), over every pair of a problem: per seed,
    the least distance from its kappa to another seed's kappa, less the
    kappa slack of both that the polish cap allows.  Where seed + mu**2 is
    below the cap, the value may lie at kappa of either sign."""
    signs = _parity_signs(n, mu, len(seeds))
    kappa, slack = [], []
    for x, eps in zip(seeds, signs):
        a = max(x + mu * mu, 0.0)
        cap = 1e-8 * max(1.0, abs(x))
        kappa.append(-eps * math.sqrt(a))
        if a < cap:
            slack.append(math.sqrt(a) + math.sqrt(a + cap))
        else:
            slack.append(math.sqrt(a) - math.sqrt(a - cap))
    gaps = []
    for k in range(len(seeds)):
        block = range(k - k % (n + 1), min(k - k % (n + 1) + n + 1, len(seeds)))
        near = min(
            (abs(kappa[j] - kappa[k]) - slack[j] for j in block if j != k),
            default=math.inf,
        )
        gaps.append(near - slack[k])
    return gaps


def _route(n: int, mu: float, seed: float) -> str:
    """The polish kernel of a seed: its own factor (``"factor"``, Newton in
    kappa) where |seed| is at least mu**2/128, the determinant (``"det"``)
    otherwise; compared in long double."""
    ld = np.longdouble
    return "factor" if abs(ld(seed)) * 128 >= ld(mu) ** 2 else "det"


def _polish_loop(n: int, mu: float, seed: float, eps: int, gap: float) -> float:
    """One-root reference for :func:`spectral._polish_extended`, for the root
    of sign ``eps`` on its :func:`_route`, until a step is at most 1/256 of
    a double ulp.  A factor root starts at ``kappa = -eps*sqrt(max(seed +
    mu**2, 0))`` and ``lambda = kappa**2 - mu**2``; a step d in kappa moves
    lambda by ``d*(2*kappa - d)``.  It also stops its root where ``4*|d|*n
    <= gap``, with ``gap`` from :func:`_kappa_gaps_loop`, and ``b *
    (2*|kappa'| + b)``, ``b = 2*d**2*n/gap`` at the new kappa', is at most
    1/256 less seven long-double ulps (1/2048 each) of a double ulp.  In
    trouble the root falls back to its seed."""
    ld = np.longdouble
    cap = 1e-8 * max(1.0, abs(seed))
    cur, m2 = ld(seed), ld(mu) ** 2
    route = _route(n, mu, seed)
    if route == "factor":
        kappa = -eps * np.sqrt(max(cur + m2, ld(0)))
        cur = kappa * kappa - m2
    for _ in range(8):
        ulp = abs(np.spacing(float(cur)))
        proved = False
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if route == "factor":
                g, dg, _, _ = spectral._continuant(
                    "J", n, mu, np.array([kappa]), derivative=True
                )
                d = g[0] / dg[0]
                step = d * (2 * kappa - d)
                kappa = kappa - d
                nxt = cur - step
                ok = np.isfinite(nxt)
                s, k = abs(float(d)), abs(float(kappa))
                if ok and gap > 0 and 4 * s * n <= gap:
                    b = 2 * s * s * n / gap
                    proved = b * (2 * k + b) <= ulp * (2**-8 - 7 * 2**-11)
            else:
                det, ddet, _, _ = spectral._continuant(
                    "T", n, mu, np.array([cur]), derivative=True
                )
                step = det[0] / ddet[0]
                nxt = cur - step
                ok = np.isfinite(det[0]) and np.isfinite(ddet[0]) and ddet[0] != 0
        if not ok or abs(float(nxt) - seed) > cap:
            return seed
        if proved or abs(step) <= ulp / 256:
            return float(nxt)
        cur = nxt
    return float(cur)


def _parity_signs(n: int, mu: float, size: int) -> list[int]:
    """Signs of ``size`` seeds laid out as whole ascending spectra of (n, mu):
    the parity rule of ``root_params`` at each seed's index mod n + 1."""
    sigma = -1 if n % 2 == 0 and mu <= 0 else 1
    return [-sigma if i % (n + 1) % 2 == 0 else sigma for i in range(size)]


@pytest.fixture
def fresh_memo():
    """Empty spectrum and check-row caches on entry and on exit, for a test
    that patches spectral internals: it reads no spectrum that another test
    left, and leaves none computed under its patch."""
    clear_caches()
    yield
    clear_caches()


class TestSpectrum:
    def test_container(self):
        spectrum = lambda_spectrum(2, 1.0)
        assert isinstance(spectrum, SpectralSet)
        assert spectrum.n == 2 and spectrum.mu == 1.0
        assert len(spectrum.lambdas) == 3
        assert list(spectrum.lambdas) == sorted(spectrum.lambdas)

    @pytest.mark.parametrize("mu", [0.1, 0.5, 1.0, 2.0])
    def test_degree_one_closed_form(self, mu):
        root_hi = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mu**2))
        root_lo = 0.5 * (1.0 - math.sqrt(1.0 + 4.0 * mu**2))
        lams = lambda_spectrum(1, mu).lambdas
        assert lams[0] == pytest.approx(root_lo, abs=1e-12)
        assert lams[1] == pytest.approx(root_hi, abs=1e-12)

    @pytest.mark.parametrize("n", range(11))
    def test_degenerate_spectrum_at_zero_mu(self, n):
        expected = sorted(j * (n + 1 - j) for j in range(n + 1))
        lams = lambda_spectrum(n, 0.0).lambdas
        assert len(lams) == n + 1
        for got, want in zip(lams, expected):
            assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 2.5, -1.5])
    def test_matches_eigenvalue_oracle(self, n, mu):
        eigs = _eigen_oracle(n, mu)
        scale = float(np.max(np.abs(eigs))) + 1.0
        assert np.max(np.abs(eigs.imag)) <= 1e-8 * scale
        lams = np.asarray(lambda_spectrum(n, mu).lambdas)
        np.testing.assert_allclose(
            lams, np.sort(eigs.real), atol=1e-8 * scale, rtol=0.0
        )

    @given(
        n=st.integers(min_value=0, max_value=16),
        mu=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_trace_identity(self, n, mu):
        lams = lambda_spectrum(n, mu).lambdas
        assert len(lams) == n + 1
        trace = n * (n + 1) * (n + 2) / 6.0
        assert math.fsum(lams) == pytest.approx(
            trace, rel=1e-9, abs=1e-9 * (1.0 + abs(trace))
        )

    @given(mu=st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=60, deadline=None)
    def test_product_identity_degree_three(self, mu):
        # The determinant is monic of degree 4 in lam, so its value at
        # lam = 0 equals the plain product of the roots, and a hand
        # expansion gives Delta_3(0, mu) = 9 mu^4 - 36 mu^2.
        lams = lambda_spectrum(3, mu).lambdas
        product = math.prod(lams)
        assert product == pytest.approx(
            9.0 * mu**4 - 36.0 * mu**2, rel=1e-9, abs=1e-9
        )

    @pytest.mark.parametrize("n,mu", [(2, 0.7), (5, 1.3), (9, 3.1)])
    def test_even_in_mu(self, n, mu):
        plus = lambda_spectrum(n, mu).lambdas
        minus = lambda_spectrum(n, -mu).lambdas
        np.testing.assert_allclose(plus, minus, rtol=1e-13, atol=1e-13)

    def test_deterministic(self):
        a = lambda_spectrum(7, 1.7).lambdas
        b = lambda_spectrum(7, 1.7).lambdas
        assert a == b

    def test_frozen_case(self):
        # Spectrum at (n, mu) = (3, 2); the middle root is exactly zero
        # because 9 mu^4 = 36 mu^2 there.
        lams = lambda_spectrum(3, 2.0).lambdas
        expected = [
            -3.4093460986882986,
            0.0,
            4.2075669460562528,
            9.2017791526320458,
        ]
        assert abs(lams[1]) <= 1e-13
        assert lams[0] == pytest.approx(expected[0], rel=1e-12)
        assert lams[2] == pytest.approx(expected[2], rel=1e-12)
        assert lams[3] == pytest.approx(expected[3], rel=1e-12)

    @pytest.mark.parametrize("n", [1, 4, 9, 14, 20])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 3.0, -2.0, 5.0])
    def test_roots_zero_the_determinant(self, n, mu):
        # At large n the determinant is so steep near its roots that its
        # value changes by a sizeable fraction of the det scale between
        # adjacent doubles, so the summand scale alone is not a usable
        # yardstick.  Fold in |lam * Delta'| (finite differences): the
        # bound then certifies each root to ~1e-9 relative accuracy.
        for lam in lambda_spectrum(n, mu).lambdas:
            d = DcheParams(n=n, mu=mu, lam=lam)
            h = 1e-6 * max(1.0, abs(lam))
            slope = (
                spectral_det(DcheParams(n=n, mu=mu, lam=lam + h))[0]
                - spectral_det(DcheParams(n=n, mu=mu, lam=lam - h))[0]
            ) / (2.0 * h)
            det, det_scale = spectral_det(d)
            scale = max(det_scale, abs(lam * slope), abs(h * slope))
            assert abs(det) <= 1e-9 * scale

    @pytest.mark.parametrize("n", [136, 137, 249])
    def test_mu_zero_double_roots_pass_the_gate(self, n):
        # Every root j*(n+1-j) is double at mu = 0: the scan reaches an exact
        # zero while its frame holds only a subnormal summand maximum, and
        # the frame shift must stay finite there.
        lams = lambda_spectrum(n, 0.0).lambdas
        assert lams == tuple(sorted(float(j * (n + 1 - j)) for j in range(n + 1)))
        lams = np.array(lams)
        det, ddet, smax, e = gate_scan(n, 0.0, lams)
        assert np.all(np.isfinite(det) & np.isfinite(ddet) & np.isfinite(smax))
        assert np.all(spectral._relative_dets(lams, det, ddet, smax, e) <= ROOT_TOL)

    @pytest.mark.usefixtures("fresh_memo")
    def test_unpolished_root_fails_the_gate(self, monkeypatch):
        # The gate on the returned roots is the only guard between a bad
        # polish and the caller: a root one part in 1e6 off must not pass.
        monkeypatch.setattr(
            spectral,
            "_polish_extended",
            lambda n, mu, seeds: seeds + 1e-6 * np.maximum(1.0, np.abs(seeds)),
        )
        with pytest.raises(ConvergenceFailure) as err:
            lambda_spectrum(5, 1.0)
        assert err.value.root_index == 0

    # (22, 7.3) has roots on both kernels: root 6 on the determinant.
    @pytest.mark.parametrize(
        "n,mu", [(1, 0.5), (5, 1.0), (30, -2.2), (60, 1.82), (22, 7.3)]
    )
    def test_array_polish_matches_one_root_loop(self, n, mu):
        # Seeds a hair off the roots converge; most seeds halfway between
        # two roots step past the cap and fall back to themselves.
        roots = np.array(lambda_spectrum(n, mu).lambdas)
        seeds = np.concatenate([roots * (1.0 + 1e-12), (roots[1:] + roots[:-1]) / 2.0])
        got = spectral._polish_extended(n, mu, seeds)
        signs = _parity_signs(n, mu, seeds.size)
        gaps = _kappa_gaps_loop(n, mu, seeds.tolist())
        want = [_polish_loop(n, mu, *root) for root in zip(seeds.tolist(), signs, gaps)]
        assert got.tolist() == want
        assert np.all(got[: n + 1] != seeds[: n + 1])
        assert np.any(got[n + 1:] == seeds[n + 1:])

    @pytest.mark.parametrize(
        "n,mu,k", [(5, 1.0, 2), (12, 1.3, 0), (40, -0.7, 40), (14, 7.3, 5)]
    )
    @pytest.mark.parametrize("moved", [False, True])
    @pytest.mark.usefixtures("fresh_memo")
    def test_fallback_stays_in_its_own_root(self, monkeypatch, n, mu, k, moved):
        # The polish runs every root through one array recurrence.  A root
        # whose kernel turns non-finite -- at its seed, or once its first
        # step has moved it -- must fall back to its own seed and leave
        # every other root exactly as the clean run polishes it.  Root k
        # steps on its own factor, above mu**2 or below it (_route), or on
        # the determinant, whose long-double scans are poisoned and the gate's
        # double scan is not.  A factor root stops on the bound of its first
        # step, so its kernel never sees it moved, and it polishes as in the
        # clean run; the determinant root of (14, 7.3) takes eight passes.
        polish = spectral._polish_extended
        polished = []

        def spy(n_, mu_, seeds):
            polished.append((np.array(seeds), polish(n_, mu_, seeds)))
            return polished[-1][1]

        monkeypatch.setattr(spectral, "_polish_extended", spy)
        clean = lambda_spectrum(n, mu).lambdas
        seeds, clean_roots = polished.pop()
        assert clean_roots[k] != seeds[k]  # the clean polish moves root k

        ld = np.longdouble
        route = "det" if (n, mu, k) == (14, 7.3, 5) else "factor"
        assert _route(n, mu, seeds[k]) == route
        on_factor = route != "det"
        if on_factor:
            matrix = "J"
            eps = _parity_signs(n, mu, n + 1)[k]
            at = -eps * np.sqrt(ld(seeds[k]) + ld(mu) ** 2)  # kappa at the seed
        else:
            matrix, at = "T", ld(seeds[k])
        kernel = spectral._continuant

        def poisoned(matrix_, n_, mu_, x, **modes):
            value, *rest = kernel(matrix_, n_, mu_, x, **modes)
            hit = np.abs(x - at) <= 1e-9 * max(1.0, abs(at))
            hit &= (x.dtype == ld) & (matrix_ == matrix)
            if moved:
                hit &= x != at
            return np.where(hit, np.nan, value), *rest

        monkeypatch.setattr(spectral, "_continuant", poisoned)
        try:
            got = lambda_spectrum(n, mu).lambdas
        except ConvergenceFailure as err:
            assert err.root_index == k
            got = None
        _, roots = polished.pop()
        want = clean_roots[k] if moved and on_factor else seeds[k]
        assert roots[k] == want
        others = np.arange(n + 1) != k
        assert np.array_equal(roots[others], clean_roots[others])
        if got is not None:
            assert got[k] == want
            assert got[:k] + got[k + 1:] == clean[:k] + clean[k + 1:]

    @pytest.mark.parametrize("mu", [0.0, 0.37, -1.3, 1e3])
    @pytest.mark.usefixtures("fresh_memo")
    def test_seeds_and_roots_match_scipy_oracle(self, monkeypatch, mu):
        # The dense numpy eigensolver must give scipy's tridiagonal
        # eigenvalues bit for bit, and so the polished roots too.
        for n in _ORACLE_DEGREES:
            seeds = spectral._eigen_seeds(n, mu)
            assert seeds.tobytes() == _scipy_seeds(n, mu).tobytes(), n
        got = [lambda_spectrum(n, mu).lambdas for n in _ORACLE_DEGREES]
        monkeypatch.setattr(spectral, "_eigen_seeds", _scipy_seeds)
        for n, lams in zip(_ORACLE_DEGREES, got):
            want = lambda_spectrum(n, mu).lambdas
            assert np.array(lams).tobytes() == np.array(want).tobytes(), n

    @pytest.mark.parametrize("n", [60, 110, 200, 300])
    @pytest.mark.parametrize("mu", [0.2, 1.82, -1.3, 3.0])
    def test_moments_and_gate_at_sweep_degrees(self, n, mu):
        # The trace of T and of T**2 fix the first two moments of the
        # spectrum exactly, at any degree; every returned root must also
        # clear the ROOT_TOL gate on its own.
        lams = lambda_spectrum(n, mu).lambdas
        assert len(lams) == n + 1
        s1 = n * (n + 1) * (n + 2) / 6.0
        s2 = math.fsum(float(j * (n + 1 - j)) ** 2 for j in range(n + 1))
        s2 += 2.0 * mu * mu * math.fsum(float((j + 1) * (n - j)) for j in range(n))
        assert abs(math.fsum(lams) - s1) <= 1e-12 * s1
        assert abs(math.fsum(x * x for x in lams) - s2) <= 1e-12 * s2
        lams = np.array(lams)
        ratios = spectral._relative_dets(lams, *gate_scan(n, mu, lams))
        assert np.all(ratios <= ROOT_TOL)

    @pytest.mark.xfail(strict=True, raises=ConvergenceFailure)
    def test_gate_at_huge_mu(self):
        # The middle root of every even n >= 2 misses ROOT_TOL once
        # |mu| >= 1e10: a relative determinant of 7.7e-8 here.  A fix of the
        # gate at large mu turns this into a failure that asks for the
        # marker to go.
        assert len(lambda_spectrum(40, 1e10).lambdas) == 41


# A mixed grid: degree 0, mu = 0 (double roots), negative and descending
# mu, a duplicate pair, n = 300 (where the scan renormalises its frames)
# and mu = 1e200 (mu**2 overflows a double, so its run is gated in long
# double).
_MIXED_GRID = [
    (7, 2.5), (0, 0.7), (12, 0.0), (12, -2.3), (40, 1.82), (40, 1.82),
    (7, 0.4), (300, 1.3), (5, 1e200), (2, -0.7), (0, 0.0), (60, 0.25),
    (1, 3.0), (33, -1.1), (7, 2.5),
]


def _bits(spectra) -> list:
    return [(s.n, s.mu, np.array(s.lambdas).tobytes()) for s in spectra]


class TestSpectra:
    def test_batch_matches_one_at_a_time(self):
        got = lambda_spectra(_MIXED_GRID)
        want = [lambda_spectrum(n, mu) for n, mu in _MIXED_GRID]
        assert _bits(got) == _bits(want)
        assert lambda_spectra([]) == []

    def test_large_degree_renormalises(self):
        # The n = 300 point of the mixed grid exercises the scan's
        # +-300 frame shift, and the mu = 1e200 point takes the long-double
        # gate.
        lams = np.array(lambda_spectrum(300, 1.3).lambdas)
        assert np.all(gate_scan(300, 1.3, lams)[3] != 0)
        assert len(lambda_spectrum(5, 1e200).lambdas) == 6

    # At cap 9 the first two problems (8 + 1 roots) fill a run exactly.
    @pytest.mark.parametrize("cap", [1, 7, 9, 60, 400])
    @pytest.mark.usefixtures("fresh_memo")
    def test_runs_under_a_lowered_cap(self, monkeypatch, cap):
        want = _bits(lambda_spectra(_MIXED_GRID))
        runs = []
        solve = spectral._polish_and_gate

        def spy(run):
            runs.append([(n, mu) for n, mu, _ in run])
            return solve(run)

        monkeypatch.setattr(spectral, "_BATCH", cap)
        monkeypatch.setattr(spectral, "_polish_and_gate", spy)
        assert _bits(lambda_spectra(_MIXED_GRID)) == want
        # Whole problems in grid order; a run holds at most cap roots, or
        # one problem, and ends only where the next problem would not fit
        # or where the finiteness of mu**2 changes.
        assert [p for run in runs for p in run] == _MIXED_GRID
        roots = [sum(n + 1 for n, _ in run) for run in runs]
        assert all(r <= cap or len(run) == 1 for r, run in zip(roots, runs))
        wide = [[math.isinf(mu * mu) for _, mu in run] for run in runs]
        assert all(len(set(w)) == 1 for w in wide)
        assert all(
            r + run[0][0] + 1 > cap or w[-1] != v[0]
            for r, run, w, v in zip(roots, runs[1:], wide, wide[1:])
        )
        assert len(runs) > 1

    def _per_element(self, dtype):
        # Problems interleaved element by element, then stably sorted by
        # degree, descending, as the recurrences take them: elements of one
        # degree keep their shuffled mix of drives and roots.
        n, mu, lam = [], [], []
        for d, m in _MIXED_GRID:
            if m == 1e200:
                continue  # mu**2 overflows: the double scan has no value
            seeds = spectral._eigen_seeds(d, m)
            n += [d] * seeds.size
            mu += [m] * seeds.size
            lam += seeds.tolist()
        order = np.random.default_rng(7).permutation(len(lam))
        order = order[np.argsort(-np.array(n)[order], kind="stable")]
        return (np.array(n)[order], np.array(mu)[order],
                np.array(lam, dtype=dtype)[order])

    def test_scan_takes_per_element_arrays(self):
        # Each element's frame depends on the run it scans in (how often
        # the run tests its frames), its values times 2**e do not.
        n, mu, lam = self._per_element(float)
        got = scaled_scan(gate_scan(n, mu, lam))
        for i in range(lam.size):
            want = scaled_scan(gate_scan(int(n[i]), float(mu[i]), lam[i:i + 1]))
            for g, w in zip(got, want):
                assert g[i:i + 1].tobytes() == w.tobytes(), i
        assert np.any(gate_scan(n, mu, lam)[3] != 0)

    def test_newton_takes_per_element_arrays(self):
        # The polish's Newton steps: the determinant (T) at long-double
        # lambda, and the reflection factor (J) at long-double kappa, each
        # with mu taken to long double and with its derivative.  Per
        # element, the values times 2**e and the step value/derivative are
        # those of a scalar call.
        n, mu, x = self._per_element(np.longdouble)
        for matrix in ("T", "J"):
            scan = _continuant(matrix, n, mu, x, derivative=True)
            got = scaled_scan(scan)
            for i in range(x.size):
                one = _continuant(
                    matrix, int(n[i]), float(mu[i]), x[i:i + 1], derivative=True
                )
                for g, w in zip(got[:2], scaled_scan(one)[:2]):
                    assert same_values(g[i:i + 1], w), (matrix, i)
                with np.errstate(invalid="ignore", divide="ignore"):  # 0/0 is NaN on both
                    step = scan[0][i:i + 1] / scan[1][i:i + 1]
                    assert same_values(step, one[0] / one[1]), (matrix, i)
            assert np.any(scan[3] != 0)

    def test_factor_takes_per_element_arrays(self):
        # The certification pass's factors: J at long-double kappa, value
        # only.  Per element, the value times 2**e is that of a scalar call.
        n, mu, kappa = self._per_element(np.longdouble)
        scan = _continuant("J", n, mu, kappa)
        assert scan[1] is None and scan[2] is None and np.any(scan[3] != 0)
        got = scaled_scan(scan)[0]
        for i in range(kappa.size):
            want = scaled_scan(_continuant("J", int(n[i]), float(mu[i]), kappa[i:i + 1]))
            assert same_values(got[i:i + 1], want[0]), i

    @pytest.mark.parametrize("mu", [0.7, -1.3, 0.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_factor_is_the_jacobi_determinant(self, n, mu):
        # det(J - kappa*I) and its kappa-derivative against mpmath on the
        # Jacobi form, to rounding of the terms (each below prod(1+|e|+|k|)
        # over the eigenvalues e of J).
        jac = reflection_jacobi_dense(n, mu)
        kappa = [-2.3, -0.4, 0.0, 0.9, 3.7]
        g, dg, _ = scaled_scan(
            _continuant("J", n, mu, np.array(kappa, dtype=np.longdouble), derivative=True)
        )
        e = np.abs(np.linalg.eigvalsh(jac))
        with mpmath.workdps(40):
            m = mpmath.matrix(jac.tolist())

            def det(k):
                return mpmath.det(m - k * mpmath.eye(n + 1))

            for k, gk, dgk in zip(kappa, g, dg):
                scale = float(np.prod(1.0 + e + abs(k)))
                assert abs(float(det(k)) - float(gk)) <= 1e-15 * scale
                assert abs(float(mpmath.diff(det, k)) - float(dgk)) <= 1e-15 * scale

    def test_polish_takes_per_element_arrays(self):
        grid = sorted((p for p in _MIXED_GRID if p[0] < 100), key=lambda p: -p[0])
        seeds = [spectral._eigen_seeds(d, m) for d, m in grid]
        sizes = [s.size for s in seeds]
        n = np.repeat([d for d, _ in grid], sizes)
        mu = np.repeat([m for _, m in grid], sizes)
        got = spectral._polish_extended(n, mu, np.concatenate(seeds))
        want = [spectral._polish_extended(d, m, s) for (d, m), s in zip(grid, seeds)]
        assert got.tobytes() == np.concatenate(want).tobytes()

    @pytest.mark.usefixtures("fresh_memo")
    def test_kernels_take_descending_degrees(self, monkeypatch):
        # Each run reaches every recurrence stably sorted by degree,
        # descending, and its spectra come back in grid order.  The first
        # pass of the polish steps every root once, on the determinant (T,
        # in long double) or on its own factor (J), each with its
        # derivative; the gate scans T with the derivative and the summand
        # maximum, once per run: in double, or in long double for the run
        # of mu = 1e200, whose square overflows a double.  The grid's runs
        # end before and after that problem.
        want = _bits(lambda_spectra(_MIXED_GRID))
        seen = []
        kernel = spectral._continuant

        def spy(matrix, n, mu, x, **flags):
            seen.append(((matrix, x.dtype), np.broadcast_to(n, x.shape), flags))
            return kernel(matrix, n, mu, x, **flags)

        monkeypatch.setattr(spectral, "_continuant", spy)
        assert _bits(lambda_spectra(_MIXED_GRID)) == want
        assert all(np.all(np.diff(n) <= 0) for _, n, _ in seen)
        ends = [k for k, (_, _, flags) in enumerate(seen) if flags.get("summand")]
        assert ends[-1] == len(seen) - 1
        wide = _MIXED_GRID.index((5, 1e200))
        runs = [_MIXED_GRID[:wide], _MIXED_GRID[wide : wide + 1], _MIXED_GRID[wide + 1 :]]
        assert len(ends) == len(runs)
        ld = np.dtype(np.longdouble)
        for start, end, run in zip([0] + [k + 1 for k in ends], ends, runs):
            polish, (gate, gate_n, flags) = seen[start:end], seen[end]
            assert flags == {"derivative": True, "summand": True}
            assert gate == ("T", ld if run[0][1] == 1e200 else np.dtype(float))
            assert all(f == {"derivative": True} and name[1] == ld for name, _, f in polish)
            degrees = np.array(sorted((n for n, _ in run), reverse=True))
            roots = np.repeat(degrees, degrees + 1)
            first_pass = {name: n for name, n, _ in reversed(polish)}  # first call of each
            assert np.array_equal(np.sort(np.concatenate(list(first_pass.values())))[::-1], roots)
            assert np.array_equal(gate_n, roots)

    def test_overflowing_scan_raises_no_warning(self):
        # At mu = 1.3e154 mu**2 is a double but the gate scan overflows: the
        # root misses the gate, with no numpy warning on the way.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceFailure, match=r"root 0 of \(n=3, "):
                lambda_spectrum(3, 1.3e154)
            assert len(lambda_spectra(_MIXED_GRID)) == len(_MIXED_GRID)

    def test_overflowing_eigenvalues_are_refused(self):
        # At (29, 9.3e306) every off-diagonal entry of the seed matrix is a
        # double, but its extreme eigenvalues pass the double range: the
        # eigenproblem is refused, with no numpy warning, alone and in a
        # batch after a good problem.
        mu = 9.313945155129463e306
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (
                lambda: lambda_spectrum(29, mu),
                lambda: lambda_spectra([(3, 1.0), (29, mu)]),
            ):
                with pytest.raises(InvalidParams, match="overflows the eigenproblem at n = 29"):
                    call()

    def test_overflowing_polish_raises_no_warning(self):
        # From n = 24 at mu = 1e200 the determinant's powers of mu**2 pass
        # the long-double range; the polish's framed scan and the
        # long-double gate keep them, with no numpy warning.  The middle
        # root of each even n falls back to its seed, as its Newton
        # correction passes the polish's cap, and the gate refuses it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (24, 40, 110):
                with pytest.raises(ConvergenceFailure, match=rf"root {n // 2} of \(n={n}, "):
                    lambda_spectrum(n, 1e200)

    @pytest.mark.parametrize("n,mu", [(24, 1e200), (30, 1e300)])
    def test_roots_past_the_long_double_range(self, n, mu):
        # Here the determinant's powers of mu**2 pass the long-double range,
        # and the polish's framed scan still places each root within half
        # an ulp of mpmath; an unframed scan overflows, and its roots keep
        # their seeds, up to 21 ulps off.  Many roots lie at a hair from
        # a rounding midpoint, which the reference, bisected to 1e-30
        # relative, reads as 0.5 plus up to 2**52 * 1e-30 ulp.  The middle
        # root of an even n is the exception: it lies some 45 orders of
        # magnitude below its neighbours, within its seed's error, and its
        # Newton correction passes the polish's cap, so it falls back to its
        # seed, far from mpmath, and the gate refuses the spectrum there.
        lams = spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
        middle = n // 2
        for i, lam in enumerate(lams.tolist()):
            ref = mpmath_root(n, mu, i, lam)
            if i == middle:
                assert abs(lam - ref) > 1e100 * ref
            else:
                assert _ulps(lam, ref) <= 0.5 + 2.0**52 * 1e-30, i
        with pytest.raises(ConvergenceFailure, match=rf"root {middle} of \(n={n}, "):
            lambda_spectrum(n, mu)

    @pytest.mark.usefixtures("fresh_memo")
    def test_lone_problem_runs_on_scalars(self, monkeypatch):
        # A run of one problem gives the kernels Python scalars for n and mu,
        # and each kernel returns its one block without a concatenate; the
        # spectrum is bit for bit the one computed in a mixed run.  The
        # polish's long-double scans take mu as a float too: the recurrence
        # takes it to long double itself.
        grid = [(0, 0.5), (4, 1.82), (40, -0.7), (110, 2.5)]
        want = [_bits(lambda_spectra([p, (p[0] + 1, 0.25)]))[0] for p in grid]
        seen, joins = [], []
        for name in ("_polish_extended", "_continuant"):
            def spy(*args, kernel=getattr(spectral, name), **flags):
                *_, n, mu, x = args
                on_det = args[0] == "T" and x.dtype == np.longdouble
                seen.append((type(n), type(mu), on_det))
                return kernel(*args, **flags)
            monkeypatch.setattr(spectral, name, spy)
        join = np.concatenate

        def counted(*args, **kwargs):
            joins.append(len(args[0]))
            return join(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counted)
        assert [_bits([lambda_spectrum(*p)])[0] for p in grid] == want
        # Each problem calls the polish, the gate's scan and at least one
        # kernel; root 0 of (0, 0.5), at lambda = 0, steps on the determinant.
        assert len(seen) >= 3 * len(grid)
        assert set(seen) == {(int, float, False), (int, float, True)}
        assert joins == []

    def test_first_failure_in_order_raises(self):
        # (2, 1e10) misses the root gate; (2, 1.7e308) overflows its
        # eigenproblem.  The earlier problem's error wins.
        gate = r"root 1 of \(n=2, mu=10000000000\.0\)"
        with pytest.raises(ConvergenceFailure, match=gate):
            lambda_spectra([(3, 1.0), (2, 1e10), (2, 1.7e308)])
        with pytest.raises(InvalidParams, match="overflows the eigenproblem"):
            lambda_spectra([(3, 1.0), (2, 1.7e308), (2, 1e10)])
        with pytest.raises(InvalidParams, match="degree n must be"):
            lambda_spectra([(3, 1.0), (-1, 1.0), (2, 1e10)])
        # The grid of `sweep --n-min 38 --n-max 40 --mu-start 1e9
        # --mu-stop 1e10 --mu-points 2`: every even n fails at mu = 1e10.
        grid = [(n, mu) for n in (38, 39, 40) for mu in (1e9, 1e10)]
        with pytest.raises(ConvergenceFailure) as err:
            lambda_spectra(grid)
        assert str(err.value).startswith("root 19 of (n=38, mu=10000000000.0) ")

    def test_int_mu_is_taken_as_a_float(self):
        # 2**53 + 1 has no double: a lone problem, a batch and the double it
        # rounds to give one spectrum.  An int past the double range is typed.
        mu = 2**53 + 1
        for n in (1, 3):
            lone = lambda_spectrum(n, mu)
            assert lone == lambda_spectra([(n, mu), (n, 0.5)])[0]
            assert lone == lambda_spectrum(n, float(mu))
        with pytest.raises(InvalidParams, match="mu is a 1329-bit int"):
            lambda_spectrum(2, 10**400)

    def test_bool_mu_is_refused(self):
        # An int subclass, but no drive: refused as a bool degree is.
        for mu in (True, False):
            with pytest.raises(InvalidParams, match="mu must be a finite real"):
                lambda_spectrum(1, mu)
            with pytest.raises(InvalidParams, match="mu must be a finite real"):
                lambda_spectra([(1, 0.5), (2, mu)])

    @pytest.mark.parametrize("cap", [1, 3, 4, 5])
    @pytest.mark.usefixtures("fresh_memo")
    def test_error_order_across_runs(self, monkeypatch, cap):
        # Whatever run each problem lands in, the first failing problem in
        # order raises, and no run after it is computed.
        monkeypatch.setattr(spectral, "_BATCH", cap)
        solved = []
        solve = spectral._polish_and_gate

        def spy(run):
            solved.append([n for n, _, _ in run])
            return solve(run)

        monkeypatch.setattr(spectral, "_polish_and_gate", spy)
        with pytest.raises(ConvergenceFailure, match=r"\(n=2, mu=10000000000\.0\)"):
            lambda_spectra([(1, 0.5), (2, 1e10), (2, 1.7e308), (4, 1.0)])
        assert [n for run in solved for n in run] == [1, 2]
        solved.clear()
        with pytest.raises(InvalidParams, match="overflows the eigenproblem"):
            lambda_spectra([(1, 0.5), (2, 0.3), (2, 1.7e308), (2, 1e10)])
        assert [n for run in solved for n in run] == [1, 2]


# Roots of near-degenerate pairs, which the polish takes onto their own
# reflection factor.  The determinant-only polish left the last six 4.218,
# 2.875, 2.523, 2.073, 1.842 and 1.350 ulps off.
_PAIR_ROOTS = [
    *[(60, 1.37, i) for i in (1, 2)],
    *[(n, 0.25, i) for n in range(16, 24) for i in (1, 2)],
    (40, -0.7, 20), (28, 1.37, 5), (23, 1.0, 4),
    (39, 0.25, 23), (39, 1.82, 12), (21, 0.25, 7),
]

# The problems of n <= 110 at the eight mu of ``scripts/polish_report.py``
# whose polished roots leave seed order, each at one pair (i, i+1):
# the pair's two roots agree to over 25 digits and lie within 1/256 ulp of
# the midpoint between two doubles, closer than the factor polish resolves,
# so its long-double rounding noise decides which double each one returns.
# These pairs, and the half-ulp bound on the roots above, are figures of
# the 64-bit mantissa of x87 long double, which numpy has on x86-64 Linux.
_MIDPOINT_PAIRS = [(83, 0.01, 57)]

_RANK_GRID = [(n, mu) for n in range(41) for mu in (0.25, 1.0, 1.82, 2.5, -0.7)]

# The problems of _PASS_GRID whose polish runs more than two passes on the
# determinant, with their passes.  All are at mu = 7.3, where a root near
# lambda = 0, below mu**2/128, stays on the determinant (_route).  It lands
# at the determinant's long-double noise floor with its first step; its
# later steps, 1/190 to 1.14 of a double ulp, come from rounding noise, and
# those above the 1/256 stop keep it stepping.  Like _MIDPOINT_PAIRS, these
# are figures of the x87 mantissa.
_PASS_GRID = _RANK_GRID + [(n, 7.3) for n in range(41)]
_NOISY_DET_PROBLEMS = {
    (14, 7.3): (8, "root 5 steps by 1/59 to 1/20 ulp, and by 0 at pass 8"),
    (21, 7.3): (8, "root 6 steps by 1/190 to 1/38 ulp and never stops"),
    (22, 7.3): (8, "root 6 steps by 1/8 to 1/5 ulp and never stops"),
    (23, 7.3): (8, "root 6 steps by 1/39 to 1/29 ulp and never stops"),
    (32, 7.3): (8, "roots 3 and 4 step by 1/13 to 1.14 ulp and never stop"),
}

# Roots below mu**2 that step in kappa on their own factor.  The first
# three were 5.830, 1.441 and 1.652 ulps off on the determinant.  The last
# three were 0.566, 0.553 and 0.520 ulp off with lambda formed as kappa**2 -
# mu**2 from the rounded kappa, and are 0.434, 0.447 and 0.480 with lambda
# carried beside kappa.
_KAPPA_ROOTS = [
    (56, 7.3, 1), (91, 7.3, 1), (73, 7.3, 2),
    (13, 300.0, 5), (25, 300.0, 14), (38, 300.0, 21),
]


def _ulps(lam: float, ref) -> float:
    return float(abs(ref - lam)) / math.ulp(float(ref))


class TestPairPolish:
    @pytest.mark.parametrize("n,mu,i", _PAIR_ROOTS)
    def test_pair_root_against_mpmath(self, n, mu, i):
        lam = lambda_spectrum(n, mu).lambdas[i]
        assert _ulps(lam, mpmath_root(n, mu, i, lam)) <= 0.5

    def test_roots_hold_their_rank(self):
        # Root i has at most i eigenvalues below it and more than i below
        # it plus a hair, so no root sits on a neighbour farther off.
        for n, mu in _RANK_GRID:
            lam = np.array(lambda_spectrum(n, mu).lambdas)
            delta = 1e-13 * np.maximum(1.0, np.abs(lam))
            i = np.arange(n + 1)
            assert np.all(sturm_counts(n, mu, lam - delta) <= i), (n, mu)
            assert np.all(i < sturm_counts(n, mu, lam + delta)), (n, mu)

    def test_polish_keeps_seed_order(self):
        for n, mu in _RANK_GRID:
            roots = spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
            assert np.all(np.diff(roots) >= 0), (n, mu)

    @pytest.mark.parametrize("n,mu,i", _KAPPA_ROOTS)
    def test_kappa_root_against_mpmath(self, n, mu, i):
        seed = spectral._eigen_seeds(n, mu)[i]
        assert _route(n, mu, seed) == "factor" and seed < mu * mu
        lam = lambda_spectrum(n, mu).lambdas[i]
        assert _ulps(lam, mpmath_root(n, mu, i, lam)) <= 0.5

    def test_passes_per_kernel(self, monkeypatch):
        # A root on its own factor converges quadratically, and the bound
        # of its first step stops it after one pass.  A simple root on the
        # determinant stops within two passes, but where rounding noise
        # keeps its steps above the stop: the problems of
        # _NOISY_DET_PROBLEMS, and no others.
        # The polish scans the determinant in long double.
        calls = []
        kernel = spectral._continuant

        def spy(matrix, n, mu, x, **flags):
            calls.append((matrix, x.dtype))
            return kernel(matrix, n, mu, x, **flags)

        monkeypatch.setattr(spectral, "_continuant", spy)
        ld = np.dtype(np.longdouble)
        noisy = {}
        for n, mu in _PASS_GRID:
            calls.clear()
            spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
            assert calls.count(("J", ld)) <= 1, (n, mu)
            passes = calls.count(("T", ld))
            if passes > 2:
                noisy[n, mu] = passes
        assert noisy == {p: passes for p, (passes, _) in _NOISY_DET_PROBLEMS.items()}

    def test_kappa_gaps_match_every_pair(self):
        for n, mu in _RANK_GRID:
            seeds = spectral._eigen_seeds(n, mu)
            cap = 1e-8 * np.maximum(1.0, np.abs(seeds))
            signs = np.array(_parity_signs(n, mu, n + 1))
            got = spectral._kappa_gaps(seeds, mu, cap, signs, np.zeros(n + 1, dtype=int))
            assert got.tolist() == _kappa_gaps_loop(n, mu, seeds.tolist()), (n, mu)

    @staticmethod
    def _certify_factor_roots(above: bool) -> tuple[int, int]:
        # Every factor root of the grid on one side of mu**2 (seed >= mu**2
        # where ``above``, below it otherwise) stops after one pass, on the
        # bound its kappa step gives on how far the next one moves lambda
        # (spectral._kappa_step_bound).  It returns lambda_0 - d*(2*kappa_0
        # - d), from kappa_0 = -eps*sqrt(seed + mu**2) and lambda_0 =
        # kappa_0**2 - mu**2 in long double.  The next pass, rerun here from
        # the long-double kappa, must move lambda by at most the bound plus
        # the rounding noise, and by at most the 1/256-ulp stop.  The noise
        # and the stop are taken in double ulps of the larger of |lambda|
        # and kappa**2 = lambda + mu**2, the two numbers whose long-double
        # rounding a kappa step carries.  Returns the factor roots of the
        # grid at or above mu**2 and below it; only one side is checked.
        ld = np.longdouble
        stop, noise = spectral._STEP_STOP, spectral._STEP_NOISE
        counts = [0, 0]
        for n, mu in _RANK_GRID:
            seeds = spectral._eigen_seeds(n, mu)
            m2 = ld(mu) ** 2
            factor = np.array([_route(n, mu, x) == "factor" for x in seeds])
            up = seeds.astype(ld) >= m2
            counts[0] += np.count_nonzero(factor & up)
            counts[1] += np.count_nonzero(factor & ~up)
            on = np.flatnonzero(factor & (up if above else ~up))
            if not on.size:
                continue
            eps = np.array(_parity_signs(n, mu, n + 1))[on]
            gaps = np.array(_kappa_gaps_loop(n, mu, seeds.tolist()))[on]

            def step(kappa):
                g, dg, _, _ = _continuant("J", n, mu, kappa, derivative=True)
                return g / dg

            kappa = -eps * np.sqrt(np.maximum(seeds[on].astype(ld) + m2, 0))
            first = step(kappa)
            lam = kappa * kappa - m2 - first * (2 * kappa - first)
            kappa = kappa - first
            bound = spectral._kappa_step_bound(first, kappa, n, gaps)
            ulp = np.abs(np.spacing(lam.astype(float)))
            assert np.all(bound <= ulp * (stop - noise)), (n, mu)
            roots = spectral._polish_extended(n, mu, seeds)
            assert np.array_equal(roots[on], lam.astype(float)), (n, mu)
            nxt = step(kappa)
            skipped = np.abs(nxt * (2 * kappa - nxt)).astype(float)
            ulp = np.maximum(ulp, np.abs(np.spacing((kappa * kappa).astype(float))))
            assert np.all(skipped <= bound + ulp * noise), (n, mu)
            assert np.all(skipped <= ulp * stop), (n, mu)
        return counts[0], counts[1]

    def test_certificate_bounds_the_skipped_pass(self):
        # The roots at or above mu**2, which once stepped in lambda, stop on
        # the kappa certificate too.
        above, below = self._certify_factor_roots(above=True)
        assert above + below > 4000 and 200 < below < above

    def test_kappa_certificate_bounds_the_skipped_pass(self):
        # The factor roots below mu**2, down to mu**2/128 from 0.
        above, below = self._certify_factor_roots(above=False)
        assert above + below > 4000 and 200 < below < above

    @pytest.mark.parametrize("n,mu,i", _MIDPOINT_PAIRS)
    def test_order_breaks_only_on_a_rounding_midpoint(self, n, mu, i):
        roots = spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
        assert np.flatnonzero(np.diff(roots) < 0).tolist() == [i]
        lo, hi = roots[i + 1], roots[i]
        assert np.nextafter(lo, np.inf) == hi
        for k in (i, i + 1):
            ref = mpmath_root(n, mu, k, roots[k])
            assert abs(_ulps(lo, ref) - 0.5) <= 1 / 256
            assert abs(_ulps(hi, ref) - 0.5) <= 1 / 256

    def test_factor_trouble_falls_back_to_the_seed(self, monkeypatch):
        # A factor that turns non-finite sends each root that steps on it,
        # above mu**2 or below it, back to its seed; the root on the
        # determinant, root 5 of (14, 7.3), is polished as before.
        n, mu = 14, 7.3
        seeds = spectral._eigen_seeds(n, mu)
        routes = np.array([_route(n, mu, x) for x in seeds])
        assert set(routes) == {"factor", "det"}
        above = seeds.astype(np.longdouble) >= np.longdouble(mu) ** 2
        assert 0 < np.count_nonzero(above) < np.count_nonzero(routes == "factor")
        clean = spectral._polish_extended(n, mu, seeds)
        kernel = spectral._continuant

        def poisoned(matrix, n_, mu_, x, **flags):
            value, *rest = kernel(matrix, n_, mu_, x, **flags)
            return (np.full_like(value, np.nan) if matrix == "J" else value), *rest

        monkeypatch.setattr(spectral, "_continuant", poisoned)
        got = spectral._polish_extended(n, mu, seeds)
        signs = _parity_signs(n, mu, seeds.size)
        gaps = _kappa_gaps_loop(n, mu, seeds.tolist())
        want = [_polish_loop(n, mu, *root) for root in zip(seeds.tolist(), signs, gaps)]
        assert got.tolist() == want
        on_factor = routes != "det"
        assert np.array_equal(got[on_factor], seeds[on_factor])
        for part in (above, (routes == "factor") & ~above):
            assert np.any(clean[part] != seeds[part])
        assert np.array_equal(got[~on_factor], clean[~on_factor])
        assert np.any(got[~on_factor] != seeds[~on_factor])


def _agrees_with_oracle(got: np.ndarray, lam, det, ddet, smax, e) -> None:
    """``got`` against the one-root gate of ``tests/oracles.py``: the same
    decision at ``ROOT_TOL`` and the same value to a last-bit difference."""
    rows = zip(det.tolist(), ddet.tolist(), lam.tolist(), smax.tolist(), e.tolist())
    for r, row in zip(got.tolist(), rows):
        o = _refine_ratio(*row)
        assert (r <= ROOT_TOL) == (o <= ROOT_TOL), row
        close = math.isfinite(o) and abs(r - o) <= 1e-15 * abs(o)
        assert r == o or close or (r != r and o != o), row


class TestGate:
    @pytest.mark.parametrize("moved", [0.0, 1e-9, 1e-3])
    def test_matches_one_root_oracle_on_the_mixed_grid(self, moved):
        # Eigenvalue seeds, polished roots and roots moved off them, over
        # every problem of the mixed grid; mu = 1e200 gives non-finite scans.
        for n, mu in _MIXED_GRID:
            roots = np.array(lambda_spectrum(n, mu).lambdas)
            for lam in (spectral._eigen_seeds(n, mu), roots):
                lam = lam + moved * np.maximum(1.0, np.abs(lam))
                with np.errstate(over="ignore", invalid="ignore"):
                    scan = gate_scan(n, mu, lam)
                _agrees_with_oracle(spectral._relative_dets(lam, *scan), lam, *scan)

    def test_matches_one_root_oracle_on_edge_rows(self):
        inf, nan = math.inf, math.nan
        rows = [  # (lam, det, ddet, smax, e)
            (1.0, 0.0, 2.0, 3.0, 5),  # det = 0
            (-2.0, -0.0, 2.0, inf, 5),
            (1.0, 1e-20, 2.0, 0.0, 0),  # smax = 0
            (0.0, 1e-3, 5.0, 7.0, 10),  # lam = 0
            (0.0, 1e-3, inf, 7.0, 10),
            (3.0, 1e-3, 0.0, 7.0, -10),  # ddet = 0
            (3.0, 1e-3, 0.0, 0.0, -10),
            (1.0, nan, 1.0, 1.0, 0),  # NaN or inf scan
            (1.0, inf, 1.0, 1.0, 0),
            (1.0, -inf, 1.0, inf, 0),
            (1.0, 1.0, nan, 1.0, 0),
            (1.0, 1.0, 1.0, nan, 0),
            (1.0, 1.0, 1.0, inf, 0),
            (1.0, 0.5, 1.0, 0.75, 3000),  # |e| in the thousands
            (1.0, 0.5, 1.0, 0.75, -3000),
            (2.0, 1e-200, 1e-100, 1e-150, 2500),
            (-5.0, 3e-250, 1e-80, 1e-300, -2500),
            (1.0, 1.0, 0.0, 2.0**-1070, 2000),  # past 2**1023
            (1.0, 1.0, 0.0, 2.0**-1023.5, 1100),
            (1.0, 2.0**-600, 1.0, 2.0**474.5, 0),  # below 2**-1074
            (1.0, 1e-300, 1.0, 1e300, 0),
        ]
        lam, det, ddet, smax = (np.array(col) for col in list(zip(*rows))[:4])
        e = np.array([row[4] for row in rows], dtype=np.int64)
        got = spectral._relative_dets(lam, det, ddet, smax, e)
        _agrees_with_oracle(got, lam, det, ddet, smax, e)
        assert got[0] == got[1] == 0.0 and np.isnan(got[7]) and got[17] == inf


class TestSymmetryMatrices:
    def test_hand_entries_degree_zero(self):
        d = DcheParams(n=0, mu=0.8, lam=0.5)
        c = math.sqrt(0.5 + 0.64)
        np.testing.assert_allclose(
            symmetry_matrix(1, d), [[c + 0.8]], rtol=1e-15
        )
        np.testing.assert_allclose(
            symmetry_matrix(-1, d), [[-c + 0.8]], rtol=1e-15
        )

    def test_hand_entries_degree_one(self):
        d = DcheParams(n=1, mu=0.8, lam=0.9)
        c = math.sqrt(0.9 + 0.64)
        np.testing.assert_allclose(
            symmetry_matrix(1, d),
            [[c, 0.8], [0.8, c - 1.0]],
            rtol=1e-15,
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    @pytest.mark.parametrize("lam,mu", [(0.73, 1.1), (5.9, -2.3)])
    @pytest.mark.parametrize("epsilon", [1, -1])
    def test_matches_row_loop(self, n, lam, mu, epsilon):
        d = DcheParams(n=n, mu=mu, lam=lam)
        got = symmetry_matrix(epsilon, d)
        assert got.tobytes() == symmetry_matrix_loop(epsilon, d).tobytes()

    def test_epsilon_validated(self):
        d = DcheParams(n=1, mu=0.8, lam=0.9)
        with pytest.raises(InvalidParams):
            symmetry_matrix(0, d)

    def test_needs_positive_discriminant(self):
        with pytest.raises(NonPositiveDiscriminant):
            symmetry_matrix(1, DcheParams(n=1, mu=0.5, lam=-0.25))

    def test_factorization_hand_case_degree_one(self):
        # G+ G- = [[-lam, -mu], [-mu, 1-lam]] = -(transposed system matrix),
        # exactly, for any positive discriminant.
        d = DcheParams(n=1, mu=0.8, lam=0.9)
        gp = symmetry_matrix(1, d)
        gm = symmetry_matrix(-1, d)
        phi_t = coefficient_matrix(d).T
        np.testing.assert_allclose(gp @ gm, -phi_t, atol=1e-14)

    # (0.9, 0.8) at n = 1 is the hand case above.
    @pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
    @pytest.mark.parametrize(
        "lam,mu", [(0.73, 1.1), (2.4, 0.6), (5.9, 2.3), (0.9, 0.8)]
    )
    def test_factorization_generic(self, n, lam, mu):
        # The identity on the dense oracles, and the package's continuant
        # determinants against their LU determinants.
        d = DcheParams(n=n, mu=mu, lam=lam)
        rel_dev, sign, det_p, det_m = factorization(d)
        gp = symmetry_matrix(1, d)
        gm = symmetry_matrix(-1, d)
        prod = gp @ gm
        phi_t = coefficient_matrix(d).T
        dev = float(np.max(np.abs(prod + phi_t)))
        assert sign == -1
        assert dev < float(np.max(np.abs(prod - phi_t)))
        assert rel_dev == dev / max(1.0, float(np.max(np.abs(prod))))
        assert rel_dev <= 1e-12
        got = [float(x) for x in reflection_dets(d)]
        np.testing.assert_allclose(got, [det_p, det_m], rtol=1e-11)

    def test_condition_splits_determinant(self):
        d = DcheParams(n=3, mu=1.2, lam=1.9)
        det_p, det_m = reflection_dets(d)
        assert abs(float(det_p * det_m)) == pytest.approx(
            abs(spectral_det(d)[0]), rel=1e-10
        )

    def test_one_factor_vanishes_at_root(self):
        n, mu = 3, 1.0
        for lam in lambda_spectrum(n, mu).lambdas:
            d = DcheParams(n=n, mu=mu, lam=lam)
            if d.lam + mu**2 <= DISC_MARGIN:
                continue
            det_p, det_m = reflection_dets(d)
            assert min(abs(det_p), abs(det_m)) <= 1e-10 * spectral_det(d)[1]


class TestPhysicalPoint:
    def test_frozen_case(self):
        d, eps = root_params(3, 2.0, 1)
        p = dche_to_params(d)
        assert abs(d.lam) <= 1e-13
        assert eps == 1
        assert p.omega == pytest.approx(0.25, rel=1e-14)
        assert p.A == pytest.approx(1.0, rel=1e-14)
        assert p.B == pytest.approx(-1.0, rel=1e-14)

    @pytest.mark.parametrize("n,mu", [(1, 0.5), (2, 1.0), (4, 2.0)])
    def test_recovery_invariants(self, n, mu):
        for index, lam in enumerate(lambda_spectrum(n, mu).lambdas):
            if lam + mu**2 <= 0:
                continue
            d, eps = root_params(n, mu, index)
            p = dche_to_params(d)
            assert d == DcheParams(n=n, mu=mu, lam=lam)
            assert eps in (-1, 1)
            assert p.omega > 0
            assert p.B == -(n + 1) * p.omega
            assert 4.0 * p.omega**2 * (lam + mu**2) == pytest.approx(
                1.0, rel=1e-14
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            root_params(1, 1.0, 5)


def _spy(monkeypatch, name: str) -> list:
    """Replace ``spectral.<name>`` by a pass-through that records each call's
    arguments in the returned list."""
    calls, fn = [], getattr(spectral, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(spectral, name, spy)
    return calls


def _spy_solves(monkeypatch) -> list:
    """Record the shape of each ``np.linalg.eigvalsh`` call."""
    solves, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        solves.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return solves


def _spy_scans(monkeypatch) -> list:
    """Record the size of each determinant scan (``heun_poly._continuant`` on
    T): the polish's long-double scans and the gate's, through ``spectral``,
    and the certification pass's, through ``heun_poly``."""
    scans, kernel = [], heun_poly._continuant

    def spy(matrix, n, mu, x, **flags):
        if matrix == "T":
            scans.append(x.size)
        return kernel(matrix, n, mu, x, **flags)

    monkeypatch.setattr(spectral, "_continuant", spy)
    monkeypatch.setattr(heun_poly, "_continuant", spy)
    return scans


# The drives of the bit-for-bit certification checks.
_MEMO_MUS = (0.25, 1.0, 1.82, 2.5, -0.7, 0.0, -0.0)

# The grid of the sign oracle: every root of n <= 24 at small, moderate and
# large |mu| of both signs, and degree 40 at |mu| = 0.25, where the two
# members of a pair lie down to 1e-67 apart in kappa.
_SIGN_GRID = [
    (n, sign * m)
    for m in (0.001, 0.25, 1.0, 2.5, 10.0)
    for sign in (1, -1)
    for n in range(25)
] + [(40, 0.25), (40, -0.25)]


class TestRootParams:
    @pytest.mark.usefixtures("fresh_memo")
    def test_matches_uncached_oracle(self):
        # Bit for bit at every root: the cache hands out the lambdas of a
        # fresh spectrum, and the parity rule the signs of the mpmath
        # eigensolve of J ordered by exact lambda.
        for n, mu in _SIGN_GRID:
            lambdas, signs = signed_spectrum(n, mu)
            for i in range(n + 1):
                d, eps = root_params(n, mu, i)
                assert (d.n, d.mu.hex(), d.lam.hex(), eps) == (
                    n, mu.hex(), lambdas[i].hex(), signs[i]
                ), (n, mu, i)

    @pytest.mark.usefixtures("fresh_memo")
    def test_verifying_every_root_computes_one_spectrum(self, monkeypatch, capsys):
        # One eigensolve for the 13 roots, the seeds of T, and two
        # determinant scans: the gate's, and the long-double one of the
        # certification pass over the whole spectrum; the signs need none.
        seeds = _spy(monkeypatch, "_eigen_seeds")
        solves, scans = _spy_solves(monkeypatch), _spy_scans(monkeypatch)
        for root in range(13):
            cli.main(["verify", "--n", "12", "--mu", "1.82", "--root", str(root)])
        out = capsys.readouterr().out
        assert out.count('"checks"') == 13 and out.count('"det_min_rel"') == 13
        assert (len(seeds), solves, scans) == (1, [(13, 13)], [13, 13])

    @pytest.mark.usefixtures("fresh_memo")
    def test_warm_verify_reads_each_cache_once(self, capsys):
        # A warm verify reads its triplet, sign and record from one
        # certify_root call: one hit on the spectrum cache and one on the
        # check-row cache, and no miss.
        argv = ["verify", "--n", "20", "--mu", "1.82", "--root", "7"]
        cli.main(argv)
        caches = (spectral._lambdas, structure._spectrum_rows)
        before = [cache.cache_info() for cache in caches]
        cli.main(argv)
        after = [cache.cache_info() for cache in caches]
        assert capsys.readouterr().out.count('"command": "verify"') == 2
        assert [(a.hits - b.hits, a.misses - b.misses) for a, b in zip(after, before)] == [
            (1, 0), (1, 0)
        ]

    @pytest.mark.usefixtures("fresh_memo")
    def test_memo_holds_the_last_used_problems(self, monkeypatch):
        # 256 problems; a hit makes its problem the last used, and the least
        # recently used one goes first.
        for k in range(256):
            root_params(1, 1.0 + k, 0)
        root_params(1, 1.0, 1)  # a hit
        seeds = _spy(monkeypatch, "_eigen_seeds")
        root_params(1, 1000.0, 0)
        assert spectral._lambdas.cache_info().currsize == 256 and len(seeds) == 1
        root_params(1, 1.0, 0)  # still held
        root_params(1, 1000.0, 1)
        root_params(1, 2.0, 0)  # evicted: computed once more, then held
        root_params(1, 2.0, 1)
        assert seeds == [(1, 1000.0), (1, 2.0)]

    @pytest.mark.usefixtures("fresh_memo")
    def test_verify_bytes_do_not_depend_on_the_memo(self, capsys):
        # Cold (caches cleared) and warm, and each signed zero after the other.
        def verify(n, mu, root):
            code = cli.main(["verify", "--n", str(n), "--mu", mu, "--root", str(root)])
            return code, *capsys.readouterr()

        for n, mu in ((12, "1.82"), (7, "-0.7"), (0, "0.25")):
            for root in range(n + 1):
                clear_caches()
                assert verify(n, mu, root) == verify(n, mu, root), (n, mu, root)
        for n in (0, 1, 2):
            for first, other in (("0.0", "-0.0"), ("-0.0", "0.0")):
                clear_caches()
                cold = verify(n, other, 0)
                clear_caches()
                verify(n, first, 0)
                assert verify(n, other, 0) == cold, (n, first)

    @pytest.mark.usefixtures("fresh_memo")
    def test_verify_bytes_do_not_depend_on_the_order(self, capsys):
        # From cold caches, every root in ascending, descending and shuffled
        # order gives the bytes of its own cold call: the whole spectrum is
        # certified when its first root comes, and every later root reads
        # its row.
        def verify(n, mu, root):
            code = cli.main(["verify", "--n", str(n), "--mu", mu, "--root", str(root)])
            return code, *capsys.readouterr()

        for n, mu in ((12, "1.82"), (60, "1.37")):
            cold = {}
            for root in range(n + 1):
                clear_caches()
                cold[root] = verify(n, mu, root)
            shuffled = list(range(n + 1))
            random.Random(n).shuffle(shuffled)
            for order in (range(n + 1), range(n, -1, -1), shuffled):
                clear_caches()
                for root in order:
                    assert verify(n, mu, root) == cold[root], (n, mu, root)
            misses = structure._spectrum_rows.cache_info().misses
            assert structure._spectrum_rows(n, float(mu)).shape == (n + 1, 6)
            assert structure._spectrum_rows.cache_info().misses == misses

    @pytest.mark.usefixtures("fresh_memo")
    def test_an_evicted_spectrum_leaves_no_row(self, capsys):
        # A spectrum's row table refuses writes, so what a caller reads is
        # what was formed; once evicted, with its spectrum, verify of its
        # key certifies afresh, and the table formed again holds the same
        # bytes.
        def verify():
            code = cli.main(["verify", "--n", "60", "--mu", "1.37", "--root", "30"])
            return code, *capsys.readouterr()

        cold = verify()
        old = structure._spectrum_rows(60, 1.37)
        with pytest.raises(ValueError, match="read-only"):
            old[30] = 0.0
        for k in range(256):
            structure.certify_root(1, 1.0 + k, 0)
        spectra = spectral._lambdas.cache_info().misses
        rows = structure._spectrum_rows.cache_info().misses
        assert verify() == cold
        assert spectral._lambdas.cache_info().misses == spectra + 1
        assert structure._spectrum_rows.cache_info().misses == rows + 1
        again = structure._spectrum_rows(60, 1.37)
        assert again is not old and again.tobytes() == old.tobytes()

    @pytest.mark.usefixtures("fresh_memo")
    def test_threads_share_the_memo(self, monkeypatch):
        # Four threads on two cores certify every root of three spectra, each
        # in its own order, through spectrum and row caches of two entries
        # each, so that spectra and their rows are evicted and formed again
        # while others read them, with the interpreter switching threads
        # every microsecond: every record is that of its root alone.
        problems = [(12, 1.82), (30, -0.7), (60, 1.37)]
        calls = [(n, mu, root) for n, mu in problems for root in range(n + 1)]
        want = {
            call: (*params, *structure.certify(heun_poly.build_polynomial(*params)))
            for call in calls
            for params in [root_params(*call)]
        }
        small = {
            (module, name): functools.lru_cache(maxsize=2)(getattr(module, name).__wrapped__)
            for module, name in ((spectral, "_lambdas"), (structure, "_spectrum_rows"))
        }
        for (module, name), cache in small.items():
            monkeypatch.setattr(module, name, cache)
        got, errors = [], []

        def work(seed):
            order = random.Random(seed).sample(calls, len(calls))
            try:
                for call in order:
                    got.append((call, structure.certify_root(*call)))
            except Exception as exc:  # noqa: BLE001 -- asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert len(got) == 4 * len(calls)
        assert all(cache.cache_info().currsize <= 2 for cache in small.values())
        for call, record in got:
            assert record == want[call], call

    @pytest.mark.usefixtures("fresh_memo")
    def test_degree_past_the_sample_bound_is_refused_before_allocating(
        self, monkeypatch
    ):
        # The dense seed matrix of degree n holds (n + 1)**2 doubles: 11585
        # is the first degree past 2**27 of them.
        eigvalsh = np.linalg.eigvalsh

        def refuse(a):
            assert len(a) <= 3, "the eigenproblem was allocated"
            return eigvalsh(a)

        assert 11585**2 <= 2**27 < 11586**2
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        msg = "degree n = 11585 needs a 11586 x 11586 eigenproblem, over 134217728"
        with pytest.raises(InvalidParams, match=msg):
            lambda_spectrum(11585, 1.0)
        with pytest.raises(InvalidParams, match=msg):
            lambda_spectra([(2, 1.0), (11585, 1.0)])
        with pytest.raises(InvalidParams, match=msg):
            root_params(11585, 1.0, 0)
        with pytest.raises(InvalidParams, match="degree n = 1000000 "):
            root_params(1000000, 1.0, 0)

    @pytest.mark.usefixtures("fresh_memo")
    @pytest.mark.parametrize(
        "n,mu,index,match",
        [
            (1, [1.0], 0, "mu must be a finite real"),
            (1, np.array([1.0]), 0, "mu must be a finite real"),
            (True, 1.0, 0, "degree n must be"),
            (2, math.nan, 0, "mu must be a finite real"),
            (2, True, 0, "mu must be a finite real"),
            (2, False, 0, "mu must be a finite real"),
            (2, 1.0, 1.0, "root index must be an int"),
            (2, 1.0, "1", "root index must be an int"),
            (2, 1.0, None, "root index must be an int"),
            (2, 1.0, True, "root index must be an int"),
            (40, 1e10, 0.5, "root index must be an int"),  # spectrum would fail
        ],
    )
    def test_invalid_arguments_raise_before_spectral_work(
        self, monkeypatch, n, mu, index, match
    ):
        seeds = _spy(monkeypatch, "_eigen_seeds")
        with pytest.raises(InvalidParams, match=match):
            root_params(n, mu, index)
        assert seeds == []

    @pytest.mark.usefixtures("fresh_memo")
    def test_failure_is_raised_on_every_call(self, monkeypatch):
        seeds = _spy(monkeypatch, "_eigen_seeds")
        for _ in range(2):
            with pytest.raises(ConvergenceFailure):
                root_params(40, 1e10, 0)
        assert len(seeds) == 2
        assert spectral._lambdas.cache_info().currsize == 0

    def test_numpy_index_and_range(self):
        assert root_params(3, 1.0, np.int64(2)) == root_params(3, 1.0, 2)
        for index in (-1, 4, np.int64(4)):
            with pytest.raises(IndexOutOfRange, match=r"root index -?\d outside \[0, 3\]"):
                root_params(3, 1.0, index)

    @pytest.mark.usefixtures("fresh_memo")
    def test_warm_out_of_range_index_computes_no_spectrum(self, monkeypatch):
        # The range check reads the cached lambdas: one hit, no miss, no
        # seeds, and the message of a cold call.
        msg = r"^root index 41 outside \[0, 40\]$"
        with pytest.raises(IndexOutOfRange, match=msg):
            root_params(40, 1.82, 41)
        root_params(40, 1.82, 7)
        seeds = _spy(monkeypatch, "_eigen_seeds")
        before = spectral._lambdas.cache_info()
        with pytest.raises(IndexOutOfRange, match=msg):
            root_params(40, 1.82, 41)
        after = spectral._lambdas.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        assert seeds == []

    def test_error_precedence(self):
        # A drive whose square overflows a double raises before any
        # spectral work, so before an out-of-range index or a spectrum that
        # cannot be computed; a spectrum that cannot be computed raises
        # before an out-of-range index.
        with pytest.raises(ConvergenceFailure):
            root_params(40, 1e10, 99)
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            root_params(2, 1.7e308, 5)
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            root_params(2, 1e200, 5)
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            root_params(2, 1e200, 0)

    @pytest.mark.usefixtures("fresh_memo")
    @pytest.mark.parametrize("first", [0.0, -0.0])
    def test_signed_zero_mu(self, first):
        # mu = -0.0 and 0.0 share one cache entry, whichever comes first: each
        # triplet keeps the caller's mu and the lambdas of a fresh spectrum.
        # The roots of n >= 1 are double here, so no oracle orders their
        # signs; both zeros take the mu <= 0 convention, which alternates
        # from +1 at even n and from -1 at odd n.
        for n in (1, 2, 3, 6):
            lambdas = lambda_spectrum(n, 0.0).lambdas
            for mu in (first, -first):
                for i in range(n + 1):
                    d, eps = root_params(n, mu, i)
                    assert (d.mu.hex(), d.lam.hex(), eps) == (
                        mu.hex(), lambdas[i].hex(), (-1) ** (i + n % 2)
                    ), (n, mu, i)
        assert spectral._lambdas.cache_info().currsize == 4


def test_disc_margin_value():
    assert DISC_MARGIN == 1e-9
