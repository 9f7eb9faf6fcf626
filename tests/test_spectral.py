"""Spectral roots, reflection matrices, and physical-point recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from heun_rsj import spectral
from heun_rsj.errors import (
    ConvergenceFailure,
    IndexOutOfRange,
    InvalidParams,
    NonPositiveDiscriminant,
)
from heun_rsj.heun_poly import _det_scan, coefficient_matrix, spectral_det
from heun_rsj.model import DcheParams
from heun_rsj.spectral import (
    DISC_MARGIN,
    ROOT_TOL,
    SpectralSet,
    factorization,
    lambda_spectrum,
    physical_point,
    symmetry_matrix,
)

from oracles import symmetry_matrix_loop


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


def _polish_loop(n: int, mu: float, seed: float) -> float:
    """One-root reference for :func:`spectral._polish_extended`."""
    cap = 1e-8 * max(1.0, abs(seed))
    cur = np.longdouble(seed)
    for _ in range(8):
        det, ddet = spectral._det_newton_extended(n, mu, np.array([cur]))
        det, ddet = det[0], ddet[0]
        if not (np.isfinite(det) and np.isfinite(ddet)) or ddet == 0:
            return seed
        nxt = cur - det / ddet
        if abs(float(nxt) - seed) > cap:
            return seed
        if nxt == cur:
            break
        cur = nxt
    return float(cur)


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
        det, ddet, smax, e = (a.tolist() for a in _det_scan(n, 0.0, np.array(lams)))
        for i, lam in enumerate(lams):
            assert all(math.isfinite(x) for x in (det[i], ddet[i], smax[i]))
            assert spectral._refine_ratio(det[i], ddet[i], lam, smax[i], e[i]) <= ROOT_TOL

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

    @pytest.mark.parametrize("n,mu", [(1, 0.5), (5, 1.0), (30, -2.2), (60, 1.82)])
    def test_array_polish_matches_one_root_loop(self, n, mu):
        # Seeds a hair off the roots converge; most seeds halfway between
        # two roots step past the cap and fall back to themselves.
        roots = np.array(lambda_spectrum(n, mu).lambdas)
        seeds = np.concatenate([roots * (1.0 + 1e-12), (roots[1:] + roots[:-1]) / 2.0])
        got = spectral._polish_extended(n, mu, seeds)
        assert got.tolist() == [_polish_loop(n, mu, x) for x in seeds.tolist()]
        assert np.all(got[: n + 1] != seeds[: n + 1])
        assert np.any(got[n + 1:] == seeds[n + 1:])

    @pytest.mark.parametrize("n,mu,k", [(5, 1.0, 2), (12, 1.3, 0), (40, -0.7, 40)])
    @pytest.mark.parametrize("moved", [False, True])
    def test_fallback_stays_in_its_own_root(self, monkeypatch, n, mu, k, moved):
        # The polish runs every root through one array recurrence.  A root
        # whose determinant turns non-finite -- at its seed, or once its
        # first step has moved it -- must fall back to its own seed and
        # leave every other root exactly as the clean run polishes it.
        polish = spectral._polish_extended
        polished = []

        def spy(n_, mu_, seeds):
            polished.append((np.array(seeds), polish(n_, mu_, seeds)))
            return polished[-1][1]

        monkeypatch.setattr(spectral, "_polish_extended", spy)
        clean = lambda_spectrum(n, mu).lambdas
        seeds, clean_roots = polished.pop()
        assert clean_roots[k] != seeds[k]  # the clean polish moves root k

        recurrence = spectral._det_newton_extended

        def poisoned(n_, mu_, lam):
            det, ddet = recurrence(n_, mu_, lam)
            hit = np.abs(lam - seeds[k]) <= 1e-9 * max(1.0, abs(seeds[k]))
            if moved:
                hit &= lam != seeds[k]
            return np.where(hit, np.nan, det), ddet

        monkeypatch.setattr(spectral, "_det_newton_extended", poisoned)
        try:
            got = lambda_spectrum(n, mu).lambdas
        except ConvergenceFailure as err:
            assert err.root_index == k
            got = None
        _, roots = polished.pop()
        assert roots[k] == seeds[k]
        others = np.arange(n + 1) != k
        assert np.array_equal(roots[others], clean_roots[others])
        if got is not None:
            assert got[k] == seeds[k]
            assert got[:k] + got[k + 1:] == clean[:k] + clean[k + 1:]

    @pytest.mark.parametrize("mu", [0.0, 0.37, -1.3, 1e3])
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
        det, ddet, smax, e = (a.tolist() for a in _det_scan(n, mu, np.array(lams)))
        for i, lam in enumerate(lams):
            ratio = spectral._refine_ratio(det[i], ddet[i], lam, smax[i], e[i])
            assert ratio <= ROOT_TOL

    @pytest.mark.xfail(strict=True, raises=ConvergenceFailure)
    def test_gate_at_huge_mu(self):
        # The middle root of every even n >= 2 misses ROOT_TOL once
        # |mu| >= 1e10: a relative determinant of 7.7e-8 here.  A fix of the
        # gate at large mu turns this into a failure that asks for the
        # marker to go.
        assert len(lambda_spectrum(40, 1e10).lambdas) == 41


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
        assert det_p == float(np.linalg.det(gp))
        assert det_m == float(np.linalg.det(gm))

    def test_condition_splits_determinant(self):
        d = DcheParams(n=3, mu=1.2, lam=1.9)
        _, _, det_p, det_m = factorization(d)
        assert abs(det_p * det_m) == pytest.approx(
            abs(spectral_det(d)[0]), rel=1e-10
        )

    def test_one_factor_vanishes_at_root(self):
        n, mu = 3, 1.0
        for lam in lambda_spectrum(n, mu).lambdas:
            d = DcheParams(n=n, mu=mu, lam=lam)
            if d.lam + mu**2 <= DISC_MARGIN:
                continue
            _, _, det_p, det_m = factorization(d)
            assert min(abs(det_p), abs(det_m)) <= 1e-10 * spectral_det(d)[1]


class TestPhysicalPoint:
    def test_frozen_case(self):
        p, d, eps = physical_point(3, 2.0, 1)
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
            p, d, eps = physical_point(n, mu, index)
            assert d == DcheParams(n=n, mu=mu, lam=lam)
            assert eps in (-1, 1)
            assert p.omega > 0
            assert p.B == -(n + 1) * p.omega
            assert 4.0 * p.omega**2 * (lam + mu**2) == pytest.approx(
                1.0, rel=1e-14
            )

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            physical_point(1, 1.0, 5)


def test_disc_margin_value():
    assert DISC_MARGIN == 1e-9
