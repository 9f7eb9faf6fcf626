"""Coefficient system, determinant routes, and polynomial construction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_rsj import heun_poly
from heun_rsj.errors import IndexOutOfRange, InvalidParams, NotSpectral
from heun_rsj.heun_poly import (
    SAMPLE_POINTS,
    _det_scan,
    build_polynomial,
    coefficient_matrix,
    residual_linear_system,
    residual_master,
    spectral_det,
)
from heun_rsj.model import DcheParams, HeunPolynomial
from heun_rsj.spectral import lambda_spectrum, root_params

import helpers
from oracles import (
    DegreeZeroUnsupported,
    LambdaZero,
    ZeroRatioDivision,
    coeff_transfer,
    coefficient_ratios,
    coeffs_from_ratios,
    necessary_condition,
    spectral_det_transfer,
    transfer_matrix,
)

moderate_mu = st.floats(min_value=-4.0, max_value=4.0)
moderate_lam = st.floats(min_value=-10.0, max_value=20.0)


class TestSamplePoints:
    def test_inventory(self):
        pts = list(SAMPLE_POINTS)
        assert len(pts) == 20
        for needed in (0.5, 1.0, 2.0, -1.0):
            assert any(abs(z - needed) < 1e-15 for z in pts)
        on_circle = [z for z in pts if abs(abs(z) - 1.0) < 1e-14]
        assert len(on_circle) >= 16


class TestCoefficientMatrix:
    def test_dense_n1(self):
        d = DcheParams(n=1, mu=0.7, lam=2.3)
        np.testing.assert_allclose(
            coefficient_matrix(d),
            [[2.3, 0.7], [0.7, 2.3 - 1.0]],
            rtol=0.0,
            atol=0.0,
        )

    def test_dense_n2(self):
        lam, mu = 1.1, 0.4
        d = DcheParams(n=2, mu=mu, lam=lam)
        expected = [
            [lam, mu, 0.0],
            [2.0 * mu, lam - 2.0, 2.0 * mu],
            [0.0, mu, lam - 2.0],
        ]
        np.testing.assert_allclose(
            coefficient_matrix(d), expected, rtol=0.0, atol=0.0
        )


def _det_scan_loop(n, mu, lam):
    """One-lambda reference for :func:`heun_poly._det_scan`, in Python floats."""
    mu2 = mu * mu
    prev2, prev = 1.0, lam
    dprev2, dprev = 0.0, 1.0
    smax = abs(lam)
    e = 0
    for j in range(1, n + 1):
        dj = lam - j * (n + 1 - j)
        cj = mu2 * j * (n - j + 1)
        t1 = dj * prev
        t2 = cj * prev2
        cur = t1 - t2
        dcur = dj * dprev + prev - cj * dprev2
        smax = max(smax, abs(t1), abs(t2))
        prev2, prev = prev, cur
        dprev2, dprev = dprev, dcur
        m = max(abs(prev), abs(prev2), abs(dprev), abs(dprev2), smax)
        ex = max(math.frexp(m)[1], -1022)
        if m > 0.0 and abs(ex) > 300:
            s = math.ldexp(1.0, -ex)
            prev2, prev, dprev2, dprev, smax = (
                prev2 * s, prev * s, dprev2 * s, dprev * s, smax * s
            )
            e += ex
    return prev, dprev, smax, e


class TestDeterminant:
    @given(mu=moderate_mu, lam=moderate_lam)
    @settings(max_examples=200)
    def test_two_by_two_closed_form(self, mu, lam):
        d = DcheParams(n=1, mu=mu, lam=lam)
        expected = lam * (lam - 1.0) - mu**2
        assert spectral_det(d)[0] == pytest.approx(
            expected, rel=1e-13, abs=1e-13
        )

    @given(
        n=st.integers(min_value=1, max_value=8),
        mu=moderate_mu,
        lam=moderate_lam,
    )
    @settings(max_examples=200)
    def test_matches_dense_determinant(self, n, mu, lam):
        d = DcheParams(n=n, mu=mu, lam=lam)
        ours, scale = spectral_det(d)
        dense = float(np.linalg.det(coefficient_matrix(d)))
        assert abs(ours - dense) <= 1e-9 * max(scale, abs(ours), abs(dense))

    @given(
        n=st.integers(min_value=1, max_value=12),
        mu=moderate_mu,
        lam=moderate_lam,
    )
    @settings(max_examples=300)
    @example(n=12, mu=1.0, lam=-1.0)  # lambda = -mu**2: float product lost it
    def test_minor_and_transfer_routes_agree(self, n, mu, lam):
        d = DcheParams(n=n, mu=mu, lam=lam)
        a, scale = spectral_det(d)
        b = spectral_det_transfer(d)
        denom = max(abs(a), abs(b))
        if denom <= 1e-9 * scale:
            # Both routes see a numerical zero; nothing to compare.
            return
        assert abs(a - b) <= 1e-10 * denom

    @given(n=st.integers(min_value=0, max_value=7), mu=moderate_mu)
    @settings(max_examples=100)
    def test_even_in_mu(self, n, mu):
        lam = 0.37
        plus = spectral_det(DcheParams(n=n, mu=mu, lam=lam))
        minus = spectral_det(DcheParams(n=n, mu=-mu, lam=lam))
        assert plus == minus

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_monic_of_degree_n_plus_one(self, n):
        mu = 1.3

        def f(lam):
            return spectral_det(DcheParams(n=n, mu=mu, lam=lam))[0]

        vals = [f(float(j)) for j in range(n + 3)]
        # (n+1)-th forward difference of a monic degree-(n+1) polynomial on a
        # unit grid is (n+1)!; the (n+2)-th vanishes.
        lead = sum(
            (-1) ** (n + 1 - j) * math.comb(n + 1, j) * vals[j]
            for j in range(n + 2)
        )
        top = sum(
            (-1) ** (n + 2 - j) * math.comb(n + 2, j) * vals[j]
            for j in range(n + 3)
        )
        assert lead == pytest.approx(math.factorial(n + 1), rel=1e-8)
        assert abs(top) <= 1e-8 * max(abs(v) for v in vals)

    @given(mu=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=100)
    def test_hand_value_degree_three_at_lambda_zero(self, mu):
        d = DcheParams(n=3, mu=mu, lam=0.0)
        assert spectral_det(d)[0] == pytest.approx(
            9.0 * mu**4 - 36.0 * mu**2, rel=1e-13, abs=1e-13
        )

    def test_exact_zero_at_mu_two(self):
        assert spectral_det(DcheParams(n=3, mu=2.0, lam=0.0))[0] == 0.0

    def test_scaled_form_consistent(self):
        d = DcheParams(n=6, mu=2.0, lam=3.7)
        m, _, _, e = _det_scan(d.n, d.mu, np.array([d.lam]))
        assert math.ldexp(m[0], int(e[0])) == spectral_det(d)[0]

    def test_scale_floor(self):
        assert spectral_det(DcheParams(n=2, mu=1.0, lam=0.5))[1] >= 1.0

    @pytest.mark.parametrize("n", [0, 1, 7, 60, 150, 300])
    @pytest.mark.parametrize("mu", [0.2, 1.82, -1.3, 0.0])
    def test_array_scan_matches_scalar_loop(self, n, mu):
        # The array recurrence must do, element by element, exactly the
        # arithmetic of the one-lambda loop below -- renormalisation frames
        # included, which n >= 60 exercises -- at the roots and between them.
        # mu = 0 has double roots, where the frame of an exact zero is set by
        # a subnormal summand maximum from n = 136 on.
        lams = np.concatenate([
            lambda_spectrum(n, mu).lambdas,
            np.linspace(-mu * mu - 1.0, n * n / 4.0 + 3.0, 9),
        ])
        got = zip(*(a.tolist() for a in _det_scan(n, mu, lams)))
        for lam, scan in zip(lams.tolist(), got):
            assert scan == _det_scan_loop(n, mu, lam)


class TestTransferObjects:
    def test_step_matrix_hand_value(self):
        d = DcheParams(n=3, mu=0.5, lam=2.0)
        np.testing.assert_allclose(
            transfer_matrix(1, d),
            [[2.0 - 3.0, 0.25], [-3.0, 0.0]],
            rtol=0.0,
            atol=0.0,
        )

    def test_degree_zero_unsupported(self):
        d = DcheParams(n=0, mu=1.0, lam=0.5)
        with pytest.raises(DegreeZeroUnsupported):
            spectral_det_transfer(d)
        with pytest.raises(DegreeZeroUnsupported):
            coeff_transfer(0, d)
        with pytest.raises(DegreeZeroUnsupported):
            necessary_condition(d)

    def test_coefficient_index_range(self):
        d = DcheParams(n=2, mu=1.0, lam=0.5)
        with pytest.raises(IndexOutOfRange):
            coeff_transfer(5, d)


class TestCoefficientRoutes:
    def test_ratio_hand_values(self):
        lam, mu = 0.8, 0.6
        r1 = coefficient_ratios(DcheParams(n=1, mu=mu, lam=lam))
        np.testing.assert_allclose(r1, [1.0 - lam], rtol=1e-15)
        r2 = coefficient_ratios(DcheParams(n=2, mu=mu, lam=lam))
        expected_top = 1.0 - lam / 2.0
        expected_bottom = 1.0 - lam / 2.0 - mu**2 / (2.0 * expected_top)
        np.testing.assert_allclose(
            r2, [expected_bottom, expected_top], rtol=1e-15
        )

    def test_chain_hand_values_n1(self):
        lam, mu = 0.8, 0.6
        a = coeffs_from_ratios(DcheParams(n=1, mu=mu, lam=lam))
        np.testing.assert_allclose(a, [(1.0 - lam) / mu, 1.0], rtol=1e-15)

    def test_zero_ratio_detected(self):
        # lam = 2 zeroes the terminal ratio 1 - lam/2, which the next step
        # would divide by.
        with pytest.raises(ZeroRatioDivision) as err:
            coefficient_ratios(DcheParams(n=2, mu=1.0, lam=2.0))
        assert err.value.k == 1

    def test_chain_requires_nonzero_mu(self):
        with pytest.raises(InvalidParams):
            coeffs_from_ratios(DcheParams(n=2, mu=0.0, lam=1.0))

    @given(
        n=st.integers(min_value=1, max_value=6),
        mu=st.floats(min_value=0.1, max_value=3.0),
        sign=st.sampled_from([-1.0, 1.0]),
        lam=st.floats(min_value=-8.0, max_value=15.0),
    )
    @settings(max_examples=150)
    def test_chain_and_transfer_routes_agree(self, n, mu, sign, lam):
        d = DcheParams(n=n, mu=sign * mu, lam=lam)
        try:
            chain = coeffs_from_ratios(d)
        except ZeroRatioDivision:
            return
        if not np.all(np.isfinite(chain)) or np.max(np.abs(chain)) > 1e12:
            return
        transfer = np.array([coeff_transfer(k, d) for k in range(n + 1)])
        np.testing.assert_allclose(
            transfer, chain, rtol=1e-8, atol=1e-8 * max(1.0, np.max(np.abs(chain)))
        )

    def test_lower_rows_solved_by_construction(self):
        # The downward chain enforces rows 1..n of the system exactly; row 0
        # is the spectral condition and stays open at a generic lambda.
        d = DcheParams(n=3, mu=1.0, lam=0.9)
        a = coeffs_from_ratios(d)
        poly = HeunPolynomial(n=3, coeffs=tuple(a), params=d)
        rows = residual_linear_system(poly)
        amax = np.max(np.abs(a))
        assert np.max(np.abs(rows[1:])) <= 1e-12 * amax * 10.0
        assert abs(rows[0]) > 1e-3 * amax


class TestNecessaryCondition:
    def test_lambda_zero_guard(self):
        with pytest.raises(LambdaZero):
            necessary_condition(DcheParams(n=2, mu=1.0, lam=0.0))

    @given(
        n=st.integers(min_value=1, max_value=6),
        mu=st.floats(min_value=0.1, max_value=3.0),
        lam=st.floats(min_value=-8.0, max_value=15.0),
    )
    @settings(max_examples=150)
    def test_sign_tracks_determinant(self, n, mu, lam):
        if abs(lam) < 1e-3:
            return
        d = DcheParams(n=n, mu=mu, lam=lam)
        delta, scale = spectral_det(d)
        if abs(delta) <= 1e-6 * scale:
            return
        value = necessary_condition(d)
        reference = -delta / (n * lam)
        assert value * reference > 0.0

    def test_vanishes_exactly_at_spectrum(self):
        n, mu = 2, 1.0
        for lam in lambda_spectrum(n, mu).lambdas:
            if abs(lam) < 1e-6:
                continue
            d = DcheParams(n=n, mu=mu, lam=lam)
            at_root = abs(necessary_condition(d))
            nearby = abs(
                necessary_condition(DcheParams(n=n, mu=mu, lam=lam + 0.3))
            )
            assert at_root <= 1e-7 * (1.0 + nearby)


class TestResidualEvaluators:
    def _solution(self, n=2, mu=1.0):
        return helpers.solution(n, mu, n)

    def test_master_residual_small_at_solution(self):
        poly = self._solution()
        for z in SAMPLE_POINTS:
            res, scale = residual_master(poly, z)
            assert abs(res) <= 1e-10 * max(scale, 1e-300)

    def test_master_residual_flags_perturbation(self):
        poly = self._solution()
        coeffs = list(poly.coeffs)
        amax = max(abs(c) for c in coeffs)
        coeffs[1] += 1e-4 * amax
        bad = HeunPolynomial(n=poly.n, coeffs=tuple(coeffs), params=poly.params)
        worst = max(
            abs(res) / max(scale, 1e-300)
            for res, scale in (residual_master(bad, z) for z in SAMPLE_POINTS)
        )
        assert worst >= 1e-6

    def test_linear_system_rows_match_dense_product(self):
        poly = self._solution(n=3, mu=0.5)
        rows = residual_linear_system(poly)
        dense = coefficient_matrix(poly.params) @ np.asarray(poly.coeffs)
        np.testing.assert_array_equal(rows, dense)

    def test_linear_system_flags_perturbation(self):
        poly = self._solution()
        coeffs = list(poly.coeffs)
        amax = max(abs(c) for c in coeffs)
        coeffs[0] += 1e-4 * amax
        bad = HeunPolynomial(n=poly.n, coeffs=tuple(coeffs), params=poly.params)
        assert np.max(np.abs(residual_linear_system(bad))) >= 1e-6 * amax


class TestBuildPolynomial:
    def test_monic_normalisation(self):
        for n, mu in [(1, 0.5), (3, 1.0), (5, 2.0)]:
            for index in range(n + 1):
                poly = helpers.solution(n, mu, index)
                assert poly.coeffs[-1] == 1.0
                assert poly.n == n

    def test_degree_zero(self):
        poly = build_polynomial(DcheParams(n=0, mu=0.5, lam=0.0), -1)
        assert poly.coeffs == (1.0,)

    def test_rejects_generic_lambda(self):
        for epsilon in (1, -1):
            with pytest.raises(NotSpectral):
                build_polynomial(DcheParams(n=2, mu=1.0, lam=0.123), epsilon)

    def test_interior_zero_coefficient_case(self):
        # At (n, mu) = (3, 2) one spectral lambda is exactly 0 and the
        # kernel vector has a vanishing interior coefficient, which stopped
        # the old ratio chain.  kappa = -2*epsilon is then an exact
        # eigenvalue of the Jacobi matrix, so the shifted solve must still
        # go through.
        d0, eps = root_params(3, 2.0, 1)
        assert abs(d0.lam) <= 1e-13
        for lam in (d0.lam, 0.0):
            poly = build_polynomial(DcheParams(n=3, mu=2.0, lam=lam), eps)
            assert abs(poly.coeffs[1]) <= 1e-12
            for z in SAMPLE_POINTS:
                res, scale = residual_master(poly, z)
                assert abs(res) <= 1e-9 * max(scale, 1e-300)
