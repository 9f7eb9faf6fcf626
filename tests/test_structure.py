"""Reflection symmetry, phase recovery, second solutions, orthogonality."""

import dataclasses
import math

import numpy as np
import pytest

from heun_rsj import heun_poly, spectral, structure
from heun_rsj.dynamics import bias, integrate_phase
from heun_rsj.errors import (
    InvalidParams,
    MuNotPositive,
    NonPositiveArgument,
    QuadratureFailure,
    ZeroOnUnitCircle,
)
from heun_rsj.model import DcheParams, HeunPolynomial, dche_to_params
from heun_rsj.structure import (
    coeff_relations_residual,
    orthogonality_integral,
    orthogonality_weight,
    phase_rate,
    phase_series,
    symmetry_residual,
)

import helpers
from identities import (
    PolynomialZeroOnPath,
    norm_integral,
    reflected_polynomial,
    second_solution,
    second_solution_jet,
    weight_divergence_residual,
)
from oracles import (
    coeff_relations_loop,
    phase_on_grid_ratio,
    phase_series_loop,
    reflected_coeffs_loop,
)


class TestReflectedPolynomial:
    def test_hand_shuffle_degree_one(self):
        d = DcheParams(n=1, mu=0.6, lam=0.9)
        poly = HeunPolynomial(coeffs=(0.4, 1.0), params=d, epsilon=-1)
        image = reflected_polynomial(poly)
        np.testing.assert_allclose(
            image.coeffs, [-0.6, 1.0 - 0.6 * 0.4], rtol=1e-15
        )
        assert (image.params, image.epsilon) == (d, -1)

    @pytest.mark.parametrize("n,mu,index", [(1, 1.0, 0), (2, 1.0, 2), (3, 0.5, 3)])
    def test_solves_same_equation(self, n, mu, index):
        image = reflected_polynomial(helpers.solution(n, mu, index))
        for z in heun_poly.SAMPLE_POINTS:
            res, scale = heun_poly.residual_master(image, z)
            assert abs(res) <= 1e-9 * max(scale, 1e-300)

    def test_proportional_to_original_at_spectral_point(self):
        poly = helpers.solution(2, 1.0, 2)
        image = reflected_polynomial(poly)
        d = poly.params
        c = math.sqrt(d.lam + d.mu**2)
        np.testing.assert_allclose(
            np.asarray(image.coeffs),
            poly.epsilon * c * np.asarray(poly.coeffs),
            rtol=1e-9,
            atol=1e-12,
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 40])
    @pytest.mark.parametrize("mu", [0.25, 1.82, -0.7])
    def test_shuffle_matches_loop_oracle(self, n, mu):
        # Both array forms must do the row loop's arithmetic in its order.
        for _, d, eps in helpers.spectral_points(n, mu):
            poly = heun_poly.build_polynomial(d, eps)
            want = np.array(reflected_coeffs_loop(poly))
            if want[-1] == 0:  # root 0 of (40, 0.25): lambda = -mu**2, c = 0
                with pytest.raises(InvalidParams):
                    reflected_polynomial(poly)
            else:
                image = np.array(reflected_polynomial(poly).coeffs)
                assert image.tobytes() == want.tobytes()
            if d.lam + d.mu**2 > 0:
                rel = coeff_relations_residual(poly)
                assert rel.tobytes() == coeff_relations_loop(poly).tobytes()


class TestSymmetrySign:
    @pytest.mark.parametrize("mu,expected", [(0.7, -1), (-0.7, 1)])
    def test_degree_zero_sign_is_minus_sign_of_mu(self, mu, expected):
        assert helpers.solution(0, mu, 0).epsilon == expected

    def test_degree_one_sign_follows_lambda(self):
        # For n = 1, eps * c = lambda exactly on the spectral curve, so the
        # sign is the sign of the root.
        lo, hi = helpers.solution(1, 1.0, 0), helpers.solution(1, 1.0, 1)
        assert lo.epsilon == -1
        assert hi.epsilon == 1


class TestSymmetryResiduals:
    @pytest.mark.parametrize(
        "n,mu,index", [(1, 1.0, 0), (1, 1.0, 1), (2, 0.5, 2), (4, 2.0, 4)]
    )
    def test_small_at_solutions(self, n, mu, index):
        poly = helpers.solution(n, mu, index)
        assert symmetry_residual(poly) <= 1e-10
        rel = coeff_relations_residual(poly)
        amax = max(abs(c) for c in poly.coeffs)
        assert np.max(np.abs(rel)) <= 1e-11 * amax

    def test_degree_one_relations_close_by_hand(self):
        # Relations for n = 1 reduce to eps*c*a0 = -mu and
        # eps*c + mu*a0 - 1 = 0; both follow from a0 = (1 - lambda)/mu and
        # lambda(lambda - 1) = mu^2.
        poly = helpers.solution(1, 1.0, 1)
        lam = poly.params.lam
        assert poly.coeffs[0] == pytest.approx((1.0 - lam), rel=1e-12)
        rel = coeff_relations_residual(poly)
        assert np.max(np.abs(rel)) <= 1e-12

    def test_flags_perturbation(self):
        poly = helpers.solution(2, 1.0, 2)
        coeffs = list(poly.coeffs)
        coeffs[0] += 1e-4
        bad = dataclasses.replace(poly, coeffs=tuple(coeffs))
        assert symmetry_residual(bad) >= 1e-6

    def test_flags_the_wrong_sign(self):
        poly = helpers.solution(4, 2.0, 4)
        flipped = dataclasses.replace(poly, epsilon=-poly.epsilon)
        assert symmetry_residual(flipped) >= 0.1
        rel = coeff_relations_residual(flipped)
        assert np.max(np.abs(rel)) >= 0.1 * max(abs(c) for c in poly.coeffs)

    @pytest.mark.parametrize(
        "check",
        [
            structure.certify,
            symmetry_residual,
            coeff_relations_residual,
            lambda P: spectral.symmetry_matrix(P.epsilon, P.params),
            lambda P: spectral.factorization(P.params),
        ],
        ids=["certify", "symmetry_residual", "coeff_relations_residual",
             "symmetry_matrix", "factorization"],
    )
    def test_overflowing_mu_squared_is_typed(self, check):
        d = DcheParams(n=1, mu=1e200, lam=1.0)
        fake = HeunPolynomial(coeffs=(0.5, 1.0), params=d, epsilon=1)
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            check(fake)


class TestPhase:
    # P(1) < 0 at (2, 1.0, 2): 2*arg P(1) = 2*pi must come off exactly.
    @pytest.mark.parametrize("n,mu,index", [(0, 0.5, 0), (1, 0.5, 1), (2, 1.0, 2)])
    def test_initial_value(self, n, mu, index):
        # phase-compare starts RK4 at -eps*(0.5*pi), the same double.
        poly = helpers.solution(n, mu, index)
        assert phase_series(poly, [0.0])[0] == -poly.epsilon * math.pi / 2.0

    @pytest.mark.parametrize("n,mu,index", [(1, 0.5, 1), (4, 1.7, 2), (9, 1.37, 0)])
    def test_flipped_sign_shifts_the_phase_by_pi(self, n, mu, index):
        # exp(-i*phi) = i*eps*z**(n+1)*P(1/z)/P(z): the sign of the record,
        # and only it, sets the factor eps.
        poly = helpers.solution(n, mu, index)
        flipped = dataclasses.replace(poly, epsilon=-poly.epsilon)
        times = np.linspace(0.0, 2.0 * dche_to_params(poly.params).period, 501)
        shift = phase_series(flipped, times) - phase_series(poly, times)
        np.testing.assert_allclose(np.mod(shift, 2.0 * math.pi), math.pi, atol=1e-9)

    @pytest.mark.parametrize("n,mu,index", [(0, 0.5, 0), (1, 0.5, 1), (2, 1.0, 2)])
    def test_one_period_winding_is_integer(self, n, mu, index):
        poly = helpers.solution(n, mu, index)
        p = dche_to_params(poly.params)
        times = np.linspace(0.0, p.period, 4001)
        phi = phase_series(poly, times)
        assert np.max(np.abs(np.diff(phi))) < 0.5  # continuity of the branch
        turns = (phi[-1] - phi[0]) / (2.0 * math.pi)
        assert turns == pytest.approx(round(turns), abs=1e-9)
        assert abs(round(turns)) <= 2 * n + 1
        assert round(turns) == 2 * _zeros_in_disc(poly) - (n + 1)

    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 1.37, 1.82, 2.2, 2.6])
    def test_one_period_winding_counts_zeros_in_disc(self, mu):
        # arg P winds 2*pi*k per period, k the zeros of P in |z| < 1 (the
        # argument principle), so phi advances by 2*pi*(2k - (n+1)).
        roots = 0
        for n in range(13):
            for _, d, eps in helpers.positive_disc_points(n, mu):
                poly = heun_poly.build_polynomial(d, eps)
                times = np.linspace(0.0, dche_to_params(d).period, 4001)
                phi = phase_series(poly, times)
                advance = 2.0 * math.pi * (2 * _zeros_in_disc(poly) - (n + 1))
                assert phi[-1] - phi[0] == pytest.approx(advance, abs=1e-9)
                roots += 1
        # Only roots 0 of n >= 8 (mu = 0.25), n >= 9 (0.5) and n = 12 (1.0)
        # have lambda + mu**2 <= 0.
        assert roots == 91 - {0.25: 5, 0.5: 4, 1.0: 1}.get(mu, 0)

    def test_series_matches_pointwise_mod_2pi(self):
        poly = helpers.solution(1, 0.5, 1)
        times = np.linspace(0.0, 3.0, 17)
        series = phase_series(poly, times)
        for t, phi in zip(times, series):
            single = phase_series(poly, [float(t)])[0]
            assert math.cos(single) == pytest.approx(math.cos(phi), abs=1e-9)
            assert math.sin(single) == pytest.approx(math.sin(phi), abs=1e-9)

    def test_rate_matches_central_differences(self):
        # At omega = 0.23 central differences on 40,001 points per period
        # truncate near 1e-7.
        poly = helpers.solution(2, 1.0, 2)
        times = np.linspace(0.0, dche_to_params(poly.params).period, 40001)
        phi = phase_series(poly, times)
        dphi = (phi[2:] - phi[:-2]) / (times[2] - times[0])
        assert np.max(np.abs(phase_rate(poly, times[1:-1]) - dphi)) <= 1e-6

    @pytest.mark.parametrize("n,mu,index", [(1, 0.5, 1), (4, 1.7, 2), (9, 1.37, 0)])
    def test_rate_satisfies_junction_equation(self, n, mu, index):
        # (9, 1.37, 0) has omega = 9.6e3: central differences on 4e4 points
        # per period read 1.1e-4 there, the exact rate 2.9e-8.
        poly = helpers.solution(n, mu, index)
        p = dche_to_params(poly.params)
        times = np.linspace(0.0, 3.0 * p.period, 6001)
        resid = phase_rate(poly, times) + np.sin(phase_series(poly, times))
        assert np.max(np.abs(resid - bias(p, times))) <= 1e-6

    def test_satisfies_junction_equation(self):
        poly = helpers.solution(2, 1.0, 2)
        p = dche_to_params(poly.params)
        times = np.linspace(0.0, p.period, 40001)
        phi = phase_series(poly, times)
        dt = times[1] - times[0]
        dphi = (phi[2:] - phi[:-2]) / (2.0 * dt)
        resid = dphi + np.sin(phi[1:-1]) - bias(p, times[1:-1])
        assert np.max(np.abs(resid)) <= 1e-6

    @pytest.mark.parametrize("n,mu", [(2, 1.1), (3, 0.3), (4, 1.7), (6, 2.6), (8, 1.7)])
    def test_series_matches_whole_grid_oracle(self, n, mu):
        # 30,001 samples: several evaluation blocks and a partial last one.
        for index in range(n + 1):
            poly = helpers.solution(n, mu, index)
            times = np.linspace(0.0, 3.0 * dche_to_params(poly.params).period, 30001)
            assert np.array_equal(
                phase_series(poly, times), phase_series_loop(poly, times)
            )

    @pytest.mark.parametrize("n,mu", [(2, 1.1), (3, 0.3), (4, 1.7), (6, 2.6), (8, 1.7)])
    def test_series_matches_ratio_oracle_mod_2pi(self, n, mu):
        for index in range(n + 1):
            poly = helpers.solution(n, mu, index)
            times = np.linspace(0.0, 3.0 * dche_to_params(poly.params).period, 30001)
            _assert_equal_mod_2pi(
                phase_series(poly, times), phase_on_grid_ratio(poly, times)
            )

    def test_degree_30_series_matches_ratio_oracle_mod_2pi(self):
        # The ratio oracle does not refine, so its grid is fine enough as is.
        poly = helpers.solution(30, 1.1, 7)
        p = dche_to_params(poly.params)
        times = np.arange(40001) * (10.0 * p.period / 40000)
        _assert_equal_mod_2pi(phase_series(poly, times), phase_on_grid_ratio(poly, times))

    @pytest.mark.parametrize("n,mu", [(12, 1.82), (10, 2.2), (12, 2.2)])
    def test_top_root_phase_matches_integration(self, n, mu):
        # The ratio form drifted 1.1e-12 to 1.6e-12 off |w| = 1 at these
        # roots and failed its 1e-12 gate.  A whole period repels RK4 here,
        # so the check covers a quarter.
        poly = helpers.solution(n, mu, n)
        p = dche_to_params(poly.params)
        traj = integrate_phase(
            p, -poly.epsilon * (0.5 * np.pi), 0.25 * p.period, p.period / 20000.0
        )
        closed = phase_series(poly, traj.times)
        assert np.all(np.isfinite(closed))
        assert np.max(np.abs(closed - traj.values[:, 0])) <= 1e-9

    def test_refined_series_matches_interval_loop(self):
        # At n = 30 the phase-compare default step T/2000 is refined 2-fold.
        poly = helpers.solution(30, 1.1, 7)
        p = dche_to_params(poly.params)
        times = np.arange(20001) * (10.0 * p.period / 20000)
        assert np.array_equal(phase_series(poly, times), phase_series_loop(poly, times))

    def test_oversized_grid_is_typed(self):
        # Root 0 at (7, 0.3) has lambda + mu**2 = 1.7e-16: the period is
        # 1.6e-7, so one time unit needs a grid of 3.6e9 samples.
        poly = helpers.solution(7, 0.3, 0)
        with pytest.raises(InvalidParams, match=r"needs \d+ samples"):
            phase_series(poly, np.linspace(0.0, 1.0, 5))

    def test_grid_cap_counts_samples(self, monkeypatch):
        poly = helpers.solution(2, 1.0, 2)
        period = dche_to_params(poly.params).period
        times = np.arange(101) * (period / 1000.0)  # no refinement needed
        monkeypatch.setattr(structure, "_PHASE_MAX_SAMPLES", 100)
        phase_series(poly, times[:100])
        with pytest.raises(InvalidParams, match="needs 101 samples"):
            phase_series(poly, times)
        # Steps just under twice the refined step: 50 intervals of 2 samples.
        coarse = np.arange(51) * (period / 130.0)
        with pytest.raises(InvalidParams, match="needs 101 samples"):
            phase_series(poly, coarse)
        phase_series(poly, coarse[:50])

    def test_unit_circle_zero_rejected(self):
        d = DcheParams(n=1, mu=1.0, lam=0.9)
        fake = HeunPolynomial(coeffs=(1.0, 1.0), params=d, epsilon=1)  # zero at -1
        with pytest.raises(ZeroOnUnitCircle):
            phase_series(fake, np.linspace(0.0, 1.0, 9))
        with pytest.raises(ZeroOnUnitCircle):
            phase_rate(fake, np.linspace(0.0, 1.0, 9))

    def test_rate_rejects_non_vector_times(self):
        poly = helpers.solution(1, 0.5, 1)
        with pytest.raises(InvalidParams, match="1-d"):
            phase_rate(poly, np.zeros((2, 2)))
        with pytest.raises(InvalidParams, match="1-d"):
            phase_rate(poly, [])

    @pytest.mark.parametrize(
        "call,times",
        [
            (phase_series, [0.0, math.inf]),
            (phase_series, [0.0, math.nan]),
            (phase_series, [math.nan]),
            (phase_rate, [math.nan, math.inf]),
        ],
        ids=["series-inf", "series-nan", "series-lone-nan", "rate-nan-inf"],
    )
    def test_non_finite_times_are_typed(self, call, times):
        poly = helpers.solution(1, 0.5, 1)
        with pytest.raises(InvalidParams, match="times must be finite"):
            call(poly, times)


def _zeros_in_disc(poly):
    return int(np.sum(np.abs(np.roots(np.asarray(poly.coeffs)[::-1])) < 1.0))


def _assert_equal_mod_2pi(a, b):
    np.testing.assert_allclose(np.cos(a), np.cos(b), rtol=0, atol=1e-9)
    np.testing.assert_allclose(np.sin(a), np.sin(b), rtol=0, atol=1e-9)


class TestSecondSolution:
    def test_wronskian_identity_and_base_independence(self):
        for index in (0, 1):
            poly = helpers.solution(1, 1.0, index)
            for z, base in helpers.wronskian_pairs(poly):
                if abs(z - base) < 1e-9:
                    continue
                q, dq, _ = second_solution_jet(poly, z, base=base)
                w = poly.value(z) * dq - poly.deriv1(z) * q
                expected = z**poly.n * math.exp(
                    poly.params.mu * (z + 1.0 / z)
                )
                assert complex(w).imag == pytest.approx(0.0, abs=1e-10)
                assert complex(w).real == pytest.approx(
                    expected, rel=1e-10
                )

    def test_wronskian_hand_value_at_one(self):
        # z = 1 gives exactly e^{2 mu} for any degree.
        poly = helpers.solution(1, 1.0, 0)
        q, dq, _ = second_solution_jet(poly, 1.0, base=1.6)
        w = poly.value(1.0) * dq - poly.deriv1(1.0) * q
        assert complex(w).real == pytest.approx(math.exp(2.0), rel=1e-10)

    @pytest.mark.parametrize("n,index", [(0, 0), (2, 2), (3, 3)])
    def test_satisfies_master_equation(self, n, index):
        poly = helpers.solution(n, 1.0, index)
        windows = helpers.clear_windows(poly)
        assert windows, "no zero-free window to test in"
        a, b = windows[-1]
        base = 0.5 * (a + b)
        for z in np.linspace(a, b, 4):
            jet = second_solution_jet(poly, float(z), base=base)
            res, scale = helpers.master_jet_residual(poly, float(z), jet)
            assert res <= 1e-9 * max(scale, 1e-300)

    def test_value_shortcut_matches_jet(self):
        poly = helpers.solution(2, 1.0, 2)
        a, b = helpers.clear_windows(poly)[-1]
        z, base = 0.25 * a + 0.75 * b, 0.5 * (a + b)
        q, _, _ = second_solution_jet(poly, z, base=base)
        assert second_solution(poly, z, base=base) == pytest.approx(q)

    def test_zero_on_path_rejected(self):
        # The top root at (n, mu) = (1, 1) has its zero at about 0.618.
        poly = helpers.solution(1, 1.0, 1)
        zero = -poly.coeffs[0]
        assert 0.5 < zero < 0.7
        with pytest.raises(PolynomialZeroOnPath):
            second_solution(poly, 0.55, base=1.0)


class TestQuadrature:
    # 1/x diverges on (0, 1]: QUADPACK stops at its subdivision limit.
    @staticmethod
    def _divergent(x):
        return 1.0 / x

    def test_non_convergence_is_typed(self):
        with pytest.raises(QuadratureFailure):
            structure._quad(self._divergent, 0.0, 1.0)

    def test_abserr_ok_covers_the_reported_error(self):
        from scipy.integrate import quad

        value, abserr = quad(
            self._divergent, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=400,
            full_output=1,
        )[:2]
        assert structure._quad(self._divergent, 0.0, 1.0, abserr_ok=abserr) == value
        with pytest.raises(QuadratureFailure):
            structure._quad(self._divergent, 0.0, 1.0, abserr_ok=0.5 * abserr)


class TestOrthogonality:
    def test_weight_needs_positive_argument(self):
        p1, p2 = helpers.solution(0, 1.0, 0), helpers.solution(1, 1.0, 1)
        with pytest.raises(NonPositiveArgument):
            orthogonality_weight(-0.5, p1, p2)

    def test_weight_needs_shared_mu(self):
        p1, p2 = helpers.solution(0, 1.0, 0), helpers.solution(1, 0.5, 1)
        with pytest.raises(InvalidParams):
            orthogonality_weight(1.0, p1, p2)

    def test_weight_vanishes_for_identical_triplets(self):
        p1 = helpers.solution(2, 1.0, 2)
        z = np.linspace(0.5, 2.0, 7)
        np.testing.assert_allclose(orthogonality_weight(z, p1, p1), 0.0, atol=1e-15)

    def test_divergence_identity_at_solutions(self):
        p1, p2 = helpers.solution(0, 1.0, 0), helpers.solution(1, 1.0, 1)
        for z in (0.4, 0.9, 1.7, 3.2):
            res, scale = weight_divergence_residual(z, p1, p2)
            assert abs(res) <= 1e-12 * max(scale, 1e-300)

    def test_divergence_identity_flags_non_solution(self):
        p1 = helpers.solution(0, 1.0, 0)
        d = DcheParams(n=1, mu=1.0, lam=0.9)
        fake = HeunPolynomial(coeffs=(0.3, 1.0), params=d, epsilon=1)
        res, scale = weight_divergence_residual(1.3, p1, fake)
        assert abs(res) > 1e-4 * scale

    def test_different_degrees_are_orthogonal(self):
        p1 = helpers.solution(0, 1.0, 0)
        p2 = helpers.solution(1, 1.0, 1)
        value, scale = orthogonality_integral(p1, p2)
        assert scale > 0
        assert abs(value) <= 1e-8 * scale

    def test_norms_positive(self):
        for n, index in [(0, 0), (1, 1), (2, 2)]:
            poly = helpers.solution(n, 1.0, index)
            norm = norm_integral(poly)
            assert math.isfinite(norm) and norm > 0

    def test_norm_needs_positive_mu(self):
        with pytest.raises(MuNotPositive):
            norm_integral(helpers.solution(1, -1.0, 0))

    def test_integral_needs_positive_mu(self):
        p1, p2 = helpers.solution(0, -1.0, 0), helpers.solution(1, -1.0, 1)
        with pytest.raises(MuNotPositive):
            orthogonality_integral(p1, p2)
