"""Circle coordinates, the companion complexification, and equation maps."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heun_rsj import heun_poly, spectral
from heun_rsj.dynamics import integrate_xy
from heun_rsj.errors import InvalidParams, OriginUndefined
from heun_rsj.model import DcheParams, RsjParams, dche_to_params

from identities import (
    CanonicalDche,
    PoleAtAlpha,
    SingularPoint,
    ZeroArgument,
    canonical_dche_params,
    mobius,
    mobius_inverse,
    residual_dche_form,
    residual_symmetric_form,
    residual_v_equation,
    transport,
    v_pair_on_circle,
    xy_to_v,
    z_of_t,
)

TEST_POINTS = [
    0.6,
    1.7,
    cmath.exp(0.3j),
    cmath.exp(1.1j),
    cmath.exp(2.4j),
    0.8 + 0.5j,
]


def _solution_jet(d: DcheParams, epsilon: int):
    """Analytic 2-jet of v = exp(-mu z) P(z) for a spectral polynomial P.

    P solving the polynomial-form equation makes v an exact solution of the
    second-order equation tested by residual_v_equation, so residuals of
    the transformed forms must vanish to rounding on any point.
    """
    P = heun_poly.build_polynomial(d, epsilon)
    p = dche_to_params(d)
    mu = d.mu

    def jet(z):
        g = cmath.exp(-mu * z)
        v = g * P.value(z)
        dv = g * (P.deriv1(z) - mu * P.value(z))
        d2v = g * (P.deriv2(z) - 2.0 * mu * P.deriv1(z) + mu**2 * P.value(z))
        return v, dv, d2v

    return p, jet


def _spectral_case():
    return spectral.root_params(2, 1.0, 2)


class TestCircleCoordinate:
    def test_values(self):
        assert z_of_t(math.pi / 4.0, 2.0) == pytest.approx(1j, abs=1e-15)
        t = np.linspace(0.0, 2.0, 5)
        np.testing.assert_allclose(z_of_t(t, 1.5), np.exp(1.5j * t), rtol=1e-15)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ZeroArgument):
            z_of_t(1.0, 0.0)


class TestComplexification:
    P_SYNTH = RsjParams(A=1.0, B=0.5, omega=1.0)

    def test_origin_rejected(self):
        with pytest.raises(OriginUndefined):
            xy_to_v(0.0, 1.0, 0.0, self.P_SYNTH)

    def test_matches_continuous_branch_at_t0(self):
        traj = integrate_xy(self.P_SYNTH, 0.8, -0.3, 1.0, 0.01)
        v, vc = v_pair_on_circle(traj, self.P_SYNTH)
        v0, vc0 = xy_to_v(1.0 + 0.0j, 0.8, -0.3, self.P_SYNTH)
        assert v[0] == pytest.approx(v0, rel=1e-13)
        assert vc[0] == pytest.approx(vc0, rel=1e-13)

    def test_vcheck_is_derivative_of_v(self):
        # d/dt v(z(t)) = v'(z) * i*omega*z, with v' = v_check; central
        # differences on a fine grid must reproduce that to O(dt^2).
        p = self.P_SYNTH
        t_end = p.period
        traj = integrate_xy(p, 1.0, 0.0, t_end, t_end / 8000.0)
        v, vc = v_pair_on_circle(traj, p)
        z = z_of_t(traj.times, p.omega)
        dt = traj.times[1] - traj.times[0]
        numeric = (v[2:] - v[:-2]) / (2.0 * dt)
        analytic = 1j * p.omega * z[1:-1] * vc[1:-1]
        dev = np.max(np.abs(numeric - analytic)) / np.max(np.abs(analytic))
        assert dev <= 1e-5

    def test_requires_xy_trajectory(self):
        from heun_rsj.dynamics import integrate_phase

        traj = integrate_phase(self.P_SYNTH, 0.0, 1.0)
        with pytest.raises(InvalidParams):
            v_pair_on_circle(traj, self.P_SYNTH)


class TestSecondOrderForms:
    def test_v_equation_on_closed_form_solution(self):
        d, eps = _spectral_case()
        p, jet = _solution_jet(d, eps)
        w = p.omega
        for z in TEST_POINTS:
            v, dv, d2v = jet(z)
            res = residual_v_equation(z, v, dv, d2v, p)
            scale = max(
                abs(z**2 * d2v),
                abs(v) / (4.0 * w**2),
                abs(dv),
                1e-30,
            )
            assert abs(complex(res)) <= 1e-11 * scale

    @pytest.mark.parametrize(
        "alpha,residual",
        [(1.0, residual_symmetric_form), (1j, residual_dche_form)],
    )
    def test_transported_forms(self, alpha, residual):
        d, eps = _spectral_case()
        p, jet = _solution_jet(d, eps)
        for z in TEST_POINTS:
            if abs(z - alpha) < 0.2:
                continue
            v, dv, d2v = jet(z)
            zeta, u, du, d2u = transport(z, v, dv, d2v, alpha)
            res = residual(zeta, u, du, d2u, p)
            scale = max(
                abs((1.0 - zeta**2) ** 2 * d2u),
                abs(du),
                abs(u) / p.omega**2,
                1e-30,
            )
            assert abs(complex(res)) <= 1e-11 * scale

    def test_v_equation_rejects_non_solution(self):
        d, eps = _spectral_case()
        p, jet = _solution_jet(d, eps)
        z = 0.6
        v, dv, d2v = jet(z)
        res = residual_v_equation(z, v * 1.001, dv, d2v, p)
        assert abs(complex(res)) > 1e-6


class TestMobius:
    def test_pole(self):
        with pytest.raises(PoleAtAlpha):
            mobius(1.0, 1.0)

    def test_inverse_singular_point(self):
        with pytest.raises(SingularPoint):
            mobius_inverse(1.0, 1.0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(InvalidParams):
            mobius(0.5, 0.0)

    @given(
        r=st.floats(min_value=0.2, max_value=3.0),
        theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        alpha=st.sampled_from([1.0, 1j]),
    )
    @settings(max_examples=200)
    def test_round_trip(self, r, theta, alpha):
        z = r * cmath.exp(1j * theta)
        if abs(z - alpha) < 1e-2:
            return
        zeta = mobius(z, alpha)
        back = mobius_inverse(zeta, alpha)
        assert abs(back - z) <= 1e-10 * (1.0 + abs(z))

    def test_cardinal_images(self):
        # alpha = 1 sends (0, inf-direction, unit circle) the standard way.
        assert mobius(0.0, 1.0) == -1.0
        assert mobius(1j, 1.0) == pytest.approx(
            (1j + 1.0) / (1j - 1.0), rel=1e-15
        )
        # Unit circle maps to the imaginary axis for alpha = 1.
        for theta in (0.4, 1.3, 2.2):
            zeta = mobius(cmath.exp(1j * theta), 1.0)
            assert abs(zeta.real) <= 1e-14


class TestCanonicalRecords:
    def test_hand_values(self):
        p = RsjParams(A=1.0, B=-1.5, omega=0.5)
        first, second = canonical_dche_params(p)
        assert isinstance(first, CanonicalDche)
        assert first.form == "mobius_alpha_i"
        assert first.a == 0
        assert first.c == pytest.approx(2.0)
        assert first.t == pytest.approx(1j)
        assert first.lam == pytest.approx(-1j)
        assert second.form == "canonical_rescaled"
        assert second.a == 0
        assert second.c == pytest.approx(-2.0)
        assert second.t == pytest.approx(-1.0)
        assert second.lam == pytest.approx(1.0)

    def test_consistency_with_triplet(self):
        d = DcheParams(n=2, mu=0.75, lam=1.3)
        p = dche_to_params(d)
        _, second = canonical_dche_params(p)
        assert second.c == pytest.approx(-d.n, rel=1e-12)
        assert second.t == pytest.approx(-d.mu**2, rel=1e-12)
        assert second.lam == pytest.approx(d.lam + d.mu**2, rel=1e-12)
