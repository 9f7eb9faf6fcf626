"""Parameter records, the triplet maps, and container validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heun_rsj import spectral
from heun_rsj.errors import (
    ConvergenceFailure,
    HeunRsjError,
    InvalidParams,
    NonPositiveDiscriminant,
)
from heun_rsj.model import (
    DcheParams,
    HeunPolynomial,
    RsjParams,
    Trajectory,
    dche_to_params,
    drive_columns,
    frequency_scale,
)
from heun_rsj.spectral import lambda_spectrum

import helpers
from identities import DcheCandidate, NonIntegralDegree, params_to_dche
from oracles import mpmath_root


class TestRsjParams:
    def test_period(self):
        assert RsjParams(A=1.0, B=0.0, omega=2.0).period == math.pi
        assert RsjParams(A=1.0, B=0.0, omega=-2.0).period == math.pi

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(A=0.0, B=1.0, omega=1.0),
            dict(A=1.0, B=1.0, omega=0.0),
            dict(A=math.nan, B=1.0, omega=1.0),
            dict(A=1.0, B=math.inf, omega=1.0),
            dict(A=1.0, B=1.0, omega=math.nan),
            dict(A=True, B=1.0, omega=1.0),
            dict(A=1.0, B=False, omega=1.0),
            dict(A=1.0, B=1.0, omega=True),
        ],
    )
    def test_rejects_degenerate_bias(self, kwargs):
        with pytest.raises(InvalidParams):
            RsjParams(**kwargs)

    def test_int_too_large_for_a_double_is_typed(self):
        with pytest.raises(InvalidParams, match="A is a 1329-bit int"):
            RsjParams(A=10**400, B=1.0, omega=1.0)


class TestDcheParams:
    def test_accepts_zero_mu(self):
        d = DcheParams(n=2, mu=0.0, lam=1.5)
        assert (d.n, d.mu, d.lam) == (2, 0.0, 1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=-1, mu=1.0, lam=0.0),
            dict(n=True, mu=1.0, lam=0.0),
            dict(n=1.5, mu=1.0, lam=0.0),
            dict(n=1, mu=math.nan, lam=0.0),
            dict(n=1, mu=1.0, lam=math.inf),
            dict(n=1, mu=True, lam=0.0),
            dict(n=1, mu=1.0, lam=False),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidParams):
            DcheParams(**kwargs)

    def test_int_too_large_for_a_double_is_typed(self):
        with pytest.raises(InvalidParams, match="mu is a 1329-bit int"):
            DcheParams(n=1, mu=10**400, lam=1.0)


class TestTripletMaps:
    def test_hand_forward_map(self):
        # B/omega = -4 so the degree is exactly 3; mu = A/(2 omega) = 2 and
        # lambda = 1/(4 omega^2) - mu^2 = 4 - 4 = 0.
        cand = params_to_dche(RsjParams(A=1.0, B=-1.0, omega=0.25))
        assert cand.integral
        assert cand.n_real == pytest.approx(3.0, abs=1e-14)
        d = cand.params()
        assert (d.n, d.mu, d.lam) == (3, 2.0, 0.0)

    def test_non_integral_degree(self):
        cand = params_to_dche(RsjParams(A=1.0, B=-0.7, omega=0.5))
        assert not cand.integral
        assert cand.n_real == pytest.approx(0.4, abs=1e-12)
        with pytest.raises(NonIntegralDegree):
            cand.params()

    def test_hand_inverse_map(self):
        d = DcheParams(n=2, mu=0.5, lam=1.0)
        p = dche_to_params(d)
        w = 1.0 / (2.0 * math.sqrt(1.25))
        assert p.omega == pytest.approx(w, rel=1e-15)
        assert p.A == pytest.approx(2.0 * 0.5 * w, rel=1e-15)
        assert p.B == pytest.approx(-3.0 * w, rel=1e-15)

    @pytest.mark.parametrize("lam", [-0.25, -1.0])
    def test_inverse_needs_positive_discriminant(self, lam):
        with pytest.raises(NonPositiveDiscriminant):
            dche_to_params(DcheParams(n=1, mu=0.5, lam=lam))

    def test_frequency_scale(self):
        d = DcheParams(n=2, mu=0.5, lam=1.0)
        assert frequency_scale(d) == math.sqrt(1.25)
        assert dche_to_params(d).omega == 1.0 / (2.0 * frequency_scale(d))
        with pytest.raises(NonPositiveDiscriminant, match="no real drive frequency"):
            frequency_scale(DcheParams(n=1, mu=0.5, lam=-0.25))
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            frequency_scale(DcheParams(n=1, mu=1e200, lam=1.0))

    @given(
        n=st.integers(min_value=0, max_value=12),
        mu=st.floats(min_value=0.01, max_value=4.0),
        sign=st.sampled_from([-1.0, 1.0]),
        lam=st.floats(min_value=-0.9, max_value=30.0),
    )
    @settings(max_examples=150)
    def test_round_trip_from_triplet(self, n, mu, sign, lam):
        lam = lam * max(mu**2, 0.1)  # keeps lam + mu^2 bounded away from 0
        if lam + (sign * mu) ** 2 <= 1e-6:
            lam = 1e-6 - (sign * mu) ** 2 + abs(lam)
        d = DcheParams(n=n, mu=sign * mu, lam=lam)
        p = dche_to_params(d)
        assert p.omega > 0
        assert p.B == -(n + 1) * p.omega
        assert 4.0 * p.omega**2 * (d.lam + d.mu**2) == pytest.approx(
            1.0, rel=1e-14
        )
        cand = params_to_dche(p)
        assert cand.integral
        back = cand.params()
        assert back.n == n
        assert back.mu == pytest.approx(d.mu, rel=1e-12, abs=1e-14)
        assert back.lam == pytest.approx(d.lam, rel=1e-10, abs=1e-10)

    @given(
        a=st.floats(min_value=0.1, max_value=5.0),
        b=st.floats(min_value=-5.0, max_value=5.0),
        w=st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=150)
    def test_forward_map_invariant(self, a, b, w):
        cand = params_to_dche(RsjParams(A=a, B=b, omega=w))
        assert 4.0 * w**2 * (cand.lam + cand.mu**2) == pytest.approx(
            1.0, rel=1e-13
        )
        assert cand.mu == pytest.approx(a / (2.0 * w), rel=1e-15)
        assert cand.n_real == pytest.approx(-(b / w + 1.0), rel=1e-12, abs=1e-12)


def _drive_row(n: int, mu: float, lam: float) -> tuple:
    """What dche_to_params gives for one triplet: the float.hex of omega, A
    and B, or the name of the error it raises."""
    try:
        p = dche_to_params(DcheParams(n=n, mu=mu, lam=lam))
    except HeunRsjError as exc:
        return (type(exc).__name__,)
    return tuple(float.hex(x) for x in (p.omega, p.A, p.B))


def _drive_rows(n, mu, lam) -> list[tuple]:
    omega, A, B, error = (c.tolist() for c in drive_columns(n, mu, lam))
    return [
        (e,) if e else tuple(float.hex(x) for x in (w, a, b))
        for w, a, b, e in zip(omega, A, B, error)
    ]


# Both zeros, a drive whose square underflows, a negative drive and one
# whose square overflows.
_TABLE_MUS = (0.0, -0.0, 1e-160, -0.7, 1.82, 1e200)


class TestDriveColumns:
    def test_every_root_matches_dche_to_params(self):
        # Every root of n <= 40 at each mu, one spectrum at a time and then
        # all of them in one call, as sweep makes it.  A spectrum that the
        # gate refuses must hold a wrong root at the index it names: at mu =
        # 1e200 the middle root of an even n falls back to its seed.
        n_all, mu_all, lam_all, want_all = [], [], [], []
        for n in range(41):
            for mu in _TABLE_MUS:
                try:
                    lams = lambda_spectrum(n, mu).lambdas
                except ConvergenceFailure as err:
                    i = err.root_index
                    lam = float(spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))[i])
                    ref = mpmath_root(n, mu, i, lam)
                    assert abs(lam - ref) > 1e-9 * max(abs(ref), 1), (n, mu)
                    continue
                want = [_drive_row(n, mu, lam) for lam in lams]
                assert _drive_rows(n, mu, np.array(lams)) == want
                n_all += [n] * len(lams)
                mu_all += [mu] * len(lams)
                lam_all += lams
                want_all += want
        assert _drive_rows(np.array(n_all), np.array(mu_all), lam_all) == want_all
        names = {row[0] for row in want_all if len(row) == 1}
        assert names == {"InvalidParams", "NonPositiveDiscriminant"}

    @pytest.mark.parametrize(
        "n,mu,lam",
        [
            (0, 1.3e154, 1.7e308),  # lambda + mu**2 overflows: omega = 0
            (2, 5e-324, 4.0),  # A underflows to 0
            (1, 1e-160, -1e-320),  # lambda + mu**2 = 0
            (1, 1e-160, 5e-324),  # a subnormal discriminant
            (3, -1e150, -1e300),
            (0, 1.4e154, 1.0),  # mu**2 overflows
        ],
    )
    def test_edge_triplets(self, n, mu, lam):
        assert _drive_rows(n, mu, [lam]) == [_drive_row(n, mu, lam)]

    @given(
        n=st.integers(min_value=0, max_value=10**6),
        mu=st.floats(allow_nan=False, allow_infinity=False),
        lam=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300)
    def test_random_triplets(self, n, mu, lam):
        assert _drive_rows(n, mu, [lam]) == [_drive_row(n, mu, lam)]


class TestHeunPolynomial:
    def _params(self, n):
        return DcheParams(n=n, mu=1.0, lam=0.5)

    def test_evaluation_jet(self):
        poly = HeunPolynomial(coeffs=(2.0, -1.0, 3.0), params=self._params(2), epsilon=1)
        z = 0.7
        assert poly.value(z) == pytest.approx(2.0 - z + 3.0 * z**2, rel=1e-15)
        assert poly.deriv1(z) == pytest.approx(-1.0 + 6.0 * z, rel=1e-15)
        assert helpers.deriv2(poly, z) == pytest.approx(6.0, rel=1e-15)
        assert poly.norm_l1() == 6.0

    def test_vector_evaluation(self):
        poly = HeunPolynomial(coeffs=(1.0, 2.0), params=self._params(1), epsilon=-1)
        z = np.array([0.0, 1.0, 1j])
        np.testing.assert_allclose(poly.value(z), 1.0 + 2.0 * z, rtol=1e-15)

    @pytest.mark.parametrize(
        "n,coeffs",
        [
            (2, (1.0, 2.0)),  # length mismatch
            (1, (1.0, 0.0)),  # leading coefficient zero
            (1, (math.nan, 1.0)),
            (1, (1.0, math.inf)),
        ],
    )
    def test_rejects_bad_coefficients(self, n, coeffs):
        with pytest.raises(InvalidParams):
            HeunPolynomial(coeffs=coeffs, params=self._params(n), epsilon=1)

    def test_degree_is_the_triplet_degree(self):
        poly = HeunPolynomial(coeffs=(1.0, 1.0, 1.0), params=self._params(2), epsilon=1)
        assert poly.n == 2
        with pytest.raises(InvalidParams, match="need 2 coefficients"):
            HeunPolynomial(coeffs=(1.0, 1.0, 1.0), params=self._params(1), epsilon=1)

    @pytest.mark.parametrize("epsilon", [0, 2, 1.0 + 1e-9, None])
    def test_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(InvalidParams, match="epsilon must be"):
            HeunPolynomial(coeffs=(1.0, 1.0), params=self._params(1), epsilon=epsilon)


class TestTrajectory:
    def test_phase_columns(self):
        traj = Trajectory(times=[0.0, 1.0], values=[0.1, 0.2])
        assert len(traj) == 2
        assert traj.values.shape == (2, 1)
        assert traj.kind == "phase"

    def test_xy_columns(self):
        traj = Trajectory(times=[0.0, 1.0], values=[[1.0, 0.0], [0.9, 0.1]])
        assert traj.values.shape == (2, 2)
        assert traj.kind == "xy"

    def test_rejects_non_monotone_times(self):
        with pytest.raises(InvalidParams):
            Trajectory(times=[0.0, 0.0], values=[0.1, 0.2])

    def test_rejects_non_finite_values(self):
        with pytest.raises(InvalidParams):
            Trajectory(times=[0.0, 1.0], values=[0.1, math.nan])

    def test_rejects_unknown_kind(self):
        # The kind follows from the columns: it cannot be named, and a third
        # column is no kind at all.
        with pytest.raises(TypeError):
            Trajectory(times=[0.0, 1.0], values=[0.1, 0.2], kind="angle")
        with pytest.raises(InvalidParams, match="1 or 2 columns"):
            Trajectory(times=[0.0, 1.0], values=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        traj = Trajectory(times=[0.0, 1.0], values=[[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(AttributeError):
            traj.kind = "phase"


class TestDcheCandidate:
    def test_params_when_integral(self):
        cand = DcheCandidate(n_real=2.0 + 1e-12, mu=1.0, lam=0.5, integral=True)
        assert cand.params() == DcheParams(n=2, mu=1.0, lam=0.5)

    def test_params_when_not_integral(self):
        cand = DcheCandidate(n_real=2.4, mu=1.0, lam=0.5, integral=False)
        with pytest.raises(NonIntegralDegree):
            cand.params()
