"""Coefficient system, determinant routes, and polynomial construction."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_rsj import heun_poly, spectral
from heun_rsj.errors import IndexOutOfRange, InvalidParams, NotSpectral
from heun_rsj.heun_poly import _continuant, build_polynomial
from heun_rsj.model import DcheParams, HeunPolynomial
from heun_rsj.spectral import ROOT_TOL, lambda_spectrum, root_params
from heun_rsj.structure import SAMPLE_POINTS

import helpers
from helpers import gate_scan, same_values
from identities import coefficient_matrix
from oracles import (
    DegreeZeroUnsupported,
    LambdaZero,
    ZeroRatioDivision,
    coeff_transfer,
    coefficient_ratios,
    coeffs_from_ratios,
    linear_rows_loop,
    necessary_condition,
    residual_master,
    spectral_det,
    spectral_det_transfer,
    transfer_matrix,
)


def _linear_rows(P: HeunPolynomial) -> np.ndarray:
    """The row residuals of the coefficient system at P's coefficients, from
    ``heun_poly._linear_rows`` on P's one row."""
    a = np.asarray(P.coeffs, dtype=float)[None]
    return heun_poly._linear_rows(P.n, P.params.mu, np.array([P.params.lam]), a)[0]


def _magnitude_recurrence(n: int, mu: float, lam: float) -> float:
    """The leading-minor recurrence of the determinant on the magnitudes of
    its terms: the scale that bounds its rounding error."""
    prev2, prev = 1.0, abs(lam)
    for j in range(1, n + 1):
        q = j * (n + 1 - j)
        prev2, prev = prev, abs(lam - q) * prev + mu * mu * q * prev2
    return prev


_TINY = 5e-324  # 2**-1074: below 2**-1022 a product is off by up to half of it


def _underflow_recurrence(n: int, mu: float, lam: float) -> float:
    """Bound on the absolute error that gradual underflow adds to the double
    leading-minor recurrence: ``_TINY / 2`` in ``mu*mu``, in the two products
    of ``c_j = mu**2 * j * (n+1-j)`` and in each summand of a step, carried
    through the recurrence on magnitudes.  It is counted in units of
    ``_TINY``, which itself would round each of those halves to zero."""
    mu2 = mu * mu
    prev2, prev = 1.0, abs(lam)
    err2, err = 0.0, 0.0
    for j in range(1, n + 1):
        r = n + 1 - j
        q = j * r
        dc = (q + r + 1) / 2  # the error of c_j
        err2, err = err, abs(lam - q) * err + mu2 * q * err2 + dc * prev2 + 1.0
        prev2, prev = prev, abs(lam - q) * prev + mu2 * q * prev2
    return math.ldexp(math.ceil(err), -1074)


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


def _gate_scan_loop(n, mu, lam):
    """One-lambda reference for the gate's scan (:func:`helpers.gate_scan`),
    in Python floats, with a frame test at every step.  Its maxima treat NaN as numpy's
    ``fmax`` (the summand maximum) and ``maximum`` (the frame's magnitude) do."""
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
        for x in (abs(t1), abs(t2)):
            if x > smax or smax != smax:  # fmax: a NaN loses
                smax = x
        prev2, prev = prev, cur
        dprev2, dprev = dprev, dcur
        values = (abs(prev), abs(prev2), abs(dprev), abs(dprev2), smax)
        m = max(values)
        if sum(values) != sum(values):  # maximum: a NaN wins
            m = math.nan
        ex = max(math.frexp(m)[1], -1022)
        if m > 0.0 and abs(ex) > 300:
            s = math.ldexp(1.0, -ex)
            prev2, prev, dprev2, dprev, smax = (
                prev2 * s, prev * s, dprev2 * s, dprev * s, smax * s
            )
            e += ex
    return prev, dprev, smax, e


def _unframed_scan(n, mu, lam):
    """det, ddet and summand maximum of the gate's recurrence
    (:func:`helpers.gate_scan`) on an array of lambda, in its dtype and with
    its arithmetic, but with no frame at all."""
    mu2 = mu * mu
    prev2, prev = np.ones_like(lam), lam
    dprev2, dprev = np.zeros_like(lam), np.ones_like(lam)
    smax = np.abs(lam)
    for j in range(1, n + 1):
        r = n + 1 - j
        dj = lam - j * r
        cj = mu2 * j * r
        t1, t2 = dj * prev, cj * prev2
        smax = np.fmax(np.fmax(smax, np.abs(t1)), np.abs(t2))
        prev2, prev = prev, t1 - t2
        dprev2, dprev = dprev, dj * dprev + prev2 - cj * dprev2
    return prev, dprev, smax


def _ldexp_clamped(m: float, e: int) -> float:
    """m * 2**e by ``math.ldexp``, saturating to +-inf past the double range."""
    if m == 0.0:
        return m
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _spectral_det_ldexp(d: DcheParams) -> tuple[float, float]:
    """``oracles.spectral_det`` read from the scan one float at a time."""
    det, _, smax, e = (a[0].item() for a in gate_scan(d.n, d.mu, np.array([d.lam])))
    return _ldexp_clamped(det, e), max(1.0, _ldexp_clamped(smax, e))


def _same_floats(a, b) -> bool:
    return all(x == y and math.copysign(1.0, x) == math.copysign(1.0, y) for x, y in zip(a, b))


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
    @example(n=1, mu=5e-324, lam=0.0)  # singular: the dense LU divides by zero
    def test_matches_dense_determinant(self, n, mu, lam):
        d = DcheParams(n=n, mu=mu, lam=lam)
        ours, scale = spectral_det(d)
        with np.errstate(divide="ignore"):
            dense = float(np.linalg.det(coefficient_matrix(d)))
        assert abs(ours - dense) <= 1e-9 * max(scale, abs(ours), abs(dense))

    @given(
        n=st.integers(min_value=1, max_value=12),
        mu=moderate_mu,
        lam=moderate_lam,
    )
    @settings(max_examples=300)
    @example(n=12, mu=1.0, lam=-1.0)  # lambda = -mu**2: float product lost it
    @example(n=3, mu=2.0, lam=5.960464477539063e-08)  # |det| = 5.5e-8 * scale
    @example(n=2, mu=2.9934346169690283e-156, lam=0.0)  # det = 4*mu**2, subnormal
    def test_minor_and_transfer_routes_agree(self, n, mu, lam):
        # The transfer route is exact, rounded once.  Each step of the double
        # minor recurrence rounds about six times, so its forward error is
        # at most 6*(n+1) ulps of the same recurrence run on magnitudes:
        # relative to |det| that is the recurrence's condition number times
        # those ulps.  Where that reaches 1 the recurrence keeps no digit
        # of det and there is nothing to compare.  Below 2**-1022 rounding
        # is absolute, not relative: the products that underflow add
        # _underflow_recurrence, and rounding the exact det once adds up to
        # _TINY / 2, counted as _TINY.
        d = DcheParams(n=n, mu=mu, lam=lam)
        a, _ = spectral_det(d)
        b = spectral_det_transfer(d)
        cond = _magnitude_recurrence(n, mu, lam) / abs(b) if b else math.inf
        rel = 6 * (n + 1) * np.finfo(float).eps * cond
        if rel >= 1:
            return
        assert abs(a - b) <= rel * abs(b) + _underflow_recurrence(n, mu, lam) + _TINY

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
        m, _, _, e = gate_scan(d.n, d.mu, np.array([d.lam]))
        assert math.ldexp(m[0], int(e[0])) == spectral_det(d)[0]

    def test_finite_determinant_over_a_saturated_scale(self):
        # Root 1 at (104, 1): the scan's summand maximum passes the double
        # range while the determinant itself stays finite.
        d = DcheParams(n=104, mu=1.0, lam=lambda_spectrum(104, 1.0).lambdas[1])
        det, scale = spectral_det(d)
        assert math.isfinite(det) and scale == math.inf
        assert _same_floats((det, scale), _spectral_det_ldexp(d))

    @pytest.mark.parametrize("n,lam,sign", [(150, -1e5, -1), (151, -1e5, 1), (150, 1e6, 1)])
    def test_overflowing_determinant_keeps_its_sign(self, n, lam, sign):
        d = DcheParams(n=n, mu=1.0, lam=lam)
        det, scale = spectral_det(d)
        assert det == sign * math.inf and scale == math.inf
        assert _same_floats((det, scale), _spectral_det_ldexp(d))

    def test_signed_zero_stays(self):
        d = DcheParams(n=0, mu=1.0, lam=-0.0)
        assert _same_floats(spectral_det(d), (-0.0, 1.0))
        assert _same_floats(spectral_det(d), _spectral_det_ldexp(d))

    def test_scale_floor(self):
        assert spectral_det(DcheParams(n=2, mu=1.0, lam=0.5))[1] >= 1.0

    @pytest.mark.parametrize("n", [0, 1, 7, 60, 150, 300, 400])
    @pytest.mark.parametrize(
        "mu", [0.2, 1.82, -1.3, 0.0, -0.0, 1e-300, 1e-8, 1e10, 1e50, 1e200]
    )
    def test_array_scan_matches_scalar_loop(self, n, mu):
        # The array recurrence tests its renormalisation frame only every
        # few steps, as its growth bound allows, where the loop below tests
        # it at every step.  Frames are powers of two, so each element's
        # det, ddet and summand maximum times 2**e, and the gate's decision
        # on them, must be bit for bit the loop's, at the roots and between
        # them; the roots are polished but not gated, as the gate refuses
        # some at mu = 1e10 and past it.  mu = 0 and mu = 1e-300 (mu**2 = 0)
        # have double roots, where the frame of an exact zero is set by a
        # subnormal summand maximum from n = 136 on; at mu = 1e200 mu**2
        # overflows and the scan is not finite.
        roots = spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
        lams = np.concatenate([
            roots, np.linspace(-min(mu * mu, 1e300) - 1.0, n * n / 4.0 + 3.0, 9)
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            got = gate_scan(n, mu, lams)
            want = [_gate_scan_loop(n, mu, lam) for lam in lams.tolist()]
            want = tuple(np.array(col) for col in zip(*want))
            for g, w in zip(helpers.scaled_scan(got), helpers.scaled_scan(want)):
                assert g.tobytes() == w.tobytes()
            gate = [spectral._relative_dets(lams, *scan) <= ROOT_TOL for scan in (got, want)]
        assert np.array_equal(*gate)


    @pytest.mark.parametrize("n", [7, 60, 300, 400])
    @pytest.mark.parametrize("mu", [1.82, -1.3, 1e10, 1e200, 1e300])
    def test_long_double_scan_matches_unframed_loop(self, n, mu):
        # The polish and the certification pass scan long-double lambda,
        # with mu taken to long double.  The frames are powers of two in
        # that dtype, so each det, ddet and summand maximum times 2**e must
        # equal the unframed recurrence wherever that stays finite.  It
        # does at every lambda here where n*log10|mu| <= 3000, frames or
        # not (n = 7 at mu = 1e300 takes them), and from n = 60 at mu =
        # 1e200 at none: the powers of mu**2 pass the long-double range,
        # and only the framed scan has a value.
        ld = np.longdouble
        roots = spectral._polish_extended(n, mu, spectral._eigen_seeds(n, mu))
        top = float(np.max(np.abs(roots)))
        lams = np.concatenate([roots, np.linspace(-top - 1.0, top + 1.0, 9)]).astype(ld)
        with np.errstate(over="ignore", invalid="ignore"):
            got = gate_scan(n, ld(mu), lams)
            want = _unframed_scan(n, ld(mu), lams)
        finite = np.all([np.isfinite(w) for w in want], axis=0)
        if n * math.log10(abs(mu)) <= 3000:
            assert finite.all()
        assert np.all(np.isfinite(got[:3]))
        for g, w in zip(helpers.scaled_scan(got), want):
            assert g.dtype == ld and np.array_equal(g[finite], w[finite])
        assert np.any(got[3] != 0) == (n >= 60 or abs(mu) >= 1e200)


# Problems of the mode tests: frames from n = 60 on, and at every step
# where the growth bound passes 2**300 (mu = 1e50) or mu**2 is below
# 2**-300 (mu = 1e-100).
_MODE_GRID = [
    (0, 0.5), (1, -1.3), (7, 1.82), (60, 0.2), (150, 1.82), (300, -1.3),
    (40, 1e10), (40, 1e50), (20, 1e-100),
]


def _per_element(dtype, matrix: str) -> tuple:
    """Elements of every problem of ``_MODE_GRID``, at its eigenvalue seeds
    and five points across and beyond them: lambda for T, and kappa = -+
    sqrt(lambda + mu**2) for J where lambda + mu**2 > 0.  They are
    shuffled, then stably sorted by degree, descending, as the recurrence
    takes them.  kappa = 0 stays out: there the double derivative of
    (300, -1.3) passes the factor by more than the double range, so the
    full mode's frame leaves the factor 0, which a mode without the
    derivative keeps (as ``test_value_mode_keeps_the_summand_maximum``
    shows for T)."""
    n, mu, x = [], [], []
    for d, m in _MODE_GRID:
        lam = np.concatenate([
            spectral._eigen_seeds(d, m), np.linspace(-m * m - 1.0, d * d / 4.0 + 3.0, 5)
        ])
        if matrix == "J":
            kappa = np.sqrt(lam[lam + m * m > 0] + m * m)
            lam = np.concatenate([-kappa, kappa])
        n += [d] * lam.size
        mu += [m] * lam.size
        x += lam.tolist()
    order = np.random.default_rng(5).permutation(len(x))
    order = order[np.argsort(-np.array(n)[order], kind="stable")]
    return np.array(n)[order], np.array(mu)[order], np.array(x, dtype=dtype)[order]


# Problems of the one-element test: every degree to 300 and two large ones,
# each at one drive, one mode and two of the x below in turn.  The drives
# run from mu = 0 and mu**2 below 2**-300 (a frame test at every step) to
# growth bounds past 2**300 (mu = 1e50 and 1e300).
_ONE_DEGREES = (*range(301), 1000, 3000)
_ONE_MUS = (0.0, 1e-100, 1e-3, 0.7, -1.82, 25.0, 1e5, 1e50, 1e300)
_ONE_X = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-320, 1.5, -3.25, 1e200, 1e-300)
_MODES = ((False, False), (True, False), (False, True), (True, True))


class TestContinuant:
    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    @pytest.mark.parametrize("matrix", ["T", "J"])
    def test_one_element_matches_its_stacked_element(self, matrix, dtype):
        # A one-element call runs on numpy scalars, a stack on arrays.  The
        # stack [x, -x, x/2, 0] has the growth bound of x alone, so it tests
        # its frames at the same steps, and each output of the one-element
        # call, frame included, must be bit for bit its first element's,
        # signed zeros and NaN included.
        with np.errstate(all="ignore"):
            for i, n in enumerate(_ONE_DEGREES):
                mu, (derivative, summand) = _ONE_MUS[i % 9], _MODES[i % 4]
                seed = spectral._eigen_seeds(min(n, 40), mu)[0] - 0.25
                for k in range(2):
                    one = np.array([(*_ONE_X, seed)[(2 * i + k) % 12]], dtype=dtype)
                    stack = np.concatenate([one, -one, one / 2, [0]])
                    flags = dict(derivative=derivative, summand=summand)
                    got = _continuant(matrix, n, mu, one, **flags)
                    want = _continuant(matrix, n, mu, stack, **flags)
                    for g, w in zip(got, want):
                        assert (g is None) == (w is None)
                        assert g is None or same_values(g, w[:1]), (n, mu, one, flags)

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    @pytest.mark.parametrize("matrix", ["T", "J"])
    def test_modes_match_the_full_mode(self, matrix, dtype):
        # A mode frames only the values it forms, so its frames differ from
        # those of the full mode (derivative and summand maximum).  Frames
        # are powers of two, so each value it forms, times 2**e, must be bit
        # for bit the full mode's; a value it does not form is None.
        n, mu, x = _per_element(dtype, matrix)
        full = helpers.scaled_scan(
            _continuant(matrix, n, mu, x, derivative=True, summand=True)
        )
        for derivative, summand in ((False, False), (True, False), (False, True)):
            scan = _continuant(matrix, n, mu, x, derivative=derivative, summand=summand)
            got = helpers.scaled_scan(scan)
            for g, w, formed in zip(got, full, (True, derivative, summand)):
                assert (g is not None) == formed
                assert g is None or (g.dtype == x.dtype and same_values(g, w))
            assert np.any(scan[3] != 0)

    @pytest.mark.parametrize("dtype", [float, np.longdouble])
    def test_value_mode_keeps_the_summand_maximum(self, dtype):
        # At (150, 0, 1668), a double root (1668 = 12*139), the determinant
        # is exactly zero from step 12 on while its derivative passes
        # 2**1230 on the way.  The scan without the derivative frames by the
        # values and the summand maximum alone, so it keeps that maximum:
        # the largest |alpha_j * D_{j-1}|, of exact integers here, 1.5289e34.
        prev, summands = 1668, [1668]
        for j in range(1, 151):
            alpha = 1668 - j * (151 - j)
            summands.append(abs(alpha * prev))
            prev *= alpha
        exact = max(summands)
        det, ddet, smax, e = _continuant(
            "T", 150, 0.0, np.array([1668.0], dtype=dtype), summand=True
        )
        assert ddet is None and det[0] == 0
        assert float(np.ldexp(smax, e)[0]) == pytest.approx(exact, rel=1e-14)
        assert f"{exact:.4e}" == "1.5289e+34"


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
        poly = HeunPolynomial(coeffs=tuple(a), params=d, epsilon=1)
        rows = _linear_rows(poly)
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
        bad = dataclasses.replace(poly, coeffs=tuple(coeffs))
        worst = max(
            abs(res) / max(scale, 1e-300)
            for res, scale in (residual_master(bad, z) for z in SAMPLE_POINTS)
        )
        assert worst >= 1e-6

    def test_linear_system_rows_match_dense_product(self):
        # The product of the dense matrix with the coefficients, summed in
        # column order with its zero terms left out (the loop oracle), not
        # BLAS's product, which each kernel rounds differently.
        for n, mu, index in ((3, 0.5, 3), (12, 1.82, 5), (40, -0.7, 21)):
            poly = helpers.solution(n, mu, index)
            rows = _linear_rows(poly)
            assert rows.tolist() == linear_rows_loop(poly)
            # Each row is within 5 units of roundoff of the exact sum of its
            # terms (two products and up to two sums on every band term, one
            # subtraction on the diagonal).
            lam, m = Fraction(poly.params.lam), Fraction(mu)
            a = [Fraction(x) for x in poly.coeffs]
            u = Fraction(1, 2**53)
            for k, row in enumerate(rows.tolist()):
                terms = [(lam - k * (n + 1 - k)) * a[k]]
                if k >= 1:
                    terms.append(m * (n + 1 - k) * a[k - 1])
                if k < n:
                    terms.append(m * (k + 1) * a[k + 1])
                bound = 5 * u * sum(abs(t) for t in terms) / (1 - 5 * u)
                assert abs(Fraction(row) - sum(terms)) <= bound, (n, k, row)

    def test_linear_system_flags_perturbation(self):
        poly = self._solution()
        coeffs = list(poly.coeffs)
        amax = max(abs(c) for c in coeffs)
        coeffs[0] += 1e-4 * amax
        bad = dataclasses.replace(poly, coeffs=tuple(coeffs))
        assert np.max(np.abs(_linear_rows(bad))) >= 1e-6 * amax


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

    def test_singular_shift_is_typed(self):
        # 8 ulps above root 13 of (16, 0.25), where the shift that inverse
        # iteration once nudged off kappa made the LU of J - shift*I exactly
        # singular.  No solve is left to fail: Newton on the factor takes
        # kappa to the root's own, and the twisted factorization gives the
        # polynomial of root 13, bit for bit, with no warning.
        root, eps = root_params(16, 0.25, 13)
        d = DcheParams(n=16, mu=0.25, lam=68.5838497406936)
        assert eps == 1 and d.lam - root.lam == 8 * math.ulp(root.lam)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            poly = build_polynomial(d, 1)
        assert poly.coeffs == build_polynomial(root, 1).coeffs

    # Where mu**2 overflows a double the build is refused, whatever the
    # drive's type, and with no warning.
    @pytest.mark.parametrize(
        "mu", [10**200, np.float64(1e200), -1e200], ids=["int", "float64", "float"]
    )
    def test_overflowing_mu_squared_is_typed(self, mu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams, match=r"^mu\*\*2 overflows a double at mu = "):
                build_polynomial(DcheParams(n=2, mu=mu, lam=1.0), 1)

    def test_floored_pivot_keeps_the_other_rows(self, monkeypatch):
        # At (5, 1e20) kappa = -+sqrt(lambda + mu**2) rounds to -+mu in long
        # double at roots 2-5, and a pivot of J - kappa*I cancels to 0: their
        # builds factor again with the floor, which those of roots 0 and 1
        # do not.  In the stack of the whole spectrum, built as the
        # certification pass builds it, the floor pass runs for every root,
        # and every row is still bit for bit its root's build alone, and
        # finite.
        n, mu = 5, 1e20
        lam = np.array(lambda_spectrum(n, mu).lambdas)
        eps = spectral._root_signs(n, mu, np.arange(n + 1))
        copyto, floored = np.copyto, []

        def spy(dst, src, **kwargs):
            floored.append(dst.shape[-1])
            return copyto(dst, src, **kwargs)

        monkeypatch.setattr(np, "copyto", spy)
        alone = []
        for i in range(n + 1):
            floored.clear()
            alone.append(heun_poly._build_rows(n, mu, lam[i : i + 1], eps[i : i + 1]))
            assert bool(floored) == (i >= 2), i
        coeffs, resid, _ = heun_poly._build_rows(n, mu, lam, eps)
        assert np.isfinite(coeffs).all()
        for i, (row, r, _) in enumerate(alone):
            assert coeffs[i].tolist() == row[0].tolist() and resid[i] == r[0], i

    def test_factor_pair_below_minus_mu_squared(self):
        # Where lambda + mu**2 < 0 in long double, c has no real value: both
        # factors are NaN.  A root at lambda + mu**2 = 0 has both factors at
        # kappa = 0.
        lam, eps = np.array([-5.0, -1.0, 3.0]), np.array([1.0, -1.0, 1.0])
        values, frames = heun_poly._reflection_factors(4, 1.0, lam, eps)
        assert np.isnan(values[:, 0]).all() and not np.isnan(values[:, 1:]).any()
        assert values[0, 1] == values[1, 1] and frames[0, 1] == frames[1, 1]

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
