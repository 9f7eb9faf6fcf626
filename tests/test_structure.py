"""Reflection symmetry, phase recovery, second solutions, orthogonality."""

import dataclasses
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heun_rsj import cli, heun_poly, spectral, structure
from heun_rsj.dynamics import bias, integrate_phase
from heun_rsj.errors import (
    InvalidParams,
    MuNotPositive,
    NonPositiveArgument,
    NonPositiveDiscriminant,
    QuadratureFailure,
    ZeroOnUnitCircle,
)
from heun_rsj.model import DcheParams, HeunPolynomial, dche_to_params
from heun_rsj.structure import (
    orthogonality_integral,
    orthogonality_weight,
    phase_rate,
    phase_series,
)

import helpers
import identities
from identities import (
    PolynomialZeroOnPath,
    coeff_relations_residual,
    norm_integral,
    reflected_polynomial,
    second_solution,
    second_solution_jet,
    symmetry_residual,
    weight_divergence_residual,
)
from oracles import (
    coeff_relations_loop,
    master_rel_points,
    reflection_dets_loop,
    reflection_factor_mp,
    phase_on_grid_ratio,
    phase_series_loop,
    reflected_coeffs_loop,
    residual_master,
    samples_polyval,
    spectral_det,
    symmetry_residual_points,
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
        for z in structure.SAMPLE_POINTS:
            res, scale = residual_master(image, z)
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
        ],
        ids=["certify", "symmetry_residual", "coeff_relations_residual"],
    )
    def test_overflowing_mu_squared_is_typed(self, check):
        d = DcheParams(n=1, mu=1e200, lam=1.0)
        fake = HeunPolynomial(coeffs=(0.5, 1.0), params=d, epsilon=1)
        with pytest.raises(InvalidParams, match=r"mu\*\*2 overflows"):
            check(fake)

    @pytest.mark.parametrize("check", [structure.certify, symmetry_residual])
    def test_overflowing_power_is_typed(self, check):
        # From n = 1024, z**n at the sample point 2 overflows a double: a
        # typed error.  P = 1e-300 * z**1030 keeps P(2), P'(2) and P''(2)
        # finite, so the master equation passes and only the power overflows.
        d = DcheParams(n=1030, mu=3.0, lam=1.0)
        fake = HeunPolynomial(coeffs=(0.0,) * 1030 + (1e-300,), params=d, epsilon=1)
        with pytest.raises(InvalidParams, match=r"relation overflows a double at \(n=1030"):
            check(fake)

    @pytest.mark.parametrize("check", [structure.certify])
    def test_overflowing_value_is_typed(self, check):
        # P = z**1030 overflows at the sample point 2, and so do the master
        # summands there: a typed error, not a residual read from the 19
        # other points alone.
        d = DcheParams(n=1030, mu=3.0, lam=1.0)
        fake = HeunPolynomial(coeffs=(0.0,) * 1030 + (1.0,), params=d, epsilon=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidParams, match=r"master equation overflows a double at \(n=1030, "
            ):
                check(fake)


    # Where the double determinant or its scale passes the double range
    # (oracles.spectral_det): at the middle roots from n = 119, at root 1
    # from n = 104, where only the scale saturates, and at huge mu.  The
    # check pass scans Delta in long double and compares in the scan's
    # frame, so every check is finite, and certify_root's record is
    # certify's on the root alone.
    @pytest.mark.parametrize(
        "n,mu,index",
        [
            (119, 0.25, 59), (120, 1.3, 60), (7, 1e100, 3), (300, 1e10, 150),
            (104, 1.82, 1), (104, 1.0, 1),
        ],
    )
    def test_determinant_checks_form(self, n, mu, index):
        poly = helpers.solution(n, mu, index)
        assert spectral_det(poly.params)[1] == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks, skipped = structure.certify(poly)
        assert skipped == [] and all(math.isfinite(c["value"]) for c in checks)
        got = helpers.outcome(lambda: structure.certify_root(n, mu, index))
        assert got == _alone(n, mu, index)

    def test_long_double_determinant_overflow_is_typed(self):
        # A hand-made P at (200, 1e150), lambda = 1: kappa**2 - mu**2 = 1
        # cancels 300 digits, so det G+ and det G- are rounding noise of
        # their summands, some 2**55000, which only their frames keep in
        # range.  Their product passes Delta's frame by about 2**9400, and
        # det_product_rel the double range, while the master and reflection
        # summands stay finite: certify types it.
        d = DcheParams(n=200, mu=1e150, lam=1.0)
        fake = HeunPolynomial(coeffs=(1.0,) * 201, params=d, epsilon=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidParams, match=r"a determinant check overflows at \(n=200, "
            ):
                structure.certify(fake)
            c = _long_c(d)
            values, _, _, e = heun_poly._continuant("J", 200, 1e150, np.array([-c, c]))
        assert np.isfinite(values).all() and np.all(e > 16384)

    def test_last_degree_before_the_overflow(self):
        checks, _ = structure.certify(helpers.solution(118, 0.25, 59))
        assert all(math.isfinite(c["value"]) for c in checks)

    # At mu = 1.82 the double scale of root 1 (oracles.spectral_det) stays
    # finite up to n = 103, where it is 1.4e308 at the correctly rounded
    # root; the checks form on either side of it.
    @pytest.mark.parametrize("n,mu", [(102, 1.82), (103, 1.82), (103, 1.0)])
    def test_last_degree_before_the_scale_saturates(self, n, mu):
        poly = helpers.solution(n, mu, 1)
        assert math.isfinite(spectral_det(poly.params)[1])
        checks, _ = structure.certify(poly)
        assert all(math.isfinite(c["value"]) for c in checks)


# The drives of the certified degree range n <= 40.
_LEDGER_MUS = (0.25, 1.0, 1.82, 2.5, -0.7)


class TestDeterminantChecks:
    def test_determinant_ledger(self):
        # The det_product_rel and det_min_rel failures over the 4,145 roots
        # of n <= 40 above DISC_MARGIN, read from the records of the one
        # certification pass.  det G+- come from the long-double
        # reflection-factor kernel, so these counts do not depend on the
        # BLAS or LAPACK kernel; the CI reruns this test under other
        # OpenBLAS core types.
        roots = product = least = 0
        for mu in _LEDGER_MUS:
            for n in range(41):
                for i in range(n + 1):
                    _, _, checks, skipped = structure.certify_root(n, mu, i)
                    if skipped:
                        continue
                    passed = {c["name"]: c["pass"] for c in checks}
                    roots += 1
                    product += not passed["det_product_rel"]
                    least += not passed["det_min_rel"]
        assert (roots, product, least) == (4145, 1484, 1)

    def test_verify_ledger(self):
        # Every verdict of verify over the 4,305 roots of n <= 40, read from
        # certify_root's records: the pass count and each check's failures.
        # The coefficients come from the long-double twisted factorization,
        # not from LAPACK, so these counts do not depend on the BLAS kernel
        # or numpy's SIMD loops; the CI reruns this test under other OpenBLAS
        # core types and CPU feature sets.  With two stacked LAPACK solves
        # they were 2,820 passes, master_equation_rel 93 and
        # reflection_symmetry 109.
        roots = passed = 0
        failed = dict.fromkeys(structure.TOL, 0)
        for mu in _LEDGER_MUS:
            for n in range(41):
                for i in range(n + 1):
                    _, _, checks, _ = structure.certify_root(n, mu, i)
                    roots += 1
                    passed += all(c["pass"] for c in checks)
                    for c in checks:
                        failed[c["name"]] += not c["pass"]
        assert (roots, passed) == (4305, 2820)
        assert failed == {
            "master_equation_rel": 72,
            "linear_system_rel": 0,
            "reflection_symmetry": 80,
            "coeff_relations_rel": 0,
            "det_product_rel": 1484,
            "det_min_rel": 1,
        }

    # Every root of n <= 12 and of three larger degrees: 1,870 factor values.
    # Over all 8,290 of n <= 40 the largest ratio of error to bound is 0.28.
    @pytest.mark.parametrize("mu", _LEDGER_MUS)
    def test_factors_match_mpmath(self, mu):
        # The factors of the certification pass, value only, against a
        # 60-digit continuant of J at the same long-double kappa
        # (:func:`_factor_error`).
        for n in [*range(13), 22, 31, 40]:
            for i in range(n + 1):
                d, _ = spectral.root_params(n, mu, i)
                if d.lam + mu * mu <= spectral.DISC_MARGIN:
                    continue
                kappa = np.array([-_long_c(d), _long_c(d)])
                got, _, _, e = heun_poly._continuant("J", n, mu, kappa)
                for k, g, frame in zip(kappa, got, e):
                    err, bound = _factor_error(n, mu, k, g, frame)
                    assert err <= bound, (n, mu, i, float(k))

    def test_small_factor_sign_at_a_near_pair(self):
        # Root 14 of (22, -0.7) kills det G+, about -2.1 against a scale of
        # 1e22.  At the same long-double kappa mpmath gives -2.1140 and the
        # kernel -2.1134 (-2.0993 at the exact c of the double lambda); an
        # LU determinant of the dense G+ gave +2.3046 on an AVX-512 host.
        d, eps = spectral.root_params(22, -0.7, 14)
        kappa = -eps * np.sqrt(np.longdouble(d.lam) + np.longdouble(-0.7) ** 2)
        det_p, det_m = helpers.reflection_dets(d)
        f = reflection_factor_mp(22, -0.7, kappa)[0]
        assert eps == 1 and abs(det_p) < 1e-12 * abs(det_m)
        assert abs(float(det_p) - float(f)) < 1e-3 and mpmath.sign(f) == -1


    def test_certify_runs_one_check_pass(self, monkeypatch):
        # certify(P) is certify_root's check pass on one row: one sample table,
        # one long-double call of the framed recurrence on J, for det G+ and
        # det G- together, and one on T, for Delta with its summand
        # maximum; neither forms a derivative, and no spectrum is computed.
        poly = helpers.solution(8, 1.82, 4)
        lane_values, kernel = structure._lane_values, heun_poly._continuant
        seeds = spectral._eigen_seeds
        calls = []

        def spy_lanes(polys):
            calls.append(("lanes", len(polys)))
            return lane_values(polys)

        def spy_kernel(matrix, n, mu, x, **flags):
            flagged = tuple(sorted(flag for flag, on in flags.items() if on))
            calls.append((matrix, x.size, x.dtype == np.longdouble, flagged))
            return kernel(matrix, n, mu, x, **flags)

        def spy_seeds(n, mu):
            calls.append(("spectrum", n))
            return seeds(n, mu)

        monkeypatch.setattr(structure, "_lane_values", spy_lanes)
        monkeypatch.setattr(heun_poly, "_continuant", spy_kernel)
        monkeypatch.setattr(spectral, "_continuant", spy_kernel)
        monkeypatch.setattr(spectral, "_eigen_seeds", spy_seeds)
        helpers.clear_caches()
        _, skipped = structure.certify(poly)
        assert skipped == []
        assert sorted(calls) == [
            ("J", 2, True, ()), ("T", 1, True, ("summand",)), ("lanes", 4)
        ]

    def test_certify_calls_no_determinant(self, monkeypatch, capsys):
        # Every root of two problems verifies with LAPACK's det unreachable.
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.linalg, "det", refuse)
        for n, mu in ((12, "1.82"), (22, "-0.7")):
            for root in range(n + 1):
                code = cli.main(["verify", "--n", str(n), "--mu", mu, "--root", str(root)])
                out, err = capsys.readouterr()
                assert code in (0, 1) and err == "" and '"det_min_rel"' in out


def _same_ld(got, want) -> bool:
    """Bit identity of two long doubles, which have no ``hex``: the same
    value and sign bit, or both NaN."""
    if np.isnan(want):
        return bool(np.isnan(got))
    return bool(got == want and np.signbit(got) == np.signbit(want))


def _assert_scalar_dets(n, mu, c) -> None:
    """The array kernel at ``kappa = [-c, c]``, value only, against its
    scalar oracle ``reflection_dets_loop``, each times its frame, bit for
    bit."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = reflection_dets_loop(n, mu, c)
        scan = heun_poly._continuant("J", n, mu, np.array([-c, c]))
        want = helpers.scaled_scan(scan)[0]
    assert all(isinstance(g, np.longdouble) for g in got)
    assert all(map(_same_ld, got, want)), (n, mu, c, got, want)


def _mp(x) -> mpmath.mpf:
    """The exact value of a float or ``numpy.longdouble`` in mpmath."""
    num, den = x.as_integer_ratio()
    return mpmath.mpf(num) / den


def _factor_error(n: int, mu: float, kappa, value, e) -> tuple:
    """``(err, bound)`` of a framed reflection factor ``value * 2**e`` of
    the recurrence at long-double kappa, against the 60-digit continuant f
    of J at the same kappa: ``err = |value * 2**e - f|`` and ``bound = S *
    ((n+1) * eps * (|kappa f'| + largest summand) + ulp(value) * 2**e)``,
    with eps the long-double epsilon and S = 2."""
    eps = float(np.finfo(np.longdouble).eps)
    f, df, top = reflection_factor_mp(n, mu, kappa)
    with mpmath.workdps(60):
        frame = mpmath.mpf(2) ** int(e)
        err = abs(_mp(value) * frame - f)
        ulp = _mp(np.spacing(abs(value))) * frame
        return err, 2 * ((n + 1) * eps * (abs(_mp(kappa) * df) + top) + ulp)


def _long_c(d: DcheParams) -> np.longdouble:
    """c of d in long double, as certify forms it."""
    return np.sqrt(np.longdouble(d.lam) + np.longdouble(d.mu) ** 2)


class TestReflectionDets:
    @pytest.mark.parametrize("mu", (0.25, 1.0, 1.82, 2.5, -0.7))
    def test_scalar_kernel_is_the_array_kernel(self, mu):
        # det G+- of every root of n <= 60 above DISC_MARGIN, at the c that
        # certify forms.
        for n in range(61):
            for i in range(n + 1):
                d, _ = spectral.root_params(n, mu, i)
                if d.lam + mu * mu > spectral.DISC_MARGIN:
                    _assert_scalar_dets(n, mu, _long_c(d))

    @given(
        n=st.integers(min_value=0, max_value=80),
        mu=st.one_of(
            st.floats(min_value=-1e200, max_value=1e200),
            st.floats(min_value=-1e-300, max_value=1e-300),
        ),
        c=st.floats(min_value=-1e300, max_value=1e300),
    )
    @settings(max_examples=300)
    @example(n=7, mu=5e-324, c=0.0)
    @example(n=0, mu=-0.0, c=-0.0)
    def test_scalar_kernel_at_drawn_kappa(self, n, mu, c):
        _assert_scalar_dets(n, mu, np.longdouble(c))

    @pytest.mark.parametrize(
        "n,mu,c,want",
        [
            (20, 1.0, 1e236, (np.inf, -np.inf)),
            (21, -0.7, 1e230, (np.inf, np.inf)),
            (21, -0.7, 1e236, (np.inf, np.inf)),
            (40, 1e200, 1e300, (np.inf, -np.inf)),
        ],
    )
    def test_overflow(self, n, mu, c, want):
        # Where the continuant passes the long-double range, the frames of
        # both kernels hold it, and each value saturates to the infinity of
        # its sign only once it is joined with its frame.  The unframed
        # continuant overflows here on the way, and met inf - inf in det G+
        # at (21, -0.7, 1e236) and in both at (40, 1e200, 1e300).  Each
        # framed value agrees with mpmath within the bound of
        # test_factors_match_mpmath.
        c = np.longdouble(c)
        _assert_scalar_dets(n, mu, c)
        with np.errstate(over="ignore", invalid="ignore"):
            got = reflection_dets_loop(n, mu, c)
        assert all(map(_same_ld, got, map(np.longdouble, want)))
        values, _, _, e = heun_poly._continuant("J", n, mu, np.array([-c, c]))
        for kappa, value, frame in zip((-c, c), values, e):
            err, bound = _factor_error(n, mu, kappa, value, frame)
            assert np.isfinite(value) and err <= bound


def _assert_same_table(poly: HeunPolynomial) -> None:
    """``structure._on_samples`` against the per-value ``polyval`` oracle:
    the real and imaginary part of every lane by ``float.hex`` (signed zeros
    included), in a read-only float64 table of P(z), P(1/z), P'(z) and
    P''(z)."""
    table = structure._on_samples(np.asarray(poly.coeffs, dtype=float)[None])
    want = samples_polyval(poly)
    assert table.dtype == np.float64 and not table.flags.writeable
    assert table.shape == (4, 2, len(structure.SAMPLE_POINTS))
    # The oracle's rows are (z, P(z), P'(z), P''(z), P(1/z)).
    for row, col in enumerate((1, 4, 2, 3)):
        got = [(re.hex(), im.hex()) for re, im in zip(*table[row].tolist())]
        exp = [(complex(p[col]).real.hex(), complex(p[col]).imag.hex()) for p in want]
        assert got == exp, (poly, row)


class TestSampleTable:
    @pytest.mark.parametrize(
        "degrees,mu",
        [
            (range(13), 0.25),
            (range(13), 1.82),
            (range(13), -0.7),
            ((40, 100), 1.82),
            ((99, 101, 102), 1.82),
        ],
        ids=["n<=12-0.25", "n<=12-1.82", "n<=12--0.7", "n=40,100-1.82", "n=99,101,102-1.82"],
    )
    def test_readers_match_per_point_oracle(self, degrees, mu):
        # Bit for bit: the table holds the same scalar polyval values that a
        # per-point evaluation computes, and z**n is the same square and
        # multiply, also past n = 100, where Python's own ** changes method.
        for n in degrees:
            for _, d, eps in helpers.spectral_points(n, mu):
                poly = heun_poly.build_polynomial(d, eps)
                assert structure.certify(poly)[0][0]["value"] == master_rel_points(poly)
                if d.lam + mu**2 > 0:
                    assert symmetry_residual(poly) == symmetry_residual_points(poly)
                else:
                    for check in (symmetry_residual, symmetry_residual_points):
                        with pytest.raises(NonPositiveDiscriminant):
                            check(poly)

    @pytest.mark.parametrize(
        "degrees,mus",
        [(range(13), (0.25, 1.0, 1.82, 2.5, -0.7)), ((40, 100), (1.82,))],
        ids=["n<=12", "n=40,100"],
    )
    def test_table_matches_polyval_oracle(self, degrees, mus):
        for n in degrees:
            for mu in mus:
                for _, d, eps in helpers.spectral_points(n, mu):
                    _assert_same_table(heun_poly.build_polynomial(d, eps))

    @pytest.mark.parametrize(
        "coeffs",
        [(-1.0,), (-0.0, 0.0, -0.0, -1.0), (0.0, -2.5, -0.0, 1.0), (-0.0, -0.0, -0.0, 3.0)],
    )
    def test_table_keeps_signed_zeros(self, coeffs):
        # polyder of (-1.0,) is (-0.0,): P' and P'' are signed zeros.
        d = DcheParams(n=len(coeffs) - 1, mu=0.6, lam=0.9)
        _assert_same_table(HeunPolynomial(coeffs=coeffs, params=d, epsilon=1))

    def test_certify_samples_p_once(self, monkeypatch):
        poly = helpers.solution(8, 1.82, 4)
        lane_values, calls = structure._lane_values, []

        def spy(polys):
            calls.append([c.size for c in polys])
            return lane_values(polys)

        monkeypatch.setattr(structure, "_lane_values", spy)
        _, skipped = structure.certify(poly)
        assert skipped == []  # both sampled checks ran
        # One pass: P (at z and at 1/z), P' and P'', each once at each point.
        assert calls == [[9, 9, 8, 7]]
        table = structure._on_samples(np.asarray(poly.coeffs, dtype=float)[None])
        assert table.shape == (4, 2, len(structure.SAMPLE_POINTS))

    @pytest.mark.parametrize("kind", ["random", "spectral"])
    def test_derivative_coefficients_are_polyder(self, kind):
        # Bit for bit, signed zeros included, down to constant and linear P.
        polyder = np.polynomial.polynomial.polyder
        rng = np.random.default_rng(20)
        for n in range(61):
            if kind == "random":
                a = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-30, 30, n + 1)
                a[rng.random(n + 1) < 0.2] = -0.0
            else:
                a = np.asarray(helpers.solution(n, 1.82, n // 2).coeffs)
            for got, want in zip(structure._derivatives(a), (polyder(a), polyder(a, 2))):
                assert [x.hex() for x in got.tolist()] == [
                    x.hex() for x in want.tolist()
                ], (kind, n)

    def test_powers_match_mpmath(self):
        """``_powers`` against mpmath's power of each double sample point.

        Square and multiply: the first product, 1*z, is exact, and each later
        one is a complex product formed as (ac - bd, ad + bc), within
        sqrt(5)*u of the exact product of its factors, normwise relative,
        u = 2**-53 (Brent, Percival and Zimmermann, Math. Comp. 76, 2007).
        If 1 + e(m) bounds 1 + the relative error of z**m, then e(1) = 0,
        1 + e(2m) <= (1 + e(m))**2 * (1 + sqrt(5)*u) for a square and
        1 + e(j + k) <= (1 + e(j)) * (1 + e(k)) * (1 + sqrt(5)*u) for a
        product, so by induction e(n) <= (1 + sqrt(5)*u)**(n - 1) - 1, about
        2.24*(n - 1)*u.  At the real points every product is exact: 0.5**n,
        1, 2**n and (-1)**n, with a zero imaginary part, up to n = 1023.
        """
        gamma = math.sqrt(5.0) * 2.0**-53
        for n in sorted({*range(0, 1024, 7), 99, 100, 101, 102, 1023}):
            bound = math.expm1(max(n - 1, 0) * math.log1p(gamma))
            for z, (re, im) in zip(structure.SAMPLE_POINTS, structure._powers(n).T.tolist()):
                with mpmath.workprec(256):
                    want = mpmath.mpc(z.real, z.imag) ** n
                    if z.imag == 0.0:
                        assert im == 0.0 and re == want.real, (n, z)
                    else:
                        err = abs(mpmath.mpc(re, im) - want) / abs(want)
                        assert err <= bound, (n, z, float(err / bound))


def _alone(n, mu, root) -> tuple:
    """The outcome of certify on root ``root`` of (n, mu) alone."""
    return helpers.outcome(
        lambda: structure.certify(heun_poly.build_polynomial(*spectral.root_params(n, mu, root)))
    )


def _row(n, mu, root) -> np.ndarray:
    """The check values of a root in its spectrum's row table, read from the
    cache that ``certify_root`` filled: no table is formed here."""
    misses = structure._spectrum_rows.cache_info().misses
    row = structure._spectrum_rows(n, mu)[root]
    assert structure._spectrum_rows.cache_info().misses == misses, (n, mu)
    return row


class TestCertifyRoot:
    @pytest.fixture(autouse=True)
    def cold_memo(self):
        helpers.clear_caches()
        yield
        helpers.clear_caches()

    @pytest.mark.parametrize("mu", _LEDGER_MUS)
    def test_rows_are_the_single_root_records(self, mu):
        # Every root of n <= 40 and of n = 60 and 100, each spectrum
        # certified by one pass: the record read from the root's row is
        # certify's on the root alone, value by value, and every row is
        # formed, so none of them was answered alone.
        degrees = [*range(41), 60, 100]
        for n in degrees:
            for root in range(n + 1):
                want = _alone(n, mu, root)
                got = helpers.outcome(lambda: structure.certify_root(n, mu, root))
                assert got == want, (n, mu, root)
                assert not math.isnan(_row(n, mu, root)[0]), (n, mu, root)
            assert structure._spectrum_rows(n, mu).shape == (n + 1, len(structure.TOL))

    def test_record_is_named_by_tol(self):
        # TOL defines the record: its names in report order, each with its
        # bound.  Every root of (5, 0.25) but root 0 clears DISC_MARGIN and
        # reports every check; at root 0, lambda + mu**2 is 4.0e-12, and the
        # checks that need c are skipped.
        names = list(structure.TOL)
        for root in range(6):
            d, _, *record = structure.certify_root(5, 0.25, root)
            alone = structure.certify(helpers.solution(5, 0.25, root))
            for checks, skipped in (record, alone):
                assert all(c["tolerance"] == structure.TOL[c["name"]] for c in checks)
                if root:
                    assert [c["name"] for c in checks] == names
                    assert skipped == []
                    continue
                assert 0 < d.lam + d.mu**2 <= spectral.DISC_MARGIN
                assert [c["name"] for c in checks] == names[:2]
                assert skipped == [
                    {"name": name, "reason": "DiscriminantBelowMargin"} for name in names[2:]
                ]

    @pytest.mark.parametrize("n,mu", [(0, 1.0), (1, 0.25), (12, 1.82), (22, -0.7), (40, 7.3)])
    def test_batch_runs_one_factor_pass(self, monkeypatch, n, mu):
        # Per cold spectrum: the build's first Newton pass on every root,
        # with the derivative, then the passes of the roots still live,
        # those of the build alone; then the check pass, one value-only J
        # call at [kappa, -kappa] of every root, for det G+-, and one T
        # call, for Delta with its summand maximum.  The polish's scans go
        # through spectral, and no call forms what its caller drops.
        kernel, calls = heun_poly._continuant, []

        def spy(matrix, n, mu, x, **flags):
            flagged = tuple(sorted(flag for flag, on in flags.items() if on))
            calls.append((matrix, x.size, x.dtype == np.longdouble, flagged))
            return kernel(matrix, n, mu, x, **flags)

        monkeypatch.setattr(heun_poly, "_continuant", spy)
        structure.certify_root(n, mu, n // 2)
        first, *newton, factors, last = calls
        assert first == ("J", n + 1, True, ("derivative",))
        assert all(0 < size <= n for _, size, _, _ in newton)
        assert factors == ("J", 2 * (n + 1), True, ())
        assert last == ("T", n + 1, True, ("summand",))
        calls.clear()
        lam = np.array(spectral.lambda_spectrum(n, mu).lambdas)
        eps = spectral._root_signs(n, mu, np.arange(n + 1)).astype(float)
        heun_poly._build_rows(n, mu, lam, eps)
        assert calls == [first, *newton]

    @pytest.mark.parametrize("n,mu", [(5, 1e20), (30, 1e5), (60, 1.37)])
    def test_rows_match_alone_off_the_ledger(self, n, mu):
        # The records of certify_root against certify on each root alone,
        # at drives off the ledger's: at (5, 1e20) roots 2-5 take the
        # build's floored-pivot pass, at (30, 1e5) mu**2 is 1e10, and
        # (60, 1.37) is full of near-degenerate pairs.  Every row is formed.
        for root in range(n + 1):
            want = _alone(n, mu, root)
            assert helpers.outcome(lambda: structure.certify_root(n, mu, root)) == want, root
            assert not math.isnan(_row(n, mu, root)[0]), root

    @pytest.mark.parametrize(
        "n,mu,roots",
        [
            (104, 1.0, range(7)),  # the double scale of root 1 saturates
            (104, 1.82, range(7)),
            (2, 0.0, range(3)),  # every root is double
            (2, -0.0, range(3)),
            (0, -0.0, range(1)),
            # Root 1030: a_n = 1 overflows the other coefficients.  Root 7
            # builds, and its check pass overflows in the master equation.
            (1030, 3.0, [7, 1030]),
        ],
    )
    def test_refused_roots_raise_as_alone(self, n, mu, roots):
        # A root that certify refuses alone has no row, and raises the same
        # typed error with the same message.  At n = 104, where the double
        # determinant's scale refused root 1, every root now forms its row;
        # at n = 1030 none does.
        for root in roots:
            want = _alone(n, mu, root)
            assert helpers.outcome(lambda: structure.certify_root(n, mu, root)) == want
            refused = isinstance(want[0], str)
            assert math.isnan(_row(n, mu, root)[0]) == refused, (n, mu, root)
            assert not (refused and n == 104), (n, mu, root)
            assert refused or n != 1030, (n, mu, root)

    @pytest.mark.parametrize("n,mu", [(110, 1.82), (130, -0.7)])
    def test_records_form_past_the_double_determinant(self, n, mu, capsys):
        # Past n = 103 the double determinant's scale saturated and certify
        # refused most roots; in long double every 10th root here gives a
        # record of finite values, from its spectrum's row and through verify,
        # each bit for bit that of certify on the root alone.
        for root in range(0, n + 1, 10):
            want = _alone(n, mu, root)
            assert not isinstance(want[0], str), (n, mu, root, want)
            assert all(math.isfinite(float.fromhex(v)) for _, v, _, _ in want[0])
            assert helpers.outcome(lambda: structure.certify_root(n, mu, root)) == want
            assert not math.isnan(_row(n, mu, root)[0]), (n, mu, root)
            argv = ["verify", "--n", str(n), "--mu", str(mu), "--root", str(root)]
            code = cli.main(argv)
            out, err = capsys.readouterr()
            doc = json.loads(out)
            assert err == "" and code == (0 if doc["pass"] else 1)
            got = [(c["name"], c["value"].hex(), c["tolerance"], c["pass"]) for c in doc["checks"]]
            assert got == want[0], (n, mu, root)

    def test_eigen_residual_over_the_bound_raises_as_alone(self, monkeypatch):
        # With the eigen-residual bound pulled down into the rounding of the
        # build, some rows of a spectrum are not formed (1 of 13 here): each
        # of those roots raises NotSpectral with its own residual, as
        # build_polynomial does, and the others read their rows.
        monkeypatch.setattr(heun_poly, "SPECTRAL_TOL", 1.5e-16)
        refused = 0
        for root in range(13):
            want = _alone(12, 1.82, root)
            assert helpers.outcome(lambda: structure.certify_root(12, 1.82, root)) == want
            if want[0] == "NotSpectral":
                refused += 1
                assert math.isnan(_row(12, 1.82, root)[0])
                assert want[1].startswith("eigen-residual ")
            else:
                assert not math.isnan(_row(12, 1.82, root)[0])
        assert 0 < refused < 13
        # A spectrum where no row is formed.
        monkeypatch.setattr(heun_poly, "SPECTRAL_TOL", 1e-18)
        for root in range(7):
            want = _alone(6, 2.5, root)
            assert want[0] == "NotSpectral"
            assert helpers.outcome(lambda: structure.certify_root(6, 2.5, root)) == want


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

    @pytest.mark.parametrize(
        "n,mu,index,steps,factor",
        [(2, 1.1, 1, 30000, 1), (8, 1.7, 5, 2000, 1), (30, 1.1, 7, 2000, 2),
         (31, 1.1, 2, 500, 5)],
    )
    def test_joint_pass_is_series_and_rate(self, n, mu, index, steps, factor):
        # The phase and its rate from one pass are, bit for bit, the two
        # public functions, on a grid of several evaluation blocks, on one
        # block, and on grids the phase refines 2- and 5-fold (the phase
        # step bound is T/(64(n + 2))).
        poly = helpers.solution(n, mu, index)
        p = dche_to_params(poly.params)
        times = np.arange(3 * steps + 1) * (p.period / steps)
        assert math.ceil(64 * (n + 2) / steps) == factor
        phase, rate = structure.phase_and_rate(poly, times)
        assert phase.tobytes() == phase_series(poly, times).tobytes()
        assert rate.tobytes() == phase_rate(poly, times).tobytes()

    def test_oversized_grid_is_typed(self):
        # Root 0 at (7, 0.3) has lambda + mu**2 = 1.7e-16: the period is
        # 1.6e-7, so one time unit needs a grid of 3.6e9 samples.
        poly = helpers.solution(7, 0.3, 0)
        with pytest.raises(InvalidParams, match=r"needs \d+ samples"):
            phase_series(poly, np.linspace(0.0, 1.0, 5))
        # A step whose refined count overflows a double is refused before
        # the count is rounded up to an int.
        poly = helpers.solution(2, 1.0, 1)
        with pytest.raises(InvalidParams, match=r"needs over \d+ samples"):
            phase_series(poly, [0.0, 1e308])

    def test_grid_cap_counts_samples(self, monkeypatch):
        poly = helpers.solution(2, 1.0, 2)
        period = dche_to_params(poly.params).period
        times = np.arange(101) * (period / 1000.0)  # no refinement needed
        monkeypatch.setattr(structure, "_MAX_SAMPLES", 100)
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
            identities._quad(self._divergent, 0.0, 1.0)

    def test_abserr_ok_covers_the_reported_error(self):
        from scipy.integrate import quad

        value, abserr = quad(
            self._divergent, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=400,
            full_output=1,
        )[:2]
        assert identities._quad(self._divergent, 0.0, 1.0, abserr_ok=abserr) == value
        with pytest.raises(QuadratureFailure):
            identities._quad(self._divergent, 0.0, 1.0, abserr_ok=0.5 * abserr)


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

    # The adaptive-quadrature oracle meets its own tolerance, 1e-10 of
    # max(scale, 1), on acceptance criterion 7's pairs.
    @pytest.mark.parametrize("mu", [0.25, 0.5, 1.0, 2.0])
    def test_integral_matches_quadrature_oracle(self, mu):
        cache = [
            [
                heun_poly.build_polynomial(d, eps)
                for _, d, eps in helpers.positive_disc_points(n, mu)
            ]
            for n in range(5)
        ]
        pairs = 0
        for n1 in range(5):
            for n2 in range(n1 + 1, 5):
                for p1 in cache[n1]:
                    for p2 in cache[n2]:
                        value, scale = orthogonality_integral(p1, p2)
                        oracle = identities.orthogonality_quad(p1, p2, scale)
                        assert abs(value - oracle) <= 1e-10 * max(scale, 1.0)
                        pairs += 1
        assert pairs > 0

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
