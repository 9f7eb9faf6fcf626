"""The coefficient route: Jacobi form of the reflection relations, root signs,
and the polynomials built from them, against mpmath and the certification
record."""

import math

import mpmath
import numpy as np
import pytest

from heun_rsj import spectral, structure
from heun_rsj.errors import NotSpectral
from heun_rsj.heun_poly import SPECTRAL_TOL, _reflection_jacobi, build_polynomial
from heun_rsj.model import DcheParams
from heun_rsj.spectral import lambda_spectrum, root_params, symmetry_matrix

import helpers
from oracles import (
    ZeroRatioDivision,
    coeffs_from_ratios,
    reflection_signs,
    sign_at_one,
    signed_spectrum,
)

# The drive strengths of the certified degree range n <= 40.
RANGE_MUS = (0.25, 1.0, 1.82, 2.5, -0.7)


class TestJacobiForm:
    @pytest.mark.parametrize("n", range(8))
    @pytest.mark.parametrize("mu", [0.8, -1.3])
    def test_similar_to_reflection_matrix(self, n, mu):
        # K = G_eps - eps*c*I is the same for either sign and any lambda.
        d = DcheParams(n=n, mu=mu, lam=1.0)
        c = math.sqrt(1.0 + mu**2)
        k_t = (symmetry_matrix(1, d) - c * np.eye(n + 1)).T
        jac, order, log_d = _reflection_jacobi(n, mu)
        scale = np.exp(log_d)
        similar = k_t[np.ix_(order, order)] * scale[None, :] / scale[:, None]
        np.testing.assert_array_equal(jac, jac.T)
        np.testing.assert_allclose(jac, similar, rtol=1e-14, atol=1e-14)
        assert np.count_nonzero(np.triu(jac, 2)) == 0
        assert sorted(order) == list(range(n + 1))

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 40])
    @pytest.mark.parametrize("mu", RANGE_MUS)
    def test_kappa_gives_the_spectrum(self, n, mu):
        kappa = np.linalg.eigvalsh(_reflection_jacobi(n, mu)[0])
        lams = np.sort(kappa * kappa - mu * mu)
        want = np.array(lambda_spectrum(n, mu).lambdas)
        np.testing.assert_allclose(lams, want, rtol=0.0, atol=1e-13 * max(1.0, n * n))


class TestRootSigns:
    def test_equal_lambda_pairs_get_opposite_signs(self):
        # Both members of a pair can round to one double lambda; the sign
        # tells them apart, and each gets its own polynomial.  Up to n = 24
        # the pair carries the mpmath signs, in the order of exact lambda.
        pairs = 0
        for mu in RANGE_MUS:
            for n in range(41):
                points = helpers.spectral_points(n, mu)
                for (i, d1, e1), (_, d2, e2) in zip(points, points[1:]):
                    if d1.lam != d2.lam:
                        continue
                    pairs += 1
                    assert e1 == -e2
                    if n <= 24:
                        assert (e1, e2) == reflection_signs(n, mu)[i:i + 2]
                    p1, p2 = build_polynomial(d1, e1), build_polynomial(d2, e2)
                    assert p1.coeffs != p2.coeffs
        assert pairs >= 100

    def test_sign_matches_the_z_equals_one_read(self):
        # The record's sign (kappa's) against the one-point read of the
        # reflection relation, over the certified degree range.
        for mu in (0.5, -1.3):
            for n in range(41):
                for _, d, eps in helpers.admissible_points(n, mu):
                    poly = build_polynomial(d, eps)
                    assert poly.epsilon == eps
                    assert sign_at_one(poly) == eps

    def test_root_params_matches_the_spectral_points(self):
        lambdas, signs = signed_spectrum(9, 1.82)
        for i, d, eps in helpers.spectral_points(9, 1.82):
            assert root_params(9, 1.82, i) == (d, eps)
            assert (d, eps) == (DcheParams(n=9, mu=1.82, lam=lambdas[i]), signs[i])


def _mp_null_vector(d: DcheParams, epsilon: int) -> np.ndarray:
    """Kernel vector of G_eps^T at 50 digits, from the same double inputs.

    Inverse iteration on G_eps^T itself, with c = sqrt(lambda + mu**2) taken
    in 50 digits from the double lambda, so no part of the double route
    (the similarity, the interleaving or the shift) is shared.
    """
    with mpmath.workdps(50):
        n, mu = d.n, mpmath.mpf(d.mu)
        c = mpmath.sqrt(mpmath.mpf(d.lam) + mu**2)
        g = mpmath.matrix(n + 1, n + 1)
        for j in range(n + 1):
            g[j, j] += epsilon * c
            g[j, n - j] += mu
            if j >= 1:
                g[j, n + 1 - j] -= j
        x = mpmath.matrix([1] * (n + 1))
        for _ in range(3):
            x = mpmath.lu_solve(g.T, x)
            x /= mpmath.norm(x, mpmath.inf)
        return np.array([float(v) for v in x])


@pytest.mark.parametrize(
    "n,mu,index",
    [
        (20, 0.25, 1),  # an equal-lambda pair: both members
        (20, 0.25, 2),
        (3, 2.0, 1),  # lambda = 0 with a vanishing interior coefficient
        (40, 1.0, 17),
        (40, -0.7, 40),
    ],
)
def test_coefficients_match_mpmath(n, mu, index):
    d, eps = root_params(n, mu, index)
    assert d.lam + mu**2 > spectral.DISC_MARGIN
    got = np.array(build_polynomial(d, eps).coeffs)
    want = _mp_null_vector(d, eps)
    # Kernel vectors are fixed up to a factor: compare both scaled to a
    # largest coefficient of exactly 1.
    got, want = (a / a[np.argmax(np.abs(a))] for a in (got, want))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_coefficients_match_the_ratio_chain():
    # The downward ratio chain of the coefficient system shares nothing with
    # the reflection route; at n <= 6 it is accurate to about 1e-12.
    for mu in (0.25, 0.5, 1.0, 2.0, -0.7):
        for n in range(1, 7):
            for _, d, eps in helpers.spectral_points(n, mu):
                try:
                    chain = coeffs_from_ratios(d)
                except ZeroRatioDivision:
                    continue
                got = np.array(build_polynomial(d, eps).coeffs)
                assert np.max(np.abs(got - chain)) <= 1e-10 * np.max(np.abs(chain))


def test_gate_clears_every_root():
    # Degrees strided by three, a different residue per mu, to keep the
    # suite fast; every returned root must build.
    mus = (0.2, 0.25, 1.0, 1.82, 2.5, 3.0, -0.7)
    built = 0
    for k, mu in enumerate(mus):
        for n in range(k % 3, 61, 3):
            for _, d, eps in helpers.spectral_points(n, mu):
                build_polynomial(d, eps)
                built += 1
    assert built > 4000


@pytest.mark.parametrize("epsilon", [1, -1])
def test_gate_rejects_a_generic_lambda(epsilon):
    with pytest.raises(NotSpectral, match="eigen-residual"):
        build_polynomial(DcheParams(n=2, mu=1.0, lam=0.123), epsilon)
    assert SPECTRAL_TOL == 1e-8


def test_certified_degree_range():
    # n <= 40 strided by seven, a different residue per mu.  On the full
    # range the counts are 2,237 of 4,305 roots passing verify, and 4,032 of
    # the 4,145 roots above the discriminant margin passing the master,
    # linear-system and both reflection checks; no root raises NotSpectral.
    four = (
        "master_equation_rel",
        "linear_system_rel",
        "reflection_symmetry",
        "coeff_relations_rel",
    )
    roots = passed = admissible = certified = 0
    for k, mu in enumerate(RANGE_MUS):
        for n in range(k, 41, 7):
            for _, d, eps in helpers.spectral_points(n, mu):
                checks, skipped = structure.certify(build_polynomial(d, eps))
                verdict = {c["name"]: c["pass"] for c in checks}
                roots += 1
                passed += all(verdict.values())
                if not skipped:
                    admissible += 1
                    certified += all(verdict[name] for name in four)
    assert (roots, admissible) == (615, 592)
    assert passed >= 323
    assert certified >= 575
