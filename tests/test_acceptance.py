"""End-to-end acceptance: one test per contract-level criterion.

Every test prints exactly one PASS/FAIL line with its measured worst-case
numbers (surface them with ``pytest -rA``); the assertion carries the same
message, so a red run shows which criterion broke and by how much.
"""

import math

import numpy as np
import pytest

from heun_rsj import heun_poly, spectral, structure
from heun_rsj.dynamics import bias, integrate_phase, integrate_xy, phase_from_xy
from heun_rsj.errors import ZeroOnUnitCircle
from heun_rsj.heun_poly import build_polynomial
from heun_rsj.model import DcheParams, HeunPolynomial, RsjParams, dche_to_params
from heun_rsj.spectral import lambda_spectrum

import helpers
import identities
from oracles import spectral_det, spectral_det_transfer

SEED = 20240814


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance {num}/9] {status} {label}: {detail}"
    print(line)
    assert ok, line


def _wrap(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def test_criterion_1_scalar_vs_companion_routes():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        a = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
        b = rng.uniform(-3.0, 3.0)
        w = rng.uniform(0.3, 3.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        x0, y0 = math.cos(theta), math.sin(theta)
        p = RsjParams(A=a, B=b, omega=w)
        t_end, h = 10.0 * p.period, p.period / 2000.0
        direct = integrate_phase(p, 2.0 * math.atan2(-y0, x0), t_end, h)
        companion = phase_from_xy(integrate_xy(p, x0, y0, t_end, h))
        dev = float(np.max(np.abs(_wrap(direct.values - companion.values))))
        worst = max(worst, dev)
    _report(
        1,
        "scalar phase equation vs companion pair",
        worst <= 1e-6,
        f"max wrapped deviation {worst:.3e} (tol 1e-6, 20 drives, 10 periods)",
    )


def test_criterion_2_determinant_routes_and_closed_form():
    rng = np.random.default_rng(SEED + 1)
    worst_rel = 0.0
    for n in range(1, 21):
        for _ in range(100):
            mu = rng.uniform(-5.0, 5.0)
            lam = rng.uniform(-10.0, 30.0)
            d = DcheParams(n=n, mu=mu, lam=lam)
            a, scale = spectral_det(d)
            b = spectral_det_transfer(d)
            denom = max(abs(a), abs(b))
            if denom <= 1e-9 * scale:
                continue
            worst_rel = max(worst_rel, abs(a - b) / denom)

    worst_root = 0.0
    for mu in (0.1, 0.5, 1.0, 2.0):
        s = math.sqrt(1.0 + 4.0 * mu**2)
        exact = [0.5 * (1.0 - s), 0.5 * (1.0 + s)]
        got = lambda_spectrum(1, mu).lambdas
        worst_root = max(
            worst_root, max(abs(g - e) for g, e in zip(got, exact))
        )

    ok = worst_rel <= 1e-10 and worst_root <= 1e-12
    _report(
        2,
        "determinant route agreement + degree-1 closed form",
        ok,
        f"route rel dev {worst_rel:.3e} (tol 1e-10, 2000 points), "
        f"closed-form root dev {worst_root:.3e} (tol 1e-12)",
    )


def test_criterion_3_degenerate_spectrum():
    worst = 0.0
    for n in range(11):
        expected = sorted(j * (n + 1 - j) for j in range(n + 1))
        got = lambda_spectrum(n, 0.0).lambdas
        worst = max(
            worst, max(abs(g - e) for g, e in zip(got, expected))
        )
    _report(
        3,
        "mu = 0 spectrum equals the multiset {j(n+1-j)}",
        worst <= 1e-10,
        f"max deviation {worst:.3e} (tol 1e-10, n <= 10)",
    )


def test_criterion_4_polynomial_certification():
    worst = {"master": 0.0, "linear": 0.0, "symmetry": 0.0, "relations": 0.0}
    tested = skipped = 0
    for n in range(7):
        for mu in (0.25, 0.5, 1.0, 2.0):
            points = helpers.spectral_points(n, mu)
            admissible = helpers.admissible_points(n, mu)
            skipped += len(points) - len(admissible)
            for _, d, eps in admissible:
                tested += 1
                poly = build_polynomial(d, eps)
                amax = max(abs(c) for c in poly.coeffs)
                master, linear = structure.residuals(poly)
                worst["master"] = max(worst["master"], master)
                worst["linear"] = max(worst["linear"], linear)
                worst["symmetry"] = max(
                    worst["symmetry"], identities.symmetry_residual(poly)
                )
                worst["relations"] = max(
                    worst["relations"],
                    float(np.max(np.abs(identities.coeff_relations_residual(poly))))
                    / amax,
                )
    ok = (
        tested >= 100
        and worst["master"] <= 1e-9
        and worst["linear"] <= 1e-10
        and worst["symmetry"] <= 1e-9
        and worst["relations"] <= 1e-10
    )
    _report(
        4,
        "polynomial certification on all admissible roots (n <= 6)",
        ok,
        f"{tested} roots ({skipped} below discriminant margin): "
        f"master {worst['master']:.3e} (tol 1e-9), "
        f"linear {worst['linear']:.3e} (tol 1e-10), "
        f"symmetry {worst['symmetry']:.3e} (tol 1e-9), "
        f"relations {worst['relations']:.3e} (tol 1e-10)",
    )


def _det_checks(record) -> tuple[float, float]:
    """det_product_rel and det_min_rel of a certification record."""
    values = {c["name"]: c["value"] for c in record[0]}
    return values["det_product_rel"], values["det_min_rel"]


def test_criterion_5_factorization():
    signs = set()
    worst_dev = worst_prod = worst_min = 0.0
    generic_lams = (0.37, 2.9)
    for n in range(11):
        for mu in (0.5, 1.0, 2.0):
            # The matrix identity on the dense oracles; the determinants
            # from the certification records: certify_root's at the roots,
            # and at a generic lambda certify's of a stand-in P, since the
            # determinant checks read only P's triplet.
            roots = [
                (d, structure.certify_root(n, mu, i)[2:])
                for i, d, _ in helpers.admissible_points(n, mu)
            ]
            generic = [
                (d, structure.certify(HeunPolynomial((1.0,) * (n + 1), d, 1)))
                for d in (DcheParams(n=n, mu=mu, lam=lam) for lam in generic_lams)
                if d.lam + mu**2 > spectral.DISC_MARGIN
            ]
            for d, record in generic + roots:
                rel_dev, sign, _, _ = identities.factorization(d)
                signs.add(sign)
                worst_dev = max(worst_dev, rel_dev)
                det_product, det_min = _det_checks(record)
                worst_prod = max(worst_prod, det_product)
            for _, record in roots:
                worst_min = max(worst_min, _det_checks(record)[1])
    ok = (
        signs == {-1}
        and worst_dev <= 1e-10
        and worst_prod <= 1e-9
        and worst_min <= 1e-10
    )
    _report(
        5,
        "reflection-matrix factorization (n <= 10)",
        ok,
        f"signs {sorted(signs)} (expected [-1]), "
        f"entry dev {worst_dev:.3e} (tol 1e-10), "
        f"det product dev {worst_prod:.3e} (tol 1e-9), "
        f"min factor at roots {worst_min:.3e} (tol 1e-10)",
    )


def test_criterion_6_closed_form_phase_vs_brute_force():
    worst_ode = worst_rate = worst_match = 0.0
    tested = excluded = 0
    for n in (0, 1, 2):
        for mu in (0.5, 1.0):
            for _, d, eps in helpers.admissible_points(n, mu):
                poly = build_polynomial(d, eps)
                p = dche_to_params(d)
                t_end = 10.0 * p.period
                try:
                    # Central differences truncate at O(dt^2 phi'''); 4e4
                    # points per period keeps that below the tolerance.
                    fine = np.linspace(0.0, t_end, 400001)
                    phi = structure.phase_series(poly, fine)
                except ZeroOnUnitCircle:
                    excluded += 1
                    continue
                tested += 1
                dt = fine[1] - fine[0]
                dphi = (phi[2:] - phi[:-2]) / (2.0 * dt)
                resid = dphi + np.sin(phi[1:-1]) - bias(p, fine[1:-1])
                worst_ode = max(worst_ode, float(np.max(np.abs(resid))))

                traj = integrate_phase(
                    p, -eps * (0.5 * np.pi), t_end, p.period / 2000.0
                )
                closed = structure.phase_series(poly, traj.times)
                diff = _wrap(closed - traj.values[:, 0])
                worst_match = max(worst_match, float(np.max(np.abs(diff))))
                # The exact rate on the integration grid, as phase-compare
                # reports it.
                resid = (
                    structure.phase_rate(poly, traj.times)
                    + np.sin(closed)
                    - bias(p, traj.times)
                )
                worst_rate = max(worst_rate, float(np.max(np.abs(resid))))
    ok = (
        tested > 0
        and worst_ode <= 1e-6
        and worst_rate <= 1e-6
        and worst_match <= 1e-6
    )
    _report(
        6,
        "closed-form phase against brute force (10 periods)",
        ok,
        f"{tested} roots ({excluded} with unit-circle zeros excluded): "
        f"junction-equation residual {worst_ode:.3e} by central differences, "
        f"{worst_rate:.3e} by the exact rate (tol 1e-6), "
        f"deviation from integration {worst_match:.3e} (tol 1e-6)",
    )


def test_criterion_7_orthogonality():
    worst_ratio = 0.0
    pairs = 0
    norms_ok = True
    for mu in (0.25, 0.5, 1.0, 2.0):
        cache = {
            n: [
                build_polynomial(d, eps)
                for _, d, eps in helpers.positive_disc_points(n, mu)
            ]
            for n in range(5)
        }
        for p1_list in cache.values():
            for poly in p1_list:
                norm = identities.norm_integral(poly)
                norms_ok = norms_ok and math.isfinite(norm) and norm > 0.0
        for n1 in range(5):
            for n2 in range(n1 + 1, 5):
                for p1 in cache[n1]:
                    for p2 in cache[n2]:
                        value, scale = structure.orthogonality_integral(p1, p2)
                        if scale == 0.0:
                            continue
                        pairs += 1
                        worst_ratio = max(worst_ratio, abs(value) / scale)
    ok = pairs > 0 and norms_ok and worst_ratio <= 1e-8
    _report(
        7,
        "cross-degree orthogonality under the pair weight",
        ok,
        f"{pairs} pairs: worst |integral|/scale {worst_ratio:.3e} (tol 1e-8), "
        f"norms finite and positive: {norms_ok}",
    )


def test_criterion_8_second_solution():
    worst_w = worst_q = 0.0
    tested = 0
    for n in range(4):
        for _, d, eps in helpers.spectral_points(n, 1.0):
            poly = build_polynomial(d, eps)
            for z, base in helpers.wronskian_pairs(poly):
                q, dq, d2q = identities.second_solution_jet(poly, z, base=base)
                w = poly.value(z) * dq - poly.deriv1(z) * q
                expected = z**n * math.exp(1.0 * (z + 1.0 / z))
                worst_w = max(worst_w, abs(complex(w) - expected) / abs(expected))
                res, scale = helpers.master_jet_residual(poly, z, (q, dq, d2q))
                worst_q = max(worst_q, res / max(scale, 1e-300))
                tested += 1
    ok = tested > 0 and worst_w <= 1e-10 and worst_q <= 1e-7
    _report(
        8,
        "second solution by quadrature (n <= 3, mu = 1)",
        ok,
        f"{tested} (z, base) pairs: Wronskian dev {worst_w:.3e} (tol 1e-10), "
        f"equation residual {worst_q:.3e} (tol 1e-7)",
    )


def test_criterion_9_spectrum_reality_and_count():
    worst_sum = 0.0
    counts_ok = True
    for n in range(21):
        trace = n * (n + 1) * (n + 2) / 6.0
        for mu in np.linspace(-5.0, 5.0, 41):
            lams = lambda_spectrum(n, float(mu)).lambdas
            counts_ok = counts_ok and len(lams) == n + 1
            counts_ok = counts_ok and all(math.isfinite(x) for x in lams)
            dev = abs(math.fsum(lams) - trace) / max(1.0, abs(trace))
            worst_sum = max(worst_sum, dev)
    ok = counts_ok and worst_sum <= 1e-9
    _report(
        9,
        "spectrum reality, count, and trace (n <= 20, 41 mu values)",
        ok,
        f"all real with n+1 roots: {counts_ok}, "
        f"trace identity rel dev {worst_sum:.3e} (tol 1e-9)",
    )
