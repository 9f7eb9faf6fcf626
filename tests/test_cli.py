"""Command line contract: formats, determinism, exit codes."""

import argparse
import functools
import hashlib
import json
import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

from heun_rsj import spectral, structure
from heun_rsj.cli import build_parser, main
from heun_rsj.model import HeunPolynomial, dche_to_params
from heun_rsj.serialize import SCHEMA

import helpers
from oracles import reflection_coeffs_mp, reflection_signs, sweep_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(text):
    def no_constants(name):
        raise AssertionError(f"non-finite constant {name} in JSON output")

    return json.loads(text, parse_constant=no_constants)


class TestSpectrum:
    def test_degree_one_json(self, capsys):
        code, out, err = run_cli(
            capsys, "spectrum", "--n", "1", "--mu", "1", "--format", "json"
        )
        assert code == 0 and err == ""
        doc = parse_json(out)
        assert doc["schema"] == SCHEMA
        assert doc["command"] == "spectrum"
        roots = doc["roots"]
        assert [r["index"] for r in roots] == [0, 1]
        golden = 0.5 * (1.0 + math.sqrt(5.0))
        assert roots[0]["lambda"] == pytest.approx(1.0 - golden, abs=1e-12)
        assert roots[1]["lambda"] == pytest.approx(golden, abs=1e-12)
        for r in roots:
            lam = r["lambda"]
            assert r["omega"] == pytest.approx(
                1.0 / (2.0 * math.sqrt(lam + 1.0)), rel=1e-12
            )
            assert r["B"] == pytest.approx(-2.0 * r["omega"], rel=1e-12)

    def test_degree_zero_physical_params(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "0", "--mu", "0.5")
        assert code == 0
        (root,) = parse_json(out)["roots"]
        assert abs(root["lambda"]) <= 1e-13
        assert root["omega"] == pytest.approx(1.0, rel=1e-13)
        assert root["A"] == pytest.approx(1.0, rel=1e-13)
        assert root["B"] == pytest.approx(-1.0, rel=1e-13)

    def test_csv_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "3", "--mu", "2", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,lambda,omega,A,B"
        assert len(lines) == 5
        # Row with index 1 carries the exactly-zero root of this spectrum.
        row = dict(zip(lines[0].split(","), lines[2].split(",")))
        assert row["index"] == "1"
        assert abs(float(row["lambda"])) <= 1e-13
        assert row["omega"] == "0.25"
        assert row["A"] == "1"
        assert row["B"] == "-1"

    def test_negative_degree_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--n", "-1", "--mu", "1"])
        assert err.value.code == 2

    # |mu| above sqrt(DBL_MAX) ~ 1.34e154: the roots exist, but mu**2 does not.
    @pytest.mark.parametrize("mu", ["1e160", "-1e300"])
    def test_huge_mu_rows_carry_typed_error(self, capsys, mu):
        code, out, err = run_cli(capsys, "spectrum", "--n", "3", f"--mu={mu}")
        assert code == 0 and err == ""
        roots = parse_json(out)["roots"]
        assert [r["index"] for r in roots] == [0, 1, 2, 3]
        for r in roots:
            assert math.isfinite(r["lambda"])
            assert r["error"] == "InvalidParams"
            assert "omega" not in r
        code, out, _ = run_cli(
            capsys, "spectrum", "--n", "3", f"--mu={mu}", "--format", "csv"
        )
        assert code == 0
        assert all(line.endswith(",,,") for line in out.splitlines()[1:])

    def test_top_root_past_the_long_double_range(self, capsys):
        # At (31, 1e300) the determinant's powers of mu**2 pass the
        # long-double range; the polish's framed scan places the top root on
        # the double nearest 3.1e301, not at its seed 3.100000000000003e+301,
        # and the long-double gate passes the spectrum.  At (30, 1e300) the
        # middle root falls back to its seed, 1e300 off the root 120, and the
        # gate refuses the spectrum with one typed line.
        argv = ("spectrum", "--n", "31", "--mu", "1e300")
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].split(",")[:2] == ["31", "3.1000000000000001e+301"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert parse_json(out)["roots"][-1]["lambda"] == 3.1e301
        for fmt in ("csv", "json"):
            code, out, err = run_cli(
                capsys, "spectrum", "--n", "30", "--mu", "1e300", "--format", fmt
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: ConvergenceFailure: root 15 of (n=30, mu=1e+300) ")
            assert err.count("\n") == 1

    def test_negative_exponent_value(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n", "1", "--mu", "-1e3")
        assert code == 0 and err == ""
        assert parse_json(out)["mu"] == -1000.0

    def test_overflowing_eigenproblem_is_typed_error(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--n", "5", "--mu", "1.7e308")
        assert code == 1 and out == ""
        assert err.startswith("error: InvalidParams: ")

    def test_oversized_eigenproblem_is_one_line(self, capsys, monkeypatch):
        # A degree whose dense seed matrix passes 2**27 doubles is refused
        # before the matrix exists.
        def refuse(a):
            raise AssertionError("the eigenproblem was allocated")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        argv = ["spectrum", "--n", "1000000", "--mu", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "error: InvalidParams: degree n = 1000000 needs a 1000001 x 1000001 "
            "eigenproblem, over 134217728 doubles\n"
        )
        result = subprocess.run(
            [sys.executable, "-m", "heun_rsj.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", err)


class TestPoly:
    def test_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "poly", "--n", "2", "--mu", "1", "--root", "2"
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["command"] == "poly"
        assert len(doc["coeffs"]) == 3
        assert doc["coeffs"][-1] == 1.0
        assert doc["epsilon"] in (-1, 1)
        assert doc["residuals"]["master_rel_max"] <= 1e-9
        assert doc["residuals"]["linear_system_rel_max"] <= 1e-10

    def test_equal_lambda_pair_prints_two_polynomials(self, capsys):
        # Roots 1 and 2 of (20, 0.25) round to one double lambda; the
        # reflection sign names each of them, in the order of exact lambda
        # that the mpmath eigensolve of J gives.
        docs = []
        for root in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "poly", "--n", "20", "--mu", "0.25", "--root", root
            )
            assert code == 0
            docs.append(parse_json(out))
        assert docs[0]["lambda"] == docs[1]["lambda"]
        assert (docs[0]["epsilon"], docs[1]["epsilon"]) == (1, -1)
        assert reflection_signs(20, 0.25)[1:3] == (1, -1)
        assert docs[0]["coeffs"] != docs[1]["coeffs"]

    def test_bad_root_index_is_computational_error(self, capsys):
        code, out, err = run_cli(
            capsys, "poly", "--n", "2", "--mu", "1", "--root", "9"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: IndexOutOfRange:")
        assert "root index 9" in err


class TestVerify:
    def test_full_dashboard_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--mu", "1", "--root", "0"
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["pass"] is True
        names = {c["name"] for c in doc["checks"]}
        assert names == {
            "master_equation_rel",
            "linear_system_rel",
            "reflection_symmetry",
            "coeff_relations_rel",
            "det_product_rel",
            "det_min_rel",
        }
        assert all(c["pass"] for c in doc["checks"])
        assert doc["skipped"] == []

    # At root 60 of (120, 1.3) the double determinant and its scale pass the
    # double range, and at root 1 of (104, 1) its scale alone: the check
    # pass scans Delta in long double, so verify reports every check, finite
    # and bit for bit certify's on the root alone, with the exit code of
    # its verdict.
    @pytest.mark.parametrize("n,mu,root", [("120", "1.3", "60"), ("104", "1", "1")])
    def test_determinant_checks_form(self, capsys, n, mu, root):
        code, out, err = run_cli(capsys, "verify", "--n", n, "--mu", mu, "--root", root)
        doc = parse_json(out)
        assert err == "" and code == (0 if doc["pass"] else 1) and doc["skipped"] == []
        want, _ = structure.certify(helpers.solution(int(n), float(mu), int(root)))
        assert [c["value"].hex() for c in doc["checks"]] == [c["value"].hex() for c in want]
        assert all(math.isfinite(c["value"]) for c in doc["checks"])

    def test_low_discriminant_checks_are_skipped(self, capsys):
        # The lowest root at (6, 0.25) sits within 1e-9 of -mu^2, so every
        # c-dependent certificate is skipped rather than reported as noise.
        lam = spectral.lambda_spectrum(6, 0.25).lambdas[0]
        assert 0.0 < lam + 0.25**2 <= spectral.DISC_MARGIN
        code, out, _ = run_cli(
            capsys, "verify", "--n", "6", "--mu", "0.25", "--root", "0"
        )
        assert code == 0
        doc = parse_json(out)
        run_names = {c["name"] for c in doc["checks"]}
        assert run_names == {"master_equation_rel", "linear_system_rel"}
        assert doc["pass"] is True
        assert {s["reason"] for s in doc["skipped"]} == {
            "DiscriminantBelowMargin"
        }
        assert len(doc["skipped"]) == 4


class TestPhaseCompare:
    def test_spec_example_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "phase-compare",
            "--n", "1",
            "--mu", "0.5",
            "--root", "1",
            "--periods", "10",
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["pass"] is True
        assert doc["max_phase_dev_mod_2pi"] <= 1e-6
        assert doc["ode_residual_max"] <= 1e-6
        assert doc["epsilon"] in (-1, 1)

    def test_exact_residual_at_high_frequency(self, capsys):
        # omega = 9.6e3: central differences on 4e4 points per period read
        # 1.1e-4 here; the exact rate reads 2.9e-8.
        code, out, _ = run_cli(
            capsys, "phase-compare", "--n", "9", "--mu", "1.37", "--root", "0"
        )
        doc = parse_json(out)
        assert code == 0 and doc["pass"] is True
        assert doc["ode_residual_max"] == pytest.approx(2.9e-8, rel=0.1)
        assert doc["max_phase_dev_mod_2pi"] <= 1e-6

    def test_absolute_bound_holds_at_huge_frequency(self, capsys):
        # lambda + mu**2 = 6.9e-18 gives omega = 1.9e8: the residual is about
        # 1e-10 of the equation's terms but over the absolute 1e-6 bound.
        code, out, _ = run_cli(
            capsys, "phase-compare", "--n", "7", "--mu", "0.25", "--root", "0"
        )
        doc = parse_json(out)
        assert doc["omega"] > 1e8
        assert code == 1 and doc["pass"] is False
        assert doc["ode_residual_max"] > doc["tolerance"]
        assert doc["max_phase_dev_mod_2pi"] <= 1e-6

    def test_top_root_reports(self, capsys):
        # The ratio form of the phase raised on this root; now it reports,
        # and RK4 drift over the period fails the comparison.
        code, out, err = run_cli(
            capsys, "phase-compare", "--n", "12", "--mu", "1.82", "--root", "12",
            "--periods", "1",
        )
        doc = parse_json(out)
        assert err == ""
        assert doc["ode_residual_max"] <= 1e-6
        assert (code == 0) == doc["pass"]

    @staticmethod
    def _spy_on_values(monkeypatch):
        """Sizes of the argument of every ``HeunPolynomial.value`` call."""
        sizes = []
        value = HeunPolynomial.value

        def spy(P, z):
            sizes.append(np.size(z))
            return value(P, z)

        monkeypatch.setattr(HeunPolynomial, "value", spy)
        return sizes

    def test_unit_circle_guard_runs_twice(self, monkeypatch):
        # phase_series and phase_rate each guard P, so two calls sample the
        # circle twice.  phase_and_rate guards it once, also on a grid that
        # needs refinement: the refined phase pass, then the rate's pass
        # over the 9 times, bit for bit the two calls.
        sizes = self._spy_on_values(monkeypatch)
        poly = helpers.solution(1, 0.5, 1)
        times = np.linspace(0.0, 3.0 * dche_to_params(poly.params).period, 9)
        phase = structure.phase_series(poly, times)
        rate = structure.phase_rate(poly, times)
        assert sizes.count(4096) == 2
        sizes.clear()
        both = structure.phase_and_rate(poly, times)
        assert sizes[0] == 4096 and sizes.count(4096) == 1
        assert sizes[1] > 9 and sizes[-1] == 9
        assert [x.tobytes() for x in both] == [phase.tobytes(), rate.tobytes()]

    def test_one_circle_pass_per_grid(self, capsys, monkeypatch):
        # phase-compare at the default step needs no refined grid: the guard
        # runs once, and P is evaluated once per sample for the phase and
        # the rate together.
        sizes = self._spy_on_values(monkeypatch)
        code, _, _ = run_cli(
            capsys, "phase-compare", "--n", "1", "--mu", "0.5", "--root", "1",
            "--periods", "1",
        )
        assert code == 0
        assert sizes == [4096, 2001]

    def test_rk4_converges_at_fourth_order(self, capsys):
        # Each halving of h must divide RK4's deviation from the closed-form
        # phase by at least 12 (16 at fourth order; 15.2 to 16.4 here).
        # Over one period at n = 1, mu = 0.5 the RK4 error dominates down to
        # 400 steps (7e-10 and 4e-8, far above the closed form's 1e-13).  A
        # step reading the drive at a wrong node falls to first order.
        for root in ("0", "1"):
            argv = ["phase-compare", "--n", "1", "--mu", "0.5", "--root", root,
                    "--periods", "1"]
            period = 2.0 * math.pi / parse_json(run_cli(capsys, *argv)[1])["omega"]
            devs = []
            for steps in (25, 50, 100, 200, 400):
                out = run_cli(capsys, *argv, "--h", repr(period / steps))[1]
                devs.append(parse_json(out)["max_phase_dev_mod_2pi"])
            assert all(coarse >= 12.0 * fine for coarse, fine in zip(devs, devs[1:])), devs

    @pytest.mark.parametrize(
        "root,error",
        [
            (0, "NonPositiveDiscriminant: lambda + mu**2 = 0.0 <= 0"),
            (1, "InvalidParams: bias amplitude A must be nonzero"),
            (2, "InvalidParams: bias amplitude A must be nonzero"),
        ],
    )
    def test_zero_mu_root_has_no_drive(self, capsys, root, error):
        # At mu = 0 no root has a drive: root 0 has lambda = 0 and no real
        # frequency, and roots 1 and 2, both at lambda = 2, have A = 0.
        code, out, err = run_cli(
            capsys, "phase-compare", "--n", "2", "--mu", "0", "--root", str(root)
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: " + error)


class TestOrtho:
    def test_different_degrees(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ortho",
            "--n1", "0", "--root1", "0",
            "--n2", "1", "--root2", "0",
            "--mu", "1",
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["theorem_applies"] is True
        assert doc["ratio"] <= 1e-8
        assert doc["pass"] is True

    def test_same_degree_reported_not_asserted(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ortho",
            "--n1", "1", "--root1", "0",
            "--n2", "1", "--root2", "1",
            "--mu", "1",
        )
        assert code == 0
        assert '"pass": null' in out
        doc = parse_json(out)
        assert doc["theorem_applies"] is False
        assert doc["pass"] is None

    def test_large_mu_pair_passes(self, capsys):
        # The absolute integral is 3.4e-11 here, below an absolute error
        # floor of 1e-10; the bound is relative to it alone.
        code, out, _ = run_cli(
            capsys,
            "ortho",
            "--n1", "2", "--root1", "2",
            "--n2", "3", "--root2", "3",
            "--mu", "10",
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["scale"] < 1e-10
        assert doc["ratio"] <= 1e-8
        assert doc["pass"] is True

    @pytest.mark.parametrize("mu", ["360", "370", "700", "1e5"])
    def test_underflowed_integrand_is_one_line(self, capsys, mu):
        # From mu = 360 the absolute integral is subnormal or 0, and a ratio
        # against it would read 0 and pass: the pair is refused in one line.
        argv = ["ortho", "--n1", "1", "--n2", "2", "--root1", "0", "--root2", "0",
                "--mu", mu]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: QuadratureFailure: the absolute integral ")
        result = subprocess.run(
            [sys.executable, "-m", "heun_rsj.cli", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", err)

    def test_zero_or_tiny_integrals_that_still_report(self, capsys):
        # Same degree: the zero integral is reported, not asserted.
        code, out, _ = run_cli(
            capsys, "ortho", "--n1", "1", "--n2", "1", "--root1", "0",
            "--root2", "0", "--mu", "700",
        )
        assert code == 0
        assert '"value": 0, "scale": 0, "ratio": 0' in out and '"pass": null' in out
        # The absolute integral is 5.3e-262 here, still a normal double.
        code, out, _ = run_cli(
            capsys, "ortho", "--n1", "1", "--n2", "2", "--root1", "0",
            "--root2", "0", "--mu", "300",
        )
        doc = parse_json(out)
        assert code == 0 and 0 < doc["scale"] < 1e-250 and doc["pass"] is True

    def test_unconverged_quadrature_is_one_line(self, capsys):
        code, out, err = run_cli(
            capsys,
            "ortho",
            "--n1", "0", "--root1", "0",
            "--n2", "40", "--root2", "39",
            "--mu", "3",
        )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: QuadratureFailure: ")


class TestSimulate:
    def test_phase_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--a", "1", "--b", "0.5", "--omega", "1",
            "--t-end", "1.0", "--h", "0.25",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,phi"
        assert len(lines) == 6

    def test_xy_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--a", "1", "--b", "0.5", "--omega", "1",
            "--system", "xy", "--x0", "1", "--y0", "0",
            "--t-end", "0.5", "--h", "0.25", "--format", "json",
        )
        assert code == 0
        doc = parse_json(out)
        assert doc["kind"] == "xy"
        assert doc["columns"] == ["t", "x", "y"]
        assert len(doc["rows"]) == 3

    def test_negative_exponent_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--a", "1", "--b", "-2e-1", "--omega", "1",
            "--t-end", "1.0", "--h", "0.5",
        )
        assert code == 0
        assert out.splitlines()[0] == "t,phi"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--a", "1", "--b", "0.5", "--omega", "1",
            "--t-end", "1.0", "--h", "0.5", "--out", str(target),
        )
        assert code == 0
        assert out == f"wrote 3 samples to {target}\n"
        assert target.read_text().splitlines()[0] == "t,phi"


    @pytest.mark.parametrize("system", ["phase", "xy"])
    def test_overflowing_drive_is_typed_error(self, capsys, system):
        code, out, err = run_cli(
            capsys,
            "simulate", "--system", system,
            "--a", "1e308", "--b", "1e308", "--omega", "1",
            "--t-end", "10", "--h", "1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: NonFiniteState: ")


class TestSweep:
    @pytest.mark.parametrize(
        "mu_start,mu_stop",
        [("0.5", "1.0"), ("1.0", "0.5")],
        ids=["ascending", "descending"],
    )
    def test_grid_layout(self, capsys, mu_start, mu_stop):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--n-min", "1", "--n-max", "2",
            "--mu-start", mu_start, "--mu-stop", mu_stop, "--mu-points", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,mu,lambda,omega,A,B"
        assert len(lines) == 1 + 2 * 3 + 3 * 3
        keys = []
        for line in lines[1:]:
            n, mu, lam = line.split(",")[:3]
            keys.append((int(n), float(mu), float(lam)))
        assert keys == sorted(keys)

    def test_mu_stop_required_for_multiple_points(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--n-min", "1", "--n-max", "1",
                  "--mu-start", "0.5", "--mu-points", "3"])
        assert err.value.code == 2

    def test_golden_grid(self, capsys):
        # SHA-256 of this sweep's stdout when every (n, mu) of the grid was
        # computed by its own lambda_spectrum call.  It moved when pair roots
        # began to polish on their own reflection factor, again when every
        # root with lambda >= mu**2 began to polish on it from its seed, and
        # again when such a root began to stop on the bound of its first
        # step; CHANGES.md lists the roots that moved, 518, 9 and then 12,
        # each with its error against mpmath.  It moved again when every
        # factor root began to step in kappa with lambda carried beside it:
        # 7 roots, each a rounding midpoint, (n, mu, root) old -> new with
        # their mpmath errors in ulps:
        #   (33, -2.5, 33) 367.0734295491216 -> 367.07342954912156, 0.500 both;
        #   (59, 3.0, 19) 485.28663877035575 -> 485.2866387703557, 0.500 both;
        #   (60, 1.1666666666666665, 8) 226.41770244333281 ->
        #     226.41770244333284, 0.501 -> 0.499;
        #   (91, -2.5, 60) 1829.2740611753838 -> 1829.2740611753836, 0.500 both;
        #   (96, -2.5, 1) 89.61692403547038 -> 89.61692403547036, 0.500 both;
        #   (98, -0.6666666666666667, 52) 1896.7906458511634 ->
        #     1896.7906458511632, 0.501 -> 0.499;
        #   (100, 1.1666666666666665, 26) 1142.084879942705 ->
        #     1142.0848799427047, 0.501 -> 0.499.
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "0", "--n-max", "120",
            "--mu-start", "-2.5", "--mu-stop", "3", "--mu-points", "4",
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f53032849982842188a9d4c63b24145c439b10c43493fc5db109453614fe9156"
        )

    def test_matches_per_point_loop(self, capsys):
        # mu = 0 (double roots) on a descending grid, mixed degrees.
        code, out, _ = run_cli(
            capsys,
            "sweep", "--n-min", "3", "--n-max", "31",
            "--mu-start", "1.5", "--mu-stop", "-1.5", "--mu-points", "5",
        )
        assert code == 0
        assert out == sweep_loop(3, 31, 1.5, -1.5, 5)

    def test_first_failing_point_raises(self, capsys):
        # (38, 1e9) passes and (38, 1e10) misses the root gate, ahead of
        # every point of n = 39 and 40 in grid order.
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "38", "--n-max", "40",
            "--mu-start", "1e9", "--mu-stop", "1e10", "--mu-points", "2",
        )
        assert code == 1 and out == ""
        assert err.startswith(
            "error: ConvergenceFailure: root 19 of (n=38, mu=10000000000.0) "
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-min", "0", "--n-max", "0", "--mu-start", "0", "--mu-stop", "1",
             "--mu-points", "10000000000000"],
            ["--n-min", "0", "--n-max", "1000000000000", "--mu-start", "1"],
        ],
        ids=["mu-points", "n-max"],
    )
    def test_oversized_grid_is_one_line(self, capsys, monkeypatch, argv):
        # The rows are counted before the mu grid or any spectrum exists.
        def refuse(*args, **kwargs):
            raise AssertionError("the oversized grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        monkeypatch.setattr(spectral, "lambda_spectra", refuse)
        code, out, err = run_cli(capsys, "sweep", *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: InvalidParams: sweep grid of n in [0, ")
        assert err.endswith(" rows, over 134217728\n")
        result = subprocess.run(
            [sys.executable, "-m", "heun_rsj.cli", "sweep", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", err)

    @pytest.mark.parametrize(
        "largest,smallest_over,rows",
        [
            ((0, 0, 2**27), (0, 0, 2**27 + 1), 2**27 + 1),
            ((5, 9, 3355443), (5, 9, 3355444), 134217760),
            ((0, 16382, 1), (0, 16383, 1), 134225920),
        ],
    )
    def test_grid_bound_is_on_rows(self, capsys, monkeypatch, largest, smallest_over,
                                   rows):
        # The sum of (n + 1) over the degrees, times the mu points: the
        # largest grid within 2**27 rows goes on to the mu grid, the smallest
        # grid past it is refused.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        def argv(n_min, n_max, points):
            return ["sweep", "--n-min", str(n_min), "--n-max", str(n_max),
                    "--mu-start", "0", "--mu-stop", "1", "--mu-points", str(points)]

        monkeypatch.setattr(np, "linspace", reached)
        with pytest.raises(Reached):
            main(argv(*largest))
        code, out, err = run_cli(capsys, *argv(*smallest_over))
        assert code == 1 and out == ""
        assert err.endswith(f" has {rows} rows, over 134217728\n")

    def test_overflowing_mu_grid_is_typed(self, capsys):
        # The grid step (stop - start) / 2 overflows a double; no numpy
        # warning and no NaN point may reach the user.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys,
                "sweep", "--n-min", "0", "--n-max", "1",
                "--mu-start", "-1.7e308", "--mu-stop", "1.7e308",
                "--mu-points", "3",
            )
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: InvalidParams: --mu-start -1.7e+308 ")
        assert "--mu-stop 1.7e+308" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--n", "3", "--mu", "1e160", "--root", "0"],
        ["verify", "--n", "3", "--mu=-1e160", "--root", "3"],
        ["phase-compare", "--n", "2", "--mu", "1e300", "--root", "1"],
        ["ortho", "--n1", "0", "--root1", "0", "--n2", "1", "--root2", "0",
         "--mu", "1e200"],
    ],
    ids=lambda argv: argv[0],
)
def test_huge_mu_root_commands_exit_typed(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: InvalidParams: mu**2 overflows")


# A failing call prints its typed error and nothing else: the overflows on
# the way to it raise no numpy warning that names package source lines.  At
# (29, 9.3e306) the extreme eigenvalues of the seed matrix pass the double
# range, and the eigenproblem is refused.
@pytest.mark.parametrize(
    "argv,error",
    [
        pytest.param(
            ["spectrum", "--n", "3", "--mu", "1.3e154"], "ConvergenceFailure: ", id="spectrum"
        ),
        pytest.param(
            ["sweep", "--n-min", "1", "--n-max", "4", "--mu-start", "1e152",
             "--mu-stop", "1.3e154", "--mu-points", "3"],
            "ConvergenceFailure: ",
            id="sweep",
        ),
        pytest.param(
            ["spectrum", "--n", "29", "--mu", "9.313945155129463e306"],
            "InvalidParams: mu = 9.313945155129463e+306 overflows the eigenproblem",
            id="spectrum-eigenvalues",
        ),
        pytest.param(
            ["sweep", "--n-min", "29", "--n-max", "29", "--mu-start", "9.313945155129463e306"],
            "InvalidParams: mu = 9.313945155129463e+306 overflows the eigenproblem",
            id="sweep-eigenvalues",
        ),
        pytest.param(
            ["phase-compare", "--n", "3", "--mu", "1.3e154", "--root", "0"],
            "ConvergenceFailure: root 0 of (n=3, ",
            id="phase-compare",
        ),
    ],
)
def test_failing_call_prints_one_stderr_line(argv, error):
    result = subprocess.run(
        [sys.executable, "-m", "heun_rsj.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: " + error)


# Time grids past 2**27 samples are refused before anything is allocated.
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--a", "1", "--b", "1", "--omega", "1", "--t-end", "1e15",
         "--h", "1e-3"],
        ["phase-compare", "--n", "2", "--mu", "1", "--root", "1",
         "--periods", "100000000000"],
    ],
    ids=lambda argv: argv[0],
)
def test_oversized_time_grid_is_one_line(argv):
    result = subprocess.run(
        [sys.executable, "-m", "heun_rsj.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: InvalidParams: time grid of ")
    assert result.stderr.endswith(" needs over 134217728 samples\n")


def _root_calls(command):
    if command == "phase-compare":  # the inputs of the benchmark's cli workload
        points = (("2", "0.8", "1"), ("5", "1.7", "3"), ("8", "2.6", "6"))
    else:
        points = [
            (str(n), mu, str(root))
            for mu in ("0.25", "1.82", "-0.7")
            for n in range(13)
            for root in range(n + 1)
        ]
    return [[command, "--n", n, "--mu", mu, "--root", root] for n, mu, root in points]


# SHA-256 of "<exit code>\n<stdout>" over each set of calls.  The verify and
# poly digests were re-recorded when the linear-system rows came to be summed
# from the three bands instead of a dense BLAS product (the value moved at
# 154 calls of each command), and, for verify, when det G+ and det G- came
# from the long-double reflection-factor kernel instead of LU determinants
# (det_product_rel and det_min_rel moved at 254 calls) and the
# factorization_rel and factorization_sign checks left the record; every
# exit code, every check verdict, lambda and the coefficients stayed the
# same.  The verify digest was re-recorded again when the certification
# pass took Delta and its scale from a long-double scan instead of the
# gate's double one: det_product_rel and det_min_rel moved at 254 of the
# 273 calls, and one verdict flipped, det_product_rel at root 0 of
# (10, 1.82) from fail to pass (exit 1 -> 0); nothing else moved.  The
# phase-compare digest was re-recorded when RK4 took q(t + dt) of a step
# from the next grid node, (i + 1)*dt, instead of i*dt + dt: only
# max_phase_dev_mod_2pi moved, at the (5, 1.7, 3) call, whose RK4 run
# drifts off a repelling solution and amplifies the rounding (7.55248e-05
# -> 7.55262e-05); the closed form and every exit code stayed the same.
# All three were re-recorded when the coefficients came from a twisted
# factorization of J - kappa*I in long double instead of two stacked LAPACK
# solves: in poly the coefficients moved at 264 of the 273 calls (by at
# most 4.5e-10 relative, at root 0 of (10, -0.7)), master_rel_max at 260
# and linear_system_rel_max at 254; in verify master_equation_rel moved at
# 260 calls, linear_system_rel at 254, reflection_symmetry at 246 and
# coeff_relations_rel at 228; in phase-compare only ode_residual_max, at
# (5, 1.7, 3) and (8, 2.6, 6) (1.503e-13 -> 1.517e-13, 3.493e-13 ->
# 3.417e-13).  No verdict and no exit code flipped.  The verify and poly
# digests hold with AVX-512 and AVX2 switched off and under other OpenBLAS
# core types; phase-compare's (8, 2.6, 6) ode_residual_max moves with AVX2
# off.
@pytest.mark.parametrize(
    "command,digest",
    [
        ("verify", "34a77b6cf13bb3979724282a549bd3faf4ff10660ce54f3be03e7cefc10c6511"),
        ("poly", "6b0b5263773cdd68787a8c1b15c5601ca36567611c57cf1efd04c0288e4c73aa"),
        ("phase-compare",
         "d10de0c301d2c8ed86d01805e2dba9b1746d240a14af9dcc68ef6a8a14b77d5c"),
    ],
)
def test_golden_root_commands(capsys, command, digest):
    h = hashlib.sha256()
    for argv in _root_calls(command):
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == digest


# SHA-256 of "<exit code>\n<stdout><stderr>" of verify at every root of
# n <= 16 at three mu (459 calls), recorded before the sample table of
# certify became one array pass and det G+- a scalar continuant.  A change
# that only makes certify faster must leave every byte, and this digest, as
# it is.  Re-recorded once, when the certification pass took Delta and its
# scale from a long-double scan instead of the gate's double one:
# det_product_rel and det_min_rel moved at 428 calls, and det_product_rel
# flipped from fail to pass (exit 1 -> 0) at six roots, (14, 0.25, 14),
# (15, 0.25, 15), (16, 0.25, 15), (10, 1.82, 0), (15, -0.7, 15) and
# (16, -0.7, 16); nothing else moved.  Re-recorded again when the
# coefficients came from a twisted factorization of J - kappa*I in long
# double instead of two stacked LAPACK solves: master_equation_rel moved at
# 442 of the 459 calls, linear_system_rel at 439, reflection_symmetry at 420
# and coeff_relations_rel at 395; no verdict and no exit code flipped, and
# the determinant checks did not move.
def test_verify_bytes_over_a_grid(capsys):
    h = hashlib.sha256()
    for mu in ("0.25", "1.82", "-0.7"):
        for n in range(17):
            for root in range(n + 1):
                code, out, err = run_cli(
                    capsys, "verify", "--n", str(n), "--mu", mu, "--root", str(root)
                )
                h.update(f"{code}\n{out}{err}".encode())
    assert h.hexdigest() == (
        "65740346584cf24a574d1b3602c152c0b205ae3b5b657906175f47e61ea47277"
    )


# At (40, 0.25, 40) the coefficients span 1e31 to 1, and a_n = 1 carried no
# correct digit when it came from two stacked LAPACK solves: poly printed
# them off by factors from 3e-4 to 138, with the wrong sign at 38 of 41.
# Every sign must be the mpmath eigenvector's.
def test_poly_prints_the_reference_signs(capsys):
    code, out, err = run_cli(capsys, "poly", "--n", "40", "--mu", "0.25", "--root", "40")
    d, eps = spectral.root_params(40, 0.25, 40)
    want = reflection_coeffs_mp(40, 0.25, d.lam, eps)
    assert code == 0 and err == ""
    assert [math.copysign(1.0, a) for a in json.loads(out)["coeffs"]] == [
        float(mpmath.sign(w)) for w in want
    ]


# From about |mu| = 1e153 up to sqrt(DBL_MAX) the double determinant scan
# overflows to NaN at the polished roots; a NaN relative determinant must
# fail the root gate.
def test_nan_determinant_fails_the_root_gate(capsys):
    code, out, err = run_cli(capsys, "poly", "--n", "3", "--mu", "1.3e154", "--root", "0")
    assert code == 1 and out == ""
    assert err.startswith("error: ConvergenceFailure: ")


# No subcommand imports scipy, ortho's quadrature included.
_SCIPY_PROBE = """
import contextlib, io, sys
import heun_rsj.cli as cli
runs = [
    ["spectrum", "--n", "4", "--mu", "1"],
    ["spectrum", "--n", "4", "--mu", "1", "--format", "csv"],
    ["poly", "--n", "3", "--mu", "0.5", "--root", "1"],
    ["verify", "--n", "2", "--mu", "1", "--root", "2"],
    ["simulate", "--a", "1", "--b", "-1", "--omega", "0.25", "--t-end", "5"],
    ["phase-compare", "--n", "1", "--mu", "0.5", "--root", "1", "--periods", "1"],
    ["sweep", "--n-min", "0", "--n-max", "3", "--mu-start", "0.5",
     "--mu-stop", "1", "--mu-points", "2"],
    ["ortho", "--n1", "0", "--root1", "0", "--n2", "1", "--root2", "0",
     "--mu", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_scipy_stays_off_the_hot_path():
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0, 0, 0, 0, 0] []\n"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    probe = "import sys, heun_rsj.cli; sys.exit('numpy.polynomial' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe]).returncode == 0


# Each argv of the parser tests against a fresh process: usage errors that
# the top-level parser reports, that the subcommand's parser reports, that
# main reports, and good calls, among them an abbreviated option and a
# negative value with an exponent.
_VERIFY = ["verify", "--n", "2", "--mu", "1", "--root", "0"]
_PHASE = ["phase-compare", "--n", "2", "--mu", "1", "--root", "1"]
_USAGE = [
    pytest.param([], 2, id="no-argv"),
    pytest.param(["-h"], 0, id="help"),
    pytest.param(["verify", "-h"], 0, id="verify-help"),
    pytest.param(["veri", *_VERIFY[1:]], 2, id="abbreviated-command"),
    pytest.param(["--n", "2", "verify"], 2, id="option-first"),
    pytest.param(_VERIFY[:5], 2, id="missing-root"),
    pytest.param(["verify", "--n", "x", *_VERIFY[3:]], 2, id="n-not-an-int"),
    pytest.param(["verify", "--n", "-1", *_VERIFY[3:]], 2, id="negative-n"),
    pytest.param([*_VERIFY[:3], "--mu", "nan", *_VERIFY[5:]], 2, id="mu-nan"),
    pytest.param([*_VERIFY, "--bogus"], 2, id="unrecognized-option"),
    pytest.param([*_VERIFY, "extra"], 2, id="extra-positional"),
    pytest.param(
        ["sweep", "--n-min", "3", "--n-max", "2", "--mu-start", "1"], 2, id="n-max-below-n-min"
    ),
    pytest.param(
        ["sweep", "--n-min", "0", "--n-max", "1", "--mu-start", "1", "--mu-points", "2"],
        2,
        id="mu-points-without-mu-stop",
    ),
    pytest.param([*_PHASE, "--h", "0"], 2, id="phase-compare-h-zero"),
    pytest.param([*_PHASE, "--periods", "0"], 2, id="phase-compare-periods-zero"),
    pytest.param([*_VERIFY[:5], "--ro", "0"], 0, id="abbreviated-option"),
    pytest.param(["spectrum", "--n", "2", "--mu", "-1e3"], 0, id="negative-exponent"),
]

# One good call of each in-process subcommand that the certify, sweep and
# trajectory benchmarks run.
_GOOD = [
    _VERIFY,
    ["ortho", "--n1", "1", "--n2", "2", "--root1", "0", "--root2", "0", "--mu", "1"],
    ["sweep", "--n-min", "0", "--n-max", "2", "--mu-start", "1", "--mu-stop", "2",
     "--mu-points", "2"],
    ["phase-compare", "--n", "1", "--mu", "0.5", "--root", "1", "--periods", "1"],
]


@functools.lru_cache(maxsize=None)
def _fresh(argv: tuple) -> tuple:
    """Exit code, stdout and stderr of ``python -m heun_rsj.cli argv`` in a
    fresh process, once per argv: every caller sets COLUMNS to 80."""
    r = subprocess.run(
        [sys.executable, "-m", "heun_rsj.cli", *argv], capture_output=True, text=True
    )
    return r.returncode, r.stdout, r.stderr


def _in_process(capsys, argv) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, a usage exit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv,code", _USAGE)
    def test_usage_error_leaves_the_parser_as_fresh_processes_see_it(
        self, capsys, monkeypatch, argv, code
    ):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the width
        in_process = [_in_process(capsys, argv), _in_process(capsys, _VERIFY)]
        assert in_process == [_fresh(tuple(argv)), _fresh(tuple(_VERIFY))]
        assert in_process[0][0] == code
        if code:
            assert in_process[0][1] == "" and in_process[0][2].startswith("usage: heun-rsj")

    @pytest.mark.parametrize("argv", _GOOD, ids=lambda argv: argv[0])
    def test_one_parse_per_request(self, capsys, monkeypatch, argv):
        parsers = []
        parse = argparse.ArgumentParser.parse_known_args

        def spy(self, *args, **kwargs):
            parsers.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert parsers == [f"heun-rsj {argv[0]}"]


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--n", "4", "--mu", "1.5"],
            ["poly", "--n", "3", "--mu", "0.5", "--root", "3"],
            ["verify", "--n", "2", "--mu", "1", "--root", "2"],
        ],
    )
    def test_identical_bytes(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_module_entry_point(self, capsys):
        result = subprocess.run(
            [sys.executable, "-m", "heun_rsj.cli", "spectrum", "--n", "0",
             "--mu", "0.5"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        _, inproc, _ = run_cli(capsys, "spectrum", "--n", "0", "--mu", "0.5")
        assert result.stdout == inproc


# The mu set of the table digests: both zeros, a drive whose square
# underflows, a negative drive, and one whose square overflows.  mu = 0 and
# mu = 1e200 give rows with an error name (blank physical cells in CSV), and
# so do low roots with lambda + mu**2 <= 0.  At mu = 1e200 the gate runs in
# long double and refuses every even n >= 2, whose middle root falls back
# to its seed: those calls exit 1 with no rows.
_TABLE_MUS = ("0", "-0.0", "1e-160", "-0.7", "1.82", "1e200")


def _digest(capsys, calls):
    h = hashlib.sha256()
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


# SHA-256 of "<exit code>\n<stdout>" over each set of calls, recorded when
# every cell was formatted one at a time.  The xy digests were re-recorded
# when the companion pair moved from its stage loop to its step maps, which
# round differently (samples moved by at most 2.1e-14 relative).  All four
# were re-recorded when both integrators took q(t + dt) of a step from the
# next grid node, (i + 1)*dt, instead of i*dt + dt, a time that differs in
# its last bit at some steps: phase samples moved by at most 3.6e-15
# (4.5e-14 and 3.9e-13 relative, the latter near a zero of phi), (x, y)
# samples by at most 1.3e-15 relative.
class TestGoldenTables:
    @pytest.mark.parametrize(
        "system,fmt,digest",
        [
            ("phase", "csv",
             "8610c0219f24367b980985e028ecdbd8dfc6a6db213fc4ad8daa5d9e4ad25c01"),
            ("phase", "json",
             "119c957167f074bc16f124a414c53dbda3095a1b75b8b75f08b4aa4873a29416"),
            ("xy", "csv",
             "820e9bf4a13f58122f65c6561d992e64455dcee7071ea4ec49fe3711044cb918"),
            ("xy", "json",
             "f2a7f7a65dc85f494a3e9e5918e9e55a70871ebed4fa27302307526b11936198"),
        ],
    )
    def test_simulate(self, capsys, system, fmt, digest):
        common = ["simulate", "--system", system, "--format", fmt]
        calls = [
            common + ["--a", "1.3", "--b", "0.7", "--omega", "1.1", "--t-end", "7.5",
                      "--h", "0.01", "--phi0", "0.2", "--x0", "0.6", "--y0", "-0.8"],
            common + ["--a", "-2.25", "--b", "-0.4", "--omega", "0.35",
                      "--t-end", "40"],
        ]
        assert _digest(capsys, calls) == digest

    @pytest.mark.parametrize(
        "fmt,digest",
        [
            ("json", "105e52c1f93741cde58c93dc38bda9955fdf0281fa3f25876af25be5201affbb"),
            ("csv", "67e94168b5714e55e0b1a172e7e145488f3ef5fb4d00f7d25058974ed3628fc3"),
        ],
    )
    def test_spectrum(self, capsys, fmt, digest):
        # Re-recorded when the gate took in drives whose square overflows a
        # double: the six calls of even n >= 2 at mu = 1e200 went from exit
        # 0, with a wrong middle root, to exit 1.
        calls = [
            ["spectrum", "--n", str(n), "--mu", mu, "--format", fmt]
            for n in range(13)
            for mu in _TABLE_MUS
        ]
        assert _digest(capsys, calls) == digest

    @pytest.mark.parametrize(
        "mu_start,mu_stop,points,digest",
        [
            ("1", "1", "3",
             "ba939a7d19fe67875fb9a62e4b8e35494be928f51449ae5ee354d04c6ae7bf26"),
            ("-0.0", "0", "2",
             "eb6df89105c593b5702625d5072da6abde0cf1ed1ba29a219ea3fbff01a3034b"),
        ],
        ids=["repeated", "signed-zeros"],
    )
    def test_sweep_with_equal_keys(self, capsys, mu_start, mu_stop, points, digest):
        # Rows of equal (n, mu, lambda) interleave under the stable sort.
        calls = [["sweep", "--n-min", "0", "--n-max", "7", "--mu-start", mu_start,
                  "--mu-stop", mu_stop, "--mu-points", points]]
        assert _digest(capsys, calls) == digest
