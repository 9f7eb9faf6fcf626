"""Command line contract: formats, determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from heun_rsj import spectral, structure
from heun_rsj.cli import build_parser, main
from heun_rsj.model import HeunPolynomial
from heun_rsj.serialize import SCHEMA

from oracles import reflection_signs, sweep_loop


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
            "factorization_rel",
            "factorization_sign",
            "det_product_rel",
            "det_min_rel",
        }
        assert all(c["pass"] for c in doc["checks"])
        assert doc["skipped"] == []

    def test_determinant_overflow_is_typed(self, capsys):
        # At n = 120 the gate determinant and its scale pass the double
        # range while det G+ and det G- are about 2e156 each.
        code, out, err = run_cli(
            capsys, "verify", "--n", "120", "--mu", "1.3", "--root", "60"
        )
        assert code == 1 and out == ""
        assert err == (
            "error: InvalidParams: the determinants overflow a double at "
            "(n=120, mu=1.3)\n"
        )

    def test_saturated_determinant_scale_is_typed(self, capsys):
        # At root 1 of (104, 1) the gate determinant is 1.5e297 but its
        # scale passes the double range: no determinant check is reported.
        code, out, err = run_cli(
            capsys, "verify", "--n", "104", "--mu", "1", "--root", "1"
        )
        assert code == 1 and out == ""
        assert err == (
            "error: InvalidParams: the determinants overflow a double at "
            "(n=104, mu=1.0)\n"
        )

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
        assert len(doc["skipped"]) == 6


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

    def test_unit_circle_guard_runs_twice(self, capsys, monkeypatch):
        # One guard in phase_series and one in phase_rate, on the same P:
        # the second reads the first's verdict, so the circle is sampled once.
        sizes = []
        value = HeunPolynomial.value

        def spy(P, z):
            sizes.append(np.size(z))
            return value(P, z)

        monkeypatch.setattr(HeunPolynomial, "value", spy)
        structure._unit_circle_clear.cache_clear()
        code, _, _ = run_cli(
            capsys, "phase-compare", "--n", "1", "--mu", "0.5", "--root", "1",
            "--periods", "1",
        )
        assert code == 0
        info = structure._unit_circle_clear.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert sizes.count(4096) == 1


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
        # computed by its own lambda_spectrum call.
        code, out, err = run_cli(
            capsys,
            "sweep", "--n-min", "0", "--n-max", "120",
            "--mu-start", "-2.5", "--mu-stop", "3", "--mu-points", "4",
        )
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "18a7aae9b449ab80d304a09f93c8f5f4907a0231eafaead7c01f4c03b8126712"
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
# the way to it raise no numpy warning that names package source lines.
@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3", "--mu", "1.3e154"],
        ["sweep", "--n-min", "1", "--n-max", "4", "--mu-start", "1e152",
         "--mu-stop", "1.3e154", "--mu-points", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_failing_call_prints_one_stderr_line(argv):
    result = subprocess.run(
        [sys.executable, "-m", "heun_rsj.cli", *argv], capture_output=True, text=True
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: ConvergenceFailure: ")


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
# poly digests date from before the records carried their sign; the
# phase-compare digest from when its ODE residual became the exact rate.
@pytest.mark.parametrize(
    "command,digest",
    [
        ("verify", "653c20fa7f6ba0afd8c8368a0b31c35e7295d39841bd0ce65d4b4240b5c3a762"),
        ("poly", "dfa47e53d855f7ed8e4888bc5d7174baf3f200ab4020dc6f4911b28f6dd96812"),
        ("phase-compare",
         "5421052c214f1e97e8b26a46e6d154dda332a14a15ec121cba9b435bdd52d41d"),
    ],
)
def test_golden_root_commands(capsys, command, digest):
    h = hashlib.sha256()
    for argv in _root_calls(command):
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == digest


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


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_the_parser_as_fresh_processes_see_it(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the width
        bad = ["verify", "--n", "2"]
        good = ["verify", "--n", "2", "--mu", "1", "--root", "0"]
        with pytest.raises(SystemExit) as exc:
            main(bad)
        first = capsys.readouterr()
        in_process = [(exc.value.code, first.out, first.err), run_cli(capsys, *good)]
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "heun_rsj.cli", *argv],
                capture_output=True,
                text=True,
            )
            for argv in (bad, good)
        ]
        assert in_process[0][0] == 2 and in_process[0][2].startswith("usage: ")
        assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]


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
# so do low roots with lambda + mu**2 <= 0.
_TABLE_MUS = ("0", "-0.0", "1e-160", "-0.7", "1.82", "1e200")


def _digest(capsys, calls):
    h = hashlib.sha256()
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


# SHA-256 of "<exit code>\n<stdout>" over each set of calls, recorded when
# every cell was formatted one at a time.
class TestGoldenTables:
    @pytest.mark.parametrize(
        "system,fmt,digest",
        [
            ("phase", "csv",
             "c800556fa036aa6cf3201e838f143a507236dea6143ef49b8eac89e1f175d3eb"),
            ("phase", "json",
             "e541c577b3ffde14e2c702e105a592b58e4397b5fd9d6456b27a38d4f843a153"),
            ("xy", "csv",
             "08ec4d7c5593b7ca74c7ca4a4e4801b4a12d9e220445fb0e947fb86d59e4c644"),
            ("xy", "json",
             "93f7e5ee2e4ab26b230753412b8f08b2130645d7026c0900f6525d1dbf51e7ae"),
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
            ("json", "dcc988aeabd4f01d531daa5d33a57e6d6c80abb6c68e6b190168a9c6428d6dfe"),
            ("csv", "fa90712c50465dd492d083cd1230f54613002522c6149841fa3074079334f12d"),
        ],
    )
    def test_spectrum(self, capsys, fmt, digest):
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
