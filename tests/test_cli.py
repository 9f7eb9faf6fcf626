"""Command line contract: formats, determinism, exit codes."""

import hashlib
import json
import math
import subprocess
import sys
import warnings

import pytest

from heun_rsj import spectral, structure
from heun_rsj.cli import main
from heun_rsj.serialize import SCHEMA

from oracles import sweep_loop


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
        # reflection sign names each of them.
        docs = []
        for root in ("1", "2"):
            code, out, _ = run_cli(
                capsys, "poly", "--n", "20", "--mu", "0.25", "--root", root
            )
            assert code == 0
            docs.append(parse_json(out))
        assert docs[0]["lambda"] == docs[1]["lambda"]
        assert (docs[0]["epsilon"], docs[1]["epsilon"]) == (-1, 1)
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
        # One guard in phase_series and one in phase_rate, on the same P.
        calls = []
        guard = structure._unit_circle_clear
        monkeypatch.setattr(
            structure, "_unit_circle_clear", lambda P: calls.append(P) or guard(P)
        )
        code, _, _ = run_cli(
            capsys, "phase-compare", "--n", "1", "--mu", "0.5", "--root", "1",
            "--periods", "1",
        )
        assert code == 0
        assert len(calls) == 2


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


# Every subcommand but ortho must run without importing scipy; ortho's
# quadrature imports scipy.integrate on first use.
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
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in runs]
    hot = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    cli.main(["ortho", "--n1", "0", "--root1", "0", "--n2", "1", "--root2", "0",
              "--mu", "1"])
print(codes, hot, "scipy.integrate" in sys.modules)
"""


def test_scipy_stays_off_the_hot_path():
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0, 0, 0, 0, 0, 0, 0] [] True\n"


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
