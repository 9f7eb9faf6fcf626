"""The scripts at tiny sizes, as subprocesses: typed errors, never a
traceback."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from heun_rsj.errors import HeunRsjError
from heun_rsj.model import DcheParams, dche_to_params
from heun_rsj.spectral import DISC_MARGIN, lambda_spectrum

from oracles import write_csv

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
    )


def _sweep_loop(n_max, mu_start, mu_stop, mu_count):
    """The sweep script's table, one ``dche_to_params`` call per row and
    ``write_csv``."""
    rows = []
    for n in range(n_max + 1):
        for mu in np.linspace(mu_start, mu_stop, mu_count):
            for i, lam in enumerate(lambda_spectrum(n, float(mu)).lambdas):
                disc = lam + mu * mu
                drive = ["", "", ""]
                if disc > DISC_MARGIN:
                    try:
                        p = dche_to_params(DcheParams(n=n, mu=float(mu), lam=lam))
                        drive = [p.omega, p.A, p.B]
                    except HeunRsjError:
                        pass
                admissible = int(disc > DISC_MARGIN)
                rows.append([n, float(mu), i, lam, disc, admissible, *drive])
    header = ["n", "mu", "index", "lambda", "disc", "admissible", "omega", "A", "B"]
    return write_csv(header, rows)


def test_sweep_leaves_the_drive_blank_at_zero_mu(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["--n-max", "2", "--mu-start", "0", "--mu-stop", "1", "--mu-count", "3"]
    result = _script("spectral_sweep.py", *argv, "--out", str(out))
    assert (result.returncode, result.stderr) == (0, "")
    text = out.read_text()
    assert text == _sweep_loop(2, 0.0, 1.0, 3)
    # Root 1 of (1, 0) is admissible, and A = 0 leaves it no drive.
    assert "\n1,0,1,1,1,1,,,\n" in text


def test_sweep_bytes_where_every_root_has_a_drive(tmp_path):
    out = tmp_path / "s.csv"
    argv = ["--n-max", "6", "--mu-start", "-2", "--mu-stop", "1.5", "--mu-count", "4"]
    result = _script("spectral_sweep.py", *argv, "--out", str(out))
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_text() == _sweep_loop(6, -2.0, 1.5, 4)


def test_sweep_refuses_an_oversized_grid_in_one_line(tmp_path):
    out = tmp_path / "s.csv"
    result = _script("spectral_sweep.py", "--n-max", "0", "--mu-count",
                     "10000000000000", "--out", str(out))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == (
        "error: InvalidParams: sweep grid of n in [0, 0] at 10000000000000 mu "
        "points has 10000000000000 rows, over 134217728\n"
    )
    assert not out.exists()


def test_sweep_refuses_an_overflowing_drive_in_one_line(tmp_path):
    out = tmp_path / "s.csv"
    result = _script("spectral_sweep.py", "--n-max", "2", "--mu-start", "1e200",
                     "--mu-count", "3", "--out", str(out))
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr == "error: InvalidParams: mu**2 overflows a double at mu = 1e+200\n"
    assert not out.exists()


def test_phase_benchmark_reports_each_root_at_zero_mu():
    result = _script(
        "phase_benchmark.py", "--n", "2", "--mu", "0", "--periods", "1", "--steps", "50"
    )
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    assert lines[1] == "root 0: lambda = 0  (skipped: discriminant below margin)"
    for root in (1, 2):
        assert lines[1 + root] == (
            f"root {root}: lambda = 2  (skipped: InvalidParams: mu must be "
            "nonzero: at mu = 0 every root is double)"
        )


def test_phase_benchmark_refuses_a_bad_spectrum_in_one_line():
    result = _script("phase_benchmark.py", "--n", "3", "--mu", "1.3e154")
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("error: ConvergenceFailure: root 0 of (n=3, ")


def test_counts_out_of_range_are_usage_errors():
    result = _script("phase_benchmark.py", "--n", "2", "--mu", "1", "--steps", "0")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith("error: argument --steps: must be positive, got 0\n")
    result = _script("spectral_sweep.py", "--mu-count", "-1")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith("error: argument --mu-count: must be >= 0, got -1\n")
