"""The scripts at tiny sizes, as subprocesses: typed errors, never a
traceback."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from heun_rsj.errors import HeunRsjError
from heun_rsj.model import DcheParams, dche_to_params
from heun_rsj.spectral import DISC_MARGIN, lambda_spectrum

from oracles import mpmath_root, write_csv

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


def test_polish_report_on_a_tiny_grid(tmp_path):
    saved = tmp_path / "roots.json"
    argv = ["--n-max", "6", "--mu", "1.37", "0.25"]
    result = _script("polish_report.py", *argv, "--save", str(saved))
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    # Roots 0 of degree 0 stay on the determinant, which the polish scans in
    # long double; every other root steps on its own factor.  All stop after
    # one pass, and the gate's double scan of every root is counted as no
    # pass.
    assert lines[:3] == [
        "grid: n <= 6 x mu in [1.37, 0.25]: 56 roots",
        "pass  on_det  on_factor  last_pass",
        "   1       2         54         56",
    ]
    table = [list(map(int, line.split())) for line in lines[2:-1]]
    assert len(table) == 1
    assert sum(row[3] for row in table) == 56  # each root's last pass once
    assert all(min(row) >= 0 for row in table)
    # A factor root takes one pass.
    assert all(row[2] == 0 for row in table[1:])
    det, factor = (sum(row[k] for row in table) for k in (1, 2))
    assert lines[-1] == f"evaluations: {det} det + {factor} factor"
    assert det > 0 and factor > 0

    # A saved root one ulp off reads as the one moved root, about an ulp
    # farther from the mpmath root than the polished one; --errors finds
    # every polished root of the grid within half an ulp.
    data = json.loads(saved.read_text())
    n, mu = data["grid"][11]
    lam = data["lambdas"][11][2]
    data["lambdas"][11][2] = float(np.nextafter(lam, np.inf))
    saved.write_text(json.dumps(data))
    result = _script("polish_report.py", *argv, "--against", str(saved), "--errors")
    assert (result.returncode, result.stderr) == (0, "")
    lines = result.stdout.splitlines()
    at = lines.index("moved: 1 of 56 roots")
    row = lines[at + 2].split(",")
    assert row[:5] == [str(n), repr(mu), "2", repr(data["lambdas"][11][2]), repr(lam)]
    old_ulps, new_ulps = float(row[5]), float(row[6])
    assert new_ulps <= 0.5 and abs(old_ulps - new_ulps - 1) <= 1e-3
    assert lines[at + 3].startswith("closer: 1, farther: 0; over 0.5 ulp: 1 -> 0;")
    head, worst = lines[at + 4].rsplit(" ", 2)[:2]
    assert head == "all roots: 0 over 0.5 ulp, worst" and float(worst) <= 0.5
    assert len(lines) == at + 5


def test_mpmath_root_stops_on_its_own_bracket():
    # The bisection stops at 1e-30 of the least magnitude its bracket holds,
    # wherever it starts.  A stop relative to the start would end it early
    # from a far start: at 4294967296.0 for root 2 of (4, 1), about 3.49,
    # from 1e40, and 1.5e-11 off from 1e20.
    ref = mpmath_root(4, 1.0, 2, 3.49)
    assert abs(float(ref) - lambda_spectrum(4, 1.0).lambdas[2]) <= 4.5e-16
    for near in (1e40, 1e20, -1e40):
        assert abs(mpmath_root(4, 1.0, 2, near) - ref) <= 1e-29 * ref, near
    # The middle root of (24, 1e200) from the seed that the polish falls
    # back to there: the Sylvester-Kac limit n*(n + 2)/8 = 78, not 5.4e154.
    assert abs(mpmath_root(24, 1e200, 12, 1.2216884564198477e185) - 78) <= 1e-28
