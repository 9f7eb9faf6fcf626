"""``scripts/polish_report.py`` at tiny sizes, as a subprocess (usage
errors, never a traceback), and the mpmath root that the tests take from it."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from heun_rsj.spectral import lambda_spectrum

from oracles import mpmath_root

ROOT = Path(__file__).resolve().parent.parent


def _script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, timeout=120,
    )


def test_counts_out_of_range_are_usage_errors():
    result = _script("polish_report.py", "--n-max", "-1")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.endswith("error: argument --n-max: must be >= 0, got -1\n")


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
