#!/usr/bin/env python3
"""Map the spectral surface lambda_i(n, mu) and its physical bias points.

For every degree in a range and every mu on a grid, compute the full set of
polynomial eigenvalues (the whole grid in one ``lambda_spectra`` call), flag
the roots whose discriminant lam + mu^2 falls below the admissibility
margin, and recover the drive parameters (omega, A, B) for the admissible
ones that have a drive (none at mu = 0, where A = 0).  Results go to a CSV;
a short summary (root counts, worst trace-identity residual, margin
statistics) is printed at the end.

Example
-------
    python3 scripts/spectral_sweep.py --n-max 12 --mu-start 0.1 \
        --mu-stop 4.0 --mu-count 40 --out sweep.csv
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from heun_rsj import HeunRsjError, lambda_spectra
from heun_rsj.cli import _check_grid_rows, _non_negative_int, _roots_table
from heun_rsj.model import mu_squared
from heun_rsj.serialize import fmt_float, write_table
from heun_rsj.spectral import DISC_MARGIN


@dataclass(frozen=True)
class SweepConfig:
    n_min: int = 0
    n_max: int = 8
    mu_start: float = 0.1
    mu_stop: float = 3.0
    mu_count: int = 30
    out: Path = Path("spectral_sweep.csv")


def run_sweep(cfg: SweepConfig) -> tuple[str, dict]:
    """The CSV table of the sweep and its summary statistics.

    The drive cells come from :func:`model.drive_columns`, as in the CLI's
    ``sweep``.  ``InvalidParams`` where the grid has more rows than the
    CLI's ``sweep`` takes, or where a mu of the grid has a square past the
    double range: its discriminant column would have no value.
    """
    worst_trace = 0.0
    _check_grid_rows(cfg.n_min, cfg.n_max, cfg.mu_count)
    mus = np.linspace(cfg.mu_start, cfg.mu_stop, cfg.mu_count).tolist()
    for mu in mus:
        mu_squared(mu)
    grid = [(n, mu) for n in range(cfg.n_min, cfg.n_max + 1) for mu in mus]
    spectra = lambda_spectra(grid)
    for (n, mu), spectrum in zip(grid, spectra):
        trace_exact = n * (n + 1) * (n + 2) / 6.0
        trace = math.fsum(spectrum.lambdas)
        if trace_exact != 0.0:
            worst_trace = max(
                worst_trace, abs(trace - trace_exact) / abs(trace_exact)
            )
    degree, mu, lam, omega, amp, bias, error = _roots_table(spectra)
    index = np.array([i for n, _ in grid for i in range(n + 1)], dtype=int)
    disc = lam + mu * mu
    admissible = disc > DISC_MARGIN
    header = ["n", "mu", "index", "lambda", "disc", "admissible", "omega", "A", "B"]
    # Empty drive cells where the record has no physical bias point.
    table = write_table(
        header,
        [degree, mu, index, lam, disc, admissible.astype(int)],
        [omega, amp, bias],
        admissible & (error == ""),
    )
    stats = {
        "rows": lam.size,
        "below_margin": int(np.count_nonzero(~admissible)),
        "worst_trace_rel": worst_trace,
    }
    return table, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=SweepConfig.n_min)
    parser.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    parser.add_argument("--mu-start", type=float, default=SweepConfig.mu_start)
    parser.add_argument("--mu-stop", type=float, default=SweepConfig.mu_stop)
    parser.add_argument(
        "--mu-count", type=_non_negative_int, default=SweepConfig.mu_count
    )
    parser.add_argument("--out", type=Path, default=SweepConfig.out)
    args = parser.parse_args(argv)
    cfg = SweepConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        mu_start=args.mu_start,
        mu_stop=args.mu_stop,
        mu_count=args.mu_count,
        out=args.out,
    )

    start = time.perf_counter()
    try:
        table, stats = run_sweep(cfg)
    except HeunRsjError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    elapsed = time.perf_counter() - start
    cfg.out.write_text(table)

    print(f"wrote {stats['rows']} rows to {cfg.out} in {elapsed:.2f}s")
    print(f"roots below discriminant margin ({DISC_MARGIN:g}): "
          f"{stats['below_margin']}")
    print(f"worst trace-identity relative residual: "
          f"{fmt_float(stats['worst_trace_rel'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
