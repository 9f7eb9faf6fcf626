#!/usr/bin/env python3
"""Map the spectral surface lambda_i(n, mu) and its physical bias points.

For every degree in a range and every mu on a grid, compute the full set of
polynomial eigenvalues (the whole grid in one ``lambda_spectra`` call), flag
the roots whose discriminant lam + mu^2 falls below the admissibility
margin, and recover the drive parameters (omega, A, B) for the admissible
ones.  Results go to a CSV; a short summary (root counts, worst
trace-identity residual, margin statistics) is printed at the end.

Example
-------
    python3 scripts/spectral_sweep.py --n-max 12 --mu-start 0.1 \
        --mu-stop 4.0 --mu-count 40 --out sweep.csv
"""

from __future__ import annotations

import argparse
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from heun_rsj import DcheParams, dche_to_params, lambda_spectra
from heun_rsj.serialize import fmt_float, write_csv
from heun_rsj.spectral import DISC_MARGIN


@dataclass(frozen=True)
class SweepConfig:
    n_min: int = 0
    n_max: int = 8
    mu_start: float = 0.1
    mu_stop: float = 3.0
    mu_count: int = 30
    out: Path = Path("spectral_sweep.csv")


def run_sweep(cfg: SweepConfig) -> tuple[list[list], dict]:
    rows: list[list] = []
    worst_trace = 0.0
    below_margin = 0
    grid = [
        (n, mu)
        for n in range(cfg.n_min, cfg.n_max + 1)
        for mu in np.linspace(cfg.mu_start, cfg.mu_stop, cfg.mu_count)
    ]
    spectra = lambda_spectra([(n, float(mu)) for n, mu in grid])
    for (n, mu), spectrum in zip(grid, spectra):
        trace_exact = n * (n + 1) * (n + 2) / 6.0
        trace = math.fsum(spectrum.lambdas)
        if trace_exact != 0.0:
            worst_trace = max(
                worst_trace, abs(trace - trace_exact) / abs(trace_exact)
            )
        for i, lam in enumerate(spectrum.lambdas):
            disc = lam + mu * mu
            admissible = disc > DISC_MARGIN
            if admissible:
                p = dche_to_params(DcheParams(n=n, mu=float(mu), lam=lam))
                omega, amp, bias = p.omega, p.A, p.B
            else:
                # Empty cells: the record has no physical bias point.
                below_margin += 1
                omega = amp = bias = ""
            rows.append(
                [n, float(mu), i, lam, disc, int(admissible), omega, amp, bias]
            )
    stats = {
        "rows": len(rows),
        "below_margin": below_margin,
        "worst_trace_rel": worst_trace,
    }
    return rows, stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-min", type=int, default=SweepConfig.n_min)
    parser.add_argument("--n-max", type=int, default=SweepConfig.n_max)
    parser.add_argument("--mu-start", type=float, default=SweepConfig.mu_start)
    parser.add_argument("--mu-stop", type=float, default=SweepConfig.mu_stop)
    parser.add_argument("--mu-count", type=int, default=SweepConfig.mu_count)
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
    rows, stats = run_sweep(cfg)
    elapsed = time.perf_counter() - start

    header = [
        "n", "mu", "index", "lambda", "disc", "admissible", "omega", "A", "B",
    ]
    cfg.out.write_text(write_csv(header, rows))

    print(f"wrote {stats['rows']} rows to {cfg.out} in {elapsed:.2f}s")
    print(f"roots below discriminant margin ({DISC_MARGIN:g}): "
          f"{stats['below_margin']}")
    print(f"worst trace-identity relative residual: "
          f"{fmt_float(stats['worst_trace_rel'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
