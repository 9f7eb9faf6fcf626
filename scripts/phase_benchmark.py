#!/usr/bin/env python3
"""Benchmark the closed-form junction phase against brute-force integration.

For each admissible spectral root at a chosen (n, mu), evaluate the
closed-form phase over several drive periods and integrate the same phase
equation with classical RK4 at a ladder of step densities.  The printed
table shows the maximum wrapped deviation per density: it should fall off
as h^4 until it hits the accuracy floor of the closed form itself, which
certifies both routes at once.

Example
-------
    python3 scripts/phase_benchmark.py --n 2 --mu 1.0 --periods 5 \
        --steps 250 500 1000 2000
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

import numpy as np

from heun_rsj import (
    ZeroOnUnitCircle,
    build_polynomial,
    dche_to_params,
    integrate_phase,
    lambda_spectrum,
    phase_series,
    root_params,
)
from heun_rsj.serialize import fmt_float
from heun_rsj.spectral import DISC_MARGIN


@dataclass(frozen=True)
class BenchConfig:
    n: int = 2
    mu: float = 1.0
    periods: int = 5
    steps: tuple[int, ...] = (250, 500, 1000, 2000)


@dataclass
class RootReport:
    index: int
    lam: float
    deviations: list[float] = field(default_factory=list)


def wrapped_deviation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(np.angle(np.exp(1j * (a - b))))))


def benchmark_root(cfg: BenchConfig, index: int) -> RootReport:
    d, epsilon = root_params(cfg.n, cfg.mu, index)
    P = build_polynomial(d, epsilon)
    p = dche_to_params(d)
    t_end = cfg.periods * p.period

    report = RootReport(index=index, lam=d.lam)
    for per_period in cfg.steps:
        h = p.period / per_period
        times = np.arange(cfg.periods * per_period + 1) * h
        closed = phase_series(P, times)
        # Start the integration exactly on the closed-form branch.
        traj = integrate_phase(p, float(closed[0]), t_end, h=h)
        report.deviations.append(wrapped_deviation(closed, traj.values[:, 0]))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=BenchConfig.n)
    parser.add_argument("--mu", type=float, default=BenchConfig.mu)
    parser.add_argument("--periods", type=int, default=BenchConfig.periods)
    parser.add_argument(
        "--steps", type=int, nargs="+", default=list(BenchConfig.steps),
        help="RK4 step counts per drive period",
    )
    args = parser.parse_args(argv)
    cfg = BenchConfig(
        n=args.n, mu=args.mu, periods=args.periods, steps=tuple(args.steps)
    )

    spectrum = lambda_spectrum(cfg.n, cfg.mu)
    print(f"n = {cfg.n}, mu = {fmt_float(cfg.mu)}, "
          f"{cfg.periods} periods, steps/period {list(cfg.steps)}")

    reports: list[RootReport] = []
    for i, lam in enumerate(spectrum.lambdas):
        if lam + cfg.mu**2 <= DISC_MARGIN:
            print(f"root {i}: lambda = {fmt_float(lam)}  "
                  "(skipped: discriminant below margin)")
            continue
        try:
            reports.append(benchmark_root(cfg, i))
        except ZeroOnUnitCircle:
            print(f"root {i}: lambda = {fmt_float(lam)}  "
                  "(skipped: polynomial zero on the unit circle)")

    width = max(12, *(len(fmt_float(r.lam)) for r in reports)) if reports else 12
    head = "root  " + "lambda".ljust(width) + "".join(
        f"  {s:>10d}" for s in cfg.steps
    )
    print(head)
    for r in reports:
        cells = "".join(f"  {dev:10.3e}" for dev in r.deviations)
        print(f"{r.index:>4d}  {fmt_float(r.lam).ljust(width)}{cells}")

    if reports:
        worst = max(r.deviations[-1] for r in reports)
        print(f"worst deviation at the finest ladder step: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
