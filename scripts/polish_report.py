#!/usr/bin/env python3
"""Report what the long-double root polish of ``lambda_spectra`` does on a grid.

Every degree n in [0, --n-max] at every --mu goes through one
``lambda_spectra`` call, with the polish's Newton passes counted from
outside, on the one recurrence ``spectral._continuant``: its matrix
argument names the determinant (``"T"``, counted only where it scans long
doubles, as the polish does; the gate scans doubles) or a root's own
reflection factor (``"J"``).  The report prints

* the pass histogram: for each Newton pass, the roots that step on the
  determinant (``on_det``) and on their own factor (``on_factor``), and the
  roots whose last pass it is;
* with --against, every root whose lambda differs from a list saved by
  --save (of another checkout, say), with both lambdas and the error of each
  in ulps against a root of the same index from mpmath (:func:`mpmath_root`,
  which shares no code with the package); a summary counts the roots that
  came closer, went farther, or lie more than half an ulp off;
* with --errors, the same mpmath error at every root of the grid.

The kernels are wrapped only for the one call this script makes; nothing
of the report runs when the package is used.  mpmath is needed only for
--against and --errors.

Example
-------
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/polish_report.py \\
        --n-max 110 --save other.json
    python3 scripts/polish_report.py --n-max 110 --against other.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import heun_rsj.spectral as spectral
from heun_rsj import HeunRsjError, lambda_spectra
from heun_rsj.cli import _non_negative_int

_MUS = [0.25, 1.0, 1.37, 1.82, 2.5, -0.7, 0.01, 7.3]
# Working digits of the mpmath root; it is bisected to half as many.
_DPS = 60


def counted_spectra(grid):
    """The spectra of ``grid`` and the kernel calls of their polish, as
    ``(kind, roots)`` in call order."""
    calls = []
    kernel = spectral._continuant

    def spy(matrix, n, mu, x, **flags):
        kind = "factor" if matrix == "J" else "det"
        if kind == "factor" or x.dtype == np.longdouble:
            calls.append((kind, x.size))
        return kernel(matrix, n, mu, x, **flags)

    spectral._continuant = spy
    # The gate's double scan is not counted, so every counted call is a
    # polish pass; runs of lambda_spectra start over at pass 1.
    polish = spectral._polish_extended

    def marked(n, mu, seeds):
        calls.append(("run", seeds.size))
        return polish(n, mu, seeds)

    spectral._polish_extended = marked
    try:
        spectra = lambda_spectra(grid)
    finally:
        spectral._polish_extended = polish
        spectral._continuant = kernel
    return spectra, calls


def pass_table(calls) -> list[list[int]]:
    """Roots on the determinant and on their own factor per pass (1-based),
    summed over the runs.  A pass steps the determinant's roots first and
    then the factor's, so a factor call opens a new pass unless it comes
    right after a determinant call."""
    table: list[list[int]] = []
    p, prev = -1, None
    for kind, roots in calls:
        if kind == "run":
            p, prev = -1, None
            continue
        if kind == "det" or prev != "det":
            p += 1
        while len(table) <= p:
            table.append([0, 0])
        table[p][kind == "factor"] += roots
        prev = kind
    return table


def mpmath_root(n: int, mu: float, i: int, near: float):
    """Root i (ascending, from 0) of the determinant at (n, mu), in mpmath
    alone: bisection in ``_DPS``-digit arithmetic on the count of
    eigenvalues below x of the symmetric tridiagonal matrix (diagonal
    j*(n+1-j), squared off-diagonals mu**2*(j+1)*(n-j)), from a bracket
    around ``near`` widened until it holds the root.  The bisection stops
    once the bracket is at most 10**-(_DPS/2) of the least magnitude it
    holds, or of 1 where that is smaller, so ``near`` sets only where it
    starts.

    The count resolves roots to that stop over every |mu| a double holds.
    Where |mu| is large against n**2, a pivot of size mu**2/|x| swamps the
    O(n**2) diagonal, but the next pivot divides mu**2 by it, so the lost
    digits reach the count only at their own relative size, 10**-_DPS.
    Measured with ``_DPS = 60`` against 200 digits: every root of n in
    {6, 24, 31} at mu in {1e8, 1e30, 1e100, 1e200, 1e300} agrees to
    5e-31 of max(1, |root|); the middle root of (24, 1e200) is 78 and that
    of (30, 1e300) is 120, within 5e-31 of a 600-digit run."""
    import mpmath

    with mpmath.workdps(_DPS):
        m2 = mpmath.mpf(mu) ** 2
        diag = [mpmath.mpf(j * (n + 1 - j)) for j in range(n + 1)]
        off2 = [m2 * (j + 1) * (n - j) for j in range(n)]
        tiny = mpmath.mpf(10) ** (-2 * _DPS)

        def below(x):
            count, d = 0, diag[0] - x
            for j in range(1, n + 2):
                if d == 0:
                    d = tiny
                count += d < 0
                if j <= n:
                    d = diag[j] - x - off2[j - 1] / d
            return count

        x = mpmath.mpf(near)
        w = 16 * mpmath.mpf(math.ulp(near))
        while not below(x - w) <= i < below(x + w):
            w *= 16
        lo, hi = x - w, x + w
        tol = mpmath.mpf(10) ** (-_DPS // 2)
        while True:
            # Relative to the least magnitude in the bracket (0 where it
            # holds 0), and absolute below 1.
            least = min(abs(lo), abs(hi)) if lo * hi > 0 else 0
            if hi - lo <= tol * max(1, least):
                break
            mid = (lo + hi) / 2
            if below(mid) <= i:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def ulp_error(lam: float, ref) -> float:
    """|lam - ref| in ulps of the double nearest ``ref``."""
    return float(abs(ref - lam)) / math.ulp(float(ref))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=_non_negative_int, default=110)
    parser.add_argument("--mu", type=float, nargs="+", default=_MUS)
    parser.add_argument("--save", type=Path, help="write the grid's lambdas here")
    parser.add_argument("--against", type=Path, help="a list written by --save")
    parser.add_argument("--errors", action="store_true",
                        help="mpmath error at every root of the grid")
    args = parser.parse_args(argv)
    grid = [(n, mu) for n in range(args.n_max + 1) for mu in args.mu]
    try:
        spectra, calls = counted_spectra(grid)
    except HeunRsjError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    lams = [list(s.lambdas) for s in spectra]
    total = sum(map(len, lams))

    table = pass_table(calls)
    print(f"grid: n <= {args.n_max} x mu in {args.mu}: {total} roots")
    print("pass  on_det  on_factor  last_pass")
    for p, row in enumerate(table):
        after = sum(table[p + 1]) if p + 1 < len(table) else 0
        det, factor = row
        print(f"{p + 1:4d}  {det:6d}  {factor:9d}  {sum(row) - after:9d}")
    det, factor = (sum(row[k] for row in table) for k in (0, 1))
    print(f"evaluations: {det} det + {factor} factor")

    if args.save:
        args.save.write_text(json.dumps({"grid": grid, "lambdas": lams}) + "\n")
    if args.against:
        saved = json.loads(args.against.read_text())
        if [tuple(p) for p in saved["grid"]] != grid:
            sys.stderr.write(f"error: {args.against} holds another grid\n")
            return 1
        moved = [
            (n, mu, i, old, new)
            for (n, mu), olds, news in zip(grid, saved["lambdas"], lams)
            for i, (old, new) in enumerate(zip(olds, news))
            if old != new
        ]
        print(f"moved: {len(moved)} of {total} roots")
        print("n,mu,i,old,new,old_ulps,new_ulps")
        closer = farther = half_old = half_new = 0
        worst_old = worst_new = 0.0
        for n, mu, i, old, new in moved:
            ref = mpmath_root(n, mu, i, new)
            e_old, e_new = ulp_error(old, ref), ulp_error(new, ref)
            print(f"{n},{mu!r},{i},{old!r},{new!r},{e_old:.3f},{e_new:.3f}")
            closer += e_new < e_old
            farther += e_new > e_old
            half_old += e_old > 0.5
            half_new += e_new > 0.5
            worst_old, worst_new = max(worst_old, e_old), max(worst_new, e_new)
        print(f"closer: {closer}, farther: {farther}; over 0.5 ulp: "
              f"{half_old} -> {half_new}; worst: {worst_old:.3f} -> {worst_new:.3f} ulps")
    if args.errors:
        errors = [
            ulp_error(lam, mpmath_root(n, mu, i, lam))
            for (n, mu), roots in zip(grid, lams)
            for i, lam in enumerate(roots)
        ]
        print(f"all roots: {sum(e > 0.5 for e in errors)} over 0.5 ulp, "
              f"worst {max(errors):.3f} ulps")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
