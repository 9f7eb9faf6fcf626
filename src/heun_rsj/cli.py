"""Command line front end.

Subcommands::

    spectrum        all spectral lambdas at (n, mu) with physical parameters
    poly            polynomial coefficients and residual summary at one root
    verify          full residual dashboard for one spectral point
    simulate        fixed-step integration of the phase or companion system
    phase-compare   closed-form phase against the integrated phase
    ortho           weighted pairing integral of two polynomials
    sweep           spectral surface over an (n, mu) grid as CSV

Exit status: 0 on success, 1 on a computational error (or failed
verification), 2 on a usage error.  A computational error is one stderr line
naming its type; numpy floating-point warnings are not printed.  Output is
deterministic: identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from . import dynamics, heun_poly, spectral, structure
from .errors import HeunRsjError, InvalidParams
from .model import dche_to_params, drive_columns
from .serialize import (
    SCHEMA,
    json_dumps,
    trajectory_to_csv,
    trajectory_to_json,
    write_table,
)


def _physical(omega: float, a: float, b: float, error: str) -> dict:
    """The physical fields of one root: its drive, or the error that the
    drive has none."""
    return {"error": error} if error else {"omega": omega, "A": a, "B": b}


def _roots_table(spectra: list[spectral.SpectralSet]) -> tuple[np.ndarray, ...]:
    """n, mu, lambda, omega, A, B and the error name of every root of
    ``spectra``, in order, as whole columns (:func:`model.drive_columns`)."""
    sizes = [len(s.lambdas) for s in spectra]
    n = np.repeat([s.n for s in spectra], sizes)
    mu = np.repeat([s.mu for s in spectra], sizes)
    lam = np.array([x for s in spectra for x in s.lambdas], dtype=float)
    return n, mu, lam, *drive_columns(n, mu, lam)


def cmd_spectrum(args) -> tuple[str, int]:
    _, _, lam, omega, A, B, error = _roots_table(
        [spectral.lambda_spectrum(args.n, args.mu)]
    )
    if args.format == "json":
        cells = zip(*(c.tolist() for c in (lam, omega, A, B, error)))
        roots = [
            {"index": i, "lambda": x, **_physical(*drive)}
            for i, (x, *drive) in enumerate(cells)
        ]
        return (
            json_dumps(
                {
                    "schema": SCHEMA,
                    "command": "spectrum",
                    "n": args.n,
                    "mu": args.mu,
                    "roots": roots,
                }
            ),
            0,
        )
    return (
        write_table(
            ["index", "lambda", "omega", "A", "B"],
            [np.arange(lam.size), lam],
            [omega, A, B],
            error == "",
        ),
        0,
    )


def cmd_poly(args) -> tuple[str, int]:
    d, epsilon = spectral.root_params(args.n, args.mu, args.root)
    poly = heun_poly.build_polynomial(d, epsilon)
    master, linear = structure.residuals(poly)
    report = {
        "schema": SCHEMA,
        "command": "poly",
        "n": args.n,
        "mu": args.mu,
        "root_index": args.root,
        "lambda": d.lam,
    }
    report.update(_physical(*(c.item() for c in drive_columns(d.n, d.mu, [d.lam]))))
    report["epsilon"] = epsilon
    report["coeffs"] = list(poly.coeffs)
    report["residuals"] = {"master_rel_max": master, "linear_system_rel_max": linear}
    return json_dumps(report), 0


def cmd_verify(args) -> tuple[str, int]:
    d, epsilon, checks, skipped = structure.certify_root(args.n, args.mu, args.root)
    ok = all(c["pass"] for c in checks)
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "n": args.n,
        "mu": args.mu,
        "root_index": args.root,
        "lambda": d.lam,
        "epsilon": epsilon,
        "checks": checks,
        "skipped": skipped,
        "pass": ok,
    }
    return json_dumps(report), 0 if ok else 1


def cmd_simulate(args) -> tuple[str, int]:
    from .model import RsjParams

    p = RsjParams(A=args.a, B=args.b, omega=args.omega)
    if args.system == "phase":
        traj = dynamics.integrate_phase(p, args.phi0, args.t_end, args.h)
    else:
        traj = dynamics.integrate_xy(p, args.x0, args.y0, args.t_end, args.h)
    text = trajectory_to_json(traj) if args.format == "json" else trajectory_to_csv(traj)
    if args.out and args.out != "-":
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        return f"wrote {len(traj)} samples to {args.out}\n", 0
    return text, 0


def cmd_phase_compare(args) -> tuple[str, int]:
    d, epsilon = spectral.root_params(args.n, args.mu, args.root)
    p = dche_to_params(d)
    poly = heun_poly.build_polynomial(d, epsilon)
    t_end = args.periods * p.period
    h = args.h if args.h else p.period / dynamics.DEFAULT_STEPS_PER_PERIOD

    # The closed form starts at -eps*pi/2, to the bit.
    traj = dynamics.integrate_phase(p, -epsilon * (0.5 * np.pi), t_end, h)
    closed, rate = structure.phase_and_rate(poly, traj.times)
    diff = closed - traj.values[:, 0]
    dev = float(np.max(np.abs((diff + np.pi) % (2.0 * np.pi) - np.pi)))
    resid = rate + np.sin(closed) - dynamics.bias(p, traj.times)
    ode_max = float(np.max(np.abs(resid)))

    ok = dev <= structure.PHASE_TOL and ode_max <= structure.PHASE_TOL
    report = {
        "schema": SCHEMA,
        "command": "phase-compare",
        "n": args.n,
        "mu": args.mu,
        "root_index": args.root,
        "lambda": d.lam,
        "omega": p.omega,
        "A": p.A,
        "B": p.B,
        "periods": args.periods,
        "h": h,
        "epsilon": epsilon,
        "max_phase_dev_mod_2pi": dev,
        "ode_residual_max": ode_max,
        "tolerance": structure.PHASE_TOL,
        "pass": ok,
    }
    return json_dumps(report), 0 if ok else 1


def cmd_ortho(args) -> tuple[str, int]:
    # dche_to_params runs for its NonPositiveDiscriminant check alone.
    d1, eps1 = spectral.root_params(args.n1, args.mu, args.root1)
    dche_to_params(d1)
    d2, eps2 = spectral.root_params(args.n2, args.mu, args.root2)
    dche_to_params(d2)
    p1 = heun_poly.build_polynomial(d1, eps1)
    p2 = heun_poly.build_polynomial(d2, eps2)
    value, scale = structure.orthogonality_integral(p1, p2)
    ratio = abs(value) / scale if scale > 0 else 0.0
    applies = args.n1 != args.n2
    report = {
        "schema": SCHEMA,
        "command": "ortho",
        "mu": args.mu,
        "p1": {"n": args.n1, "root_index": args.root1, "lambda": d1.lam, "epsilon": eps1},
        "p2": {"n": args.n2, "root_index": args.root2, "lambda": d2.lam, "epsilon": eps2},
        "value": value,
        "scale": scale,
        "ratio": ratio,
        "theorem_applies": applies,
        "pass": (ratio <= 1e-8) if applies else None,
    }
    return json_dumps(report), 0


def cmd_sweep(args) -> tuple[str, int]:
    # The rows, the sum of (n + 1) over the degrees times the mu points, are
    # counted before anything of that size is allocated.
    n_min, n_max, points = args.n_min, args.n_max, args.mu_points
    rows = points * ((n_max + 1) * (n_max + 2) - n_min * (n_min + 1)) // 2
    if rows > dynamics._MAX_SAMPLES:
        raise InvalidParams(
            f"sweep grid of n in [{n_min}, {n_max}] at {points} "
            f"mu points has {rows} rows, over {dynamics._MAX_SAMPLES}"
        )
    mus = np.linspace(args.mu_start, args.mu_stop, points)
    if not np.all(np.isfinite(mus)):
        raise InvalidParams(
            f"--mu-start {args.mu_start!r} to --mu-stop {args.mu_stop!r} "
            f"in {points} points overflows the mu grid"
        )
    spectra = spectral.lambda_spectra(
        [(n, float(mu)) for n in range(n_min, n_max + 1) for mu in mus]
    )
    n, mu, lam, omega, A, B, error = _roots_table(spectra)
    # A descending mu grid still emits rows in ascending (n, mu, lambda); the
    # sort is stable, so rows of equal keys keep their grid order.
    order = np.lexsort((lam, mu, n))
    return (
        write_table(
            ["n", "mu", "lambda", "omega", "A", "B"],
            [n[order], mu[order], lam[order]],
            [omega[order], A[order], B[order]],
            error[order] == "",
        ),
        0,
    )


def _positive(kind):
    def conv(text: str):
        value = kind(text)
        if value <= 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    return conv


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


# Parsing leaves the parsers as they were, so one build serves every call.
@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heun-rsj",
        description="Josephson phase dynamics via double confluent Heun polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="spectral lambdas at (n, mu)")
    sp.add_argument("--n", type=_non_negative_int, required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(func=cmd_spectrum)

    pl = sub.add_parser("poly", help="polynomial at one spectral root")
    pl.add_argument("--n", type=_non_negative_int, required=True)
    pl.add_argument("--mu", type=_finite_float, required=True)
    pl.add_argument("--root", type=_non_negative_int, required=True)
    pl.set_defaults(func=cmd_poly)

    vf = sub.add_parser("verify", help="residual dashboard at one spectral root")
    vf.add_argument("--n", type=_non_negative_int, required=True)
    vf.add_argument("--mu", type=_finite_float, required=True)
    vf.add_argument("--root", type=_non_negative_int, required=True)
    vf.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="integrate the phase or companion system")
    sim.add_argument("--a", type=_finite_float, required=True, help="bias amplitude A")
    sim.add_argument("--b", type=_finite_float, required=True, help="bias offset B")
    sim.add_argument("--omega", type=_finite_float, required=True)
    sim.add_argument("--system", choices=("phase", "xy"), default="phase")
    sim.add_argument("--phi0", type=_finite_float, default=0.0)
    sim.add_argument("--x0", type=_finite_float, default=1.0)
    sim.add_argument("--y0", type=_finite_float, default=0.0)
    sim.add_argument("--t-end", type=_positive(float), required=True)
    sim.add_argument("--h", type=_positive(float), default=None)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default="-")
    sim.set_defaults(func=cmd_simulate)

    pc = sub.add_parser("phase-compare", help="closed-form phase vs integration")
    pc.add_argument("--n", type=_non_negative_int, required=True)
    pc.add_argument("--mu", type=_finite_float, required=True)
    pc.add_argument("--root", type=_non_negative_int, required=True)
    pc.add_argument("--periods", type=_positive(int), default=10)
    pc.add_argument("--h", type=_positive(float), default=None)
    pc.set_defaults(func=cmd_phase_compare)

    orth = sub.add_parser("ortho", help="weighted pairing of two polynomials")
    orth.add_argument("--n1", type=_non_negative_int, required=True)
    orth.add_argument("--root1", type=_non_negative_int, required=True)
    orth.add_argument("--n2", type=_non_negative_int, required=True)
    orth.add_argument("--root2", type=_non_negative_int, required=True)
    orth.add_argument("--mu", type=_finite_float, required=True)
    orth.set_defaults(func=cmd_ortho)

    sw = sub.add_parser("sweep", help="spectral surface over an (n, mu) grid")
    sw.add_argument("--n-min", type=_non_negative_int, required=True)
    sw.add_argument("--n-max", type=_non_negative_int, required=True)
    sw.add_argument("--mu-start", type=_finite_float, required=True)
    sw.add_argument("--mu-stop", type=_finite_float, default=None)
    sw.add_argument("--mu-points", type=_positive(int), default=1)
    sw.set_defaults(func=cmd_sweep)

    # argparse's own negative-number pattern has no exponent, so it would
    # read the "-1e3" of "--mu -1e3" as an option.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


@functools.lru_cache(maxsize=1)
def _subcommands() -> dict[str, argparse.ArgumentParser]:
    """The parser of each subcommand, by name, from :func:`build_parser`'s
    one build."""
    (action,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def _parse(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """``parser.parse_args(argv)`` in one pass where ``argv[0]`` names a
    subcommand: the top-level parser would hand every later token to that
    subcommand's parser, which is run here alone.  Any other argv, or one
    with tokens that the subcommand leaves over, goes through
    ``parse_args``, so every usage error has argparse's own bytes.
    """
    sub = _subcommands().get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, sys.argv[1:] if argv is None else argv)
    if args.command == "sweep":
        if args.n_max < args.n_min:
            parser.error("--n-max must be >= --n-min")
        if args.mu_points > 1 and args.mu_stop is None:
            parser.error("--mu-stop is required when --mu-points > 1")
        if args.mu_stop is None:
            args.mu_stop = args.mu_start
    try:
        # An overflow on the way to a typed error is reported by that error
        # alone, not by numpy warnings ahead of it.
        with np.errstate(all="ignore"):
            text, status = args.func(args)
    except HeunRsjError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
