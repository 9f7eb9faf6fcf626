"""Time-domain integration of the driven junction and its companion system.

Two routes to the same phase:

* the scalar equation ``phi' = q(t) - sin(phi)`` integrated directly, and
* the linear companion system ``2x' = x + q*y``, ``2y' = -(q*x + y)`` whose
  solutions encode the phase through ``exp(i*phi) = (x - i*y)/(x + i*y)``,
  i.e. ``phi = 2*atan2(-y, x)`` up to the usual 2*pi branch bookkeeping.

Both integrators are hand-written fixed-step classical Runge-Kutta, so the
two routes stay independent of each other and of any closed-form machinery
they are later used to cross-check.  The default step is period/2000.

The drive is precomputed per block of steps: one numpy pass gives q(t),
q(t + dt/2) and q(t + dt) for every step of the block, and the step loop
reads them from lists.  The stage arithmetic is unchanged and in the same
order, so the samples are bit for bit those of a loop that evaluates the
drive at each stage.  Memory beyond the output stays one block's worth.

``unwrap`` is the package's one branch-unwrapping routine; the closed-form
phase in ``structure`` uses it too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParams, NonFiniteState, OriginUndefined
from .model import RsjParams, Trajectory

__all__ = ["bias", "integrate_phase", "integrate_xy", "phase_from_xy"]

DEFAULT_STEPS_PER_PERIOD = 2000

# Steps per precomputed drive block: a few lists of this length stay small
# however long the run.
_BLOCK = 4096

# Most samples in one time grid, here and in the closed-form phase: 1 GiB of
# float64 for a phase trajectory.
_MAX_SAMPLES = 2**27


def bias(p: RsjParams, t):
    """Drive q(t) = B + A*cos(omega*t); accepts scalars or arrays."""
    return p.B + p.A * np.cos(p.omega * np.asarray(t, dtype=float))


def _grid(p: RsjParams, t_end: float, h: float | None) -> tuple[int, float]:
    """Uniform grid hitting t_end exactly with step no larger than requested.

    ``InvalidParams`` where the grid would hold more than ``_MAX_SAMPLES``
    samples, before anything is allocated.
    """
    if not (isinstance(t_end, (int, float)) and math.isfinite(t_end)) or t_end <= 0:
        raise InvalidParams(f"t_end must be a positive real, got {t_end!r}")
    if h is None:
        h = p.period / DEFAULT_STEPS_PER_PERIOD
    if not (isinstance(h, (int, float)) and math.isfinite(h)) or h <= 0:
        raise InvalidParams(f"step h must be a positive real, got {h!r}")
    steps = t_end / h - 1e-9
    if not steps <= _MAX_SAMPLES - 1:  # ceil(steps) + 1 samples; inf fails too
        raise InvalidParams(
            f"time grid of t_end = {t_end!r} at step {h!r} needs over "
            f"{_MAX_SAMPLES} samples"
        )
    n_steps = max(1, math.ceil(steps))
    return n_steps, t_end / n_steps


def _drive(p: RsjParams, dt: float, start: int, stop: int) -> tuple[list, list, list]:
    """Drive at t, t + dt/2 and t + dt for the steps t = i*dt, start <= i < stop.

    Each sample is the double the step loop would compute from the same
    times, so moving the drive out of the loop leaves the stages unchanged.
    """
    t = np.arange(start, stop) * dt
    # An overflowing drive is reported once, as NonFiniteState after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            bias(p, t).tolist(),
            bias(p, t + 0.5 * dt).tolist(),
            bias(p, t + dt).tolist(),
        )


def integrate_phase(
    p: RsjParams, phi0: float, t_end: float, h: float | None = None
) -> Trajectory:
    """Integrate phi' = q(t) - sin(phi) from phi(0) = phi0 with classical RK4."""
    n_steps, dt = _grid(p, t_end, h)
    hdt = 0.5 * dt
    sin = math.sin

    phi = float(phi0)
    out = np.empty(n_steps + 1)
    out[0] = phi
    try:
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            block = []
            for q1, qm, q4 in zip(*_drive(p, dt, start, stop)):
                k1 = q1 - sin(phi)
                k2 = qm - sin(phi + hdt * k1)
                k3 = qm - sin(phi + hdt * k2)
                k4 = q4 - sin(phi + dt * k3)
                phi += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
                block.append(phi)
            out[start + 1 : stop + 1] = block
    except ValueError:  # math.sin of an infinite phase
        raise NonFiniteState("phase integration produced a non-finite sample") from None

    if not np.all(np.isfinite(out)):
        raise NonFiniteState("phase integration produced a non-finite sample")
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times=times, values=out)


def integrate_xy(
    p: RsjParams, x0: float, y0: float, t_end: float, h: float | None = None
) -> Trajectory:
    """Integrate the companion system 2x' = x + q*y, 2y' = -(q*x + y)."""
    n_steps, dt = _grid(p, t_end, h)
    hdt = 0.5 * dt

    x, y = float(x0), float(y0)
    out = np.empty((n_steps + 1, 2))
    out[0] = (x, y)
    for start in range(0, n_steps, _BLOCK):
        stop = min(start + _BLOCK, n_steps)
        xs, ys = [], []
        for q1, qm, q4 in zip(*_drive(p, dt, start, stop)):
            kx1 = 0.5 * (x + q1 * y)
            ky1 = -0.5 * (q1 * x + y)
            x2 = x + hdt * kx1
            y2 = y + hdt * ky1
            kx2 = 0.5 * (x2 + qm * y2)
            ky2 = -0.5 * (qm * x2 + y2)
            x3 = x + hdt * kx2
            y3 = y + hdt * ky2
            kx3 = 0.5 * (x3 + qm * y3)
            ky3 = -0.5 * (qm * x3 + y3)
            x4 = x + dt * kx3
            y4 = y + dt * ky3
            kx4 = 0.5 * (x4 + q4 * y4)
            ky4 = -0.5 * (q4 * x4 + y4)

            x += dt * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4) / 6.0
            y += dt * (ky1 + 2.0 * ky2 + 2.0 * ky3 + ky4) / 6.0
            xs.append(x)
            ys.append(y)
        out[start + 1 : stop + 1, 0] = xs
        out[start + 1 : stop + 1, 1] = ys

    if not np.all(np.isfinite(out)):
        raise NonFiniteState("companion integration produced a non-finite sample")
    times = np.arange(n_steps + 1) * dt
    return Trajectory(times=times, values=out)


def phase_from_xy(traj: Trajectory) -> Trajectory:
    """Convert a companion trajectory to the unwrapped phase 2*atan2(-y, x).

    The raw angles live on (-2*pi, 2*pi]; unwrapping picks the 2*pi branches
    that keep the sequence continuous, so the trajectory must be sampled
    finely enough that true increments stay below pi per step.
    """
    if traj.kind != "xy":
        raise InvalidParams("phase_from_xy needs an 'xy' trajectory")
    x = traj.values[:, 0]
    y = traj.values[:, 1]
    if np.any(np.hypot(x, y) == 0.0):
        raise OriginUndefined("companion state reached x = y = 0")
    phi = unwrap(2.0 * np.arctan2(-y, x))
    return Trajectory(times=traj.times, values=phi)


def unwrap(angles: np.ndarray) -> np.ndarray:
    """``np.unwrap`` of a 1-d float array, bit for bit.

    The 2*pi correction is taken modulo only at the steps whose size is not
    below pi (NaN steps included); every other step's correction is exactly
    0.0, which leaves the running sum, and so the result, unchanged.
    """
    steps = np.diff(angles)
    jumps = np.flatnonzero(~(np.abs(steps) < np.pi))
    big = steps[jumps]
    mod = np.mod(big + np.pi, 2.0 * np.pi) - np.pi
    mod[(mod == -np.pi) & (big > 0)] = np.pi
    correction = np.zeros_like(steps)
    correction[jumps] = mod - big
    out = np.array(angles, dtype=float)
    out[1:] += np.cumsum(correction)
    return out
