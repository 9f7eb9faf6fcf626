"""Time-domain integration of the driven junction and its companion system.

Two routes to the same phase:

* the scalar equation ``phi' = q(t) - sin(phi)`` integrated directly, and
* the linear companion system ``2x' = x + q*y``, ``2y' = -(q*x + y)`` whose
  solutions encode the phase through ``exp(i*phi) = (x - i*y)/(x + i*y)``,
  i.e. ``phi = 2*atan2(-y, x)`` up to the usual 2*pi branch bookkeeping.

Both integrators are hand-written fixed-step classical Runge-Kutta, so the
two routes stay independent of each other and of any closed-form machinery
they are later used to cross-check.  The default step is period/2000.

The drive is precomputed per block of steps: one numpy pass gives q at the
block's grid nodes i*dt, its end node included, and another at the step
midpoints i*dt + dt/2.  A node's sample serves as q(t + dt) of one step and
q(t) of the next, and is ``bias`` at the time the trajectory reports for it.
``integrate_phase`` reads the samples from lists in its step loop, with the
stage arithmetic of a loop that evaluates the drive at each stage at those
times, so its samples are bit for bit that loop's.  ``integrate_xy`` turns
them into the closed-form RK4 map of each step and applies the maps in array
passes; it rounds differently from a stage loop, by a few ulps per step.
Memory beyond the output stays one block's worth.

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

# Steps per block of every sampled time grid: the drive of ``integrate_phase``,
# the step maps of ``integrate_xy`` and the samples of the closed-form phase
# (``structure._on_circle``), so that a block's lists and temporaries stay
# small however long the run.  Sized by timing: at 20,000 steps blocks of
# 2**12 to 2**14 ran within noise of each other, and a block of companion
# maps peaks near 1 MB, half of 2**14.  Lanes of ``_LANE`` steps divide a
# block and carry the scan that applies the maps; lanes of 32 ran faster
# than lanes of 16 or 64.
_BLOCK = 2**13
_LANE = 32

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


def _drive(p: RsjParams, dt: float, start: int, stop: int) -> tuple:
    """Drive at the nodes and midpoints of steps ``start`` to ``stop - 1``.

    Returns q at the nodes i*dt for i = start, ..., stop (one more than the
    steps: step i runs from node i to node i + 1) and q at the midpoints
    i*dt + dt/2 for i = start, ..., stop - 1.  A node's sample does not
    depend on the block it is computed in.
    """
    t = np.arange(start, stop + 1) * dt
    # An overflowing drive is reported once, as NonFiniteState after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        return bias(p, t), bias(p, t[:-1] + 0.5 * dt)


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
            nodes, mids = _drive(p, dt, start, stop)
            q = nodes.tolist()
            for q1, qm, q4 in zip(q, mids.tolist(), q[1:]):
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


def _step_maps(q1, qm, q4, dt: float) -> tuple:
    """Entries (r00, r01, r10, r11) of the RK4 step maps of the companion pair.

    Takes the drive at t, t + dt/2 and t + dt of each step, as floats or as
    arrays of one shape.  See ``integrate_xy`` for the derivation.
    """
    h2 = dt * dt
    e2, e3, e4 = h2 / 24.0, h2 * dt / 96.0, h2 * h2 / 384.0
    s = 1.0 - qm * qm
    u = q1 + q4
    a = e2 * (3.0 - qm * (u + qm)) + e4 * s * (1.0 - q1 * q4)
    b = 0.5 * dt + 2.0 * e3 * s
    c = dt / 12.0 * (u + 4.0 * qm) + e3 * s * u
    d = (q1 - q4) * (e2 + e4 * s)
    return 1.0 + (a + b), c + d, d - c, 1.0 + (a - b)


def integrate_xy(
    p: RsjParams, x0: float, y0: float, t_end: float, h: float | None = None
) -> Trajectory:
    """Integrate the companion system 2x' = x + q*y, 2y' = -(q*x + y).

    The system is z' = M(q)z with M(q) = N(q)/2, N(q) = [[1, q], [-q, -1]],
    and RK4 on a linear system is a linear map per step, z_{k+1} = R_k z_k.
    With q1, qm, q4 the drive at the step's start node t, its midpoint
    t + h/2 and its end node, the next step's start, and the stages
    K1 = M1 z, K2 = Mm(z + h/2 K1), K3 = Mm(z + h/2 K2), K4 = M4(z + h K3),

        R = I + h/6 (M1 + 4Mm + M4) + h^2/6 (Mm M1 + Mm^2 + M4 Mm)
              + h^3/12 (Mm^2 M1 + M4 Mm^2) + h^4/24 M4 Mm^2 M1.

    In the basis I, Z = diag(1, -1), J = [[0, 1], [-1, 0]],
    X = [[0, 1], [1, 0]] one has N(q) = Z + qJ, ZJ = X = -JZ and J^2 = -I,
    so N(q)N(r) = (1 - qr)I + (r - q)X and Mm^2 = s/4 I with s = 1 - qm^2.
    Hence R = (1 + a)I + bZ + cJ + dX, with u = q1 + q4 and

        a = h^2/24 (3 - qm(u + qm)) + h^4/384 s (1 - q1 q4),
        b = h/2 + h^3/48 s,
        c = h/12 (u + 4 qm) + h^3/96 s u,
        d = (q1 - q4)(h^2/24 + h^4/384 s),

    that is R = [[1 + (a + b), c + d], [d - c, 1 + (a - b)]] (``_step_maps``).
    The maps do not depend on the state, so a block of steps builds all of
    its maps in one numpy pass, from one drive sample per node and one per
    midpoint laid out lane by lane.  They are applied by a lane scan: the block
    is cut into lanes of ``_LANE`` steps; the running products
    P_j = R_j P_{j-1} of every lane are formed at once, one array pass per
    j; a scalar loop carries the state from each lane's end to the next
    lane; one more pass forms every sample as P_j times its lane's start.
    A block is a whole number of lanes, so the samples do not depend on the
    block size.  Only real float64 products and sums are used, so the bits
    do not depend on the CPU kernel numpy picks.
    """
    n_steps, dt = _grid(p, t_end, h)

    x, y = float(x0), float(y0)
    out = np.empty((n_steps + 1, 2))
    out[0] = (x, y)
    # An overflowing state is reported once, as NonFiniteState after the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _BLOCK):
            n = min(_BLOCK, n_steps - start)
            lanes = -(-n // _LANE)
            # Step start + j + _LANE*l sits at [j, ..., l]: a lane is a column.
            # The last lane may run past the block; its extra samples are dropped.
            prod = np.empty((_LANE, 2, 2, lanes))
            nodes, mids = _drive(p, dt, start, start + _LANE * lanes)
            prod[:, 0, 0], prod[:, 0, 1], prod[:, 1, 0], prod[:, 1, 1] = _step_maps(
                *(q.reshape(lanes, _LANE).T for q in (nodes[:-1], mids, nodes[1:])), dt
            )
            for j in range(1, _LANE):
                r, prev = prod[j], prod[j - 1]
                prod[j] = r[:, 0, None] * prev[0] + r[:, 1, None] * prev[1]
            xs, ys = [x], [y]
            for p00, p01, p10, p11 in zip(*prod[-1].reshape(4, lanes).tolist()):
                x, y = p00 * x + p01 * y, p10 * x + p11 * y
                xs.append(x)
                ys.append(y)
            z = prod[:, :, 0] * np.array(xs[:-1]) + prod[:, :, 1] * np.array(ys[:-1])
            out[start + 1 : start + n + 1] = z.transpose(2, 0, 1).reshape(-1, 2)[:n]
            x, y = out[start + n].tolist()

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
    if np.any((x == 0.0) & (y == 0.0)):
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
