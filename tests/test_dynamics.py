"""Fixed-step integrators cross-checked against an adaptive oracle."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from heun_rsj import dynamics
from heun_rsj.dynamics import (
    _BLOCK,
    _LANE,
    _drive,
    _grid,
    _step_maps,
    bias,
    integrate_phase,
    integrate_xy,
    phase_from_xy,
    unwrap,
)
from heun_rsj.errors import InvalidParams, NonFiniteState, OriginUndefined
from heun_rsj.model import RsjParams, Trajectory

from oracles import (
    integrate_phase_loop,
    integrate_xy_loop,
    integrate_xy_maps_loop,
    xy_stage_step,
)

P = RsjParams(A=1.3, B=0.4, omega=1.1)


def _wrap(x):
    return (np.asarray(x) + np.pi) % (2.0 * np.pi) - np.pi


def _reference_phase(p, phi0, t_end):
    sol = solve_ivp(
        lambda t, y: [p.B + p.A * math.cos(p.omega * t) - math.sin(y[0])],
        (0.0, t_end),
        [phi0],
        rtol=1e-12,
        atol=1e-13,
        dense_output=True,
    )
    assert sol.success
    return sol


def _reference_xy(p, x0, y0, t_end):
    def rhs(t, s):
        q = p.B + p.A * math.cos(p.omega * t)
        return [0.5 * (s[0] + q * s[1]), -0.5 * (q * s[0] + s[1])]

    sol = solve_ivp(rhs, (0.0, t_end), [x0, y0], rtol=1e-12, atol=1e-13)
    assert sol.success
    return sol


class TestBias:
    def test_scalar(self):
        p = RsjParams(A=2.0, B=0.5, omega=3.0)
        assert bias(p, 0.0) == 2.5
        assert bias(p, math.pi / 3.0) == pytest.approx(
            0.5 + 2.0 * math.cos(math.pi), rel=1e-15
        )

    def test_array(self):
        t = np.linspace(0.0, 4.0, 7)
        np.testing.assert_allclose(
            bias(P, t), P.B + P.A * np.cos(P.omega * t), rtol=1e-15
        )


class TestGrid:
    def test_endpoint_hit_exactly(self):
        traj = integrate_phase(P, 0.0, 3.7, h=0.5)
        assert traj.times[-1] == 3.7
        assert np.all(np.diff(traj.times) <= 0.5 + 1e-12)

    def test_default_step_count(self):
        traj = integrate_phase(P, 0.0, P.period)
        assert len(traj) == 2001

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan])
    def test_rejects_bad_t_end(self, t_end):
        with pytest.raises(InvalidParams):
            integrate_phase(P, 0.0, t_end)

    @pytest.mark.parametrize("h", [0.0, -0.1, math.inf])
    def test_rejects_bad_step(self, h):
        with pytest.raises(InvalidParams):
            integrate_xy(P, 1.0, 0.0, 1.0, h)

    @pytest.mark.parametrize("integrate", [integrate_phase, integrate_xy])
    def test_sample_cap(self, monkeypatch, integrate):
        # 100 samples fit a cap of 100; one step more is refused, as is a
        # step count past the float range.
        monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 100)
        start = (0.0,) if integrate is integrate_phase else (1.0, 0.0)
        assert len(integrate(P, *start, 99.0, 1.0)) == 100
        for t_end, h in ((100.0, 1.0), (1e300, 1e-300)):
            with pytest.raises(InvalidParams, match="needs over 100 samples"):
                integrate(P, *start, t_end, h)


class TestAgainstAdaptiveOracle:
    def test_phase_endpoint(self):
        t_end = 2.0 * P.period
        ref = _reference_phase(P, 0.2, t_end)
        traj = integrate_phase(P, 0.2, t_end)
        assert traj.values[-1, 0] == pytest.approx(
            ref.y[0][-1], abs=1e-8
        )

    def test_xy_endpoint(self):
        t_end = 2.0 * P.period
        ref = _reference_xy(P, 0.8, -0.6, t_end)
        traj = integrate_xy(P, 0.8, -0.6, t_end)
        np.testing.assert_allclose(traj.values[-1], ref.y[:, -1], atol=1e-9)

    @pytest.mark.parametrize("route", ["phase", "xy"])
    def test_fourth_order_convergence(self, route):
        t_end = P.period
        if route == "phase":
            ref = _reference_phase(P, 0.3, t_end).y[0][-1]

            def run(h):
                return integrate_phase(P, 0.3, t_end, h).values[-1, 0]

        else:
            ref = _reference_xy(P, 1.0, 0.0, t_end).y[0][-1]

            def run(h):
                return integrate_xy(P, 1.0, 0.0, t_end, h).values[-1, 0]

        h0 = t_end / 40.0
        errs = [abs(run(h0 / 2**k) - ref) for k in range(3)]
        orders = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
        for order in orders:
            assert 3.7 <= order <= 4.3, f"observed order {orders}"


class TestCompanionStructure:
    def test_linearity_in_initial_condition(self):
        # The system is linear and RK4 is a linear map per step, so an
        # integrated sum equals the sum of integrals up to reassociation.
        t_end = 1.5 * P.period
        a = integrate_xy(P, 1.0, 0.25, t_end)
        b = integrate_xy(P, -2.0, 0.5, t_end)
        summed = integrate_xy(P, 1.0 + (-2.0), 0.25 + 0.5, t_end)
        np.testing.assert_allclose(
            summed.values, a.values + b.values, rtol=0.0, atol=1e-12
        )

    def test_wronskian_of_two_solutions_is_constant(self):
        # The companion system is traceless, so the Wronskian
        # x1*y2 - y1*x2 of two solutions is exactly conserved.  Individual
        # solutions grow exponentially, so the float noise floor scales
        # with the product of their magnitudes.
        t_end = 4.0 * P.period
        s1 = integrate_xy(P, 1.0, 0.0, t_end)
        s2 = integrate_xy(P, 0.0, 1.0, t_end)
        w = s1.values[:, 0] * s2.values[:, 1] - s1.values[:, 1] * s2.values[:, 0]
        scale = float(np.max(np.abs(s1.values)) * np.max(np.abs(s2.values)))
        assert np.max(np.abs(w - 1.0)) <= 1e-11 * max(1.0, scale)

    def test_phase_routes_agree(self):
        t_end = 3.0 * P.period
        x0, y0 = math.cos(0.35), -math.sin(0.35)  # phi0 = 2*atan2(-y0, x0)
        phi0 = 2.0 * math.atan2(-y0, x0)
        direct = integrate_phase(P, phi0, t_end)
        companion = phase_from_xy(integrate_xy(P, x0, y0, t_end))
        dev = np.max(np.abs(_wrap(direct.values - companion.values)))
        assert dev <= 1e-6


# Step counts of one step, below a block, at and around a block boundary.
_STEP_COUNTS = (1, 2, 999, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7)
# The same for the companion, which shares the blocks, and around the lanes
# of a block.
_XY_STEP_COUNTS = (*_STEP_COUNTS[:2], _LANE - 1, _LANE, _LANE + 1, *_STEP_COUNTS[2:])
_U = 2.0**-53  # unit roundoff of float64


def _seeded(seed):
    """Drive, step, phase start and unit companion start of one seed."""
    rng = np.random.default_rng(seed)
    p = RsjParams(
        A=rng.uniform(-3.0, 3.0), B=rng.uniform(-3.0, 3.0),
        omega=rng.uniform(0.2, 4.0),
    )
    h = rng.uniform(1e-3, 5e-2)
    phi0, theta = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 2.0 * np.pi)
    return p, h, phi0, math.cos(theta), math.sin(theta)


def _seeded_xy(seed):
    """Drive, step, run length and start of one seed's companion run.

    The run is cut to t_end <= 40: the state grows at most like exp(t/2).
    """
    p, h, _, x0, y0 = _seeded(seed)
    n_steps = _XY_STEP_COUNTS[seed % len(_XY_STEP_COUNTS)]
    h = min(h, 40.0 / n_steps)
    return p, h, n_steps * h, x0, y0


class TestAgainstLoopOracle:
    """The fast paths against the step loops they replace.

    ``integrate_phase`` reproduces the per-stage-drive loop bit for bit.
    ``integrate_xy`` applies the closed-form step maps by a lane scan, so it
    equals the stage loop only up to rounding: it matches bit for bit a
    scalar loop that applies the same maps in the same association, each
    map matches one stage-form step, and every sample stays within the
    propagated rounding bound of the stage loop.
    """

    @pytest.mark.parametrize("seed", range(56))
    def test_seeded_drive(self, seed):
        p, h, phi0, x0, y0 = _seeded(seed)
        n_steps = _STEP_COUNTS[seed % len(_STEP_COUNTS)]
        direct = integrate_phase(p, phi0, n_steps * h, h)
        assert len(direct) == n_steps + 1
        assert np.array_equal(
            direct.values[:, 0], integrate_phase_loop(p, phi0, n_steps * h, h)
        )

        p, h, t_end, x0, y0 = _seeded_xy(seed)
        companion = integrate_xy(p, x0, y0, t_end, h)
        assert len(companion) == _XY_STEP_COUNTS[seed % len(_XY_STEP_COUNTS)] + 1
        assert np.array_equal(
            companion.values,
            integrate_xy_maps_loop(p, x0, y0, t_end, h, _LANE),
        )

    @pytest.mark.parametrize("seed", range(56))
    def test_step_map_is_one_stage_step(self, seed):
        # The columns of R are one step from (1, 0) and from (0, 1).  Every
        # entry is 1 + O(h) or O(h|q|) with h|q| < 0.3, and each route rounds
        # a handful of terms of that size, so they agree to a few ulps of 1:
        # the worst over these seeds is one.
        p, h, t_end, _, _ = _seeded_xy(seed)
        n_steps, dt = _grid(p, t_end, h)
        nodes, qm = _drive(p, dt, 0, n_steps)
        q1, q4 = nodes[:-1], nodes[1:]
        maps = np.array(_step_maps(q1, qm, q4, dt))
        stage = np.array([
            xy_stage_step(a, b, c, dt, 1.0, 0.0) + xy_stage_step(a, b, c, dt, 0.0, 1.0)
            for a, b, c in zip(q1.tolist(), qm.tolist(), q4.tolist())
        ]).T  # x and y from (1, 0), then from (0, 1): r00, r10, r01, r11
        assert np.max(np.abs(maps[[0, 2, 1, 3]] - stage)) <= 2 * 2.0**-52

    @pytest.mark.parametrize("seed", range(56))
    def test_drive_is_bias_at_the_reported_times(self, seed):
        # Each node is sampled once, in the block that holds it (both
        # integrators share the blocks), and is the drive at the time the
        # trajectory reports.
        p, h, phi0, _, _ = _seeded(seed)
        n_steps = _STEP_COUNTS[seed % len(_STEP_COUNTS)]
        times = integrate_phase(p, phi0, n_steps * h, h).times
        dt = times[1]
        q = bias(p, times)
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            nodes, mids = _drive(p, dt, start, stop)
            assert nodes.tobytes() == q[start : stop + 1].tobytes()
            assert mids.tobytes() == bias(p, times[start:stop] + 0.5 * dt).tobytes()

    @pytest.mark.parametrize("seed", range(56))
    def test_companion_within_propagated_rounding(self, seed):
        # Let each route commit an error of at most gamma*|z_m| in step m.
        # The library rounds each map entry once near 1 (u) and each running
        # product entry as a two-term sum (2u); the stage loop rounds its
        # update once (u); the O(h(1 + |q|)) terms of both, at h <= 0.05 and
        # |q| <= 6, add at most as much again: gamma = 8u.  (A lane applies
        # its product to the lane's start, which is counted here as if every
        # product were well conditioned.)
        # Split an error made at z_m along z_m and along Jz_m, J the quarter
        # turn.  Along z_m it travels with the solution: relative error
        # gamma at every later sample.  Across, it starts a solution v with
        # Wronskian det(z, v) = w, |w| <= gamma*|z_m|^2, which stays fixed.
        # Writing v = c z + (w/|z|^2) Jz, the system gives
        # c' = -2 w x y / |z|^4, so |c| <= |w| * integral of 1/|z|^2.  To
        # first order, at sample N,
        #   |dz_N| / |z_N| <= gamma * (N + S_N / |z_N|^2 + K_N) + 2u,
        # with S_N the sum of |z_m|^2 over m <= N, K_N the sum of
        # |z_m|^2 * integral from t_m to t_N of 1/|z|^2 (a sum of positive
        # terms, K_{N+1} = K_N + S_N * integral over step N), and 2u for
        # forming the sample from its lane's start.
        p, h, t_end, x0, y0 = _seeded_xy(seed)
        n_steps, dt = _grid(p, t_end, h)
        got = integrate_xy(p, x0, y0, t_end, h).values
        z = integrate_xy_loop(p, x0, y0, t_end, h)
        size2 = z[:, 0] ** 2 + z[:, 1] ** 2
        S = np.cumsum(size2) - size2[0]
        step_integral = dt / np.minimum(size2[1:], size2[:-1])
        K = np.concatenate(([0.0], np.cumsum(step_integral * S[:-1])))
        bound = 8.0 * _U * (np.arange(n_steps + 1) + S / size2 + K) + 2.0 * _U
        rel = np.hypot(*(got - z).T) / np.sqrt(size2)
        assert np.all(rel <= bound)


class TestUnwrap:
    @pytest.mark.parametrize(
        "angles",
        [
            [],
            [0.5],
            [0.0, np.pi, 0.0, -np.pi, 0.0],  # exact +-pi steps
            [-np.pi, np.pi, -np.pi, 0.0, np.pi],
            [1.0, 1.0, 1.0 + np.pi, 1.0 + np.pi, 1.0],  # zero steps
            [-0.0, -0.0, 3.5, -0.0, -3.0],  # signed zeros around jumps
            [0.0, 7.0, -7.0, 2.0 * np.pi, -4.0 * np.pi],  # multi-turn jumps
            [0.1, np.nan, 0.2, 0.3, 4.0],
            [0.0, np.inf, 1.0],
        ],
    )
    def test_matches_numpy(self, angles):
        angles = np.array(angles, dtype=float)
        with np.errstate(invalid="ignore"):  # inf - inf steps
            got, want = unwrap(angles), np.unwrap(angles)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_numpy_on_random_walks(self, seed):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(scale=2.0, size=5000))
        angles = np.angle(np.exp(1j * walk))
        angles[::97] = np.pi
        angles[::89] = -np.pi
        got, want = unwrap(angles), np.unwrap(angles)
        assert got.tobytes() == want.tobytes()


class TestErrors:
    def test_phase_from_xy_needs_xy(self):
        traj = integrate_phase(P, 0.0, 1.0)
        with pytest.raises(InvalidParams):
            phase_from_xy(traj)

    def test_phase_from_xy_origin(self):
        traj = Trajectory(times=[0.0, 1.0], values=[[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(OriginUndefined):
            phase_from_xy(traj)
        # Only the origin itself is undefined, whatever the signs of its
        # zeros: the smallest subnormal state still has a direction.
        for state in ([-0.0, 0.0], [0.0, -0.0]):
            with pytest.raises(OriginUndefined):
                phase_from_xy(Trajectory(times=[0.0], values=[state]))
        for state in ([5e-324, 0.0], [0.0, 5e-324], [-5e-324, -0.0]):
            phi = phase_from_xy(Trajectory(times=[0.0], values=[state]))
            assert phi.values[0, 0] == 2.0 * math.atan2(-state[1], state[0])

    def test_unstable_step_detected(self):
        p = RsjParams(A=5.0, B=5.0, omega=1.0)
        with pytest.raises(NonFiniteState):
            integrate_xy(p, 1.0, 0.0, 4000.0, 50.0)

    def test_overflowing_state_without_warnings(self):
        # At q = 0.01 the state grows like exp(t/2) and leaves the double
        # range near t = 1420, in the middle of the run: the overflow is a
        # typed error, and no numpy warning is raised on the way.
        p = RsjParams(A=0.01, B=0.0, omega=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState):
                integrate_xy(p, 1.0, 0.0, 2000.0)

    @pytest.mark.parametrize("route", ["phase", "xy"])
    @pytest.mark.parametrize(
        "a,b,omega", [(1e308, 1e308, 1.0), (1.0, 0.5, 1e308)], ids=["q", "omega_t"]
    )
    def test_overflowing_drive(self, route, a, b, omega):
        p = RsjParams(A=a, B=b, omega=omega)
        with pytest.raises(NonFiniteState):
            if route == "phase":
                integrate_phase(p, 0.0, 10.0, 1.0)
            else:
                integrate_xy(p, 1.0, 0.0, 10.0, 1.0)
