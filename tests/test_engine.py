import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import flat_star_rk4, flat_two_inverter_field, logistic_radius
from dvocsim import engine, scenarios
from dvocsim.engine import (DisturbanceSpec, InitSpec, Scenario,
                            SimulationDiverged, init_random, rk4_increment,
                            simulate)
from dvocsim.network import (BranchParams, NetworkConfig, branch_currents,
                             pcc_voltage, total_admittance)
from dvocsim.oscillator import InverterParams

P = InverterParams()
W0 = P.omega0
LINE = BranchParams(r_f=0.75 * 0.1153, l_f=0.75 * 1.05e-3)   # 0.75 km line


def make_scenario(n=2, z_net=50.0 + 0j, t_end=0.2, dt=1e-4, seed=1,
                  overrides=(), t_z=0.0, z_extras=None, params=None,
                  branches=None, disturbance=None, norm_bound=1.0):
    params = params if params is not None else tuple([P] * n)
    if branches is None:
        branches = [replace(LINE, z_extra=z)
                    for z in (z_extras or [0j] * len(params))]
    network = NetworkConfig(tuple(branches), z_net,
                            omega_eval=params[0].omega0, t_z=t_z)
    return Scenario(params=params, network=network, t_end=t_end, dt=dt,
                    init=InitSpec(seed=seed, norm_bound=norm_bound,
                                  overrides=tuple(overrides)),
                    disturbance=disturbance)


def field_at(sc, x, t=0.0):
    """The engine's coupled field at time t, with that step's coupling vector
    kappa*beta*Y/Y_sigma."""
    p = sc.params[0]
    y, y_sigma = sc.network.admittances(t), total_admittance(sc.network, t)
    w = engine._Workspace(p, np.array(x, dtype=complex), sc.dt,
                          sc.disturbance)
    w.g = p.kappa_beta * y / y_sigma
    return w.field(t, w.y, np.empty(sc.n, dtype=complex))


class TestValidation:
    def test_heterogeneous_gain_rejected(self):
        params = (P, InverterParams(kappa=0.5))
        with pytest.raises(ValueError, match="kappa"):
            make_scenario(params=params)

    def test_omega_eval_mismatch_rejected(self):
        network = NetworkConfig((LINE, LINE), z_net=50 + 0j, omega_eval=100.0)
        with pytest.raises(ValueError, match="omega_eval = 100.0 differs "
                           "from omega0 = 314.159"):
            Scenario(params=(P, P), network=network, t_end=0.1, dt=1e-4,
                     init=InitSpec(seed=0))

    def test_count_mismatch_rejected(self):
        network = NetworkConfig((LINE, LINE), 50 + 0j, omega_eval=W0)
        with pytest.raises(ValueError, match="branches"):
            Scenario(params=(P,), network=network, t_end=0.1, dt=1e-4,
                     init=InitSpec(seed=0))

    def test_resolution_guard(self):
        with pytest.raises(ValueError, match="dt\\*omega0"):
            make_scenario(dt=1e-3)     # dt*omega0 = 0.31 > 0.2

    def test_t_end_shorter_than_dt(self):
        with pytest.raises(ValueError, match="t_end"):
            make_scenario(t_end=1e-5)

    @pytest.mark.parametrize("t_end", [1.5e-4, 0.20005, math.inf, math.nan])
    def test_t_end_whole_steps(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            make_scenario(t_end=t_end, dt=1e-4)

    def test_t_end_within_rounding_of_whole_steps(self):
        # 0.3 / 1e-4 = 2999.9999999999995 in binary floating point
        assert make_scenario(t_end=0.3, dt=1e-4).n_steps == 3000

    def test_override_out_of_range(self):
        with pytest.raises(ValueError, match="override"):
            make_scenario(overrides=((5, 1.0),))

    def test_disturbance_out_of_range(self):
        with pytest.raises(ValueError, match="disturbance"):
            make_scenario(disturbance=DisturbanceSpec(inverter=7, amplitude=1.0))

    @pytest.mark.parametrize("make, field", [
        (lambda: InitSpec(seed=0, norm_bound=math.nan), "norm_bound"),
        (lambda: InitSpec(seed=0, norm_bound=math.inf), "norm_bound"),
        (lambda: InitSpec(seed=0, overrides=((0, math.inf),)), "override"),
        (lambda: InitSpec(seed=0, overrides=((0, math.nan),)), "override"),
        (lambda: DisturbanceSpec(0, math.inf, "constant"), "amplitude"),
        (lambda: DisturbanceSpec(0, math.nan, "constant"), "amplitude"),
    ], ids=["norm_bound-nan", "norm_bound-inf", "override-inf",
            "override-nan", "amplitude-inf", "amplitude-nan"])
    def test_spec_non_finite(self, make, field):
        with pytest.raises(ValueError, match=f"{field}.* finite"):
            make()

    def test_oversized_trajectory_rejected(self):
        # 2 inverters * 1e10 steps would record ~640 GB
        with pytest.raises(ValueError, match="n = 2, t_end = 1000000.0 and "
                           "dt = 0.0001 would record"):
            make_scenario(t_end=1e6)

    def test_size_limit_boundary(self):
        per_inverter = 32 * (2000 + 1)       # bytes per inverter, 2000 steps
        n_max = engine.MAX_TRAJECTORY_BYTES // per_inverter
        engine.check_grid(n_max, 0.2, 1e-4)
        with pytest.raises(ValueError, match=f"n = {n_max + 1}"):
            engine.check_grid(n_max + 1, 0.2, 1e-4)

    def test_plant_state_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            simulate(make_scenario(), x0=np.array([1.0 + 0j, np.nan + 0j]))


class TestInitRandom:
    def test_within_bound(self):
        sc = make_scenario(n=6, seed=3)
        x = init_random(sc)
        assert x.shape == (6,) and x.dtype == complex
        assert np.all(np.abs(x) <= 1.0)

    def test_override_norm(self):
        sc = make_scenario(n=3, seed=3, overrides=((0, 10.0),))
        x = init_random(sc)
        assert abs(np.abs(x[0]) - 10.0) < 1e-13
        assert np.all(np.abs(x[1:]) <= 1.0)

    def test_seed_determinism(self):
        sc = make_scenario(n=4, seed=12)
        a = init_random(sc)
        b = init_random(sc)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = init_random(make_scenario(n=4, seed=1))
        b = init_random(make_scenario(n=4, seed=2))
        assert not np.array_equal(a, b)


class TestDerivCoupled:
    def test_reduces_to_open_loop_without_load(self):
        # K_sh -> 1 and v_o -> beta*x, so the feedback vanishes
        sc = make_scenario(n=1, z_net=1e15 + 0j)
        x = np.array([0.6 - 0.3j])
        d = field_at(sc, x)
        c = P.xi * (P.x_nom_sq2 - abs(x[0]) ** 2)
        open_loop = (c + 1j * W0) * x[0]
        assert abs(d[0] - open_loop) < 1e-9

    def test_symmetry_preservation(self):
        sc = make_scenario(n=5)
        x = np.full(5, 0.4 + 0.2j)
        d = field_at(sc, x)
        assert np.all(d == d[0])

    def test_matches_flat_oracle(self):
        z1, z2 = 0.5 + 1.2j, 1.1 + 0.3j
        z_net = 40.0 + 10.0j
        branches = [BranchParams(r_v=z.real, x_v=z.imag) for z in (z1, z2)]
        sc = make_scenario(branches=branches, z_net=z_net)
        x = np.array([0.8 + 0.1j, -0.2 + 0.9j])
        got = field_at(sc, x)
        want = flat_two_inverter_field(
            [x[0].real, x[0].imag, x[1].real, x[1].imag],
            P.xi, P.x_nom_sq2, W0, P.kappa, P.beta,
            (z1.real, z1.imag), (z2.real, z2.imag), (z_net.real, z_net.imag))
        got_flat = np.array([got[0].real, got[0].imag, got[1].real, got[1].imag])
        assert np.allclose(got_flat, want, rtol=1e-12, atol=1e-9)

    def test_partial_contraction_structure(self):
        # dx_k/dt - h(x_k) must be the identical bus term for every k
        sc = make_scenario(n=6, seed=9)
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, 6) + 1j * rng.normal(0, 1, 6)
        d = field_at(sc, x)
        c = P.xi * (P.x_nom_sq2 - np.abs(x) ** 2)
        h = (c - P.kappa_beta + 1j * W0) * x
        residual = d - h
        assert np.abs(residual - residual[0]).max() <= 1e-12


def rk4_run(f, y0, dt, steps):
    """``steps`` in-place RK4 steps from y0 through the kernel simulate uses:
    a workspace built for the complex state, and a field ``f(t, x, out)``."""
    w = engine._Workspace(P, np.array(y0, dtype=complex, ndmin=1), dt, None)
    for i in range(steps):
        assert rk4_increment(f, i * dt, w.y, dt, w) is w.y
    return w.y


def radial(t, x, out):
    """The radius equation dr/dt = xi*(2*Xnom^2 - r^2)*r on x's real part."""
    r = x.real
    out[:] = P.xi * (P.x_nom_sq2 - r * r) * r


class TestRk4Kernel:
    def test_zero_field(self):
        y = np.array([1.0 + 2j, -3.0 + 0j])
        got = rk4_run(lambda t, x, out: np.multiply(0.0, x, out), y, 0.1, 1)
        assert np.array_equal(got, y)

    def test_harmonic_norm_drift(self):
        # 200 steps per cycle: relative radius drift well under 1e-8/cycle
        dt = 2 * math.pi / W0 / 200
        y = rk4_run(lambda t, x, out: np.multiply(1j * W0, x, out), 1.0, dt,
                    200)
        assert abs(abs(y[0]) - 1.0) < 1e-8

    def test_fourth_order_on_radial_ode(self):
        errs = [abs(rk4_run(radial, 0.1, dt, round(0.4 / dt))[0]
                    - logistic_radius(0.1, 0.4)) for dt in (4e-3, 2e-3)]
        assert errs[0] / errs[1] == pytest.approx(16.0, abs=3.0)

    @pytest.mark.parametrize("y, f", [
        (np.array([0.3 + 0.4j]),
         lambda t, v: ((P.xi * (P.x_nom_sq2 - np.abs(v) ** 2) + 1j * W0) * v
                       + math.cos(W0 * t))),
        (np.array([0.3 + 0.4j, -0.9 + 0.1j, 0.0 - 0.0j]),
         lambda t, v: (P.xi * (P.x_nom_sq2 - np.abs(v) ** 2) + 1j * W0) * v
         + 7.0 * t),
        (np.array([complex(math.inf, 1.0), -0.5 - 0.5j]), lambda t, v: v),
    ], ids=["complex", "complex-array", "complex-array-non-finite"])
    def test_same_result_as_python_float_weights(self, y, f):
        # the kernel's arithmetic with every weight a Python float
        def reference(t, y, dt):
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
            k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
            k4 = f(t + dt, y + dt * k3)
            return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        def field(t, x, out):
            out[:] = f(t, x)

        # at 7e-5, dt/6 and dt*(1/6) differ in the last bit
        for dt in (1e-4, 1e-3 / 3, 7e-5):
            w = engine._Workspace(P, y.copy(), dt, None)
            with np.errstate(invalid="ignore"):    # 0 * inf in the products
                got = rk4_increment(field, 0.01, w.y, dt, w)
                want = reference(0.01, y, dt)
            assert got.tobytes() == want.tobytes()     # same bits


class TestRk4Step:
    def test_advances_time(self):
        sc = make_scenario(t_end=1e-4)
        traj = simulate(sc)
        assert traj.t[-1] == pytest.approx(sc.dt)
        assert traj.x.shape == (2, sc.n)

    def test_divergence_raises(self):
        sc = make_scenario(n=1, seed=0)
        with pytest.raises(SimulationDiverged, match="inverter index 0"):
            simulate(sc, x0=np.array([150.0 + 0j]))

    def test_divergence_check_flags_non_finite_and_large(self):
        parts = [0.0, -0.0, 1.5, -1.5, 100.0, -100.0, math.inf, -math.inf,
                 math.nan]
        for re, im in itertools.product(parts, repeat=2):
            rows = np.array([[0.5 + 0j, 0.5 + 0j], [0.5 + 0j, complex(re, im)]])
            if (not (math.isfinite(re) and math.isfinite(im))
                    or math.hypot(re, im) > engine.DIVERGENCE_NORM):
                assert engine._first_diverged(rows) == (1, 1)
            else:
                assert engine._first_diverged(rows) is None


class TestSimulate:
    def test_open_loop_reaches_limit_cycle(self):
        params = (InverterParams(kappa=0.0),)
        sc = make_scenario(n=1, params=params, t_end=2.0, dt=2e-4, seed=4)
        traj = simulate(sc, x0=np.array([0.1 + 0j]))
        amp = np.abs(traj.x[-1, 0])
        assert amp == pytest.approx(1.0, abs=1e-6)
        # the whole tail should sit on the cycle
        tail = np.abs(traj.x[traj.t > 1.5, 0])
        assert np.abs(tail - 1.0).max() < 1e-6

    def test_radial_trace_matches_logistic(self):
        params = (InverterParams(kappa=0.0),)
        sc = make_scenario(n=1, params=params, t_end=0.5, dt=1e-4)
        traj = simulate(sc, x0=np.array([0.25 + 0j]))
        # rel 1e-7 headroom: RK4 damps the rotation by ~theta^6/144 per step
        for idx in (500, 2000, 5000):
            want = logistic_radius(0.25, float(traj.t[idx]))
            assert np.abs(traj.x[idx, 0]) == pytest.approx(want, rel=1e-7)

    def test_determinism(self):
        sc = make_scenario(n=3, seed=21, t_end=0.1)
        a = simulate(sc)
        b = simulate(sc)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.v_o, b.v_o)
        assert np.array_equal(a.currents, b.currents)

    def test_permutation_symmetry(self):
        sc = make_scenario(n=3, seed=2, t_end=0.05)
        x0 = np.array([0.5 + 0.1j, -0.3 + 0.4j, 0.2 - 0.6j])
        perm = [2, 0, 1]
        a = simulate(sc, x0=x0)
        b = simulate(sc, x0=x0[perm])
        assert np.allclose(b.x, a.x[:, perm], rtol=1e-10, atol=1e-12)

    def test_recorded_bus_voltage_consistent(self):
        # every row of both segments: before and after the start-up impedance
        sc = make_scenario(n=2, seed=8, t_end=0.05, t_z=0.02005,
                           z_extras=[30.0 + 20.0j, 5.0 + 0j])
        traj = simulate(sc)
        y_pre = sc.network.admittances(0.0)
        y_post = sc.network.admittances(math.inf)
        rows_pre = 0
        for idx in range(len(traj.t)):
            y = y_pre if traj.t[idx] < 0.02005 else y_post
            rows_pre += y is y_pre
            y_sigma = y.sum() + 1 / sc.network.z_net
            want = P.beta * np.dot(y, traj.x[idx]) / y_sigma
            assert traj.v_o[idx] == pytest.approx(want, rel=1e-12)
            want_i = (P.beta * traj.x[idx] - traj.v_o[idx]) * y
            assert np.allclose(traj.currents[idx], want_i, rtol=1e-12)
        assert rows_pre == 201 and len(traj.t) - rows_pre == 300

    def test_matches_flat_star_oracle(self):
        # case II, N = 4: start-up impedance dropped mid-run, rotating
        # disturbance on one inverter
        sc = scenarios.build_case(
            "II", 4, 17, t_end=0.05, t_z=0.0253,
            disturbance=DisturbanceSpec(2, 40.0, "rotating"))
        traj = simulate(sc)
        p = sc.params[0]
        branches = [(b.r_f, b.l_f, b.r_v, b.x_v,
                     (b.z_extra.real, b.z_extra.imag))
                    for b in sc.network.branches]
        xs, vs, cs = flat_star_rk4(
            [(v.real, v.imag) for v in traj.x[0]], p.xi, p.x_nom_sq2,
            p.omega0, p.kappa, p.beta, branches,
            (sc.network.z_net.real, sc.network.z_net.imag), sc.network.t_z,
            sc.dt, sc.n_steps, (2, 40.0, "rotating"))
        as_complex = lambda rows: np.array(rows) @ np.array([1.0, 1j])
        for got, want, tol in ((traj.x, as_complex(xs), 1e-12),
                               (traj.v_o, as_complex(vs), 1e-11),
                               (traj.currents, as_complex(cs), 1e-9)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= tol * np.abs(want).max()

    def test_startup_impedance_removed_at_boundary(self):
        z_extras = [199.0 * (1.0 + 0j)] * 2
        sc = make_scenario(n=2, seed=8, t_end=0.01, t_z=0.00345,
                           z_extras=z_extras, params=(P, P))
        traj = simulate(sc)
        y_pre = sc.network.admittances(0.0)
        y_post = sc.network.admittances(math.inf)
        k_before = np.searchsorted(traj.t, 0.00345) - 1   # last step before t_z
        for idx, y in ((k_before, y_pre), (k_before + 1, y_post)):
            ysig = y.sum() + 1 / sc.network.z_net
            want = P.beta * np.dot(y, traj.x[idx]) / ysig
            assert traj.v_o[idx] == pytest.approx(want, rel=1e-12)

    def test_contraction_distance_non_increasing(self):
        sc = make_scenario(n=3, seed=31, t_end=0.05)
        traj = simulate(sc)
        diff = np.abs(traj.x[:, :, None] - traj.x[:, None, :]).max(axis=(1, 2))
        sampled = diff[3::10]
        assert np.all(np.diff(sampled) <= 1e-14)

    def test_divergence_keeps_partial_trajectory(self):
        sc = make_scenario(n=2, seed=0, t_end=0.1,
                           overrides=((0, 150.0),))
        with pytest.raises(SimulationDiverged) as excinfo:
            simulate(sc)
        err = excinfo.value
        assert err.inverter == 0
        assert err.t == pytest.approx(sc.dt, rel=1e-12)
        assert err.trajectory is not None
        assert len(err.trajectory.t) == 1
        assert np.all(np.isfinite(err.trajectory.x.view(float)))

    def test_x0_length_checked(self):
        sc = make_scenario(n=2)
        with pytest.raises(ValueError, match="x0"):
            simulate(sc, x0=np.array([1.0 + 0j]))

    def test_concurrent_runs_are_independent(self):
        # each run steps in its own workspace: with more threads than cores,
        # runs of one size and a switch interval short enough to interleave
        # their steps, every trajectory is bit for bit its sequential one
        import sys
        from concurrent.futures import ThreadPoolExecutor
        runs = [make_scenario(n=4, seed=1, t_end=0.05),
                make_scenario(n=4, seed=2, t_end=0.05, t_z=0.02,
                              z_extras=[30.0 + 20.0j, 5.0 + 0j, 0j, 0j]),
                make_scenario(n=4, seed=3, t_end=0.05,
                              disturbance=DisturbanceSpec(1, 5.0, "rotating")),
                scenarios.build_case("II", 4, 4, t_end=0.05, t_z=0.025)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(runs)) as pool:
                futures = [pool.submit(simulate, sc) for sc in runs]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for sc, traj in zip(runs, got):
            want = simulate(sc)
            for name in ("x", "v_o", "currents"):
                assert np.array_equal(getattr(traj, name), getattr(want, name))

    def test_later_run_leaves_earlier_trajectory(self):
        sc = make_scenario(n=3, seed=5, t_end=0.02)
        first = simulate(sc)
        kept = [a.copy() for a in (first.t, first.x, first.v_o, first.currents)]
        simulate(sc)
        simulate(make_scenario(n=3, seed=6, t_end=0.02))
        for a, b in zip(kept, (first.t, first.x, first.v_o, first.currents)):
            assert np.array_equal(a, b)

    def test_x0_left_unchanged(self):
        sc = make_scenario(n=2, seed=1, t_end=0.02)
        x0 = np.array([0.5 + 0.1j, -0.3 + 0.4j])
        kept = x0.copy()
        traj = simulate(sc, x0=x0)
        assert np.array_equal(x0, kept)
        assert np.array_equal(traj.x[0], kept)
        assert not np.shares_memory(traj.x, x0)

    def test_trajectory_state_accessors(self):
        sc = make_scenario(n=2, seed=1, t_end=0.01)
        traj = simulate(sc)
        assert traj.t[-1] == pytest.approx(sc.n_steps * sc.dt)
        assert len(traj.t) == sc.n_steps + 1
        assert traj.n == 2

    def test_disturbance_bounded_offset(self):
        base = make_scenario(n=2, seed=5, t_end=0.3)
        blip = make_scenario(n=2, seed=5, t_end=0.3,
                             disturbance=DisturbanceSpec(0, 5.0, "rotating"))
        a = simulate(base)
        b = simulate(blip)
        gap_a = np.abs(a.x[-1, 0] - a.x[-1, 1])
        gap_b = np.abs(b.x[-1, 0] - b.x[-1, 1])
        assert gap_a < 1e-12          # clean run synchronizes
        assert 1e-4 < gap_b < 0.05    # disturbed run sits in a small ball


def python_scalar_run(sc):
    """Reference step loop: the engine's arithmetic in its order, with every
    scalar operand a Python float or complex that numpy promotes per call.
    Each step allocates, and its field is ``local_map(x) + np.dot(g, x)``
    written out, with g switched at the first step that starts at or after
    t_z.

    Returns the recorded states and the bus voltage and branch currents
    computed from them, one impedance segment at a time like ``simulate``.
    """
    p, d, dt = sc.params[0], sc.disturbance, sc.dt
    t_grid = np.arange(sc.n_steps + 1) * dt
    k_z = int(np.searchsorted(t_grid, sc.network.t_z))
    segments = [(sc.network.admittances(t), total_admittance(sc.network, t))
                for t in (0.0, math.inf)]

    def field(t, x, g):
        dx = ((p.xi * (p.x_nom_sq2 - (x.real ** 2 + x.imag ** 2))
               + complex(-p.kappa_beta, p.omega0)) * x + np.dot(g, x))
        if d is not None:
            dx[d.inverter] += (complex(d.amplitude) if d.waveform == "constant"
                               else d.amplitude * np.exp(1j * p.omega0 * t))
        return dx

    x = init_random(sc)
    xs = [x]
    for s in range(sc.n_steps):
        y, y_sigma = segments[0 if s < k_z else 1]
        g = p.kappa_beta * y / y_sigma
        t = s * dt
        k1 = field(t, x, g)
        k2 = field(t + 0.5 * dt, x + (0.5 * dt) * k1, g)
        k3 = field(t + 0.5 * dt, x + (0.5 * dt) * k2, g)
        k4 = field(t + dt, x + dt * k3, g)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        xs.append(x)
    xs = np.array(xs)
    rows = (slice(0, k_z), slice(k_z, None))
    v_o = np.concatenate([pcc_voltage(xs[r], y, y_sigma, p.beta)
                          for r, (y, y_sigma) in zip(rows, segments)])
    currents = np.concatenate([branch_currents(xs[r], v_o[r], y, p.beta)
                               for r, (y, _) in zip(rows, segments)])
    return xs, v_o, currents


class TestPythonScalarReference:
    """``simulate`` steps in place in its workspace, with its scalar operands
    as 0-d arrays and its field bound once per run; the whole trajectory
    must be bit for bit the one the allocating step with Python scalars
    gives, across the coupling switch at t_z and with either disturbance."""

    @pytest.mark.parametrize("n, case", [
        (4, dict(t_end=0.2, t_z=0.1,
                 disturbance=DisturbanceSpec(1, 5.0, "rotating"))),
        (4, dict(t_end=0.2, t_z=0.1,
                 disturbance=DisturbanceSpec(2, 5.0, "constant"))),
        (100, dict(t_end=0.01)),
        (8, dict(t_end=0.1, t_z=0.05, base=InverterParams(kappa=4.0))),
    ], ids=["n4-rotating-tz-mid-run", "n4-constant-tz-mid-run", "n100-short",
            "n8-tz-mid-run"])
    def test_bit_identical(self, n, case):
        sc = scenarios.build_case("II", n, 3, **case)
        traj = simulate(sc)
        xs, v_o, currents = python_scalar_run(sc)
        # bytes, not values: -0.0 == 0.0 would pass np.array_equal
        assert traj.x.tobytes() == xs.tobytes()
        assert traj.v_o.tobytes() == v_o.tobytes()
        assert traj.currents.tobytes() == currents.tobytes()


# grows towards the circle |x| = sqrt(2e4) ~ 141 > DIVERGENCE_NORM: the norm
# crosses 100 at a step set by the initial norm, without overflow
GROWING = InverterParams(xi=0.01, x_nom_sq2=2e4, kappa=0.0)


def crossing_norm(step, dt=1e-4, p=GROWING):
    """Initial norm whose logistic radius reaches DIVERGENCE_NORM halfway
    through ``step``, so that step's RK4 result is the first one beyond it."""
    e = math.exp(-2.0 * p.xi * p.x_nom_sq2 * (step + 0.5) * dt)
    u = engine.DIVERGENCE_NORM ** 2
    return math.sqrt(u * p.x_nom_sq2 * e / (p.x_nom_sq2 - u + u * e))


def per_step_divergence(sc, x0):
    """Reference: check every step, stop at the first state outside the
    regime.  Returns (t, inverter, number of finite rows), or None."""
    p = sc.params[0]
    y = sc.network.admittances(math.inf)
    g = p.kappa_beta * y / total_admittance(sc.network, math.inf)
    x = np.array(x0, dtype=complex)
    w = engine._Workspace(p, x, sc.dt, sc.disturbance)
    w.g = g
    for s in range(sc.n_steps):
        rk4_increment(w.field, s * sc.dt, x, sc.dt, w)
        bad = ~(np.abs(x) <= engine.DIVERGENCE_NORM)
        if bad.any():
            return (s + 1) * sc.dt, int(np.argmax(bad)), s + 1
    return None


class TestDivergence:
    @pytest.mark.parametrize("step", [0, 63, 64, 94, 191, 299],
                             ids=["block-0-row-0", "block-0-last-row",
                                  "block-1-row-0", "mid-block",
                                  "block-2-last-row", "last-step"])
    def test_first_bad_step_matches_per_step_check(self, step):
        # inverter 1 crosses at ``step``, inverter 0 two steps later; steps
        # 0 and 63 of a 64-step block are its first and last recorded rows
        x0 = [crossing_norm(step + 2), 1j * crossing_norm(step)]
        sc = make_scenario(n=2, params=(GROWING,) * 2, t_end=0.03)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = per_step_divergence(sc, x0)
            with pytest.raises(SimulationDiverged) as excinfo:
                simulate(sc, x0=np.array(x0))
        assert want == pytest.approx(((step + 1) * sc.dt, 1, step + 1))
        err = excinfo.value
        assert (err.t, err.inverter, len(err.trajectory.t)) == want
        assert err.last_norm == np.abs(err.trajectory.x[-1]).max()
        assert err.last_norm <= engine.DIVERGENCE_NORM

    def test_blow_up_past_the_bad_step_does_not_warn(self):
        # from |x| = 150 the stiff amplitude term overflows to inf and NaN
        # within the block that follows the first bad step
        sc = make_scenario(n=2, seed=0, t_end=0.1, overrides=((0, 150.0),))
        x0 = init_random(sc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = per_step_divergence(sc, x0)
            with pytest.raises(SimulationDiverged,
                               match="last finite norm 150 pu") as excinfo:
                simulate(sc)
        err = excinfo.value
        assert (err.t, err.inverter, len(err.trajectory.t)) == want
        assert want == (sc.dt, 0, 1)
        assert err.last_norm == pytest.approx(150.0, rel=1e-12)
        assert err.last_norm == np.abs(err.trajectory.x[-1]).max()


class TestMemory:
    @pytest.mark.parametrize("n, t_end", [(4, 1.0), (100, 0.1)])
    def test_peak_near_trajectory_size(self, n, t_end):
        # v_o and the currents are filled in place after the loop: no
        # (steps, n) temporary on top of the recorded trajectory
        simulate(scenarios.build_case("II", 4, 1, t_end=0.01))   # warm-up
        sc = scenarios.build_case("II", n, 1, t_end=t_end)
        tracemalloc.start()
        try:
            traj = simulate(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in (traj.t, traj.x, traj.v_o, traj.currents))
        assert peak <= 1.35 * size
