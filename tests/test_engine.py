import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import flat_two_inverter_field, logistic_radius
from dvocsim import engine
from dvocsim.engine import (DisturbanceSpec, InitSpec, Scenario,
                            SimulationDiverged, init_random, rk4_increment,
                            simulate)
from dvocsim.network import BranchParams, NetworkConfig, total_admittance
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
    """The engine's coupled field at time t, with that step's admittances."""
    y, y_sigma = sc.network.admittances(t), total_admittance(sc.network, t)
    return engine._field(t, x, sc, y, y_sigma)


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


class TestRk4Kernel:
    def test_zero_field(self):
        y = np.array([1.0 + 2j, -3.0 + 0j])
        out = rk4_increment(lambda t, v: 0.0 * v, 0.0, y, 0.1)
        assert np.array_equal(out, y)

    def test_harmonic_norm_drift(self):
        # 200 steps per cycle: relative radius drift well under 1e-8/cycle
        dt = 2 * math.pi / W0 / 200
        y = 1.0 + 0j
        for i in range(200):
            y = rk4_increment(lambda t, v: 1j * W0 * v, i * dt, y, dt)
        assert abs(abs(y) - 1.0) < 1e-8

    def test_fourth_order_on_radial_ode(self):
        f = lambda t, r: P.xi * (P.x_nom_sq2 - r * r) * r
        errs = []
        for dt in (4e-3, 2e-3):
            steps = round(0.4 / dt)
            r = 0.1
            for i in range(steps):
                r = rk4_increment(f, i * dt, r, dt)
            errs.append(abs(r - logistic_radius(0.1, 0.4)))
        assert errs[0] / errs[1] == pytest.approx(16.0, abs=3.0)


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
            x = np.array([0.5 + 0j, complex(re, im)])
            if (not (math.isfinite(re) and math.isfinite(im))
                    or math.hypot(re, im) > engine.DIVERGENCE_NORM):
                with pytest.raises(SimulationDiverged,
                                   match="inverter index 1"):
                    engine._check_finite(x, 0.0)
            else:
                engine._check_finite(x, 0.0)


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
        sc = make_scenario(n=2, seed=8, t_end=0.05)
        traj = simulate(sc)
        y = sc.network.admittances(math.inf)
        y_sigma = y.sum() + 1 / sc.network.z_net
        for idx in (0, 100, 500):
            want = P.beta * np.dot(y, traj.x[idx]) / y_sigma
            assert traj.v_o[idx] == pytest.approx(want, rel=1e-12)
            want_i = (P.beta * traj.x[idx] - traj.v_o[idx]) * y
            assert np.allclose(traj.currents[idx], want_i, rtol=1e-12)

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
        # disjoint scenarios share no mutable state
        from concurrent.futures import ThreadPoolExecutor
        sc1 = make_scenario(n=2, seed=1, t_end=0.05)
        sc2 = make_scenario(n=3, seed=2, t_end=0.05)
        with ThreadPoolExecutor(2) as pool:
            a, b = pool.submit(simulate, sc1), pool.submit(simulate, sc2)
            a, b = a.result(), b.result()
        assert np.array_equal(a.x, simulate(sc1).x)
        assert np.array_equal(b.x, simulate(sc2).x)

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
