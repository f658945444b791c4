"""Acceptance gate: one test per criterion, each logging a PASS/FAIL line.

The logged lines are printed in a summary section at the end of the pytest
run (see conftest.py).
"""

import math
from time import perf_counter

import numpy as np
import pytest

from oracles import (central_difference_jacobian, dense_star_solve,
                     local_map, logistic_radius, rk4_kernel, rk4_workspace)
from dvocsim.certificates import (certificate_margin, envelope_check,
                                  error_ball_radius)
from dvocsim.cli import main
from dvocsim.engine import DisturbanceSpec, InitSpec, Scenario, simulate
from dvocsim.network import (BranchParams, NetworkConfig, OscillatorDeath,
                             branch_currents, k_sh, particular_radius,
                             pcc_voltage, total_admittance)
from dvocsim.oscillator import InverterParams, jacobian_h
from dvocsim.scenarios import build_case, build_metrics, sync_error, sync_time

P = InverterParams()


def log(acceptance_log, num, ok, detail):
    status = "PASS" if ok else "FAIL"
    acceptance_log.append(f"criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def case2_run():
    scenario = build_case("II", 6, seed=11, t_end=2.0, dt=1e-4)
    start = perf_counter()
    trajectory = simulate(scenario)
    elapsed = perf_counter() - start
    return scenario, trajectory, elapsed


def test_criterion_1_certificate(acceptance_log):
    start = perf_counter()
    for _ in range(10):
        report = certificate_margin(P)
    elapsed = (perf_counter() - start) / 10
    ok = (report.passed and abs(report.margin_c - 553.38) <= 0.01
          and report.margin_c > 543.0 and elapsed < 1e-3)
    log(acceptance_log, 1, ok,
        f"margin_c={report.margin_c:.4f} 1/s (target 553.38 +/- 0.01, "
        f"> 543), runtime {elapsed * 1e6:.1f} us")


def test_criterion_2_sharing_ratio(acceptance_log, case2_run):
    scenario, trajectory, elapsed = case2_run
    report = build_metrics(trajectory)
    amps = np.array(report.current_amplitudes)
    low = [1, 2]
    high = [0, 3, 4, 5]
    ratio = amps[low].mean() / amps[high].mean()
    target = 20.0 / 10.5
    ok = (report.synchronized and abs(ratio / target - 1.0) <= 0.02
          and elapsed < 30.0)
    log(acceptance_log, 2, ok,
        f"group current ratio {ratio:.4f} (target {target:.4f} +/- 2%), "
        f"runtime {elapsed:.2f} s (< 30 s)")


def test_criterion_3_synchronization(acceptance_log, case2_run):
    _, trajectory, _ = case2_run
    series = sync_error(trajectory)
    t_sync = sync_time(trajectory.t, series)
    ok = t_sync is not None
    tail_max = float(series[trajectory.t >= t_sync].max()) if ok else math.inf
    ok = ok and tail_max < 1e-3
    log(acceptance_log, 3, ok,
        f"max pairwise error < 1e-3 pu from t={t_sync if t_sync else float('nan'):.4f} s "
        f"through t_end (tail max {tail_max:.2e} pu)")


def test_criterion_4_envelope(acceptance_log):
    scenario = build_case("I", 2, seed=23, t_end=0.05, dt=1e-4)
    trajectory = simulate(scenario)
    c = certificate_margin(scenario.params[0]).margin_c
    result = envelope_check(trajectory.t, trajectory.x[:, 0],
                            trajectory.t, trajectory.x[:, 1], c=c)
    d0 = abs(trajectory.x[0, 0] - trajectory.x[0, 1])
    log(acceptance_log, 4, result.ok,
        f"2-inverter distance within exp(-{c:.1f} t) envelope * 1.05 at all "
        f"{len(trajectory.t)} steps (initial distance {d0:.2f} pu)")


def _two_branch_scenario(z1, z2, z_net, seed=13, t_end=1.0):
    network = NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                                  for z in (z1, z2)),
                            z_net)
    return Scenario(params=(P, P), network=network, t_end=t_end, dt=1e-4,
                    init=InitSpec(seed=seed, norm_bound=1.0))


def test_criterion_5_particular_solution(acceptance_log):
    z_pm = complex(0.1153, P.omega0 * 1.05e-3)
    z1, z2 = 15.0 * z_pm, 7.875 * z_pm
    y_sum = 1.0 / z1 + 1.0 / z2
    scenario = _two_branch_scenario(z1, z2, complex(200.0 / abs(y_sum)))
    r_star = particular_radius(k_sh(scenario.network, P.omega0).real, P)
    assert not isinstance(r_star, OscillatorDeath)
    amplitude = build_metrics(simulate(scenario)).amplitude
    rel = abs(amplitude / r_star - 1.0)
    ok = rel <= 1e-3

    # negative radicand: the oscillators die instead of settling on a circle
    dead = _two_branch_scenario(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, t_end=0.3)
    r_dead = particular_radius(k_sh(dead.network, P.omega0).real, P)
    dead_traj = simulate(dead)
    dead_amp = float(np.abs(dead_traj.x[dead_traj.t > 0.25]).max())
    ok = ok and isinstance(r_dead, OscillatorDeath) and dead_amp < 0.05
    log(acceptance_log, 5, ok,
        f"steady amplitude {amplitude:.6f} pu vs r*={r_star:.6f} pu "
        f"(rel err {rel:.2e} <= 1e-3); death case amplitude "
        f"{dead_amp:.2e} pu < 0.05")


def test_criterion_6_network_oracle(acceptance_log):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        zs = rng.uniform(0.1, 10.0, n) + 1j * rng.uniform(0.0, 10.0, n)
        z_net = complex(rng.uniform(0.2, 100.0), rng.uniform(0.0, 100.0))
        e = rng.normal(0.0, 500.0, n) + 1j * rng.normal(0.0, 500.0, n)
        cfg = NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                                  for z in zs),
                            z_net=z_net)
        # the bus solve simulate() runs, with the internal voltages as states
        y = cfg.admittances(P.omega0, 0.0)
        v = pcc_voltage(e, y, total_admittance(cfg, P.omega0, 0.0), 1.0)
        currents = branch_currents(e, v, y, 1.0)
        v_ref, i_ref = dense_star_solve(e, zs, z_net)
        scale = max(abs(v_ref), float(np.abs(i_ref).max()), 1e-30)
        err = abs(v - v_ref) / max(abs(v_ref), 1e-30)
        err = max(err, float(np.abs(currents - i_ref).max()) / scale)
        worst = max(worst, err)
    ok = worst <= 1e-9
    log(acceptance_log, 6, ok,
        f"closed-form bus solution vs dense linear solve: worst relative "
        f"error {worst:.2e} over 200 random star networks (<= 1e-9)")


def test_criterion_7_error_ball_linearity(acceptance_log):
    separations = []
    for amplitude in (4.0, 8.0):
        scenario = build_case(
            "I", 2, seed=17, t_end=0.6, dt=1e-4,
            init=InitSpec(seed=17, norm_bound=1.0),
            disturbance=DisturbanceSpec(inverter=0, amplitude=amplitude,
                                        waveform="rotating"))
        separations.append(build_metrics(simulate(scenario)).separation)
    ratio = separations[1] / separations[0]
    c = certificate_margin(P).margin_c
    within_ball = all(
        sep <= 1.1 * error_ball_radius(amp, c)
        for sep, amp in zip(separations, (4.0, 8.0)))
    ok = abs(ratio - 2.0) <= 0.2 and within_ball
    log(acceptance_log, 7, ok,
        f"steady separations {separations[0]:.5f} / {separations[1]:.5f} pu, "
        f"ratio {ratio:.3f} (2.0 +/- 10%), both inside 1.1 * d_bar/c")


def test_criterion_8_numerics(acceptance_log):
    # 4th-order convergence on the radial ODE of the callable-field RK4
    # kernel whose arithmetic the engine's fused step keeps bit for bit
    # (tests/test_engine.py::TestFusedStep), stepped in place: the radius is
    # a 1-element complex state, and the field writes the half-step
    # increment (dt/2)*dr/dt
    errors = []
    for dt in (4e-3, 2e-3, 1e-3):
        def radial(t, x, out, h=0.5 * dt):
            r = x.real
            out[:] = h * (P.xi * (P.x_nom_sq2 - r * r) * r)

        y, w = np.array([0.1 + 0j]), rk4_workspace(1)
        for i in range(round(0.4 / dt)):
            rk4_kernel(radial, i * dt, y, dt, w)
        errors.append(abs(y[0].real - logistic_radius(0.1, 0.4)))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    order_ok = all(abs(r - 16.0) <= 3.0 for r in ratios)

    # analytic Jacobian against central differences at 100 random states
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, 2)

        def field(v):
            d = local_map(complex(v[0], v[1]), P)
            return np.array([d.real, d.imag])

        fd = central_difference_jacobian(field, x, h=1e-6)
        worst = max(worst, float(np.abs(jacobian_h(complex(*x), P) - fd).max()))
    jac_ok = worst <= 1e-5
    log(acceptance_log, 8, order_ok and jac_ok,
        f"dt-halving error ratios {ratios[0]:.2f}, {ratios[1]:.2f} "
        f"(16 +/- 3); Jacobian vs finite differences max abs err "
        f"{worst:.2e} (<= 1e-5)")


def test_criterion_9_determinism(acceptance_log, tmp_path):
    args = ["case2", "--n", "4", "--seed", "5", "--set", "t_end=0.2"]
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    csv_a = (outs[0] / "timeseries.csv").read_bytes()
    csv_b = (outs[1] / "timeseries.csv").read_bytes()
    rep_a = (outs[0] / "report.json").read_bytes()
    rep_b = (outs[1] / "report.json").read_bytes()
    ok = csv_a == csv_b and rep_a == rep_b
    log(acceptance_log, 9, ok,
        f"repeated run: timeseries.csv byte-identical "
        f"({len(csv_a)} bytes), report.json byte-identical")
