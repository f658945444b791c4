import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import dense_star_solve
from dvocsim.engine import InitSpec, Scenario
from dvocsim.network import (BranchParams, NetworkConfig, OscillatorDeath,
                             ZeroImpedanceError, branch_currents, k_sh,
                             particular_radius, pcc_voltage,
                             synchronized_steady, total_admittance)
from dvocsim.oscillator import InverterParams

P = InverterParams()
OMEGA0 = P.omega0


def resistive(r, z_extra=0j):
    return BranchParams(r_v=r, z_extra=z_extra)


def config(branch_r, z_net, t_z=0.0, z_extras=None):
    z_extras = z_extras or [0j] * len(branch_r)
    return NetworkConfig(
        branches=tuple(resistive(r, z) for r, z in zip(branch_r, z_extras)),
        z_net=z_net, t_z=t_z)


def solve(e, cfg, t=0.0):
    """Bus voltage and branch currents for internal voltages e."""
    e = np.asarray(e, dtype=complex)
    y = cfg.admittances(OMEGA0, t)
    v = pcc_voltage(e, y, total_admittance(cfg, OMEGA0, t), 1.0)
    return v, branch_currents(e, v, y, 1.0)


def zero_total_network(z_extra, z_net, t_z):
    """Two 2j branches, 4j with z_extra = 2j before t_z: sum(Y_i) is -1j
    (-0.5j before t_z), and where 1/z_net cancels it the bus voltage would
    divide by zero."""
    branch = BranchParams(x_v=2.0, z_extra=z_extra)
    return NetworkConfig(branches=(branch, branch), z_net=z_net, t_z=t_z)


ZERO_TOTAL = pytest.mark.parametrize("z_extra, z_net, t_z, when", [
    (0j, -1j, 0.0, "t >= t_z"),
    (2j, -2j, 0.1, "t < t_z"),      # 4j branches until t_z, 2j after
    (2j, -1j, 0.1, "t >= t_z"),
], ids=["no-start-up", "before-t_z", "after-t_z"])


def scenario_on(cfg):
    return Scenario(params=(P,) * cfg.n, network=cfg, t_end=0.1, dt=1e-4,
                    init=InitSpec(seed=0))


rl_impedance = st.tuples(
    st.floats(min_value=0.05, max_value=50.0),
    st.floats(min_value=0.0, max_value=50.0),
).map(lambda t: complex(*t))


class TestValidation:
    def test_needs_branches(self):
        with pytest.raises(ValueError, match="branch"):
            NetworkConfig(branches=(), z_net=1 + 0j)

    def test_zero_z_net(self):
        with pytest.raises(ValueError, match="z_net"):
            config([1.0], 0j)

    # a network is refused where it is evaluated: by every function that
    # divides by a branch impedance or the total admittance, and by the
    # Scenario built on it, which evaluates both admittance segments
    def test_zero_branch_named(self):
        cfg = NetworkConfig(branches=(resistive(1.0), BranchParams()),
                            z_net=1 + 0j)
        for evaluate in (lambda: cfg.admittances(OMEGA0),
                         lambda: total_admittance(cfg, OMEGA0, 0.0),
                         lambda: k_sh(cfg, OMEGA0)):
            with pytest.raises(ZeroImpedanceError,
                               match="^branch 2 has zero impedance$"):
                evaluate()

    def test_zero_branch_named_at_scenario(self):
        cfg = NetworkConfig(branches=(resistive(1.0), BranchParams()),
                            z_net=1 + 0j)
        with pytest.raises(ZeroImpedanceError,
                           match="^branch 2 has zero impedance$"):
            scenario_on(cfg)

    @ZERO_TOTAL
    def test_zero_total_admittance(self, z_extra, z_net, t_z, when):
        cfg = zero_total_network(z_extra, z_net, t_z)
        t = 0.0 if when == "t < t_z" else math.inf
        evaluations = [lambda: total_admittance(cfg, OMEGA0, t)]
        if t == math.inf:       # k_sh is the state after start-up
            evaluations.append(lambda: k_sh(cfg, OMEGA0))
        for evaluate in evaluations:
            with pytest.raises(ValueError,
                               match=rf"z_net = .*zero for {when}$"):
                evaluate()

    @ZERO_TOTAL
    def test_zero_total_admittance_at_scenario(self, z_extra, z_net, t_z,
                                               when):
        with pytest.raises(ValueError, match=rf"z_net = .*zero for {when}$"):
            scenario_on(zero_total_network(z_extra, z_net, t_z))

    def test_negative_t_z(self):
        with pytest.raises(ValueError, match="t_z"):
            config([1.0], 1 + 0j, t_z=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("r_f", math.nan), ("l_f", math.inf), ("r_v", -math.inf),
        ("x_v", math.nan), ("z_extra", complex(math.nan, 0.0)),
        ("z_extra", complex(1.0, math.inf)),
    ])
    def test_branch_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            BranchParams(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("z_net", complex(math.nan, 0.0)), ("z_net", complex(1.0, -math.inf)),
        ("t_z", math.nan), ("t_z", math.inf),
    ])
    def test_network_non_finite(self, field, value):
        kwargs = {"z_net": 1 + 0j, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            NetworkConfig(branches=(resistive(1.0),), **kwargs)


class TestTotalAdmittance:
    def test_two_unit_branches(self):
        assert total_admittance(config([1.0, 1.0], 1 + 0j), OMEGA0,
                                0.0) == 3 + 0j

    def test_matched(self):
        assert total_admittance(config([2.0], 2 + 0j), OMEGA0,
                                0.0) == 1 + 0j

    def test_startup_impedance_schedule(self):
        cfg = config([1.0, 1.0], 1 + 0j, t_z=0.4,
                     z_extras=[199 + 0j, 199 + 0j])
        assert total_admittance(cfg, OMEGA0, 0.0) == pytest.approx(1.01 + 0j)
        assert total_admittance(cfg, OMEGA0, 1.0) == pytest.approx(3.0 + 0j)

    def test_startup_segment_bits(self):
        # z_extra joins the impedance, not the admittance, and only while
        # t < t_z; t_z = 0 has no start-up segment, even at t = 0.0
        branches = (BranchParams(r_f=0.1, l_f=2e-3, r_v=1.3, x_v=-0.7,
                                 z_extra=3.1 - 0.2j),
                    BranchParams(r_v=0.9, z_extra=5j))
        z = np.array([b.impedance_at(OMEGA0) for b in branches])
        extra = np.array([b.z_extra for b in branches])
        before, after = 1.0 / (z + extra), 1.0 / z
        cfg = NetworkConfig(branches, z_net=40 + 3j, t_z=0.25)
        for t, want in ((0.0, before), (0.2499, before), (0.25, after),
                        (math.inf, after)):
            assert cfg.admittances(OMEGA0, t).tobytes() == want.tobytes()
        cfg = NetworkConfig(branches, z_net=40 + 3j, t_z=0.0)
        assert cfg.admittances(OMEGA0, 0.0).tobytes() == after.tobytes()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="t"):
            total_admittance(config([1.0], 1 + 0j), OMEGA0, -0.1)


class TestPccVoltage:
    def test_equal_sources_no_load(self):
        cfg = config([1.0, 2.0, 0.5], 1e15 + 0j)
        e = 0.8 + 0.6j
        v, _ = solve([e, e, e], cfg)
        assert v == pytest.approx(e, rel=1e-12)

    def test_two_branch_average(self):
        cfg = config([0.5, 1.0], 1 + 0j)     # Y = 2, 1; Y_net = 1
        v, _ = solve([1 + 0j, 1 + 0j], cfg)
        assert v == pytest.approx(0.75 + 0j, rel=1e-12)

    def test_voltage_divider(self):
        cfg = config([3.0], 3 + 0j)
        v, _ = solve([1 + 0j], cfg)
        assert v == pytest.approx(0.5 + 0j, rel=1e-12)

    def test_scale(self):
        cfg = config([0.5, 1.0], 1 + 0j)
        x = np.array([0.3 - 0.1j, -0.2 + 0.7j])
        y = cfg.admittances(OMEGA0, 0.0)
        y_sigma = total_admittance(cfg, OMEGA0, 0.0)
        assert pcc_voltage(x, y, y_sigma, 400.0) == pytest.approx(
            pcc_voltage(400.0 * x, y, y_sigma, 1.0), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2"):
            solve([1 + 0j], config([1.0, 1.0], 1 + 0j))


class TestBranchCurrents:
    def test_no_drop_no_current(self):
        cfg = config([1.0, 2.0], 5 + 0j)
        v = 0.3 + 0.4j
        i = branch_currents(np.array([v, v]), v, cfg.admittances(OMEGA0, 0.0),
                            1.0)
        assert np.array_equal(i, np.zeros(2, dtype=complex))

    def test_two_branch_values(self):
        cfg = config([0.5, 1.0], 1 + 0j)
        _, (i1, i2) = solve([1 + 0j, 1 + 0j], cfg)
        assert i1 == pytest.approx(0.5 + 0j, rel=1e-12)
        assert i2 == pytest.approx(0.25 + 0j, rel=1e-12)

    def test_synchronized_ratio_independent_of_z_net(self):
        # Eq-level property: I_i/I_j = Y_i/Y_j for identical sources
        rng = np.random.default_rng(5)
        z1, z2 = 0.4 + 1.1j, 1.3 + 0.2j
        e = 0.9 - 0.2j
        for _ in range(10):
            z_net = complex(rng.uniform(0.1, 100), rng.uniform(0, 100))
            cfg = NetworkConfig((BranchParams(r_v=z1.real, x_v=z1.imag),
                                 BranchParams(r_v=z2.real, x_v=z2.imag)),
                                z_net=z_net)
            _, (i1, i2) = solve([e, e], cfg)
            assert i1 / i2 == pytest.approx(z2 / z1, rel=1e-12)

    @given(st.lists(rl_impedance, min_size=1, max_size=5), rl_impedance,
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kcl_residual(self, zs, z_net, seed):
        cfg = NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                                  for z in zs),
                            z_net=z_net)
        rng = np.random.default_rng(seed)
        e = rng.normal(0, 500, len(zs)) + 1j * rng.normal(0, 500, len(zs))
        v, currents = solve(e, cfg)
        total = currents.sum()
        residual = abs(total - v / z_net)
        assert residual <= 1e-9 * max(1.0, abs(v) * abs(1 / z_net))


class TestDenseOracleSpot:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            zs = rng.uniform(0.1, 5, n) + 1j * rng.uniform(0, 5, n)
            z_net = complex(rng.uniform(0.5, 50), rng.uniform(0, 50))
            e = rng.normal(0, 500, n) + 1j * rng.normal(0, 500, n)
            cfg = NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                                      for z in zs),
                                z_net=z_net)
            v, currents = solve(e, cfg)
            v_ref, i_ref = dense_star_solve(e, zs, z_net)
            assert v == pytest.approx(v_ref, rel=1e-9)
            for got, want in zip(currents, i_ref):
                assert got == pytest.approx(want, rel=1e-9,
                                            abs=1e-9 * abs(v_ref))


class TestKsh:
    def test_no_load_limit(self):
        cfg = config([1.0, 1.0], 1e12 + 0j)
        assert k_sh(cfg, OMEGA0) == pytest.approx(1.0, abs=1e-11)

    def test_half(self):
        cfg = config([1.0, 1.0], 0.5 + 0j)   # sumY = 2, Y_net = 2
        assert k_sh(cfg, OMEGA0) == pytest.approx(0.5 + 0j)

    @given(st.lists(rl_impedance, min_size=1, max_size=5), rl_impedance)
    @settings(max_examples=50, deadline=None)
    def test_norm_in_unit_interval(self, zs, z_net):
        # strict for resistive-inductive branches and load
        cfg = NetworkConfig(tuple(BranchParams(r_v=z.real, x_v=z.imag)
                                  for z in zs),
                            z_net=z_net)
        k = k_sh(cfg, OMEGA0)
        assert 0.0 < abs(k) < 1.0

    def test_monotone_to_one_along_ray(self):
        cfg0 = config([1.0, 2.0], 1.0 + 0j)
        prev = abs(1.0 - k_sh(cfg0, OMEGA0))
        for scale in (10.0, 100.0, 1000.0, 1e4):
            cfg = config([1.0, 2.0], scale * (1.0 + 0j))
            gap = abs(1.0 - k_sh(cfg, OMEGA0))
            assert gap < prev
            prev = gap
        assert prev < 1e-3


class TestParticularRadius:
    def test_unit_at_full_coupling(self):
        assert particular_radius(1.0, P) == 1.0

    def test_slight_load(self):
        r = particular_radius(0.999, P)
        assert r == pytest.approx(0.9714, abs=1e-4)
        assert r == pytest.approx(math.sqrt(1 - P.beta * 0.001 / 10.0), rel=1e-15)

    def test_death(self):
        out = particular_radius(0.9, P)
        assert isinstance(out, OscillatorDeath)
        assert out.radicand == pytest.approx(1 - P.beta * 0.1 / 10.0)
        assert out.radicand < 0

    def test_monotone_in_k_sh(self):
        ks = np.linspace(0.9823, 1.0, 50)
        radii = [particular_radius(k, P) for k in ks]
        assert all(not isinstance(r, OscillatorDeath) for r in radii)
        assert all(b > a for a, b in zip(radii, radii[1:]))


class TestSynchronizedSteady:
    def test_identical_branches_share_equally(self):
        cfg = config([2.0] * 4, 100.0 + 0j)
        steady = synchronized_steady(P, cfg)
        amps = steady.current_amplitudes
        assert all(a == pytest.approx(amps[0], rel=1e-12) for a in amps)

    def test_group_ratio(self):
        z_lo = 7.875 * complex(0.1153, OMEGA0 * 1.05e-3)   # 10.5 * 0.75 * Z_pm
        z_hi = 15.0 * complex(0.1153, OMEGA0 * 1.05e-3)    # 20 * 0.75 * Z_pm
        cfg = NetworkConfig((BranchParams(r_v=z_hi.real, x_v=z_hi.imag),
                             BranchParams(r_v=z_lo.real, x_v=z_lo.imag)),
                            z_net=500 + 0j)
        steady = synchronized_steady(P, cfg)
        ratio = steady.current_amplitudes[1] / steady.current_amplitudes[0]
        assert ratio == pytest.approx(20.0 / 10.5, rel=1e-12)

    def test_v_pcc_amplitude(self):
        cfg = config([1.0, 1.0], 200.0 + 0j)
        steady = synchronized_steady(P, cfg)
        k = k_sh(cfg, OMEGA0)
        assert steady.v_pcc_amplitude == pytest.approx(
            abs(k) * P.beta * steady.r_star, rel=1e-12)

    def test_death_propagates(self):
        cfg = config([1.0, 1.0], 1.0 + 0j)   # K_sh = 2/3, radicand < 0
        assert isinstance(synchronized_steady(P, cfg), OscillatorDeath)
