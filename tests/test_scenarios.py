import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dvocsim import scenarios
from dvocsim.engine import InitSpec, Scenario, Trajectory, simulate
from dvocsim.network import BranchParams, NetworkConfig, OscillatorDeath, k_sh
from dvocsim.oscillator import InverterParams
from dvocsim.scenarios import (build_case, build_metrics, case2_low_indices,
                               fit_decay_rate, predicted_r_star, sync_error,
                               sync_time)
from oracles import all_pairs_max_distance, pairwise_max_distance

P = InverterParams()
W0 = P.omega0
Z_LINE = complex(0.75 * 0.1153, 0.75 * W0 * 1.05e-3)


def fake_traj(t, x):
    # the scenario is a placeholder, and case I needs two inverters
    n = x.shape[1] if x.ndim > 1 else 2
    sc = build_case("I", max(n, 2), seed=0, t_end=0.01)
    return Trajectory(np.asarray(t, float), np.asarray(x, complex),
                      np.zeros(len(t), complex),
                      np.zeros_like(np.asarray(x, complex)), sc)


class TestBuildCase:
    def test_case1_branches_uniform(self):
        sc = build_case("I", 33, seed=0)
        for b in sc.network.branches:
            z = complex(b.r_f + b.r_v, W0 * b.l_f + b.x_v)
            assert z == pytest.approx(Z_LINE, rel=1e-12)
            assert b.z_extra == 0j
        assert sc.network.t_z == 0.0

    def test_case2_full_scale_groups(self):
        sc = build_case("II", 33, seed=0)
        mults = []
        for b in sc.network.branches:
            z = complex(b.r_f + b.r_v, W0 * b.l_f + b.x_v)
            mults.append(z.real / Z_LINE.real)
        low = [k for k, m in enumerate(mults) if abs(m - 10.5) < 1e-9]
        high = [k for k, m in enumerate(mults) if abs(m - 20.0) < 1e-9]
        assert low == [10, 18]            # units #11 and #19
        assert len(high) == 31

    def test_case2_desk_groups(self):
        sc = build_case("II", 4, seed=0)
        assert case2_low_indices(4) == (1, 2)
        mults = [(b.r_f + b.r_v) / Z_LINE.real for b in sc.network.branches]
        assert mults[1] == pytest.approx(10.5, rel=1e-12)
        assert mults[2] == pytest.approx(10.5, rel=1e-12)
        assert mults[0] == pytest.approx(20.0, rel=1e-12)
        assert mults[3] == pytest.approx(20.0, rel=1e-12)

    def test_case2_startup_impedance(self):
        sc = build_case("II", 4, seed=0, zt_multiplier=200.0)
        assert sc.network.t_z == 0.4
        for b in sc.network.branches:
            z = complex(b.r_f + b.r_v, W0 * b.l_f + b.x_v)
            assert b.z_extra == pytest.approx(199.0 * z, rel=1e-12)

    def test_case2_jitter_seeded(self):
        a = build_case("II", 4, seed=3, zt_jitter=True)
        b = build_case("II", 4, seed=3, zt_jitter=True)
        c = build_case("II", 4, seed=4, zt_jitter=True)
        za = [br.z_extra for br in a.network.branches]
        assert za == [br.z_extra for br in b.network.branches]
        assert za != [br.z_extra for br in c.network.branches]
        for br in a.network.branches:
            z = complex(br.r_f + br.r_v, W0 * br.l_f + br.x_v)
            factor = (br.z_extra / z).real + 1.0
            assert 0.8 * 200 <= factor <= 1.2 * 200

    def test_default_init_has_big_first_norm(self):
        sc = build_case("I", 5, seed=8)
        assert sc.init == InitSpec(seed=8, norm_bound=1.0, overrides=((0, 10.0),))

    def test_load_scaling(self):
        sc = build_case("I", 4, seed=0, domination_ratio=100.0, load_pu=2.0)
        y_sum = sc.network.admittances(math.inf).sum()
        assert abs(sc.network.z_net) == pytest.approx(200.0 / abs(y_sum))

    def test_load_angle(self):
        sc = build_case("I", 4, seed=0, load_angle=math.pi / 4)
        z = sc.network.z_net
        assert math.atan2(z.imag, z.real) == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("case,n", [("I", 1), ("II", 3), ("II", 2)])
    def test_invalid_n(self, case, n):
        with pytest.raises(ValueError, match="n >="):
            build_case(case, n, seed=0)

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="case"):
            build_case("III", 4, seed=0)

    def test_load_validation(self):
        with pytest.raises(ValueError, match="load_angle"):
            build_case("I", 4, seed=0, load_angle=2.0)
        with pytest.raises(ValueError, match="domination_ratio"):
            build_case("I", 4, seed=0, domination_ratio=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("knob", ["load_pu", "load_angle",
                                      "domination_ratio", "zt_multiplier"])
    def test_non_finite_knob_names_it(self, knob, value):
        with pytest.raises(ValueError, match=f"^{knob} must be"):
            build_case("II", 4, 0, **{knob: value})

    def test_negative_seed_before_jitter_draw(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            build_case("II", 4, -1, zt_jitter=True)


class TestSyncError:
    def test_identical_states_zero(self):
        t = np.arange(4) * 1e-4
        x = np.tile([0.3 + 0.4j, 0.3 + 0.4j], (4, 1))
        assert np.all(sync_error(fake_traj(t, x)) == 0.0)

    def test_orthogonal_pair(self):
        t = np.array([0.0])
        x = np.array([[1.0 + 0j, 1j]])
        assert sync_error(fake_traj(t, x))[0] == pytest.approx(math.sqrt(2))

    def test_max_over_pairs(self):
        t = np.array([0.0])
        x = np.array([[0j, 1.0 + 0j, 3.0 + 0j]])
        assert sync_error(fake_traj(t, x))[0] == 3.0

    @pytest.mark.parametrize("n", [2, 3, 17])
    def test_equals_loop_over_pairs(self, n):
        rng = np.random.default_rng(n)
        s = 40
        x = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        x[::3, 0] = x[::3, -1]                   # a tied pair
        x[5] = 0.25 - 0.5j                       # all states equal
        x[7] = np.where(np.arange(n) % 2, 1.0, -1.0)   # many pairs tie at 2
        assert np.array_equal(sync_error(fake_traj(np.arange(s) * 1e-4, x)),
                              pairwise_max_distance(x))

    # a small pool of parts makes duplicate points and ties common
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, math.inf,
                                       -math.inf]),
                      st.floats(-1e3, 1e3))

    @settings(max_examples=300, deadline=None)
    @given(arrays(complex, st.tuples(st.integers(1, 5), st.integers(1, 6)),
                  elements=st.builds(complex, parts, parts)))
    @example(np.array([[math.inf + 0j], [-0.0 + 0j]]))
    @example(np.array([[0.0 + 0j, -0.0 - 0j], [math.inf, math.inf],
                       [1.0 - 2.5j, 1.0 - 2.5j]]))
    def test_equals_all_ordered_pairs_oracle(self, x):
        # bit for bit, NaN distances (inf - inf) included
        with np.errstate(invalid="ignore"):
            got = sync_error(fake_traj(np.arange(len(x)) * 1e-4, x))
            want = pairwise_max_distance(x)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    @st.composite
    def screen_row(draw, n):
        """One row of n states of a kind built to defeat the screen's
        bound: duplicates, 1 + k*2**-52 lattices, co-circular and collinear
        sets, one far outlier, non-finite states, at scales from subnormal
        to 1e308."""
        kind = draw(st.sampled_from(["lattice", "duplicates", "circle",
                                     "line", "outlier", "non-finite"]))
        scale = draw(st.sampled_from([1.0, 2.0 ** -1074, 1e-310, 1e-300,
                                      1e300, 1e308]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "lattice":
            k = rng.integers(0, draw(st.integers(1, 4)), (2, n))
            x = (1.0 + k[0] * 2.0 ** -52) + 1j * (1.0 + k[1] * 2.0 ** -52)
            if scale < 1e-300:
                x = k[0] + 1j * k[1]      # subnormal lattices in 2**-1074
        elif kind == "duplicates":
            pool = rng.standard_normal(draw(st.integers(1, 5))) + 1j
            x = pool[rng.integers(0, len(pool), n)]
        elif kind == "circle":      # with antipodal pairs
            quarter = rng.integers(0, 4, n) * (np.pi / 2)
            x = np.exp(1j * np.where(rng.random(n) < 0.5, quarter,
                                     rng.uniform(0, 2 * np.pi, n)))
            x[1::2] = -x[:n // 2 * 2:2]
        elif kind == "line":
            x = (0.3 - 0.7j) + (1.0 + 2.0j) * rng.integers(-3, 4, n)
        elif kind == "outlier":
            x = 1.0 + 1e-9 * rng.standard_normal(n) + 0j
            x[rng.integers(0, n)] = 1e6 - 3e6j
        else:
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            bad = rng.integers(0, n, draw(st.integers(1, 3)))
            x.real[bad] = rng.choice([np.inf, -np.inf, np.nan], len(bad))
            x.imag[bad[::2]] = rng.choice([np.inf, np.nan], len(bad[::2]))
        out = np.empty(n, complex)      # inf * (0 + 0j) would give NaN
        with np.errstate(over="ignore"):
            out.real, out.imag = x.real * scale, x.imag * scale
        return out

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_screen_equals_all_pairs(self, data):
        # bit for bit against the full comparison, from the screen's
        # crossover up to three times it, rows of every kind and one
        # all-equal row in one trajectory
        n = data.draw(st.integers(scenarios._SCREEN_MIN_N,
                                  3 * scenarios._SCREEN_MIN_N))
        rows = data.draw(st.lists(self.screen_row(n), min_size=1,
                                  max_size=4))
        x = np.array(rows + [np.full(n, 0.5j)])
        with np.errstate(all="ignore"):
            got = sync_error(fake_traj(np.arange(len(x)) * 1e-4, x))
            want = all_pairs_max_distance(x)
        assert got.tobytes() == want.tobytes()

    def test_screen_on_case2_n200(self, monkeypatch):
        # a real run, bit for bit, with a small share of the pairs compared
        traj = simulate(build_case("II", 200, seed=3, t_end=0.1))
        compare = scenarios._max_pair_distance
        pairs = []

        def counting(xt):
            pairs.append(len(xt) * (len(xt) - 1) // 2 * xt.shape[1])
            return compare(xt)
        monkeypatch.setattr(scenarios, "_max_pair_distance", counting)
        got = sync_error(traj)
        assert got.tobytes() == all_pairs_max_distance(traj.x).tobytes()
        assert sum(pairs) < 0.05 * 200 * 199 // 2 * len(traj.t)

    def test_memory_linear_in_inverters(self):
        # the pairwise (S, N, N) tensor would take ~86 MB here
        s, n = 1001, 60
        rng = np.random.default_rng(0)
        traj = fake_traj(np.arange(s) * 1e-4,
                         rng.standard_normal((s, n)) + 0j)
        tracemalloc.start()
        try:
            sync_error(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("n", [4, 60])
    def test_memory_independent_of_steps(self, n):
        # beyond the (S,) series it returns, sync_error holds one block of
        # steps at a time, so eight times the steps take the same memory
        block = scenarios._STEP_BLOCK
        rng = np.random.default_rng(n)
        peaks = []
        for s in (block, 8 * block):
            traj = fake_traj(np.arange(s) * 1e-4,
                             rng.standard_normal((s, n)) + 1j)
            tracemalloc.start()
            try:
                series = sync_error(traj)
                peaks.append(tracemalloc.get_traced_memory()[1]
                             - series.nbytes)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks

    @pytest.mark.parametrize("n", [3, scenarios._SCREEN_MIN_N])
    @pytest.mark.parametrize("s", [3, 4, 5, 17])
    def test_block_boundaries(self, monkeypatch, n, s):
        # blocks of 4 steps, the last one of a single step at s = 17, with
        # NaN, inf and all-equal rows on either side of the boundaries, bit
        # for bit against all pairs
        monkeypatch.setattr(scenarios, "_STEP_BLOCK", 4)
        rng = np.random.default_rng(s)
        x = rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))
        equal, nan, inf = [1, 3, 8, 16], [4, 11, 15], [2, 7, 12, 15]
        for row in range(s):
            if row in equal:
                x[row] = 0.5 - 0.5j
            if row in nan:
                x[row, row % n] = complex(np.nan, 1.0)
            if row in inf:
                x[row, (row + 1) % n] = complex(-np.inf, 0.0)
        with np.errstate(all="ignore"):
            got = sync_error(fake_traj(np.arange(s) * 1e-4, x))
            want = all_pairs_max_distance(x)
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[[r for r in nan if r < s]]).all()


class TestSyncTime:
    t = np.linspace(0, 1, 11)

    def test_decaying(self):
        series = np.array([1.0, 0.5, 0.2, 0.09, 0.04, 2e-3, 8e-4, 5e-4,
                           3e-4, 2e-4, 1e-4])
        assert sync_time(self.t, series, 1e-3) == pytest.approx(0.6)

    def test_never(self):
        assert sync_time(self.t, np.full(11, 0.5), 1e-3) is None

    def test_dip_and_recover_not_counted(self):
        series = np.array([1.0, 1e-5, 1.0, 1e-5, 1e-5, 1e-5, 1e-5, 1e-5,
                           1e-5, 1e-5, 1e-5])
        assert sync_time(self.t, series, 1e-3) == pytest.approx(0.3)

    def test_synced_from_start(self):
        assert sync_time(self.t, np.full(11, 1e-6), 1e-3) == 0.0


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.arange(0, 1.0, 1e-3)
        rate = fit_decay_rate(t, np.exp(-5.0 * t))
        assert rate == pytest.approx(5.0, abs=1e-6)

    def test_constant_series(self):
        t = np.linspace(0, 1, 50)
        assert fit_decay_rate(t, np.full(50, 0.7)) == pytest.approx(0.0, abs=1e-9)

    def test_nonpositive_excluded(self):
        t = np.linspace(0, 1, 101)
        series = np.exp(-3.0 * t)
        series[::7] = 0.0
        assert fit_decay_rate(t, series) == pytest.approx(3.0, abs=1e-6)

    def test_too_few_points(self):
        t = np.linspace(0, 1, 10)
        series = np.zeros(10)
        series[:3] = 1.0
        with pytest.raises(ValueError, match="4"):
            fit_decay_rate(t, series)

    def test_window(self):
        t = np.linspace(0, 2, 201)
        series = np.where(t < 1.0, np.exp(-2.0 * t), np.exp(-2.0) * np.exp(-8.0 * (t - 1.0)))
        assert fit_decay_rate(t, series, t_start=1.0) == pytest.approx(8.0, rel=1e-6)


class TestAmplitude:
    def test_zero_trajectory(self):
        sc = build_case("I", 2, seed=0, t_end=0.01)
        traj = simulate(sc, x0=np.zeros(2, complex))
        assert build_metrics(traj, window=0.005).amplitude == 0.0

    def test_open_loop_limit_cycle(self):
        params = (InverterParams(kappa=0.0),)
        network = NetworkConfig((BranchParams(r_f=0.75 * 0.1153,
                                              l_f=0.75 * 1.05e-3),),
                                1e6 + 0j, omega_eval=W0)
        sc = Scenario(params=params, network=network, t_end=2.0, dt=2e-4,
                      init=InitSpec(seed=0, norm_bound=0.1))
        traj = simulate(sc)
        assert build_metrics(traj).amplitude == pytest.approx(1.0, abs=1e-6)

    def test_rotation_invariance(self):
        t = np.arange(6) * 1e-4
        x = (0.5 + 0.1j) * np.exp(1j * W0 * t)[:, None] * np.ones((6, 2))
        traj = fake_traj(t, x)
        rotated = fake_traj(t, x * np.exp(1j * 1.1))
        # the window must be shorter than the 5e-4 s trajectory
        assert build_metrics(traj, window=4e-4).amplitude == pytest.approx(
            build_metrics(rotated, window=4e-4).amplitude, rel=1e-14)


class TestSharingReport:
    def test_identical_branches_unit_ratios(self):
        sc = build_case("I", 4, seed=2, t_end=0.5)
        rep = build_metrics(simulate(sc))
        assert rep.synchronized
        y = np.abs(sc.network.admittances(math.inf))
        assert y / y[0] == pytest.approx(np.ones(4), rel=1e-12)
        for r in rep.sharing_ratios:
            assert r == pytest.approx(1.0, rel=1e-9)
        assert rep.sharing_ratio_error < 1e-9

    def test_admittance_ratio_two_branches(self):
        # branch 2 has twice the impedance, so half the current
        network = NetworkConfig((BranchParams(r_v=1.0, x_v=0.5),
                                 BranchParams(r_v=2.0, x_v=1.0)),
                                300.0 + 0j, omega_eval=W0)
        sc = Scenario(params=(P, P), network=network, t_end=0.5, dt=1e-4,
                      init=InitSpec(seed=6))
        rep = build_metrics(simulate(sc))
        assert rep.synchronized
        assert rep.current_amplitudes[0] / rep.current_amplitudes[1] == \
            pytest.approx(2.0, rel=1e-6)
        assert rep.sharing_ratios[1] == pytest.approx(0.5, rel=1e-6)

    def test_not_synchronized_flag(self):
        sc = build_case("I", 3, seed=1, t_end=0.01)
        rep = build_metrics(simulate(sc), window=0.005)
        assert not rep.synchronized

    def test_window_too_long(self):
        sc = build_case("I", 3, seed=1, t_end=0.01)
        with pytest.raises(ValueError, match="window"):
            build_metrics(simulate(sc), window=0.02)

    @pytest.mark.parametrize("window", [-0.005, 0.0, math.nan, math.inf])
    def test_window_not_positive_finite(self, window):
        sc = build_case("I", 3, seed=1, t_end=0.01)
        with pytest.raises(ValueError, match="window must be finite and > 0"):
            build_metrics(simulate(sc), window=window)


@pytest.fixture(scope="module")
def traj():
    return simulate(build_case("II", 4, seed=7, t_end=1.0))


class TestCaseIIDeskRun:
    def test_synchronizes(self, traj):
        series = sync_error(traj)
        t_sync = sync_time(traj.t, series)
        assert t_sync is not None and t_sync < 0.1
        assert series[traj.t >= t_sync].max() < 1e-3

    def test_sharing_matches_groups(self, traj):
        rep = build_metrics(traj)
        assert rep.synchronized
        assert rep.sharing_ratio_error < 1e-6
        assert rep.sharing_ratios[1] == pytest.approx(20.0 / 10.5, rel=1e-6)

    def test_amplitude_matches_particular_solution(self, traj):
        r_star = predicted_r_star(traj.scenario)
        assert not isinstance(r_star, OscillatorDeath)
        assert build_metrics(traj).amplitude == pytest.approx(r_star, rel=1e-3)

    def test_metrics_compute_sync_error_once(self, traj, monkeypatch):
        calls = []

        def counting(tr):
            calls.append(tr)
            return sync_error(tr)
        monkeypatch.setattr(scenarios, "sync_error", counting)
        m = build_metrics(traj)
        assert len(calls) == 1
        tail = m.sync_error_series[traj.t >= traj.t[-1] - m.window]
        assert m.synchronized == bool((tail < m.sync_threshold).all())
        assert m.separation == float(tail.mean())

    def test_metrics_bundle(self, traj):
        m = build_metrics(traj)
        assert m.synchronized
        assert m.sync_time == pytest.approx(sync_time(traj.t, m.sync_error_series))
        assert m.fitted_rate is not None
        c = P.kappa_beta - P.xi * P.x_nom_sq2
        assert m.fitted_rate >= 0.9 * c

    def test_amplitude_seed_independent(self, traj):
        other = simulate(build_case("II", 4, seed=8, t_end=1.0))
        a = build_metrics(traj).amplitude
        b = build_metrics(other).amplitude
        assert a == pytest.approx(b, rel=1e-4)

    def test_separation_helper(self, traj):
        assert build_metrics(traj).separation < 1e-9


class TestKshDeskValue:
    def test_case2_full_scale_k_sh(self):
        # no reference value exists; check the formula against config pieces
        sc = build_case("II", 33, seed=0)
        ks = k_sh(sc.network, math.inf)
        y = sc.network.admittances(math.inf)
        want = y.sum() / (y.sum() + 1 / sc.network.z_net)
        assert ks == pytest.approx(want, rel=1e-12)
        assert 0.0 < abs(ks) < 1.0
        assert ks.real > 0.999
