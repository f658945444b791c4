import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sampled_states
from dvocsim import certificates
from dvocsim.certificates import (NotContractingError, certificate_margin,
                                  envelope_check, error_ball_radius,
                                  sampled_lambda_check)
from dvocsim.oscillator import InverterParams

P = InverterParams()
C = P.beta - 10.0       # section-IV margin with kappa = 1
B = certificates._SAMPLE_BLOCK


class TestMargin:
    def test_reference_parameters(self):
        report = certificate_margin(P)
        assert report.passed
        assert report.margin_c == pytest.approx(553.38, abs=0.01)
        assert report.margin_c > 543.0
        assert report.params == P

    def test_open_loop_fails(self):
        report = certificate_margin(InverterParams(kappa=0.0))
        assert not report.passed
        assert report.margin_c == pytest.approx(-10.0)

    def test_marginal_pass(self):
        report = certificate_margin(InverterParams(kappa=0.0178))
        assert report.passed
        assert report.margin_c == pytest.approx(0.028, abs=1e-3)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=0.01, max_value=10.0))
    def test_scaling_invariance(self, scale, kappa):
        base = InverterParams(kappa=kappa)
        scaled = InverterParams(kappa=kappa / scale, beta=P.beta * scale)
        a = certificate_margin(base)
        b = certificate_margin(scaled)
        assert b.margin_c == pytest.approx(a.margin_c, rel=1e-9, abs=1e-9)
        assert a.passed == b.passed


class TestSampledLambda:
    def test_bound_holds(self):
        out = sampled_lambda_check(P, radius=2.0, n_samples=1000, seed=3)
        assert out.ok
        assert out.max_found <= -C + 1e-9

    def test_origin_always_included(self):
        # the origin attains the analytic bound exactly
        out = sampled_lambda_check(P, radius=0.5, n_samples=1, seed=0)
        assert out.max_found == pytest.approx(-C, abs=1e-12)

    def test_open_loop_positive_lambda(self):
        out = sampled_lambda_check(InverterParams(kappa=0.0), radius=0.1,
                                   n_samples=200, seed=1)
        assert out.max_found > 0.0
        assert out.ok      # the sampled values still respect the bound

    def test_reproducible(self):
        a = sampled_lambda_check(P, 2.0, 64, seed=42)
        b = sampled_lambda_check(P, 2.0, 64, seed=42)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError, match="radius"):
            sampled_lambda_check(P, 0.0, 10, 0)
        with pytest.raises(ValueError, match="n_samples"):
            sampled_lambda_check(P, 1.0, 0, 0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            sampled_lambda_check(P, 1.0, 10, -1)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, 1e200])
    def test_non_finite_radius(self, radius):
        # at 1e200, |x|^2 overflows and the sampled eigenvalue would be NaN
        with pytest.raises(ValueError, match="radius must be finite"):
            sampled_lambda_check(P, radius, 10, 0)

    def test_largest_radius_before_overflow(self):
        # at xi = 10, sym_lambda_max's largest intermediate ~4*xi*r^2 is
        # finite at r = 2e153 and overflows at r = 3e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sampled_lambda_check(P, 2e153, 10, 0)
        assert out.ok and math.isfinite(out.max_found)
        with pytest.raises(ValueError, match=r"4\*xi\*radius\^2 finite"):
            sampled_lambda_check(P, 3e153, 10, 0)

    def test_constant_memory(self):
        # the states go through in blocks, so the peak is one block's,
        # whatever the sample count
        peaks = []
        for n in (10**5, 10**6):
            tracemalloc.start()
            try:
                sampled_lambda_check(P, 2.0, n, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
        assert max(peaks) < 2e6

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [B - 2, B - 1, B, B + 1, 3 * B + 5])
    def test_blocks_are_one_draw(self, monkeypatch, n, seed):
        # the blocks hold, in order, the states of one draw of all of them
        calls = []
        original = certificates.sym_lambda_max

        def capturing(x, params):
            calls.append(x.copy())
            return original(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", capturing)
        out = sampled_lambda_check(P, 2.0, n, seed)
        states = sampled_states(2.0, n, seed)
        assert len(calls) == -(-(n + 1) // B)
        assert all(len(x) <= B for x in calls)
        assert np.concatenate(calls).tobytes() == states.tobytes()
        assert out.max_found == original(states, P).max()

    @pytest.mark.parametrize("offset", [1, 10**12])
    def test_sample_budget(self, offset):
        # refused before the samples are drawn: nothing near their size is
        # allocated
        n = certificates._MAX_SAMPLES + offset
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_samples must be 1 to "
                               f"{certificates._MAX_SAMPLES:,} "):
                sampled_lambda_check(P, 2.0, n, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_max_is_written_out_bound(self):
        out = sampled_lambda_check(P, 2.0, 5000, seed=1)
        assert out.max_found == P.xi * P.x_nom_sq2 - P.kappa_beta

    def test_one_array_pass(self, monkeypatch):
        calls = []
        original = certificates.sym_lambda_max

        def counting(x, params):
            calls.append(x)
            return original(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", counting)
        sampled_lambda_check(P, 2.0, 300, seed=4)
        assert len(calls) == 1
        assert calls[0].shape == (301,)
        assert calls[0][0] == 0


class TestErrorBall:
    def test_zero_disturbance(self):
        assert error_ball_radius(0.0, C) == 0.0

    def test_unit_ratio(self):
        assert error_ball_radius(C, C) == 1.0

    def test_small_disturbance(self):
        assert error_ball_radius(5.0, C) == pytest.approx(0.009036, rel=1e-3)
        assert error_ball_radius(5.0, C) == 5.0 / C

    def test_not_contracting(self):
        with pytest.raises(NotContractingError):
            error_ball_radius(1.0, 0.0)
        with pytest.raises(ValueError, match="d_bar"):
            error_ball_radius(-1.0, C)

    @pytest.mark.parametrize("d_bar", [math.nan, math.inf])
    def test_non_finite_disturbance(self, d_bar):
        with pytest.raises(ValueError, match="d_bar must be finite"):
            error_ball_radius(d_bar, C)


class TestEnvelope:
    t = np.linspace(0.0, 1.0, 101)

    def test_identical_trajectories(self):
        x = np.exp(1j * self.t)
        out = envelope_check(self.t, x, self.t, x, c=5.0)
        assert out.ok
        assert out.first_violation_time is None

    def test_faster_than_envelope(self):
        x_i = np.exp(-2.0 * self.t) + 0j
        x_j = np.zeros_like(x_i)
        assert envelope_check(self.t, x_i, self.t, x_j, c=1.0).ok

    def test_slower_than_envelope(self):
        # e^{-2t} > e^{-3t} for every t > 0, so with zero slack the first
        # violation is the first step after t = 0
        x_i = np.exp(-2.0 * self.t) + 0j
        x_j = np.zeros_like(x_i)
        out = envelope_check(self.t, x_i, self.t, x_j, c=3.0, slack=0.0)
        assert not out.ok
        assert out.first_violation_time == pytest.approx(self.t[1])

    def test_round_off_floor(self):
        # synchronized states keep a ~1e-16 pu round-off distance while the
        # envelope decays below it; only a real separation violates
        x_i = np.exp(-50.0 * self.t) + 0j
        x_j = np.zeros_like(x_i)
        x_i[80:] = 0.25 + 1.1e-16        # envelope at t = 0.8 is ~4e-18
        x_j[80:] = 0.25
        assert envelope_check(self.t, x_i, self.t, x_j, c=50.0).ok
        x_i[90] += 1e-9
        out = envelope_check(self.t, x_i, self.t, x_j, c=50.0)
        assert not out.ok
        assert out.first_violation_time == pytest.approx(self.t[90])

    def test_mismatched_grids(self):
        x = np.exp(-self.t) + 0j
        with pytest.raises(ValueError, match="grid"):
            envelope_check(self.t, x, self.t + 1e-3, x, c=1.0)

    def test_nonuniform_grid(self):
        t = np.array([0.0, 0.1, 0.3, 0.35])
        x = np.exp(-t) + 0j
        with pytest.raises(ValueError, match="uniform"):
            envelope_check(t, x, t, x, c=1.0)

    def test_length_mismatch(self):
        x = np.exp(-self.t) + 0j
        with pytest.raises(ValueError, match="length"):
            envelope_check(self.t, x[:-1], self.t, x, c=1.0)

    def test_empty_series(self):
        empty = np.array([])
        with pytest.raises(ValueError, match="the series are empty"):
            envelope_check(empty, empty + 0j, empty, empty + 0j, c=1.0)

    def test_needs_positive_rate(self):
        x = np.exp(-self.t) + 0j
        with pytest.raises(NotContractingError):
            envelope_check(self.t, x, self.t, x, c=0.0)

    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.01, max_value=0.2))
    @settings(max_examples=25, deadline=None)
    def test_envelope_boundary(self, rate, slack):
        # decay exactly at the stated rate sits inside the slackened envelope
        x_i = np.exp(-rate * self.t) + 0j
        x_j = np.zeros_like(x_i)
        assert envelope_check(self.t, x_i, self.t, x_j, c=rate, slack=slack).ok

    def test_all_pairs_of_contracting_run(self):
        # every inverter pair of an undisturbed run obeys the rate-c envelope
        from itertools import combinations
        from dvocsim.engine import simulate
        from dvocsim.scenarios import build_case
        scenario = build_case("I", 4, seed=5, t_end=0.05, dt=1e-4)
        traj = simulate(scenario)
        c = certificate_margin(scenario.params[0]).margin_c
        for i, j in combinations(range(4), 2):
            out = envelope_check(traj.t, traj.x[:, i], traj.t, traj.x[:, j],
                                 c=c, slack=0.05)
            assert out.ok, (i, j, out.first_violation_time)
