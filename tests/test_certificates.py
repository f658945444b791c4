import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import sampled_states
from dvocsim import certificates
from dvocsim.certificates import (NotContractingError, certificate_margin,
                                  envelope_check, error_ball_radius,
                                  sampled_lambda_check)
from dvocsim.oscillator import InverterParams

P = InverterParams()
C = P.beta - 10.0       # section-IV margin with kappa = 1
B = certificates._SAMPLE_BLOCK
CPUS = (sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else [])


def _affinity():
    return (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else None)


def _bounded(call, timeout=60.0):
    """Run ``call()`` on a thread of its own, which must end within
    ``timeout`` seconds; returns the exception it raised (None if it
    returned) and that thread's affinity mask before and after the call.
    No thread may be left running once it has ended."""
    threads = threading.active_count()
    seen = {"error": None}

    def run():
        seen["before"] = _affinity()
        try:
            call()
        except BaseException as err:
            seen["error"] = err
        seen["after"] = _affinity()
    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "the call did not return"
    assert threading.active_count() == threads
    return seen["error"], seen["before"], seen["after"]


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
        assert type(out) is float
        assert out <= -C + 1e-9

    def test_origin_always_included(self):
        # the origin attains the analytic bound exactly
        out = sampled_lambda_check(P, radius=0.5, n_samples=1, seed=0)
        assert out == pytest.approx(-C, abs=1e-12)

    def test_open_loop_positive_lambda(self):
        params = InverterParams(kappa=0.0)
        out = sampled_lambda_check(params, radius=0.1, n_samples=200, seed=1)
        assert out > 0.0
        # the sampled values still respect the bound -c
        assert out <= -certificate_margin(params).margin_c + 1e-9

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
        assert math.isfinite(out) and out <= -C + 1e-9
        with pytest.raises(ValueError, match=r"4\*xi\*radius\^2 finite"):
            sampled_lambda_check(P, 3e153, 10, 0)

    def test_constant_memory(self):
        # the states go through in blocks, so the peak is one block's,
        # whatever the sample count; one untraced call first, so that
        # numpy's one-off first-call allocations fall in neither peak
        sampled_lambda_check(P, 2.0, 10**5, 0)
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
    @pytest.mark.parametrize("n", [B - 2, B - 1, B, B + 1, 3 * B + 5,
                                   2 * B, 4 * B - 1])
    def test_blocks_are_one_draw(self, monkeypatch, n, seed):
        # the blocks hold, in order, the states of one draw of all of them;
        # after block 0 the helper takes two blocks a call: at 2 * B the
        # last group's second block holds one state, at 4 * B - 1 the last
        # group is one whole block
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
        assert out == original(states, P).max()

    @pytest.mark.parametrize("kappa", [1.0, 0.0])
    @pytest.mark.parametrize("radius", [0.5, 2.0, 2e153])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 3 * B + 5])
    def test_every_sample_matches_oracle(self, monkeypatch, n, seed, radius,
                                         kappa):
        # each block's values have the bits of the allocating expressions at
        # the states of one draw; 2e153 is the largest radius of
        # test_largest_radius_before_overflow
        params = InverterParams(kappa=kappa)
        blocks, values = [], []
        original = certificates.sym_lambda_max

        def capturing(x, params):
            lam = original(x, params)
            blocks.append(x.copy())
            values.append(lam.copy())
            return lam
        monkeypatch.setattr(certificates, "sym_lambda_max", capturing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sampled_lambda_check(params, radius, n, seed)
        states = sampled_states(radius, n, seed)
        want = oracles.sym_lambda_max(states, params)
        assert np.concatenate(blocks).tobytes() == states.tobytes()
        assert np.concatenate(values).tobytes() == want.tobytes()
        assert np.float64(out).tobytes() == want.max().tobytes()

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
        assert out == P.xi * P.x_nom_sq2 - P.kappa_beta

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


class TestSampledPipeline:
    """The helper thread that writes the cos and sin of group k + 1 while
    the caller scales and evaluates group k, where two CPUs are usable."""

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_evaluation_fails(self, monkeypatch, error):
        # the helper is stopped and joined while it waits for a buffer
        original = certificates.sym_lambda_max
        calls = []

        def failing(x, params):
            calls.append(1)
            if len(calls) == 3:
                raise error("block 3")
            return original(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", failing)
        err, before, after = _bounded(
            lambda: sampled_lambda_check(P, 2.0, 10 * B, 0))
        assert type(err) is error and str(err) == "block 3"
        assert len(calls) == 3
        assert after == before

    def test_helper_fails(self, monkeypatch):
        # an error in a group's cos and sin is raised in the caller's
        # thread: the third call, group 2 (blocks 3 and 4), fails once
        # blocks 0-2 are evaluated, on one CPU as on two
        original = certificates._polar
        polar_on = []

        def failing(drawn, theta):
            polar_on.append(threading.get_ident())
            if len(polar_on) == 3:
                raise ZeroDivisionError("group 2")
            original(drawn, theta)
        monkeypatch.setattr(certificates, "_polar", failing)
        callers = []
        original_lambda = certificates.sym_lambda_max

        def evaluating(x, params):
            callers.append(threading.get_ident())
            return original_lambda(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", evaluating)
        err, before, after = _bounded(
            lambda: sampled_lambda_check(P, 2.0, 10 * B, 0))
        assert type(err) is ZeroDivisionError and str(err) == "group 2"
        assert len(polar_on) == 3 and len(callers) == 3
        assert after == before
        on_caller = [ident == callers[0] for ident in polar_on]
        if len(CPUS) > 1:       # block 0's on the caller, the groups' not
            assert sorted(on_caller) == [False, False, True]
            assert not on_caller[2]
        else:
            assert on_caller == [True] * 3

    @pytest.mark.skipif(len(CPUS) < 2, reason="fewer than two usable CPUs")
    def test_block_zero_needs_no_helper(self, monkeypatch):
        # the helper's cos and sin are held until block 0 has been
        # evaluated: a caller that waited for the helper before block 0
        # would leave a hold timed out
        evaluated = threading.Event()
        caller, held = [], []
        original = certificates._polar

        def holding(drawn, theta):
            if threading.get_ident() != caller[0]:
                held.append(evaluated.wait(5.0))
            original(drawn, theta)
        monkeypatch.setattr(certificates, "_polar", holding)
        original_lambda = certificates.sym_lambda_max

        def evaluating(x, params):
            evaluated.set()
            return original_lambda(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", evaluating)

        def call():
            caller.append(threading.get_ident())
            out = sampled_lambda_check(P, 2.0, 3 * B + 5, 1)
            assert out == P.xi * P.x_nom_sq2 - P.kappa_beta
        err, before, after = _bounded(call)
        assert err is None and after == before
        assert held == [True, True]     # groups 1 (blocks 1, 2) and 2

    @pytest.mark.skipif(len(CPUS) < 2, reason="fewer than two usable CPUs")
    def test_affinity_left_alone(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        pins, threads, masks = [], [], []
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda *args: pins.append(args))
        original = certificates.sym_lambda_max

        def evaluating(x, params):
            threads.append(threading.active_count())
            masks.append(os.sched_getaffinity(0))
            return original(x, params)
        monkeypatch.setattr(certificates, "sym_lambda_max", evaluating)
        before = threading.active_count()
        out = sampled_lambda_check(P, 2.0, 3 * B + 5, 1)
        assert out == P.xi * P.x_nom_sq2 - P.kappa_beta
        assert threading.active_count() == before
        # the helper wrote cos and sin while the caller evaluated; it may
        # end once the caller has the last block
        assert threads[:3] == [before + 1] * 3 and len(threads) == 4
        assert masks == [mask] * 4
        assert pins == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_one_cpu(self, monkeypatch):
        # one usable CPU: the same bits, and no thread starts; 2 * B and
        # 4 * B - 1 end on a group of two blocks, the second of one state,
        # and on a group of one block
        original = certificates.sym_lambda_max
        for n in (3 * B + 5, 2 * B, 4 * B - 1):
            want = sampled_lambda_check(InverterParams(kappa=0.0), 2.0, n, 7)
            blocks, threads = [], []

            def capturing(x, params):
                blocks.append(x.copy())
                threads.append(threading.active_count())
                return original(x, params)
            monkeypatch.setattr(certificates, "sym_lambda_max", capturing)
            mask = os.sched_getaffinity(0)
            before = threading.active_count()
            os.sched_setaffinity(0, {CPUS[0]})
            try:
                out = sampled_lambda_check(InverterParams(kappa=0.0), 2.0,
                                           n, 7)
                assert os.sched_getaffinity(0) == {CPUS[0]}
            finally:
                os.sched_setaffinity(0, mask)
                monkeypatch.setattr(certificates, "sym_lambda_max", original)
            assert np.float64(out).tobytes() == np.float64(want).tobytes()
            assert threads == [before] * -(-(n + 1) // B)
            states = sampled_states(2.0, n, 7)
            assert np.concatenate(blocks).tobytes() == states.tobytes()

    def test_concurrent_callers(self, monkeypatch):
        # more callers than CPUs, each with its helper, switching threads
        # every microsecond: each caller's blocks are its own draw, none
        # refilled while it is evaluated
        original = certificates.sym_lambda_max
        blocks = {}

        def capturing(x, params):
            got = x.copy()
            lam = original(x, params)
            blocks.setdefault(threading.get_ident(), []).append(
                (got, x.copy()))
            return lam
        monkeypatch.setattr(certificates, "sym_lambda_max", capturing)
        seeds, drawn = range(4), {}

        def call(seed):
            sampled_lambda_check(P, 2.0, 5 * B + 3, seed)
            drawn[seed] = blocks.pop(threading.get_ident())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(seed,),
                                        daemon=True) for seed in seeds]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            states = sampled_states(2.0, 5 * B + 3, seed)
            got, after = (np.concatenate(x) for x in zip(*drawn[seed]))
            assert got.tobytes() == states.tobytes()
            assert after.tobytes() == states.tobytes()


class TestErrorBall:
    def test_zero_disturbance(self):
        assert error_ball_radius(0.0, C) == 0.0

    def test_unit_ratio(self):
        assert error_ball_radius(C, C) == 1.0

    def test_small_disturbance(self):
        assert error_ball_radius(5.0, C) == pytest.approx(0.009036, rel=1e-3)
        assert error_ball_radius(5.0, C) == 5.0 / C

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_not_contracting(self, c):
        with pytest.raises(NotContractingError):
            error_ball_radius(1.0, c)
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
        # e^{-2t} > 1.05*e^{-3t} once t > ln(1.05) = 0.0488, so the first
        # violation is the first grid step after it
        x_i = np.exp(-2.0 * self.t) + 0j
        x_j = np.zeros_like(x_i)
        out = envelope_check(self.t, x_i, self.t, x_j, c=3.0)
        assert not out.ok
        assert out.first_violation_time == pytest.approx(self.t[5])

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

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
    def test_needs_positive_rate(self, c):
        # the growing separation would pass against a NaN envelope
        x = np.exp(self.t) + 0j
        with pytest.raises(NotContractingError):
            envelope_check(self.t, x, self.t, np.zeros_like(x), c=c)

    @pytest.mark.filterwarnings("error")
    def test_infinite_rate_refused(self):
        # -inf*0.0 at the first grid time would make the envelope NaN, with
        # numpy's invalid-value warning, an error here
        x = np.exp(-self.t) + 0j
        with pytest.raises(ValueError, match="c=inf") as excinfo:
            envelope_check(self.t, x, self.t, np.zeros_like(x), c=math.inf)
        assert not isinstance(excinfo.value, NotContractingError)

    @given(st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=25, deadline=None)
    def test_envelope_boundary(self, rate):
        # decay exactly at the stated rate sits inside the slackened envelope
        x_i = np.exp(-rate * self.t) + 0j
        x_j = np.zeros_like(x_i)
        assert envelope_check(self.t, x_i, self.t, x_j, c=rate).ok

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
                                 c=c)
            assert out.ok, (i, j, out.first_violation_time)
