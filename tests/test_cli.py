import csv
import functools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dvocsim
from dvocsim import _csvtext, cli
from dvocsim.cli import (SQRT3_OVER_2, ScenarioError, apply_overrides,
                         build_parser, build_report, main, run,
                         scenario_from_dict, scenario_to_dict,
                         write_timeseries)
from dvocsim.certificates import SampledLambdaResult, certificate_margin
from dvocsim.engine import DisturbanceSpec, InitSpec, simulate
from dvocsim.scenarios import build_case, build_metrics


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@functools.lru_cache(maxsize=None)
def _trajectory(name):
    if name == "case2_partial_block":    # 2001 rows: ends on a partial block
        return simulate(build_case("II", 4, seed=7, t_end=0.2))
    if name == "four_rows":              # fewer blocks than CPUs
        return simulate(build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4))
    if name == "case2_n100":             # tiny currents in d.ddde-0x form
        return simulate(build_case("II", 100, seed=0, t_end=0.02))
    if name == "edge_values":            # values formatted by "%.17g" itself
        traj = simulate(build_case("II", 4, seed=7, t_end=0.2))
        edges = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e20)
        for k, v in enumerate(edges):
            row = 333 * k                # in several ranges of the writer
            traj.x[row, k % 4] = complex(v, -v)
            traj.currents[row, 1] = complex(v, 0.25)  # no inf - inf in i_b
            traj.currents[row + 1, 2] = complex(-0.5, v)
        return traj
    return simulate(scenario_from_dict(
        {"n": 1, "seed": 2, "t_end": 0.1,
         "branches": [{"r_f": 0.1, "l_f": 1e-3}],
         "network": {"z_net": [50.0, 0.0]}}))


@functools.lru_cache(maxsize=None)
def _per_value_csv(name):
    """The time series of ``_trajectory(name)`` as the writer must give it,
    one "%.17g" format call per value."""
    traj = _trajectory(name)

    def fmt(v):
        return format(float(v), ".17g")
    n = traj.n
    header = ["t"]
    header += [f"x_{ax}_{k}" for k in range(1, n + 1)
               for ax in ("alpha", "beta")]
    header += ["v_o_alpha", "v_o_beta"]
    header += [f"i_{ax}_{k}" for k in range(1, n + 1)
               for ax in ("alpha", "beta")]
    header += [f"i_{ph}_{k}" for k in range(1, n + 1)
               for ph in ("a", "b", "c")]
    cols = [traj.t]
    for k in range(n):
        cols += [traj.x[:, k].real, traj.x[:, k].imag]
    cols += [traj.v_o.real, traj.v_o.imag]
    for k in range(n):
        cols += [traj.currents[:, k].real, traj.currents[:, k].imag]
    for k in range(n):
        re, im = traj.currents[:, k].real, traj.currents[:, k].imag
        cols += [re, -0.5 * re + SQRT3_OVER_2 * im,
                 -0.5 * re - SQRT3_OVER_2 * im]
    return (",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in zip(*cols))).encode()


def count_forks(monkeypatch, cpus):
    """Make the writer see ``cpus`` usable CPUs; returns the list of forks
    it makes, which grows as it forks."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", fork)
    return forks


def fail_rows(monkeypatch, fails):
    """Make the writer raise on every range whose first row ``fails``."""
    real = cli._format_rows

    def format_rows(traj, start, stop, fh):
        if fails(start):
            raise RuntimeError(f"rows from {start}")
        real(traj, start, stop, fh)
    monkeypatch.setattr(cli, "_format_rows", format_rows)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLoadScenario:
    def test_minimal_case_file(self):
        sc = scenario_from_dict({"case": "I", "n": 4, "seed": 3})
        assert sc.n == 4
        assert sc.t_end == 2.0
        assert sc.dt == 1e-4
        assert sc.init.seed == 3
        assert sc.init.overrides == ((0, 10.0),)
        assert sc == build_case("I", 4, seed=3)

    def test_case_two_with_knobs(self):
        raw = {"case": "II", "n": 6, "seed": 1, "t_end": 1.0,
               "network": {"t_z": 0.2, "domination_ratio": 2000.0},
               "oscillator": {"kappa": 0.8}}
        sc = scenario_from_dict(raw)
        assert sc.network.t_z == 0.2
        assert sc.params[0].kappa == 0.8
        assert sc.t_end == 1.0

    def test_unknown_top_key(self):
        with pytest.raises(ScenarioError, match="'tend'"):
            scenario_from_dict({"case": "I", "n": 4, "seed": 0, "tend": 1.0})

    def test_unknown_nested_key(self):
        raw = {"case": "I", "n": 4, "seed": 0, "oscillator": {"xj": 1.0}}
        with pytest.raises(ScenarioError, match="'xj'"):
            scenario_from_dict(raw)

    def test_negative_xi_names_field(self):
        raw = {"case": "I", "n": 4, "seed": 0, "oscillator": {"xi": -1.0}}
        with pytest.raises(ValueError, match="xi"):
            scenario_from_dict(raw)

    def test_case_forbids_branches(self):
        raw = {"case": "I", "n": 2, "seed": 0,
               "branches": [{"r_v": 1.0}, {"r_v": 1.0}]}
        with pytest.raises(ScenarioError, match="branches"):
            scenario_from_dict(raw)

    def test_missing_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict({"case": "I", "n": 4})

    def test_explicit_form(self):
        raw = {"n": 2, "seed": 5, "t_end": 0.5, "dt": 1e-4,
               "branches": [{"r_v": 1.0}, {"r_v": 2.0, "z_extra": [3.0, 1.0]}],
               "network": {"z_net": [100.0, 0.0], "t_z": 0.1},
               "init": {"norm_bound": 0.5, "overrides": {"2": 4.0}},
               "disturbance": {"inverter": 1, "amplitude": 2.0,
                               "waveform": "constant"}}
        sc = scenario_from_dict(raw)
        assert sc.n == 2
        assert sc.network.z_net == 100.0 + 0j
        assert sc.network.branches[1].z_extra == 3.0 + 1.0j
        assert sc.init.overrides == ((1, 4.0),)
        assert sc.disturbance == DisturbanceSpec(0, 2.0, "constant")

    def test_explicit_needs_network(self):
        raw = {"n": 1, "seed": 0, "branches": [{"r_v": 1.0}]}
        with pytest.raises(ScenarioError, match="network"):
            scenario_from_dict(raw)

    def test_branch_count_mismatch(self):
        raw = {"n": 3, "seed": 0, "branches": [{"r_v": 1.0}],
               "network": {"z_net": [1.0, 0.0]}}
        with pytest.raises(ScenarioError, match="branches"):
            scenario_from_dict(raw)

    def test_override_out_of_range(self):
        raw = {"case": "I", "n": 2, "seed": 0,
               "init": {"overrides": {"9": 1.0}}}
        with pytest.raises(ScenarioError, match="9"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("key", ["1_0", "\u0663", "02", " 2", "+2"],
                             ids=["underscore", "arabic-indic", "leading-zero",
                                  "space", "plus"])
    def test_override_key_not_canonical(self, key):
        # int() reads each of these as an inverter number
        raw = {"case": "I", "n": 12, "seed": 0,
               "init": {"overrides": {"2": 1.0, key: 3.0}}}
        with pytest.raises(ScenarioError, match=f"init override key "
                           f"'{re.escape(key)}' is not an inverter number"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("text, key", [
        ('{"case": "I", "n": 4, "n": 100, "seed": 0, "t_end": 0.01}', "n"),
        ('{"case": "I", "n": 2, "seed": 0, "init": {"overrides": '
         '{"2": 1.0, "2": 3.0}}}', "2"),
    ], ids=["n", "init.overrides"])
    def test_duplicate_key(self, tmp_path, capsys, text, key):
        path = tmp_path / "dup.json"
        path.write_text(text)
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: duplicate key '{key}' in a JSON object\n"
        assert not out.exists()

    def test_duplicate_key_in_set_value(self):
        with pytest.raises(ScenarioError, match="duplicate key 't_z'"):
            apply_overrides({}, ['network={"t_z": 0.1, "t_z": 0.2}'])

    def test_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "is not valid JSON" in err

    @pytest.mark.parametrize("constant",
                             ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_constant(self, tmp_path, capsys, constant):
        path = tmp_path / "nan.json"
        path.write_text('{"case": "I", "n": 2, "seed": 0, '
                        f'"oscillator": {{"xi": {constant}}}}}')
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{constant} is not a finite number" in err

    def test_boolean_override_norm(self):
        raw = {"case": "I", "n": 2, "seed": 0,
               "init": {"overrides": {"1": True}}}
        with pytest.raises(ScenarioError, match="override for inverter 1"):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("z_net, z_extra, field", [
        (True, [0.0, 0.0], "network.z_net"),
        ([100.0, False], [0.0, 0.0], "network.z_net"),
        ([100.0, 0.0], [True, 0.0], r"branches\[1\].z_extra"),
    ])
    def test_boolean_complex(self, z_net, z_extra, field):
        raw = {"n": 1, "seed": 0, "branches": [{"r_v": 1.0,
                                                "z_extra": z_extra}],
               "network": {"z_net": z_net}}
        with pytest.raises(ScenarioError, match=field):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("section, value, where", [
        ("init", 5, "init"),
        ("oscillator", [1], "oscillator"),
        ("network", 3, "network"),
        ("init", {"overrides": [1]}, "init.overrides"),
        ("disturbance", [1], "disturbance"),
    ], ids=["init", "oscillator", "network", "init.overrides", "disturbance"])
    def test_section_not_object(self, tmp_path, capsys, section, value,
                                where):
        raw = {"case": "I", "n": 2, "seed": 0, section: value}
        with pytest.raises(ScenarioError, match=f"{where} must be a JSON "
                           "object"):
            scenario_from_dict(raw)
        path = write(tmp_path, raw)
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{where} must be" in err

    @pytest.mark.parametrize("changes, key", [
        ({"n": 4.7}, "'n'"),
        ({"seed": 1.9}, "'seed'"),
        ({"disturbance": {"inverter": 1.5, "amplitude": 1.0}}, "'inverter'"),
    ], ids=["n", "seed", "disturbance.inverter"])
    def test_not_whole_number(self, changes, key):
        raw = {"case": "I", "n": 4, "seed": 0, **changes}
        with pytest.raises(ScenarioError, match=f"{key} .* whole number"):
            scenario_from_dict(raw)

    def test_whole_float_accepted(self):
        raw = {"case": "I", "n": 4.0, "seed": 3.0,
               "disturbance": {"inverter": 2.0, "amplitude": 1.0}}
        sc = scenario_from_dict(raw)
        assert sc == build_case("I", 4, seed=3,
                                disturbance=DisturbanceSpec(1, 1.0))
        assert sc.init == InitSpec(seed=3, norm_bound=1.0,
                                   overrides=((0, 10.0),))


class TestRoundTrip:
    def test_resolved_scenario_round_trips(self):
        sc = build_case("II", 5, seed=9,
                        disturbance=DisturbanceSpec(2, 1.5, "rotating"))
        raw = scenario_to_dict(sc)
        again = scenario_from_dict(json.loads(json.dumps(raw)))
        assert again == sc
        assert scenario_to_dict(again) == raw

    def test_explicit_round_trips(self):
        raw = {"n": 2, "seed": 5, "branches": [{"r_v": 1.0}, {"r_v": 2.0}],
               "network": {"z_net": [50.0, 10.0]}}
        sc = scenario_from_dict(raw)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_explicit_omega0_sets_network_frequency(self):
        raw = {"n": 1, "seed": 0, "oscillator": {"omega0": 100.0},
               "branches": [{"l_f": 1e-3}], "network": {"z_net": [50.0, 0.0]}}
        sc = scenario_from_dict(raw)
        assert sc.network.omega_eval == 100.0
        assert sc.network.admittances()[0] == pytest.approx(1 / 0.1j)


class TestOverrides:
    def test_dotted_paths(self):
        raw = {"case": "I", "n": 4, "seed": 0}
        out = apply_overrides(raw, ["t_end=0.5", "oscillator.kappa=0.7",
                                    "network.t_z=0.05"])
        sc = scenario_from_dict(out)
        assert sc.t_end == 0.5
        assert sc.params[0].kappa == 0.7
        assert raw == {"case": "I", "n": 4, "seed": 0}   # input untouched

    def test_bad_item(self):
        with pytest.raises(ScenarioError, match="key=value"):
            apply_overrides({}, ["nonsense"])

    @pytest.mark.parametrize("text", ["NaN", "-Infinity", "1e400"])
    def test_non_finite_value(self, text):
        with pytest.raises(ScenarioError, match=text):
            apply_overrides({}, [f"oscillator.xi={text}"])

    def test_unknown_key_caught_at_parse(self):
        out = apply_overrides({"case": "I", "n": 4, "seed": 0},
                              ["oscillator.bogus=1"])
        with pytest.raises(ScenarioError, match="bogus"):
            scenario_from_dict(out)


class TestWriteTimeseries:
    def test_schema_and_roundtrip(self, tmp_path):
        sc = build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4)
        traj = simulate(sc)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        with path.open() as f:
            rows = list(csv.reader(f))
        n = 2
        assert len(rows) == 1 + len(traj.t)          # header + S+1 points
        assert len(rows[0]) == 1 + 2 * n + 2 + 2 * n + 3 * n
        assert rows[0][0] == "t"
        assert rows[0][1:5] == ["x_alpha_1", "x_beta_1", "x_alpha_2", "x_beta_2"]
        assert rows[0][5:7] == ["v_o_alpha", "v_o_beta"]
        assert rows[0][-3:] == ["i_a_2", "i_b_2", "i_c_2"]
        # exact float round trip
        data = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.array_equal(data[:, 0], traj.t)
        assert np.array_equal(data[:, 1], traj.x[:, 0].real)
        assert np.array_equal(data[:, 4], traj.x[:, 1].imag)
        assert np.array_equal(data[:, 5], traj.v_o.real)
        assert np.array_equal(data[:, 7], traj.currents[:, 0].real)

    # the call size is the writer's default, one row per call or more than
    # the whole series: calls end inside and at the edges of forked ranges
    @pytest.mark.parametrize("cpus, chunk", [
        *(pytest.param(cpus, None, id=str(cpus)) for cpus in (1, 2, 3, 8)),
        *(pytest.param(cpus, chunk, id=f"{cpus}-{name}")
          for cpus in (1, 3)
          for chunk, name in ((1, "row_per_call"), (10 ** 9, "one_call")))])
    @pytest.mark.parametrize("name", ["case2_partial_block", "four_rows",
                                      "one_inverter", "case2_n100",
                                      "edge_values"])
    def test_bytes_match_per_value_writer(self, tmp_path, monkeypatch, name,
                                          cpus, chunk):
        traj = _trajectory(name)
        forks = count_forks(monkeypatch, cpus)
        if chunk is not None:
            monkeypatch.setattr(cli, "_CSV_CHUNK_VALUES", chunk)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        blocks = -(-len(traj.t) // cli._CSV_BLOCK_ROWS)
        assert len(forks) == min(cpus, blocks) - 1
        assert path.read_bytes() == _per_value_csv(name)

    def test_child_failure_names_file(self, tmp_path, monkeypatch, capsys):
        count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, lambda start: start > 0)
        path = tmp_path / "ts.csv"
        with pytest.raises(OSError, match="ts.csv"):
            write_timeseries(_trajectory("case2_partial_block"), path)
        assert_no_children()
        out = tmp_path / "run"
        assert main(["case2", "--set", "t_end=0.02", "--out", str(out)]) == 1
        assert_no_children()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "timeseries.csv" in err

    def test_parent_failure_reaps_children(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, lambda start: start == 0)
        with pytest.raises(RuntimeError, match="rows from 0"):
            write_timeseries(_trajectory("case2_partial_block"),
                             tmp_path / "ts.csv")
        assert len(forks) == 2
        assert_no_children()

    def test_phase_columns_match_inv_clarke(self, tmp_path):
        sc = build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4)
        traj = simulate(sc)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        with path.open() as f:
            rows = list(csv.reader(f))
        header = rows[0]
        for k in range(2):
            i = header.index(f"i_a_{k + 1}")
            got = tuple(float(v) for v in rows[1][i:i + 3])
            alpha, beta = traj.currents[0, k].real, traj.currents[0, k].imag
            # amplitude-invariant inverse Clarke transform
            want = (alpha,
                    -0.5 * alpha + math.sqrt(3) / 2 * beta,
                    -0.5 * alpha - math.sqrt(3) / 2 * beta)
            assert got == pytest.approx(want, rel=1e-15)
            assert sum(got) == pytest.approx(0.0, abs=1e-9)


def per_value_lines(block):
    """The CSV text of a 2-D block, one "%.17g" format call per value."""
    return "".join(",".join(format(float(v), ".17g") for v in row) + "\n"
                   for row in block.tolist()).encode()


def all_columns(block):
    """csv_lines over every column of ``block``, in order."""
    return _csvtext.csv_lines(block, np.arange(block.shape[1]))


def ulps_around(v):
    return [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]


@st.composite
def blocks_and_orders(draw, raw_bits):
    """A block of floats, or of raw 64-bit patterns, and a column order of
    the kernel: the identity or columns drawn with repeats."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 9)))
    if raw_bits:
        block = draw(arrays(np.uint64, shape, elements=st.integers(
            0, 2 ** 64 - 1))).view(np.float64)
    else:
        block = draw(arrays(np.float64, shape, elements=st.floats(
            allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    order = draw(st.one_of(
        st.just(np.arange(shape[1])),
        arrays(np.intp, st.integers(1, 12),
               elements=st.integers(0, shape[1] - 1))))
    return block, order


class TestCsvKernel:
    """csv_lines gives the bytes of the value-by-value "%.17g" writer."""

    shapes = st.tuples(st.integers(1, 6), st.integers(1, 9))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, shapes, elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_floats(self, block):
        assert all_columns(block) == per_value_lines(block)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.uint64, shapes, elements=st.integers(0, 2 ** 64 - 1)))
    def test_bit_patterns(self, bits):
        block = bits.view(np.float64)
        assert all_columns(block) == per_value_lines(block)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(blocks_and_orders(raw_bits=False),
                     blocks_and_orders(raw_bits=True)))
    def test_column_order(self, block_and_order):
        block, order = block_and_order
        assert (_csvtext.csv_lines(block, order)
                == per_value_lines(block[:, order]))

    def test_repeated_slow_column(self):
        # every value of the repeated column is formatted by "%.17g" itself
        slow = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-7]
        block = np.array([slow, np.linspace(-2.5, 3.5, len(slow))]).T.copy()
        order = np.array([0, 1, 0, 0])
        assert (_csvtext.csv_lines(block, order)
                == per_value_lines(block[:, order]))

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 5e-324, -5e-324],
        ulps_around(1e-6) + ulps_around(1e16),
        [sign * w for k in range(-8, 19) for w in ulps_around(10.0 ** k)
         for sign in (1, -1)],
        # 17 digits that round up to the next decade
        [0.099999999999999992, 0.99999999999999994, 9999999999999998.0,
         9.9999999999999991e-6, 9.9999999999999995e-5, 99999999999999.992],
    ], ids=["zeros", "fast_set_bounds", "powers_of_ten", "decade_round_up"])
    def test_explicit(self, values):
        block = np.array([values])
        assert all_columns(block) == per_value_lines(block)

    @pytest.mark.parametrize("offset", [-1.0, 1.0])
    def test_exponent_estimate_corrected(self, monkeypatch, offset):
        # the exact product corrects a decimal exponent that is one off
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + offset)
        block = 10.0 ** np.random.default_rng(3).uniform(-7, 17, (40, 50))
        assert all_columns(block) == per_value_lines(block)

    def test_round_half_even_ties(self):
        # m/4 with m odd in [1e15, 2**51) ends in .25 or .75: 17 digits
        # keep one decimal, so the 17th digit is a tie at every value
        m = np.random.default_rng(5).integers(4e15, 2 ** 53, 6000) | 1
        block = np.concatenate([m / 4, -m / 4]).reshape(-1, 20)
        assert all_columns(block) == per_value_lines(block)

    def test_random_sweep(self):
        rng = np.random.default_rng(11)
        block = 10.0 ** rng.uniform(-8, 18, 10 ** 6)
        block *= rng.choice([-1.0, 1.0], block.size)
        block = block.reshape(-1, 500)
        assert all_columns(block) == per_value_lines(block)


class TestCommands:
    def test_certify_default_pass(self, capsys):
        assert main(["certify"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["lambda_max_sampled"] is None   # --samples 0 skips it
        assert report["margin_c"] == pytest.approx(553.38, abs=0.01)

    def test_certify_open_loop_fails(self, capsys):
        assert main(["certify", "--set", "kappa=0"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False

    def test_certify_samples_and_ball(self, capsys):
        code = main(["certify", "--samples", "200", "--d-bar", "5.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda_max_sampled"] == pytest.approx(
            10.0 - report["params"]["beta"])
        assert report["error_ball_radius"] == pytest.approx(0.009036, rel=1e-3)

    def test_certify_params_are_oscillator_constants(self, capsys):
        assert main(["certify"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert list(params) == ["xi", "x_nom_sq2", "omega0", "kappa", "beta"]

    def test_certify_rejects_branch_keys(self, capsys):
        assert main(["certify", "--set", "r_f=0.1"]) == 1
        assert "'r_f'" in capsys.readouterr().err

    def test_certify_from_scenario(self, tmp_path, capsys):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 0,
                                "oscillator": {"kappa": 0.01}})
        assert main(["certify", "--scenario", str(path)]) == 1

    def test_case2_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["case2", "--n", "4", "--seed", "5", "--out", str(out),
                     "--set", "t_end=0.5"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["n"] == 4
        assert report["certificate"]["passed"] is True
        assert report["metrics"]["synchronized"] is True
        assert report["metrics"]["sharing_ratios"][1] == pytest.approx(
            20.0 / 10.5, rel=1e-4)
        assert report["steady_state"]["oscillator_death"] is False
        assert (out / "timeseries.csv").exists()

    @pytest.mark.parametrize("t_end", ["0.02", "0.04"])
    def test_run_within_window_says_it_has_no_metrics(self, t_end, tmp_path,
                                                      capsys):
        # a complete run no longer than the averaging window exits 0 with
        # "metrics": null, and says why on stderr
        out = tmp_path / "run"
        assert main(["case2", "--set", f"t_end={t_end}",
                     "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (f"note: t_end = {t_end} s is not longer than the "
                          "0.04 s averaging window, so report.json has no "
                          "metrics")
        assert err[1].startswith("wrote ") and len(err) == 2
        report = json.loads((out / "report.json").read_text())
        assert list(report) == ["scenario", "certificate", "metrics",
                                "steady_state", "diverged"]
        assert report["metrics"] is None and report["diverged"] is None

    def test_simulate_scenario_file(self, tmp_path):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 1, "t_end": 0.1})
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["seed"] == 1

    def test_seed_flag_overrides(self, tmp_path):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 1, "t_end": 0.1})
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(path), "--out", str(out),
                     "--seed", "77"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"]["seed"] == 77

    def test_divergence_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 1, "t_end": 0.1,
                                "init": {"overrides": {"1": 150.0}}})
        out = tmp_path / "boom"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 2
        report = json.loads((out / "report.json").read_text())
        assert report["diverged"]["inverter"] == 1
        assert set(report["diverged"]) == {"t", "inverter"}
        assert (out / "timeseries.csv").exists()
        err = capsys.readouterr().err
        assert err.startswith("error:") and "last finite norm 150 pu" in err

    def test_divergence_line_numbers_inverters_as_report(self, tmp_path,
                                                         capsys):
        out = tmp_path / "boom"
        assert main(["case2", "--set", "oscillator.xi=1e4",
                     "--set", "oscillator.kappa=100", "--set", "t_end=0.05",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        number = int(re.search(r"state of inverter (\d+) diverged", err)[1])
        report = json.loads((out / "report.json").read_text())
        assert number == report["diverged"]["inverter"] == 1
        assert "last finite norm 10 pu" in err
        with (out / "timeseries.csv").open() as f:
            assert f"x_alpha_{number}" in next(csv.reader(f))

    def test_report_without_current_is_strict_json(self, tmp_path, capsys):
        # every state starts at the origin and stays there: no current flows
        path = write(tmp_path, {"case": "II", "n": 4, "seed": 1, "t_end": 0.1,
                                "init": {"norm_bound": 0},
                                "network": {"t_z": 0.05}})
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 0

        def reject(name):
            raise AssertionError(f"report.json holds {name}")
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        assert report["metrics"]["sharing_ratios"] is None
        assert report["metrics"]["sharing_ratio_error"] is None

    @pytest.mark.parametrize("argv, scenario", [
        (["case1", "--seed", "-1"], None),
        (["case2", "--seed", "-1"], None),
        (["simulate", "--seed", "-1"], {"case": "I", "n": 2, "seed": 0}),
        (["simulate"], {"case": "I", "n": 2, "seed": -1}),
        (["simulate"], {"case": "II", "n": 4, "seed": -1,
                        "network": {"zt_jitter": True}}),
        (["simulate"], {"n": 1, "seed": -1, "branches": [{"r_f": 0.1}],
                        "network": {"z_net": [50.0, 0.0]}}),
        (["certify", "--samples", "3", "--seed", "-1"], None),
        (["certify", "--seed", "-1"], None),    # the seed feeds nothing here
    ], ids=["case1", "case2", "simulate-flag", "case-file", "jitter-file",
            "explicit-file", "certify-samples", "certify-no-samples"])
    def test_negative_seed_names_seed(self, argv, scenario, tmp_path,
                                      capsys):
        out = tmp_path / "x"
        if scenario is not None:
            argv = argv + ["--scenario", str(write(tmp_path, scenario))]
        if argv[0] != "certify":
            argv = argv + ["--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 1, "bogus": 1})
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_non_finite_scenario_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"case": "I", "n": 2, "seed": 0, "t_end": 0.01, '
                        '"oscillator": {"xi": NaN}}')
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert "NaN" in capsys.readouterr().err

    @pytest.mark.parametrize("radius",
                             ["nan", "inf", "1e400", "-1", "0", "1e200"])
    def test_certify_non_finite_radius(self, radius, capsys):
        # refused up front: without --samples nothing else reads the radius;
        # at 1e200 the sampled eigenvalue would overflow to NaN
        for samples in (["--samples", "10"], []):
            assert main(["certify", *samples, "--radius", radius]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error:")
            assert "--radius" in captured.err

    @pytest.mark.parametrize("d_bar", ["nan", "inf", "1e400"])
    def test_certify_non_finite_d_bar(self, d_bar, capsys):
        assert main(["certify", "--d-bar", d_bar]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "d_bar" in captured.err

    def test_certify_failing_checks_d_bar(self, capsys):
        assert main(["certify", "--set", "kappa=0", "--d-bar", "nan"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "d_bar" in captured.err

    def test_certify_failing_has_no_error_ball(self, capsys):
        assert main(["certify", "--set", "kappa=0", "--d-bar", "2"]) == 1
        assert json.loads(capsys.readouterr().out)["error_ball_radius"] is None

    def test_certify_negative_samples(self, capsys):
        assert main(["certify", "--samples", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "samples" in captured.err

    def test_certify_stdout_is_strict_json(self, monkeypatch, capsys):
        # a NaN that got past the input checks is an error, not a NaN token
        monkeypatch.setattr(cli, "sampled_lambda_check",
                            lambda *args: SampledLambdaResult(math.nan, False))
        assert main(["certify", "--samples", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_certify_too_many_samples(self, capsys):
        # refused before any of the 10^12 samples is drawn
        assert main(["certify", "--samples", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: n_samples must be 1 to ")

    def test_zero_total_admittance_exit_code(self, tmp_path, capsys):
        # sum(Y_i) = 2/(2j) = -1j and 1/z_net = 1j: the bus voltage and k_sh
        # would divide by zero
        path = write(tmp_path, {
            "n": 2, "seed": 0, "branches": [{"x_v": 2.0}, {"x_v": 2.0}],
            "network": {"z_net": [0.0, -1.0], "t_z": 0.0}})
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: z_net = ")
        assert "total admittance sum(Y_i) + 1/z_net zero" in captured.err
        assert not out.exists()

    def test_certify_reads_only_the_oscillator(self, tmp_path, capsys):
        # a run of 100 000 inverters would record ~64 GB; the certificate
        # needs none of it
        path = write(tmp_path, {"case": "I", "n": 100000, "seed": 0})
        assert main(["certify", "--scenario", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["margin_c"] == pytest.approx(553.38, abs=0.01)

    def test_certify_scenario_set_and_key_check(self, tmp_path, capsys):
        path = write(tmp_path, {"case": "I", "n": 100000, "seed": 0})
        assert main(["certify", "--scenario", str(path),
                     "--set", "oscillator.kappa=0"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
        typo = write(tmp_path, {"case": "I", "n": 2, "seed": 0,
                                "oscilator": {"kappa": 0.0}}, "typo.json")
        assert main(["certify", "--scenario", str(typo)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'oscilator'" in err

    @pytest.mark.parametrize("item", ["n=1e300", "t_end=1e6"])
    def test_oversized_run_exit_code(self, item, tmp_path, capsys):
        out = tmp_path / "x"
        tracemalloc.start()
        try:
            code = main(["case1", "--set", item, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "n = " in err and "t_end = " in err and "dt = " in err
        assert peak < 2**20          # refused before any trajectory array
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--set", "t_end=0.1"]])
    def test_non_object_scenario_file_exit_code(self, flag, tmp_path, capsys):
        path = write(tmp_path, [1, 2])
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")] + flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    def test_set_n_not_whole_exit_code(self, tmp_path, capsys):
        assert main(["case2", "--set", "n=4.7",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'n'" in err

    def test_t_end_not_whole_steps_exit_code(self, tmp_path, capsys):
        assert main(["case2", "--set", "t_end=1.5e-4",
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "t_end" in err and "dt" in err

    def test_missing_scenario_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["simulate", "--scenario", str(missing),
                     "--out", str(tmp_path / "x")]) == 1

    def test_sweep_table(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out),
                     "--kappas", "0,0.0178,1"]) == 0
        with (out / "sweep.csv").open() as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["kappa", "margin_c", "passed"]
        assert [r[2] for r in rows[1:]] == ["false", "true", "true"]
        margin = float(rows[3][1])
        assert margin == pytest.approx(553.3826, abs=1e-3)

    @pytest.mark.parametrize("kappas", [",", "", " , "],
                             ids=["comma", "empty", "blank"])
    def test_sweep_without_kappas_exit_code(self, tmp_path, capsys, kappas):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--kappas", kappas]) == 1
        assert "--kappas" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("kappas, message", [
        ("nan,inf", "kappa must be finite, got nan"),
        ("1,inf", "kappa must be finite, got inf"),
        ("1,-2", "kappa must be >= 0, got -2.0"),
    ], ids=["nan-first", "inf-second", "negative-second"])
    def test_sweep_rejects_kappa_before_any_output(self, tmp_path, capsys,
                                                   kappas, message):
        out = tmp_path / "sweep"
        assert main(["sweep", "--out", str(out), "--kappas", kappas]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_import_starts_no_process_pool(self):
        # a process pool's import costs a measurable share of start-up
        src = Path(dvocsim.__file__).resolve().parents[1]
        code = ("import sys, dvocsim, dvocsim.cli; print(sorted(m for m in "
                "('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        got = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert got.stdout.strip() == "[]"


def sweep_margins(tmp_path, args):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)] + args) == 0
    with (out / "sweep.csv").open() as f:
        rows = list(csv.reader(f))
    return [float(r[1]) for r in rows[1:]]


class TestOscillatorResolver:
    """certify and sweep take the oscillator constants from one place."""

    def test_sweep_honours_set(self, tmp_path, capsys):
        margins = sweep_margins(tmp_path, ["--set", "xi=500", "--kappas", "1"])
        assert margins == [pytest.approx(63.38, abs=0.01)]
        capsys.readouterr()                   # the sweep's table
        assert main(["certify", "--set", "xi=500"]) == 0
        assert json.loads(capsys.readouterr().out)["margin_c"] == margins[0]

    def test_sweep_honours_scenario(self, tmp_path):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 0,
                                "oscillator": {"xi": 500.0}})
        margins = sweep_margins(tmp_path, ["--scenario", str(path),
                                           "--kappas", "1"])
        assert margins == [pytest.approx(63.38, abs=0.01)]

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    @pytest.mark.parametrize("item, message", [
        ("bogus=1", "'bogus'"), ("xi=1e400", "1e400"), ("xi=true", "'xi'"),
    ])
    def test_bad_set_exit_code(self, tmp_path, capsys, command, item,
                               message):
        args = [command, "--set", item]
        if command == "sweep":
            args += ["--out", str(tmp_path / "sweep")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


def certify_namespace(**changes):
    """The namespace build_parser gives for a bare ``certify``."""
    config = build_parser().parse_args(["certify"])
    vars(config).update(changes)
    return config


class TestRun:
    def test_direct_dispatch(self, capsys):
        assert run(certify_namespace()) == 0
        assert run(certify_namespace(overrides=["kappa=0"])) == 1
        assert main(["certify"]) == 0
        assert main(["certify", "--set", "kappa=0"]) == 1

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dvocsim") and "'frobnicate'" in err


class TestUsage:
    """Usage errors exit 1, the code for bad input; 2 is for divergence."""

    @pytest.mark.parametrize("argv", [
        ["case2"],                                  # --out is required
        ["case2", "--out", "x", "--bogus"],
        ["case2", "--n", "abc", "--out", "x"],
        ["simulate", "--out", "x"],                 # --scenario is required
        ["case2", "--scenario", "f.json", "--out", "x"],
        ["case1", "--scenario", "f.json", "--out", "x"],
        ["sweep", "--seed", "3", "--out", "x"],
    ], ids=["missing-out", "unknown-flag", "bad-int", "missing-scenario",
            "case2-scenario", "case1-scenario", "sweep-seed"])
    def test_usage_error_exit_code(self, argv, tmp_path, capsys,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dvocsim")
        assert ": error: " in captured.err
        assert list(tmp_path.iterdir()) == []       # nothing was run

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: dvocsim")

    @pytest.mark.parametrize("command, flags", [
        ("certify", {"--scenario", "--seed", "--set", "--samples",
                     "--radius", "--d-bar"}),
        ("simulate", {"--scenario", "--seed", "--set", "--out"}),
        ("case1", {"--n", "--seed", "--set", "--out"}),
        ("case2", {"--n", "--seed", "--set", "--out"}),
        ("sweep", {"--scenario", "--set", "--out", "--kappas"}),
    ])
    def test_flags_per_command(self, command, flags, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == flags | {"--help"}


class TestReport:
    def test_embeds_everything(self):
        sc = build_case("II", 4, seed=2, t_end=0.3)
        traj = simulate(sc)
        cert = certificate_margin(sc.params[0])
        report = build_report(sc, cert, traj)
        assert report["scenario"] == scenario_to_dict(sc)
        assert report["certificate"]["margin_c"] == cert.margin_c
        assert set(report["metrics"]) >= {"sync_time", "sharing_ratios",
                                          "amplitude", "fitted_rate",
                                          "sync_error_series"}
        assert len(report["metrics"]["sync_error_series"]) == len(traj.t)
        assert report["steady_state"]["k_sh"][0] == pytest.approx(1.0, abs=1e-3)
        json.dumps(report)      # JSON-serializable end to end


class TestReplay:
    """The scenario echoed into report.json reproduces the run byte for byte."""

    def replay(self, tmp_path, first_run):
        echoed = json.loads((first_run / "report.json").read_text())["scenario"]
        path = write(tmp_path, echoed, name="echoed.json")
        again = tmp_path / "again"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(again)]) == 0
        for name in ("timeseries.csv", "report.json"):
            assert ((again / name).read_bytes()
                    == (first_run / name).read_bytes()), name
        return echoed

    def test_case2_with_disturbance_and_overrides(self, tmp_path):
        first = tmp_path / "first"
        assert main(["case2", "--n", "4", "--seed", "5", "--out", str(first),
                     "--set", "t_end=0.1", "--set", "network.t_z=0.05",
                     "--set", "disturbance.inverter=3",
                     "--set", "disturbance.amplitude=2.5",
                     "--set", "init.overrides.1=4.0",
                     "--set", "init.overrides.4=0.5"]) == 0
        echoed = self.replay(tmp_path, first)
        assert echoed["init"]["overrides"] == {"1": 4.0, "4": 0.5}
        assert echoed["disturbance"] == {"inverter": 3, "amplitude": 2.5,
                                         "waveform": "rotating"}
        assert any(b["z_extra"] != [0.0, 0.0] for b in echoed["branches"])

    def test_explicit_with_startup_impedance(self, tmp_path):
        path = write(tmp_path, {
            "n": 2, "seed": 4, "t_end": 0.1,
            "branches": [{"r_f": 0.1, "l_f": 1e-3, "z_extra": [2.0, 0.5]},
                         {"r_f": 0.2, "l_f": 2e-3, "x_v": 0.3}],
            "network": {"z_net": [80.0, 5.0], "t_z": 0.02},
            "init": {"overrides": {"2": 3.0}},
            "disturbance": {"inverter": 1, "amplitude": 1.0,
                            "waveform": "constant"}})
        first = tmp_path / "first"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(first)]) == 0
        echoed = self.replay(tmp_path, first)
        assert echoed["branches"][0]["z_extra"] == [2.0, 0.5]


class TestOneInverter:
    """A single inverter is its own synchronized group."""

    def test_explicit_single_inverter_metrics(self, tmp_path):
        raw = {"n": 1, "seed": 2, "t_end": 0.1,
               "branches": [{"r_f": 0.1, "l_f": 1e-3}],
               "network": {"z_net": [50.0, 0.0]}}
        sc = scenario_from_dict(raw)
        path = write(tmp_path, raw)
        m = build_metrics(simulate(sc))
        assert m.synchronized is True
        assert m.sync_error_series.shape == (sc.n_steps + 1,)
        assert np.all(m.sync_error_series == 0.0)
        assert m.fitted_rate is None
        assert m.sharing_ratios == (1.0,)
        out = tmp_path / "run"
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(out)]) == 0
        metrics = json.loads((out / "report.json").read_text())["metrics"]
        assert metrics["synchronized"] is True
        assert metrics["fitted_rate"] is None
        assert set(metrics["sync_error_series"]) == {0.0}
