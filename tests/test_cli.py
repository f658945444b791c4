import contextlib
import csv
import functools
import json
import math
import mmap
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import dvocsim
from dvocsim import _csvstream, _csvtext, cli, engine
from dvocsim._csvstream import SQRT3_OVER_2
from dvocsim.cli import (ScenarioError, apply_overrides, build_parser,
                         build_report, main, run, scenario_from_dict,
                         scenario_to_dict, write_timeseries)
from dvocsim.certificates import certificate_margin
from dvocsim.engine import (DisturbanceSpec, InitSpec, SimulationDiverged,
                            Trajectory, simulate)
from dvocsim.oscillator import InverterParams
from dvocsim.scenarios import build_case, build_metrics
from fakes import given_currents


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _scenario(name):
    """The scenario each fixture runs."""
    if name in ("case2_partial_block", "edge_values"):  # 2001 rows: ends
        # inside a call
        return build_case("II", 4, seed=7, t_end=0.2)
    if name == "four_rows":              # fewer kernel calls than CPUs
        return build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4)
    if name == "case2_n100":             # tiny currents in d.ddde-0x form
        return build_case("II", 100, seed=0, t_end=0.02)
    if name == "diverged_after_t_z":     # cut at row 133, inside a call
        return build_case("II", 20, seed=0, t_end=0.05, t_z=0.005,
                          base=InverterParams(kappa=0.0, x_nom_sq2=2e4,
                                              xi=0.01))
    if name == "t_z_last_step":          # a second segment of one row
        return build_case("II", 4, seed=3, t_end=0.01, t_z=0.01)
    return scenario_from_dict(
        {"n": 1, "seed": 2, "t_end": 0.1,
         "branches": [{"r_f": 0.1, "l_f": 1e-3}],
         "network": {"z_net": [50.0, 0.0]}})


def _run(scenario, sink=None):
    """The trajectory of a run, diverged or not."""
    try:
        return simulate(scenario, sink=sink)
    except SimulationDiverged as err:
        return err.trajectory


@functools.lru_cache(maxsize=None)
def _trajectory(name):
    if name == "edge_values":            # values formatted by "%.17g" itself
        traj = simulate(_scenario(name))
        v_o, currents = traj.bus_and_currents(slice(None))
        edges = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 1e20)
        for k, v in enumerate(edges):
            row = 333 * k                # in several chunks of the writer
            traj.x[row, k % 4] = complex(v, -v)
            currents[row, 1] = complex(v, 0.25)  # no inf - inf in i_b
            currents[row + 1, 2] = complex(-0.5, v)
        return given_currents(traj, v_o, currents)
    return _run(_scenario(name))


FIXTURES = ["case2_partial_block", "four_rows", "one_inverter", "case2_n100",
            "edge_values", "diverged_after_t_z", "t_z_last_step"]


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
    v_o, currents = traj.bus_and_currents(slice(None))
    cols += [v_o.real, v_o.imag]
    for k in range(n):
        cols += [currents[:, k].real, currents[:, k].imag]
    for k in range(n):
        re, im = currents[:, k].real, currents[:, k].imag
        cols += [re, -0.5 * re + SQRT3_OVER_2 * im,
                 -0.5 * re - SQRT3_OVER_2 * im]
    return (",".join(header) + "\n" + "".join(
        ",".join(fmt(v) for v in row) + "\n" for row in zip(*cols))).encode()


def count_forks(monkeypatch, cpus):
    """Make the writer see ``cpus`` usable CPUs; returns the pids of the
    children it forks, a list that grows as it forks."""
    monkeypatch.setattr(_csvstream, "_usable_cpus", lambda: cpus)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", fork)
    return forks


_FORMAT_ROWS = _csvstream._format_rows


def fail_rows(monkeypatch, where, children=()):
    """Make the writer's formatting fail in ``where``: with "parent" or
    "child", ``_format_rows`` raises in this process or in every forked
    one before it claims a chunk; with "claimed", every forked process
    raises on the first chunk it claims, and this process waits until
    ``children`` (pids) have exited before it claims one."""
    parent = os.getpid()

    def format_rows(traj, *args):
        here = "parent" if os.getpid() == parent else "child"
        if where == here:
            raise RuntimeError(f"no rows in the {here}")
        if where == "claimed" and here == "parent":
            for pid in children:
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        if where == "claimed" and here == "child":
            (chunks,) = args

            def claim_and_fail():
                for first, _ in chunks:
                    raise RuntimeError(f"rows from {first}")
                yield from ()
            args = (claim_and_fail(),)
        return _FORMAT_ROWS(traj, *args)
    monkeypatch.setattr(_csvstream, "_format_rows", format_rows)


def interrupt_run(monkeypatch, error):
    """Make the step loop raise ``error("interrupted")`` after 700 steps."""
    real = engine.rk4_increment
    steps = []

    def rk4_increment(*args):
        steps.append(1)
        if len(steps) > 700:
            raise error("interrupted")
        return real(*args)
    monkeypatch.setattr(engine, "rk4_increment", rk4_increment)


def _affinity():
    return (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
            else None)


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
        with pytest.raises(ValueError, match=r"^init override inverter 9 out "
                           r"of range 1\.\.2$"):
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
        assert sc.params[0].omega0 == 100.0
        assert sc.network.admittances(100.0)[0] == pytest.approx(1 / 0.1j)


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
        v_o, currents = traj.bus_and_currents(slice(None))
        assert np.array_equal(data[:, 5], v_o.real)
        assert np.array_equal(data[:, 7], currents[:, 0].real)

    # the call size is the writer's default, one row per call or more than
    # the whole series: calls end inside and at the edges of other processes'
    @pytest.mark.parametrize("cpus, chunk", [
        *(pytest.param(cpus, None, id=str(cpus)) for cpus in (1, 2, 3, 8)),
        *(pytest.param(cpus, chunk, id=f"{cpus}-{name}")
          for cpus in (1, 3)
          for chunk, name in ((1, "row_per_call"), (10 ** 9, "one_call")))])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_bytes_match_per_value_writer(self, tmp_path, monkeypatch, name,
                                          cpus, chunk):
        traj = _trajectory(name)
        forks = count_forks(monkeypatch, cpus)
        if chunk is not None:
            monkeypatch.setattr(_csvstream, "_CSV_CHUNK_VALUES", chunk)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        calls = -(-len(traj.t) // _csvstream._rows_per_call(traj.n))
        assert len(forks) == min(cpus, calls) - 1
        assert path.read_bytes() == _per_value_csv(name)

    # rows published one at a time and in the step loop's blocks; every
    # fixture but edge_values is run again with the children forked before
    # it, and edge_values, whose currents are given, is fed as a run would
    @pytest.mark.parametrize("block", [1, 64])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    @pytest.mark.parametrize("name", FIXTURES)
    def test_streamed_bytes_match_per_value_writer(self, tmp_path,
                                                   monkeypatch, name, cpus,
                                                   block):
        forks = count_forks(monkeypatch, cpus)
        monkeypatch.setattr(engine, "DIVERGENCE_BLOCK", block)
        path = tmp_path / "ts.csv"
        if name == "edge_values":
            traj, stream = _trajectory(name), None
            steps = len(traj.t) - 1
            if cpus > 1:
                x = np.frombuffer(mmap.mmap(-1, traj.x.nbytes),
                                  complex).reshape(traj.x.shape)
                stream = _csvstream.Stream(given_currents(
                    Trajectory(traj.t, x, traj.scenario), *traj.given), path)
                try:
                    x[0] = traj.x[0]
                    for start in range(0, steps, block):
                        stop = min(start + block, steps)
                        x[start + 1:stop + 1] = traj.x[start + 1:stop + 1]
                        stream.publish(stop + 1, stop == steps)
                except BaseException:
                    stream.close()
                    raise
        else:
            scenario = _scenario(name)
            stream = _csvstream.Stream.recording(scenario, path)
            traj = _run(scenario, sink=stream)
        write_timeseries(traj, path, stream)
        assert path.read_bytes() == _per_value_csv(name)
        rows = _scenario(name).n_steps + 1
        assert len(forks) == min(cpus, -(-rows // _csvstream._rows_per_call(
            traj.n))) - 1
        assert_no_children()

    # the child waits for rows before they are published, or starts late
    # and finds rows 0..b-1 published
    @pytest.mark.parametrize("late", [0.0, 0.3])
    def test_chunk_waits_for_the_row_after_it(self, tmp_path, monkeypatch,
                                              late):
        # the child claims the first chunk, rows 0..b-1, only once row b is
        # final, for the bus voltage of row b - 1 is computed with row b
        name = "case2_partial_block"
        traj = _trajectory(name)
        monkeypatch.setattr(_csvstream, "_usable_cpus", lambda: 2)
        parent = os.getpid()

        def format_rows(*args):
            if os.getpid() != parent:
                time.sleep(late)
            return _FORMAT_ROWS(*args)
        monkeypatch.setattr(_csvstream, "_format_rows", format_rows)
        b = _csvstream._rows_per_call(traj.n)
        x = np.frombuffer(mmap.mmap(-1, traj.x.nbytes),
                          complex).reshape(traj.x.shape)
        path = tmp_path / "ts.csv"
        lines = _per_value_csv(name).splitlines(keepends=True)
        stream = _csvstream.Stream(Trajectory(traj.t, x, traj.scenario), path)
        try:
            assert len(stream.pids) == 1
            x[:b] = traj.x[:b]
            stream.publish(b, False)
            time.sleep(0.5)
            assert stream.temp.read_bytes() == lines[0]
            x[b] = traj.x[b]
            stream.publish(b + 1, False)
            deadline = time.monotonic() + 10
            while stream.temp.read_bytes() != b"".join(lines[:b + 1]):
                assert time.monotonic() < deadline
                time.sleep(0.01)
            x[b + 1:] = traj.x[b + 1:]
        except BaseException:
            stream.close()
            raise
        write_timeseries(traj, path, stream)
        assert path.read_bytes() == _per_value_csv(name)
        assert_no_children()

    def test_failed_fork_leaves_nothing(self, tmp_path, monkeypatch):
        # the second fork fails: the first child, waiting for rows, is let
        # go and reaped, and the series' partial file is removed
        monkeypatch.setattr(_csvstream, "_usable_cpus", lambda: 3)
        mask = _affinity()
        forks = []
        real_fork = os.fork

        def fork():
            if forks:
                time.sleep(0.3)     # the first child waits for rows
                raise OSError("no second child")
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="no second child"):
            _csvstream.Stream.recording(
                build_case("II", 4, seed=0, t_end=0.5), tmp_path / "ts.csv")
        assert len(forks) == 1
        assert_no_children()
        assert list(tmp_path.iterdir()) == []
        assert _affinity() == mask

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="no /proc/self/fd on this platform")
    @pytest.mark.parametrize("run", ["streamed", "child_fails", "interrupted"])
    def test_descriptors_are_closed(self, tmp_path, monkeypatch, run):
        # -X dev sees unclosed file objects only, not raw descriptors
        count_forks(monkeypatch, 3)
        scenario = _scenario("case2_partial_block")
        path = tmp_path / "ts.csv"
        before = sorted(os.listdir("/proc/self/fd"))
        if run == "streamed":
            stream = _csvstream.Stream.recording(scenario, path)
            write_timeseries(_run(scenario, sink=stream), path, stream)
        elif run == "child_fails":
            fail_rows(monkeypatch, "child")
            with pytest.raises(OSError, match="ts.csv"):
                write_timeseries(_trajectory("case2_partial_block"), path)
        else:
            interrupt_run(monkeypatch, RuntimeError)
            with pytest.raises(RuntimeError, match="interrupted"):
                main(["case2", "--set", "t_end=0.1", "--out",
                      str(tmp_path / "run")])
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_children()

    def test_parked_chunks_are_copied_in_row_order(self, tmp_path,
                                                   monkeypatch):
        # the child holds its first chunk, rows 0..527, until this process
        # has formatted the three others, which it can only park; the child
        # then writes its chunk and copies the parked ones after it
        forks = count_forks(monkeypatch, 2)
        parent = os.getpid()
        claimed, released = os.pipe(), os.pipe()

        def format_rows(traj, chunks):
            texts = _FORMAT_ROWS(traj, chunks)
            if os.getpid() == parent:
                os.read(claimed[0], 1)
                yield from texts
                os.write(released[1], b"x")
            else:
                held = next(texts)
                os.write(claimed[1], b"x")
                os.read(released[0], 1)
                yield held
                yield from texts
        monkeypatch.setattr(_csvstream, "_format_rows", format_rows)
        path = tmp_path / "ts.csv"
        try:
            write_timeseries(_trajectory("case2_partial_block"), path)
        finally:
            for fd in claimed + released:
                os.close(fd)
        assert len(forks) == 1
        assert_no_children()
        assert path.read_bytes() == _per_value_csv("case2_partial_block")

    def test_child_failure_names_file(self, tmp_path, monkeypatch, capsys):
        # a child that fails before it claims a chunk: this process formats
        # every row, but the file is not trusted
        count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, "child")
        path = tmp_path / "ts.csv"
        with pytest.raises(OSError, match="ts.csv"):
            write_timeseries(_trajectory("case2_partial_block"), path)
        assert_no_children()
        # a child that fails on the chunk it claimed: its rows are missing
        forks = count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, "claimed", forks)
        out = tmp_path / "run"
        # 1,001 rows are two kernel calls of 528 rows, so one child formats
        assert main(["case2", "--set", "t_end=0.1", "--out", str(out)]) == 1
        assert len(forks) == 1
        assert_no_children()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "timeseries.csv: rows " in err
        assert list(out.iterdir()) == []

    def test_failed_series_leaves_no_file(self, tmp_path, monkeypatch,
                                          capsys):
        # neither a partial timeseries.csv nor a report.json, nor any
        # temporary file; a diverged run still writes both
        count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, "child")
        out = tmp_path / "run"
        assert main(["case2", "--set", "t_end=0.1", "--out", str(out)]) == 1
        assert_no_children()
        assert "error: " in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failed_series_keeps_earlier_run(self, tmp_path, monkeypatch,
                                             cpus):
        # a run whose series fails leaves an earlier run's timeseries.csv and
        # report.json as they were, and no file of its own
        out = tmp_path / "run"
        assert main(["case2", "--set", "t_end=0.1", "--out", str(out)]) == 0
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(earlier) == ["report.json", "timeseries.csv"]
        count_forks(monkeypatch, cpus)
        fail_rows(monkeypatch, "parent")
        with pytest.raises(RuntimeError, match="no rows in the parent"):
            main(["case2", "--set", "t_end=0.1", "--seed", "1", "--out",
                  str(out)])
        assert_no_children()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_parent_failure_reaps_children(self, tmp_path, monkeypatch):
        forks = count_forks(monkeypatch, 3)
        fail_rows(monkeypatch, "parent")
        with pytest.raises(RuntimeError, match="no rows in the parent"):
            write_timeseries(_trajectory("case2_partial_block"),
                             tmp_path / "ts.csv")
        assert len(forks) == 2
        assert_no_children()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    # on one usable CPU nothing is forked and nothing is pinned: a process
    # alone keeps its mask
    @pytest.mark.parametrize("fails, usable", [
        *(pytest.param(fails, 3, id=fails)
          for fails in ("none", "child", "parent")),
        pytest.param("none", 1, id="one_cpu")])
    def test_affinity_pinned_and_restored(self, tmp_path, monkeypatch,
                                          fails, usable):
        mask = os.sched_getaffinity(0)
        cpus = sorted(mask)
        forks = count_forks(monkeypatch, usable)
        pins = []
        real_setaffinity = os.sched_setaffinity

        def setaffinity(pid, cpu_set):
            pins.append((pid == 0, set(cpu_set)))
            real_setaffinity(pid, cpu_set)
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        if fails != "none":
            fail_rows(monkeypatch, fails)
        path = tmp_path / "ts.csv"
        traj = _trajectory("case2_partial_block")
        if fails == "none":
            write_timeseries(traj, path)
            assert path.read_bytes() == _per_value_csv("case2_partial_block")
        else:
            with pytest.raises((OSError, RuntimeError)):
                write_timeseries(traj, path)
        assert os.sched_getaffinity(0) == mask
        assert_no_children()
        # children 1 and 2, then this process, then its mask
        assert len(forks) == usable - 1
        assert pins == ([] if usable == 1 else [
            (False, {cpus[1 % len(cpus)]}), (False, {cpus[2 % len(cpus)]}),
            (True, {cpus[0]}), (True, mask)])

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_interrupted_run_leaves_no_process(self, tmp_path, monkeypatch,
                                               error):
        # the step loop raises after 700 of 1,000 steps, when the child
        # has formatted rows 0..527 and waits for the rest
        forks = count_forks(monkeypatch, 3)
        mask = _affinity()
        interrupt_run(monkeypatch, error)
        out = tmp_path / "run"
        with pytest.raises(error, match="interrupted"):
            main(["case2", "--set", "t_end=0.1", "--out", str(out)])
        assert len(forks) == 1
        assert_no_children()
        assert _affinity() == mask
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="nothing is forked")
    def test_killed_run_leaves_no_process(self, tmp_path):
        # dvocsim sees two usable CPUs, forks one child before the run and
        # says so; killed mid-run, its child must exit when the kernel
        # releases the dead run's lock on the row it waits for, the count of
        # final rows unchanged.  Every process of the group holds the write end
        # of a pipe, whose read end is at end of file once all have exited
        # (reaped or not).  The rows formatted so far are under a partial
        # name: no timeseries.csv is left
        code = ("import sys\n"
                "from dvocsim import _csvstream, cli\n"
                "_csvstream._usable_cpus = lambda: 2\n"
                "real = cli.simulate\n"
                "def simulate(scenario, sink=None):\n"
                "    print(len(sink.pids), flush=True)\n"
                "    return real(scenario, sink=sink)\n"
                "cli.simulate = simulate\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(dvocsim.__file__).resolve().parents[1]
        held, holders = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "case2", "--n", "4", "--set",
             "t_end=30", "--out", str(tmp_path / "run")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            pass_fds=(holders,), start_new_session=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        os.close(holders)
        try:
            assert proc.stdout.readline() == b"1\n"
            time.sleep(0.2)
            proc.kill()
            assert proc.wait(timeout=10) == -signal.SIGKILL
            assert select.select([held], [], [], 10)[0] == [held]
            assert os.read(held, 1) == b""
            left = [p.name for p in (tmp_path / "run").iterdir()]
            assert len(left) == 1 and left[0].startswith(".timeseries.csv.")
        finally:
            os.close(held)
            proc.stdout.close()
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_phase_columns_match_inv_clarke(self, tmp_path):
        sc = build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4)
        traj = simulate(sc)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        with path.open() as f:
            rows = list(csv.reader(f))
        header = rows[0]
        currents = traj.bus_and_currents(slice(None))[1]
        for k in range(2):
            i = header.index(f"i_a_{k + 1}")
            got = tuple(float(v) for v in rows[1][i:i + 3])
            alpha, beta = currents[0, k].real, currents[0, k].imag
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


def csv_lines(block, order):
    """The kernel's text of ``block`` in the column ``order``, through a
    workspace of its size."""
    w = _csvtext.Workspace(len(block), block.shape[1], order)
    w.block[...] = block
    return bytes(_csvtext.csv_lines(w, len(block)))


def all_columns(block):
    """csv_lines over every column of ``block``, in order."""
    return csv_lines(block, np.arange(block.shape[1]))


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
        assert (csv_lines(block, order)
                == per_value_lines(block[:, order]))

    def test_repeated_slow_column(self):
        # every value of the repeated column is formatted by "%.17g" itself
        slow = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-7]
        block = np.array([slow, np.linspace(-2.5, 3.5, len(slow))]).T.copy()
        order = np.array([0, 1, 0, 0])
        assert (csv_lines(block, order)
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
        monkeypatch.setattr(np, "log10", lambda a, out: np.add(
            log10(a, out=out), offset, out=out))
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


class TestCsvWorkspace:
    """One workspace serves calls of any row count up to its own."""

    order = np.array([0, 1, 2, 3, 2, 4, 5])     # column 2 twice

    @staticmethod
    def block(rng, rows, slow):
        """Values of 17 digits, values of few, and (with ``slow``) the
        values that "%.17g" formats itself."""
        block = 10.0 ** rng.uniform(-6, 16, (rows, 6))
        block[:, 1] = rng.integers(1, 400, rows) / 8.0
        block[:, 4] = rng.integers(1, 9, rows) * 1e-5
        block *= rng.choice([-1.0, 1.0], block.shape)
        if slow:
            edges = [0.0, -0.0, math.nan, math.inf, -math.inf, -5e-324,
                     1e-7, 1e16]
            at = rng.choice(block.size, min(block.size, len(edges)), False)
            block.flat[at] = edges[:len(at)]
            block[-1, 2] = -2.2250738585072014e-308    # 24 bytes, twice
        return block

    def test_reused_workspace_keeps_no_stale_bytes(self):
        # a call after a longer one, and after one whose texts are longer,
        # shows any byte, length or offset left from it
        rng = np.random.default_rng(17)
        w = _csvtext.Workspace(12, 6, self.order)
        for call, rows in enumerate([12, 3, 12, 1, 7, 12, 2, 11, 1]):
            block = self.block(rng, rows, slow=call % 2 == 1)
            w.block[:rows] = block
            assert (bytes(_csvtext.csv_lines(w, rows))
                    == per_value_lines(block[:, self.order])), call

    def test_call_allocates_no_block_sized_array(self):
        # a call at N = 100 (27 rows of 603 columns, 130 KB of float64) of
        # values like a time series': mostly fixed notation, ~5 % below
        # 1e-4 and a few that "%.17g" formats itself
        rng = np.random.default_rng(3)
        w = _csvtext.Workspace(27, 603, np.arange(603))
        for call in range(3):
            w.block[...] = 10.0 ** rng.uniform(-4.3, 2, w.block.shape)
            w.block[call, :8] = [0.0, -0.0, math.nan, math.inf, -math.inf,
                                 -5e-324, 1e-7, 1e16]
            tracemalloc.start()
            try:
                text = _csvtext.csv_lines(w, 27)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert bytes(text) == per_value_lines(w.block)
            if call:
                assert peak < 64 * 1024, peak
        # a collapsed call, as the last ones of a synchronized run: 13
        # distinct columns of 603, formatted into the workspace's free rows
        w.block[...] = w.block[:, np.arange(603) % 13]
        tracemalloc.start()
        try:
            text = _csvtext.csv_lines(w, 27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bytes(text) == per_value_lines(w.block)
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_repeated_columns(self, rows):
        # a column is shown from an earlier one only where the two are equal
        # bit for bit in every row of the call
        rng = np.random.default_rng(29)
        nan = np.array([0x7FF8000000000000, 0xFFF8000000000000,
                        0x7FF8000000000001], np.uint64).view(np.float64)
        block = 10.0 ** rng.uniform(-6, 16, (rows, 12))
        block[:, 1] = block[:, 0]                   # equal in every row
        block[:, 3] = block[:, 2]
        if rows > 2:
            block[rows // 2, 3] = 7.0   # but in a middle row, which the key
        block[:, 4] = 0.0               # of the first and last rows misses
        block[:, 5] = -0.0
        block[:, 6:9] = nan           # another sign, another payload
        block[:, 9] = block[:, 10] = -2.2250738585072014e-308   # 24 bytes
        order = np.array([0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 1, 10, 1])
        w = _csvtext.Workspace(rows + 1, 12, order)
        w.block[:rows] = block
        assert (bytes(_csvtext.csv_lines(w, rows))
                == per_value_lines(block[:, order]))
        # 1 and 10 are shown from 0 and 9, and 3 from 2 without a middle row
        assert _csvtext._distinct(w, rows)[1] == (9 if rows < 3 else 10)

    @pytest.mark.parametrize("distinct", [13, 603])
    def test_each_distinct_column_is_formatted_once(self, distinct,
                                                    monkeypatch):
        rng = np.random.default_rng(31)
        w = _csvtext.Workspace(23, 603, np.arange(603))
        w.block[...] = 10.0 ** rng.uniform(-4.3, 2, (23, distinct))[
            :, np.arange(603) % distinct]
        sizes = []
        times_pow10 = _csvtext._times_pow10

        def counted(a, *args):
            sizes.append(a.size)
            times_pow10(a, *args)
        monkeypatch.setattr(_csvtext, "_times_pow10", counted)
        assert bytes(_csvtext.csv_lines(w, 23)) == per_value_lines(w.block)
        assert sizes[0] == 23 * distinct


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

    def test_certify_leaves_no_thread(self, tmp_path, monkeypatch, capsys):
        # the sampled check joins its helper thread before it returns, so
        # the writer of a following run still forks: it forks nothing while
        # other threads run
        threads = threading.active_count()
        assert main(["certify", "--samples", "100000"]) == 0
        assert threading.active_count() == threads
        forks = count_forks(monkeypatch, 2)
        assert main(["case2", "--n", "4", "--set", "t_end=0.2", "--out",
                     str(tmp_path)]) == 0
        assert len(forks) == 1
        assert_no_children()

    def test_certify_params_are_oscillator_constants(self, capsys):
        assert main(["certify"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert list(params) == ["xi", "x_nom_sq2", "omega0", "kappa", "beta"]

    @pytest.mark.parametrize("args", [
        ["certify", "--set", "xi=1e300", "--set", "x_nom_sq2=1e10"],
        ["case2", "--n", "2", "--set", "oscillator.xi=1e300",
         "--set", "oscillator.x_nom_sq2=1e10"],
    ], ids=["certify", "case2"])
    def test_overflowing_xi_x_nom_sq2_refused(self, args, tmp_path, capsys):
        # refused before a report is printed or a file is written
        out = tmp_path / "run"
        if args[0] != "certify":
            args = args + ["--out", str(out)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert "xi = 1e+300 with x_nom_sq2 = 10000000000.0 makes " \
               "xi*x_nom_sq2 overflow" in captured.err
        assert captured.out == ""
        assert not out.exists()

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

    def test_divergence_line_is_the_exception_message(self, tmp_path,
                                                      capsys):
        sets = ["oscillator.xi=1e4", "oscillator.kappa=100", "t_end=0.05"]
        assert main(["case2", *(a for s in sets for a in ("--set", s)),
                     "--out", str(tmp_path / "boom")]) == 2
        raw = apply_overrides({"case": "II", "n": 4, "seed": 0}, sets)
        with pytest.raises(SimulationDiverged) as diverged:
            simulate(scenario_from_dict(raw))
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {diverged.value}"]

    def test_report_bytes_are_one_string_encoding(self, tmp_path):
        # written piece by piece, with the bytes of json.dumps as one string
        traj = simulate(build_case("II", 4, seed=5, t_end=0.1))
        report = build_report(traj)
        path = tmp_path / "report.json"
        cli._write_json(path, report)
        assert path.read_bytes() == (json.dumps(
            report, indent=2, allow_nan=False) + "\n").encode()

    def test_report_with_nan_leaves_no_file(self, tmp_path, monkeypatch,
                                            capsys):
        # the encoder raises in the middle of the file: the part written
        # goes, and so does the report of an earlier run in the directory
        real = cli.build_report

        def build_report_with_nan(traj, diverged=None):
            report = real(traj, diverged)
            report["metrics"]["separation"] = math.nan
            return report
        monkeypatch.setattr(cli, "build_report", build_report_with_nan)
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text("{}\n")
        assert main(["case2", "--set", "t_end=0.05", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "JSON compliant" in err
        assert sorted(p.name for p in out.iterdir()) == ["timeseries.csv"]

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="no SIGKILL")
    def test_killed_report_leaves_no_file(self, tmp_path):
        # killed while report.json is encoded: the part written is under a
        # partial name, and an earlier run's report is gone, for the new
        # timeseries.csv is not its series
        code = ("import json, os, signal, sys\n"
                "from dvocsim import cli\n"
                "def dump(obj, fh, **kwargs):\n"
                "    fh.write('{\"scenario\": ')\n"
                "    fh.flush()\n"
                "    os.kill(os.getpid(), signal.SIGKILL)\n"
                "json.dump = dump\n"
                "sys.exit(cli.main(sys.argv[1:]))\n")
        src = Path(dvocsim.__file__).resolve().parents[1]
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text("{}\n")
        got = subprocess.run(
            [sys.executable, "-c", code, "case2", "--set", "t_end=0.05",
             "--out", str(out)], capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert got.returncode == -signal.SIGKILL
        left = sorted(p.name for p in out.iterdir())
        assert "report.json" not in left
        assert len(left) == 2 and left[1] == "timeseries.csv"
        assert left[0].startswith(".report.json.")

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
                            lambda *args: math.nan)
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

    @pytest.mark.parametrize("argv", [
        ["case1", "--n", "2"], ["case2"],
        ["case2", "--set", "network.zt_multiplier=1"]])
    def test_negative_t_z_exit_code(self, argv, tmp_path, capsys):
        # refused in every case, also where no start-up impedance is removed
        out = tmp_path / "x"
        assert main([*argv, "--set", "t_end=0.05", "--set", "network.t_z=-5",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: t_z must be >= 0, got -5.0\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("payload, message", [
        ({"n": 2, "seed": 0,
          "branches": [{"r_v": 1.0}, {"r_f": 0, "l_f": 0, "r_v": 0,
                                      "x_v": 0}],
          "network": {"z_net": [50.0, 0.0]}},
         "branch 2 has zero impedance"),
        ({"case": "II", "n": 4, "seed": 0,
          "disturbance": {"inverter": 5, "amplitude": 1}},
         "disturbance inverter 5 out of range 1..4"),
        ({"case": "I", "n": 3, "seed": 0, "init": {"overrides": {"0": 1.0}}},
         "init override inverter 0 out of range 1..3"),
    ], ids=["zero-branch", "disturbance", "override"])
    def test_refusal_line(self, tmp_path, capsys, payload, message):
        out = tmp_path / "x"
        assert main(["simulate", "--scenario", str(write(tmp_path, payload)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
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
        # a process pool's import costs a measurable share of start-up, and
        # only a written series needs the streamed writer's modules
        src = Path(dvocsim.__file__).resolve().parents[1]
        code = ("import sys, dvocsim, dvocsim.cli; print(sorted(m for m in "
                "('multiprocessing', 'concurrent.futures', 'mmap', 'fcntl', "
                "'dvocsim._csvstream', 'dvocsim._csvtext') "
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
        report = build_report(traj)
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
