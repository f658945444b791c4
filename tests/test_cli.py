import argparse
import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from dvocsim.cli import (SQRT3_OVER_2, ScenarioError,
                         apply_overrides, build_report, main, load_scenario,
                         run, scenario_from_dict, scenario_to_dict,
                         write_timeseries)
from dvocsim.certificates import certificate_margin
from dvocsim.engine import DisturbanceSpec, InitSpec, simulate
from dvocsim.scenarios import build_case, build_metrics


def write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadScenario:
    def test_minimal_case_file(self, tmp_path):
        sc = load_scenario(write(tmp_path, {"case": "I", "n": 4, "seed": 3}))
        assert sc.n == 4
        assert sc.t_end == 2.0
        assert sc.dt == 1e-4
        assert sc.init.seed == 3
        assert sc.init.overrides == ((0, 10.0),)
        assert sc == build_case("I", 4, seed=3)

    def test_case_two_with_knobs(self, tmp_path):
        raw = {"case": "II", "n": 6, "seed": 1, "t_end": 1.0,
               "network": {"t_z": 0.2, "domination_ratio": 2000.0},
               "oscillator": {"kappa": 0.8}}
        sc = load_scenario(write(tmp_path, raw))
        assert sc.network.t_z == 0.2
        assert sc.params[0].kappa == 0.8
        assert sc.t_end == 1.0

    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ScenarioError, match="'tend'"):
            load_scenario(write(tmp_path, {"case": "I", "n": 4, "seed": 0,
                                           "tend": 1.0}))

    def test_unknown_nested_key(self, tmp_path):
        raw = {"case": "I", "n": 4, "seed": 0, "oscillator": {"xj": 1.0}}
        with pytest.raises(ScenarioError, match="'xj'"):
            load_scenario(write(tmp_path, raw))

    def test_negative_xi_names_field(self, tmp_path):
        raw = {"case": "I", "n": 4, "seed": 0, "oscillator": {"xi": -1.0}}
        with pytest.raises(ValueError, match="xi"):
            load_scenario(write(tmp_path, raw))

    def test_case_forbids_branches(self, tmp_path):
        raw = {"case": "I", "n": 2, "seed": 0,
               "branches": [{"r_v": 1.0}, {"r_v": 1.0}]}
        with pytest.raises(ScenarioError, match="branches"):
            load_scenario(write(tmp_path, raw))

    def test_missing_seed(self, tmp_path):
        with pytest.raises(ScenarioError, match="seed"):
            load_scenario(write(tmp_path, {"case": "I", "n": 4}))

    def test_explicit_form(self, tmp_path):
        raw = {"n": 2, "seed": 5, "t_end": 0.5, "dt": 1e-4,
               "branches": [{"r_v": 1.0}, {"r_v": 2.0, "z_extra": [3.0, 1.0]}],
               "network": {"z_net": [100.0, 0.0], "t_z": 0.1},
               "init": {"norm_bound": 0.5, "overrides": {"2": 4.0}},
               "disturbance": {"inverter": 1, "amplitude": 2.0,
                               "waveform": "constant"}}
        sc = load_scenario(write(tmp_path, raw))
        assert sc.n == 2
        assert sc.network.z_net == 100.0 + 0j
        assert sc.network.branches[1].z_extra == 3.0 + 1.0j
        assert sc.init.overrides == ((1, 4.0),)
        assert sc.disturbance == DisturbanceSpec(0, 2.0, "constant")

    def test_explicit_needs_network(self, tmp_path):
        raw = {"n": 1, "seed": 0, "branches": [{"r_v": 1.0}]}
        with pytest.raises(ScenarioError, match="network"):
            load_scenario(write(tmp_path, raw))

    def test_branch_count_mismatch(self, tmp_path):
        raw = {"n": 3, "seed": 0, "branches": [{"r_v": 1.0}],
               "network": {"z_net": [1.0, 0.0]}}
        with pytest.raises(ScenarioError, match="branches"):
            load_scenario(write(tmp_path, raw))

    def test_override_out_of_range(self, tmp_path):
        raw = {"case": "I", "n": 2, "seed": 0,
               "init": {"overrides": {"9": 1.0}}}
        with pytest.raises(ScenarioError, match="9"):
            load_scenario(write(tmp_path, raw))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="JSON"):
            load_scenario(path)

    @pytest.mark.parametrize("constant",
                             ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_constant(self, tmp_path, constant):
        path = tmp_path / "nan.json"
        path.write_text('{"case": "I", "n": 2, "seed": 0, '
                        f'"oscillator": {{"xi": {constant}}}}}')
        with pytest.raises(ScenarioError, match=constant):
            load_scenario(path)

    def test_boolean_override_norm(self, tmp_path):
        raw = {"case": "I", "n": 2, "seed": 0,
               "init": {"overrides": {"1": True}}}
        with pytest.raises(ScenarioError, match="override for inverter 1"):
            load_scenario(write(tmp_path, raw))

    @pytest.mark.parametrize("z_net, z_extra, field", [
        (True, [0.0, 0.0], "network.z_net"),
        ([100.0, False], [0.0, 0.0], "network.z_net"),
        ([100.0, 0.0], [True, 0.0], r"branches\[1\].z_extra"),
    ])
    def test_boolean_complex(self, tmp_path, z_net, z_extra, field):
        raw = {"n": 1, "seed": 0, "branches": [{"r_v": 1.0,
                                                "z_extra": z_extra}],
               "network": {"z_net": z_net}}
        with pytest.raises(ScenarioError, match=field):
            load_scenario(write(tmp_path, raw))

    @pytest.mark.parametrize("section, value, where", [
        ("init", 5, "init"),
        ("oscillator", [1], "oscillator"),
        ("network", 3, "network"),
        ("init", {"overrides": [1]}, "init.overrides"),
        ("disturbance", [1], "disturbance"),
    ], ids=["init", "oscillator", "network", "init.overrides", "disturbance"])
    def test_section_not_object(self, tmp_path, capsys, section, value,
                                where):
        path = write(tmp_path, {"case": "I", "n": 2, "seed": 0,
                                section: value})
        with pytest.raises(ScenarioError, match=f"{where} must be a JSON "
                           "object"):
            load_scenario(path)
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{where} must be" in err

    @pytest.mark.parametrize("changes, key", [
        ({"n": 4.7}, "'n'"),
        ({"seed": 1.9}, "'seed'"),
        ({"disturbance": {"inverter": 1.5, "amplitude": 1.0}}, "'inverter'"),
    ], ids=["n", "seed", "disturbance.inverter"])
    def test_not_whole_number(self, tmp_path, changes, key):
        raw = {"case": "I", "n": 4, "seed": 0, **changes}
        with pytest.raises(ScenarioError, match=f"{key} .* whole number"):
            load_scenario(write(tmp_path, raw))

    def test_whole_float_accepted(self, tmp_path):
        raw = {"case": "I", "n": 4.0, "seed": 3.0,
               "disturbance": {"inverter": 2.0, "amplitude": 1.0}}
        sc = load_scenario(write(tmp_path, raw))
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

    def test_explicit_round_trips(self, tmp_path):
        raw = {"n": 2, "seed": 5, "branches": [{"r_v": 1.0}, {"r_v": 2.0}],
               "network": {"z_net": [50.0, 10.0]}}
        sc = load_scenario(write(tmp_path, raw))
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_explicit_omega0_sets_network_frequency(self, tmp_path):
        raw = {"n": 1, "seed": 0, "oscillator": {"omega0": 100.0},
               "branches": [{"l_f": 1e-3}], "network": {"z_net": [50.0, 0.0]}}
        sc = load_scenario(write(tmp_path, raw))
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
        rows = list(csv.reader(path.open()))
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

    def test_bytes_match_per_value_writer(self, tmp_path):
        # spans several row blocks and ends on a partial one
        traj = simulate(build_case("II", 4, seed=7, t_end=0.2))
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)

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
        want = ",".join(header) + "\n" + "".join(
            ",".join(fmt(v) for v in row) + "\n" for row in zip(*cols))
        assert path.read_bytes() == want.encode()

    def test_phase_columns_match_inv_clarke(self, tmp_path):
        sc = build_case("I", 2, seed=4, t_end=3e-4, dt=1e-4)
        traj = simulate(sc)
        path = tmp_path / "ts.csv"
        write_timeseries(traj, path)
        rows = list(csv.reader(path.open()))
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

    @pytest.mark.parametrize("radius", ["nan", "inf", "1e400"])
    def test_certify_non_finite_radius(self, radius, capsys):
        assert main(["certify", "--samples", "10", "--radius", radius]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "radius" in err

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
        rows = list(csv.reader((out / "sweep.csv").open()))
        assert rows[0] == ["kappa", "margin_c", "passed"]
        assert [r[2] for r in rows[1:]] == ["false", "true", "true"]
        margin = float(rows[3][1])
        assert margin == pytest.approx(553.3826, abs=1e-3)


def sweep_margins(tmp_path, args):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)] + args) == 0
    rows = list(csv.reader((out / "sweep.csv").open()))
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
    fields = dict(command="certify", scenario_path=None, seed=None,
                  overrides=[], samples=0, sample_radius=2.0, d_bar=None)
    return argparse.Namespace(**{**fields, **changes})


class TestRun:
    def test_direct_dispatch(self, capsys):
        assert run(certify_namespace()) == 0
        assert run(certify_namespace(overrides=["kappa=0"])) == 1
        assert main(["certify"]) == 0
        assert main(["certify", "--set", "kappa=0"]) == 1

    def test_unknown_command(self, capsys):
        assert run(argparse.Namespace(command="frobnicate")) == 1
        assert "frobnicate" in capsys.readouterr().err


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
        path = write(tmp_path, {"n": 1, "seed": 2, "t_end": 0.1,
                                "branches": [{"r_f": 0.1, "l_f": 1e-3}],
                                "network": {"z_net": [50.0, 0.0]}})
        sc = load_scenario(path)
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
