"""Command-line entry point, scenario files and the report; the time
series, ``timeseries.csv``, is ``_csvstream``'s.

Scenario files are strict JSON: unknown keys are rejected so a typo in a
physics parameter cannot silently fall back to a default.  Two forms exist:

* case form: ``{"case": "II", "n": 4, "seed": 7, ...}`` builds a stock
  scenario, with optional knobs under "network"/"oscillator"/"init"/...
* explicit form: no "case" key; per-branch impedances and the downstream
  impedance are spelled out.  This is also the fully-resolved form the tool
  echoes into every report, and it round-trips.

Complex values are written as two-element ``[re, im]`` arrays.  Inverter
numbering in files and reports is 1-based (matching column names such as
``x_alpha_1``); Python APIs are 0-based.

Exit codes: 0 success (for ``certify``: certificate passed); 1 bad input,
which includes a usage error such as a missing or unknown flag, an
unsatisfied certificate or an IO failure; 2 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, NoReturn, Optional, Sequence

import numpy as np

from .certificates import (NotContractingError, certificate_margin,
                           error_ball_radius, sampled_lambda_check)
from .engine import (DisturbanceSpec, InitSpec, Scenario, SimulationDiverged,
                     Trajectory, simulate)
from .network import BranchParams, NetworkConfig, OscillatorDeath, k_sh
from .oscillator import InverterParams
from .scenarios import (DEFAULT_WINDOW, build_case, build_metrics,
                        predicted_r_star)

SCENARIO_KEYS = ("case", "n", "seed", "t_end", "dt", "oscillator", "branches",
                 "network", "init", "disturbance")
CASE_NETWORK_KEYS = ("t_z", "load_pu", "load_angle", "domination_ratio",
                     "zt_multiplier", "zt_jitter")


class ScenarioError(ValueError):
    """A scenario file or override is malformed."""


# ---------------------------------------------------------------------------
# scenario (de)serialization


def _check_keys(d: dict, allowed: Sequence[str], where: str) -> None:
    for key in d:
        if key not in allowed:
            raise ScenarioError(f"unknown key '{key}' in {where}")


def _object(v: Any, where: str) -> dict:
    if not isinstance(v, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    return v


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _as_complex(d: dict, key: str, where: str) -> complex:
    v = d[key]
    if _is_number(v):
        return complex(v)
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(_is_number(c) for c in v)):
        return complex(v[0], v[1])
    raise ScenarioError(f"'{where}.{key}' must be a number or [re, im] pair")


def _num(d: dict, key: str, where: str, default=None) -> Any:
    v = d.get(key, default)
    if v is None:
        raise ScenarioError(f"missing required key '{key}' in {where}")
    if not _is_number(v):
        raise ScenarioError(f"'{key}' in {where} must be a number")
    return v


def _whole(d: dict, key: str, where: str) -> int:
    v = _num(d, key, where)
    if v != int(v):
        raise ScenarioError(f"'{key}' in {where} must be a whole number, "
                            f"got {v}")
    return int(v)


# how _section reads a field, by its declared type (a name, since every module
# postpones annotations); a str field is validated by its own dataclass
_READERS = {
    "float": lambda d, key, where: float(_num(d, key, where)),
    "int": _whole,
    "complex": _as_complex,
    "str": lambda d, key, where: d[key],
}


def _section(cls, obj: Any, where: str, **given: Any) -> Any:
    """Dataclass ``cls`` from the JSON object ``obj``, field by field.

    The fields in ``given`` are filled in by the caller and are not keys of
    ``obj``; every other field is read by its declared type, and an absent
    one takes its default.
    """
    d = _object(obj, where)
    own = [f for f in dataclasses.fields(cls) if f.name not in given]
    _check_keys(d, [f.name for f in own], where)
    for f in own:
        if f.name in d:
            given[f.name] = _READERS[f.type](d, f.name, where)
        elif f.default is dataclasses.MISSING:
            raise ScenarioError(f"missing required key '{f.name}' in {where}")
    return cls(**given)


def _parse_init(d: Any, seed: int) -> InitSpec:
    d = dict(_object(d, "init"))
    overrides = []
    for key, val in _object(d.pop("overrides", {}), "init.overrides").items():
        # only the canonical ASCII form: int() also reads "1_0", "02", " 2"
        # and non-ASCII digits, so two keys could name one inverter
        try:
            idx = int(key)
        except ValueError:
            idx = None
        if idx is None or str(idx) != key:
            raise ScenarioError(f"init override key '{key}' is not an "
                                "inverter number")
        if not _is_number(val):
            raise ScenarioError(f"init override for inverter {idx} must "
                                "be a number")
        overrides.append((idx - 1, float(val)))
    return _section(InitSpec, d, "init", seed=seed,
                    overrides=tuple(sorted(overrides)))


def _parse_disturbance(d: Any) -> Optional[DisturbanceSpec]:
    if d is None:
        return None
    spec = _section(DisturbanceSpec, d, "disturbance")
    return dataclasses.replace(spec, inverter=spec.inverter - 1)


def scenario_from_dict(raw: Any) -> Scenario:
    """Strictly parse a scenario dict (case form or explicit form); a
    malformed dict raises ScenarioError, and a value the library refuses (an
    inverter out of range, a zero branch impedance) its ValueError."""
    _check_keys(_object(raw, "scenario"), SCENARIO_KEYS, "scenario")
    seed = _whole(raw, "seed", "scenario")
    n = _whole(raw, "n", "scenario")
    params = _section(InverterParams, raw.get("oscillator", {}), "oscillator")
    t_end = float(_num(raw, "t_end", "scenario", 2.0))
    dt = float(_num(raw, "dt", "scenario", 1e-4))
    init = _parse_init(raw["init"], seed) if "init" in raw else None
    disturbance = _parse_disturbance(raw.get("disturbance"))

    if "case" in raw:
        if "branches" in raw:
            raise ScenarioError("'branches' is not allowed together with "
                                "'case' (the case defines the branches)")
        net = dict(_object(raw.get("network", {}), "network"))
        _check_keys(net, CASE_NETWORK_KEYS, "network")
        jitter = net.pop("zt_jitter", False)
        if not isinstance(jitter, bool):
            raise ScenarioError("'zt_jitter' in network must be a boolean")
        knobs = {k: float(_num(net, k, "network")) for k in net}
        return build_case(str(raw["case"]), n, seed, t_end=t_end, dt=dt,
                          zt_jitter=jitter, base=params, init=init,
                          disturbance=disturbance, **knobs)

    # explicit form
    if "branches" not in raw:
        raise ScenarioError("scenario needs either 'case' or 'branches'")
    branches_raw = raw["branches"]
    if not isinstance(branches_raw, list) or not branches_raw:
        raise ScenarioError("'branches' must be a non-empty list")
    if len(branches_raw) != n:
        raise ScenarioError(f"'n' is {n} but {len(branches_raw)} branches "
                            "are given")
    branches = tuple(_section(BranchParams, b, f"branches[{i}]")
                     for i, b in enumerate(branches_raw, start=1))
    network = _section(NetworkConfig, raw.get("network"), "network",
                       branches=branches)
    if init is None:
        init = InitSpec(seed=seed)
    return Scenario(params=(params,) * n, network=network, t_end=t_end,
                    dt=dt, init=init, disturbance=disturbance)


def _json_value(v: Any) -> Any:
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v.tolist() if isinstance(v, np.ndarray) else v


def _to_json(obj: Any, *skip: str) -> dict:
    """A dataclass's fields as JSON values; complex numbers become [re, im]
    and arrays lists."""
    return {f.name: _json_value(getattr(obj, f.name))
            for f in dataclasses.fields(obj) if f.name not in skip}


def scenario_to_dict(scenario: Scenario) -> dict:
    """Fully-resolved, round-trippable scenario dict (explicit form)."""
    init, disturbance = scenario.init, scenario.disturbance
    return {
        "n": scenario.n,
        "seed": init.seed,
        "t_end": scenario.t_end,
        "dt": scenario.dt,
        "oscillator": _to_json(scenario.params[0]),
        "branches": [_to_json(b) for b in scenario.network.branches],
        "network": _to_json(scenario.network, "branches"),
        "init": {**_to_json(init, "seed"), "overrides": {
            str(k + 1): v for k, v in init.overrides}},
        "disturbance": None if disturbance is None else {
            **_to_json(disturbance), "inverter": disturbance.inverter + 1},
    }


def _reject_constant(name: str) -> NoReturn:
    raise ScenarioError(f"{name} is not a finite number; scenario values "
                        "must be finite")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        _reject_constant(text)
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"duplicate key '{key}' in a JSON object")
        obj[key] = value
    return obj


def _strict_json(text: str) -> Any:
    """JSON without NaN, +/-Infinity, literals that overflow to infinity or
    an object that repeats a key."""
    return json.loads(text, parse_constant=_reject_constant,
                      parse_float=_finite_float, object_pairs_hook=_unique_keys)


def _read_scenario_json(path: str | Path) -> dict:
    try:
        raw = _strict_json(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path} is not valid JSON: {err}") from err
    return _object(raw, "scenario")


def apply_overrides(raw: dict, sets: Sequence[str]) -> dict:
    """Apply repeatable ``--set dotted.path=value`` overrides to a raw dict."""
    out = json.loads(json.dumps(raw))     # deep copy, JSON types only
    for item in sets:
        if "=" not in item:
            raise ScenarioError(f"--set needs key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = _strict_json(text)
        except json.JSONDecodeError:
            value = text                   # bare strings allowed
        node = out
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ScenarioError(f"--set path '{key}' crosses a non-object")
        node[parts[-1]] = value
    return out


# ---------------------------------------------------------------------------
# outputs


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_timeseries(traj: Trajectory, path: str | Path,
                     stream=None) -> None:
    """The CSV time series of ``traj`` at ``path``, formatted by ``stream``,
    the processes that followed the run as it was recorded, or else by
    processes started here (see ``_csvstream``); raises OSError naming
    ``path`` when they fail, and leaves no process and no partial file."""
    if stream is None:
        from ._csvstream import Stream
        stream = Stream(traj, path)
    try:
        stream.finish()
    finally:
        stream.close()


def build_report(traj: Trajectory,
                 diverged: Optional[SimulationDiverged] = None) -> dict:
    """Everything a run produces, as one JSON-ready dict."""
    scenario = traj.scenario
    try:
        metrics = build_metrics(traj)
    except ValueError:  # a run no longer than the window has no metrics
        metrics = None
    ks = k_sh(scenario.network, scenario.params[0].omega0)
    r_star = predicted_r_star(scenario)
    return {
        "scenario": scenario_to_dict(scenario),
        "certificate": dataclasses.asdict(
            certificate_margin(scenario.params[0])),
        "metrics": None if metrics is None else _to_json(
            metrics, "current_amplitudes", "separation"),
        "steady_state": {
            "k_sh": [ks.real, ks.imag],
            "r_star": None if isinstance(r_star, OscillatorDeath) else r_star,
            "oscillator_death": isinstance(r_star, OscillatorDeath),
        },
        "diverged": None if diverged is None else {
            "t": diverged.t, "inverter": diverged.inverter + 1},
    }


# ---------------------------------------------------------------------------
# commands


def _oscillator_for(config: argparse.Namespace) -> InverterParams:
    """Oscillator constants: the ``oscillator`` section of --scenario, or the
    defaults, with --set applied.  Nothing else of the file is built, so a
    scenario too large to simulate can still be certified."""
    if config.scenario_path is None:
        return _section(InverterParams, apply_overrides({}, config.overrides),
                        "--set")
    raw = apply_overrides(_read_scenario_json(config.scenario_path),
                          config.overrides)
    _check_keys(raw, SCENARIO_KEYS, "scenario")
    return _section(InverterParams, raw.get("oscillator", {}), "oscillator")


def _write_json(path: Path, payload: dict) -> None:
    """``payload`` as strict JSON with an indent of 2, encoded into the file
    piece by piece rather than as one string, under a partial name renamed
    to ``path`` once complete.  An earlier file at ``path`` is removed
    first, so a payload that cannot be encoded (a NaN, say) or a process
    killed meanwhile leaves no file there."""
    from ._csvstream import _partial
    path.unlink(missing_ok=True)
    temp = _partial(path)
    try:
        with temp.open("x") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _cmd_certify(config: argparse.Namespace) -> int:
    if config.samples < 0:
        raise ScenarioError(f"--samples must be >= 0, got {config.samples}")
    if config.seed is not None and config.seed < 0:
        raise ScenarioError(f"seed must be >= 0, got {config.seed}")
    params = _oscillator_for(config)
    radius = config.sample_radius
    if not (radius > 0 and math.isfinite(4.0 * params.xi * radius * radius)):
        raise ScenarioError(f"--radius must be finite and > 0, with "
                            f"4*xi*radius^2 finite (xi = {params.xi}), got "
                            f"{radius}")
    report = certificate_margin(params)
    found: dict[str, float] = {}
    if config.d_bar is not None:
        # error_ball_radius checks d_bar before c: a bad d_bar is an error
        # even when the failing certificate has no error ball
        try:
            found["error_ball_radius"] = error_ball_radius(config.d_bar,
                                                           report.margin_c)
        except NotContractingError:
            pass
    if config.samples > 0:
        found["lambda_max_sampled"] = sampled_lambda_check(
            params, radius, config.samples, config.seed or 0)
    report = dataclasses.replace(report, **found)
    print(json.dumps(dataclasses.asdict(report), indent=2, allow_nan=False))
    print(f"certificate: {'PASS' if report.passed else 'FAIL'} "
          f"(margin_c = {report.margin_c:.6g} 1/s)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_simulate(config: argparse.Namespace) -> int:
    raw = ({"case": config.case, "n": config.n, "seed": 0}
           if config.case is not None
           else _read_scenario_json(config.scenario_path))
    if config.seed is not None:
        raw["seed"] = config.seed
    scenario = scenario_from_dict(apply_overrides(raw, config.overrides))
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    diverged: Optional[SimulationDiverged] = None
    # the series is formatted while the run goes on, and report.json is
    # written after it, so that a run whose series fails writes neither
    # (an earlier run's files stay as they were)
    from ._csvstream import Stream
    stream = Stream.recording(scenario, out / "timeseries.csv")
    try:
        try:
            traj = simulate(scenario, sink=stream)
        except SimulationDiverged as err:
            diverged = err
            traj = err.trajectory
        report = build_report(traj, diverged)
        write_timeseries(traj, out / "timeseries.csv", stream)
    finally:
        stream.close()
    _write_json(out / "report.json", report)
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
        return 2
    if report["metrics"] is None:
        print(f"note: t_end = {scenario.t_end:.6g} s is not longer than the "
              f"{DEFAULT_WINDOW:.6g} s averaging window, so report.json has "
              "no metrics", file=sys.stderr)
    print(f"wrote {out / 'timeseries.csv'} and {out / 'report.json'}",
          file=sys.stderr)
    return 0


def _cmd_sweep(config: argparse.Namespace) -> int:
    base = _oscillator_for(config)
    text = ("0,0.25,0.5,0.75,1,1.25,1.5,1.75,2" if config.kappas is None
            else config.kappas)
    try:
        kappas = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        kappas = []
    if not kappas:
        raise ScenarioError(f"--kappas must be comma-separated numbers, "
                            f"got {text!r}")
    # every kappa is checked before anything is printed or created
    reports = [certificate_margin(dataclasses.replace(base, kappa=kappa))
               for kappa in kappas]
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["kappa,margin_c,passed"]
    print(f"{'kappa':>10} {'margin_c':>14} pass")
    for kappa, report in zip(kappas, reports):
        lines.append(f"{_fmt(kappa)},{_fmt(report.margin_c)},"
                     f"{str(report.passed).lower()}")
        print(f"{kappa:>10.4g} {report.margin_c:>14.6g} "
              f"{'yes' if report.passed else 'no'}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One declaration per command: its help, its handler and the flags the
    handler reads; ``run`` calls the handler."""
    flags: dict[str, dict[str, Any]] = {
        "--scenario": dict(dest="scenario_path", metavar="PATH",
                           help="scenario JSON file"),
        "--seed": dict(type=int, help="override the scenario seed"),
        "--set": dict(dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE", help="override a scenario entry "
                      "(dotted path, repeatable)"),
        "--out": dict(dest="out_dir", metavar="DIR", help="output directory"),
        "--n": dict(type=int, default=4, help="number of inverters"),
        "--samples": dict(type=int, default=0,
                          help="also sample the Jacobian eigenvalue bound"),
        "--radius": dict(dest="sample_radius", type=float, default=2.0),
        "--d-bar": dict(dest="d_bar", type=float,
                        help="disturbance bound for the error-ball radius"),
        "--kappas": dict(help="comma-separated kappa values"),
    }
    parser = argparse.ArgumentParser(
        prog="dvocsim",
        description="Simulate parallel grid-forming oscillators and check "
                    "their synchronization certificate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, handler, *names, required=("--out",),
                **defaults) -> None:
        p = sub.add_parser(name, help=help_text)
        for flag in names:
            p.add_argument(flag, required=flag in required, **flags[flag])
        p.set_defaults(handler=handler, **defaults)

    command("certify", "algebraic contraction certificate", _cmd_certify,
            "--scenario", "--seed", "--set", "--samples", "--radius", "--d-bar")
    command("simulate", "run a scenario file", _cmd_simulate,
            "--scenario", "--seed", "--set", "--out",
            required=("--scenario", "--out"), case=None)
    command("case1", "stock start-up scenario, equal branches", _cmd_simulate,
            "--n", "--seed", "--set", "--out", case="I")
    command("case2", "stock sharing scenario, 20:10.5 groups", _cmd_simulate,
            "--n", "--seed", "--set", "--out", case="II")
    command("sweep", "kappa grid of certificate margins", _cmd_sweep,
            "--scenario", "--set", "--out", "--kappas")
    return parser


def run(config: argparse.Namespace) -> int:
    """Run one parsed command's handler; returns the process exit code."""
    try:
        return config.handler(config)
    except (ScenarioError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = build_parser().parse_args(argv)
    except SystemExit as stop:
        # --help (0) or a usage error (argparse's 2, dvocsim's divergence)
        return 1 if stop.code else 0
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
