"""Command-line entry point, scenario files and report/time-series output.

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

Exit codes: 0 success (for ``certify``: certificate passed), 1 bad
input/unsatisfied certificate/IO failure, 2 simulation divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Any, NoReturn, Optional, Sequence

import numpy as np

from .certificates import (CertificateReport, NotContractingError,
                           certificate_margin, error_ball_radius,
                           sampled_lambda_check)
from .engine import (DisturbanceSpec, InitSpec, Scenario, SimulationDiverged,
                     Trajectory, simulate)
from .network import BranchParams, NetworkConfig, OscillatorDeath, k_sh
from .oscillator import InverterParams
from .scenarios import build_case, build_metrics, predicted_r_star

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


def _parse_init(d: Any, seed: int, n: int) -> InitSpec:
    d = dict(_object(d, "init"))
    overrides = []
    for key, val in _object(d.pop("overrides", {}), "init.overrides").items():
        try:
            idx = int(key)
        except ValueError:
            raise ScenarioError(f"init override key '{key}' is not an "
                                "inverter number") from None
        if not 1 <= idx <= n:
            raise ScenarioError(f"init override inverter {idx} out of "
                                f"range 1..{n}")
        if not _is_number(val):
            raise ScenarioError(f"init override for inverter {idx} must "
                                "be a number")
        overrides.append((idx - 1, float(val)))
    return _section(InitSpec, d, "init", seed=seed,
                    overrides=tuple(sorted(overrides)))


def _parse_disturbance(d: Any, n: int) -> Optional[DisturbanceSpec]:
    if d is None:
        return None
    spec = _section(DisturbanceSpec, d, "disturbance")
    if not 1 <= spec.inverter <= n:
        raise ScenarioError(
            f"disturbance inverter {spec.inverter} out of range 1..{n}")
    return dataclasses.replace(spec, inverter=spec.inverter - 1)


def scenario_from_dict(raw: Any) -> Scenario:
    """Strictly parse a scenario dict (case form or explicit form)."""
    top = ("case", "n", "seed", "t_end", "dt", "oscillator", "branches",
           "network", "init", "disturbance")
    _check_keys(_object(raw, "scenario"), top, "scenario")
    if "seed" not in raw:
        raise ScenarioError("missing required key 'seed' in scenario")
    seed = _whole(raw, "seed", "scenario")
    n = _whole(raw, "n", "scenario")
    params = _section(InverterParams, raw.get("oscillator", {}), "oscillator")
    t_end = float(_num(raw, "t_end", "scenario", 2.0))
    dt = float(_num(raw, "dt", "scenario", 1e-4))
    init = _parse_init(raw["init"], seed, n) if "init" in raw else None
    disturbance = _parse_disturbance(raw.get("disturbance"), n)

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
                       branches=branches, omega_eval=params.omega0)
    if init is None:
        init = InitSpec(seed=seed)
    return Scenario(params=(params,) * n, network=network, t_end=t_end,
                    dt=dt, init=init, disturbance=disturbance)


def _to_json(obj: Any, *skip: str) -> dict:
    """A dataclass's fields as JSON values; complex numbers become [re, im]."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
              if f.name not in skip}
    return {k: [v.real, v.imag] if isinstance(v, complex) else v
            for k, v in values.items()}


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
        "network": _to_json(scenario.network, "branches", "omega_eval"),
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


def _strict_json(text: str) -> Any:
    """JSON without NaN, +/-Infinity or literals that overflow to infinity."""
    return json.loads(text, parse_constant=_reject_constant,
                      parse_float=_finite_float)


def _read_scenario_json(path: str | Path) -> Any:
    try:
        return _strict_json(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path} is not valid JSON: {err}") from err


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario JSON file (strict: unknown keys are errors)."""
    return scenario_from_dict(_read_scenario_json(path))


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


# rows per block of the time-series writer; bounds its memory, not its output
_CSV_BLOCK_ROWS = 64

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0     # inverse Clarke transform


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_timeseries(traj: Trajectory, path: str | Path) -> None:
    """CSV time series: states (pu), bus voltage (V), currents (A, alpha/beta
    and three-phase via the inverse Clarke transform), 17 significant digits.

    Rows are built and written a block at a time, so memory is
    O(block * columns) whatever the number of steps.
    """
    n = traj.n
    header = ["t"]
    header += [f"x_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += ["v_o_alpha", "v_o_beta"]
    header += [f"i_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += [f"i_{ph}_{k}" for k in range(1, n + 1) for ph in ("a", "b", "c")]
    # "%.17g" % v gives the same bytes as _fmt(v)
    row_fmt = ",".join(["%.17g"] * len(header)) + "\n"

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(traj.t), _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            x, v_o = traj.x[rows], traj.v_o[rows]
            re, im = traj.currents[rows].real, traj.currents[rows].imag
            block = np.empty((len(x), len(header)))
            block[:, 0] = traj.t[rows]
            block[:, 1:2 * n + 1:2] = x.real
            block[:, 2:2 * n + 1:2] = x.imag
            block[:, 2 * n + 1] = v_o.real
            block[:, 2 * n + 2] = v_o.imag
            i = 2 * n + 3
            block[:, i:i + 2 * n:2] = re
            block[:, i + 1:i + 2 * n:2] = im
            i += 2 * n
            block[:, i:i + 3 * n:3] = re
            block[:, i + 1:i + 3 * n:3] = -0.5 * re + SQRT3_OVER_2 * im
            block[:, i + 2:i + 3 * n:3] = -0.5 * re - SQRT3_OVER_2 * im
            fh.write("".join(row_fmt % tuple(row) for row in block.tolist()))


def certificate_to_dict(report: CertificateReport) -> dict:
    d = dataclasses.asdict(report)
    d["params"] = d.pop("params")     # last, as report.json has always had it
    return d


def build_report(scenario: Scenario, cert: CertificateReport,
                 traj: Optional[Trajectory] = None,
                 diverged: Optional[SimulationDiverged] = None) -> dict:
    """Everything a run produces, as one JSON-ready dict."""
    report: dict[str, Any] = {
        "scenario": scenario_to_dict(scenario),
        "certificate": certificate_to_dict(cert),
        "metrics": None,
        "steady_state": None,
        "diverged": None,
    }
    ks = k_sh(scenario.network, math.inf)
    r_star = predicted_r_star(scenario)
    report["steady_state"] = {
        "k_sh": [ks.real, ks.imag],
        "r_star": None if isinstance(r_star, OscillatorDeath) else r_star,
        "oscillator_death": isinstance(r_star, OscillatorDeath),
    }
    if traj is not None and len(traj.t) > 1:
        try:
            m = build_metrics(traj)
        except ValueError:
            m = None    # partial trajectories can be shorter than the window
        if m is not None:
            report["metrics"] = {
                "sync_time": m.sync_time,
                "sync_threshold": m.sync_threshold,
                "synchronized": m.synchronized,
                "sharing_ratios": list(m.sharing_ratios),
                "sharing_ratio_error": m.sharing_ratio_error,
                "amplitude": m.amplitude,
                "fitted_rate": m.fitted_rate,
                "window": m.window,
                "sync_error_series": m.sync_error_series.tolist(),
            }
    if diverged is not None:
        report["diverged"] = {"t": diverged.t,
                              "inverter": diverged.inverter + 1}
    return report


# ---------------------------------------------------------------------------
# commands


def _scenario_for(config: argparse.Namespace,
                  case: Optional[str]) -> Scenario:
    if case is not None:
        raw: dict[str, Any] = {"case": case, "n": config.n,
                               "seed": config.seed if config.seed is not None else 0}
    elif config.scenario_path is not None:
        raw = _object(_read_scenario_json(config.scenario_path), "scenario")
        if config.seed is not None:
            raw["seed"] = config.seed
    else:
        raise ScenarioError("a scenario file is required (--scenario)")
    raw = apply_overrides(raw, config.overrides)
    return scenario_from_dict(raw)


def _oscillator_for(config: argparse.Namespace) -> InverterParams:
    """Oscillator constants of --scenario, or the defaults plus --set."""
    if config.scenario_path is not None:
        return _scenario_for(config, None).params[0]
    return _section(InverterParams, apply_overrides({}, config.overrides),
                    "--set")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _cmd_certify(config: argparse.Namespace) -> int:
    if config.samples < 0:
        raise ScenarioError(f"--samples must be >= 0, got {config.samples}")
    params = _oscillator_for(config)
    report = certificate_margin(params)
    if config.d_bar is not None:
        # error_ball_radius checks d_bar before c: a bad d_bar is an error
        # even when the failing certificate has no error ball
        try:
            report = dataclasses.replace(report, error_ball_radius=(
                error_ball_radius(config.d_bar, report.margin_c)))
        except NotContractingError:
            pass
    if config.samples > 0:
        sampled = sampled_lambda_check(params, config.sample_radius,
                                       config.samples,
                                       config.seed if config.seed is not None else 0)
        report = dataclasses.replace(report,
                                     lambda_max_sampled=sampled.max_found)
    print(json.dumps(certificate_to_dict(report), indent=2))
    print(f"certificate: {'PASS' if report.passed else 'FAIL'} "
          f"(margin_c = {report.margin_c:.6g} 1/s)", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_simulate(config: argparse.Namespace, case: Optional[str]) -> int:
    scenario = _scenario_for(config, case)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cert = certificate_margin(scenario.params[0])
    diverged: Optional[SimulationDiverged] = None
    try:
        traj = simulate(scenario)
    except SimulationDiverged as err:
        diverged = err
        traj = err.trajectory
    if traj is not None:
        write_timeseries(traj, out / "timeseries.csv")
    _write_json(out / "report.json",
                build_report(scenario, cert, traj, diverged))
    if diverged is not None:
        print(f"error: {diverged}", file=sys.stderr)
        return 2
    print(f"wrote {out / 'timeseries.csv'} and {out / 'report.json'}",
          file=sys.stderr)
    return 0


def _cmd_sweep(config: argparse.Namespace) -> int:
    base = _oscillator_for(config)
    text = config.kappas or "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2"
    try:
        kappas = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ScenarioError(f"--kappas must be comma-separated numbers, "
                            f"got {text!r}") from None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["kappa,margin_c,passed"]
    print(f"{'kappa':>10} {'margin_c':>14} pass")
    for kappa in kappas:
        report = certificate_margin(dataclasses.replace(base, kappa=kappa))
        lines.append(f"{_fmt(kappa)},{_fmt(report.margin_c)},"
                     f"{str(report.passed).lower()}")
        print(f"{kappa:>10.4g} {report.margin_c:>14.6g} "
              f"{'yes' if report.passed else 'no'}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dvocsim",
        description="Simulate parallel grid-forming oscillators and check "
                    "their synchronization certificate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool) -> None:
        p.add_argument("--scenario", dest="scenario_path", metavar="PATH",
                       help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a scenario entry "
                       "(dotted path, repeatable)")
        if out_required:
            p.add_argument("--out", dest="out_dir", required=True,
                           metavar="DIR", help="output directory")

    p = sub.add_parser("certify", help="algebraic contraction certificate")
    common(p, out_required=False)
    p.add_argument("--samples", type=int, default=0,
                   help="also sample the Jacobian eigenvalue bound")
    p.add_argument("--radius", dest="sample_radius", type=float, default=2.0)
    p.add_argument("--d-bar", dest="d_bar", type=float,
                   help="disturbance bound for the error-ball radius")

    p = sub.add_parser("simulate", help="run a scenario file")
    common(p, out_required=True)

    for name, help_text in (("case1", "stock start-up scenario, equal branches"),
                            ("case2", "stock sharing scenario, 20:10.5 groups")):
        p = sub.add_parser(name, help=help_text)
        common(p, out_required=True)
        p.add_argument("--n", type=int, default=4, help="number of inverters")

    p = sub.add_parser("sweep", help="kappa grid of certificate margins")
    common(p, out_required=True)
    p.add_argument("--kappas", help="comma-separated kappa values")
    return parser


def run(config: argparse.Namespace) -> int:
    """Dispatch one parsed command; returns the process exit code."""
    try:
        if config.command == "certify":
            return _cmd_certify(config)
        if config.command == "simulate":
            return _cmd_simulate(config, None)
        if config.command == "case1":
            return _cmd_simulate(config, "I")
        if config.command == "case2":
            return _cmd_simulate(config, "II")
        if config.command == "sweep":
            return _cmd_sweep(config)
        raise ScenarioError(f"unknown command {config.command!r}")
    except (ScenarioError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
