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
import shutil
import sys
import tempfile
import threading
from pathlib import Path
from typing import IO, Any, NoReturn, Optional, Sequence

import numpy as np

from .certificates import (CertificateReport, NotContractingError,
                           certificate_margin, error_ball_radius,
                           sampled_lambda_check)
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


def _parse_init(d: Any, seed: int, n: int) -> InitSpec:
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
    _check_keys(_object(raw, "scenario"), SCENARIO_KEYS, "scenario")
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


# the forked time-series writer splits its rows into ranges of whole blocks
_CSV_BLOCK_ROWS = 64
# values per call of the CSV kernel (at least one row): each call has ~140 us
# of fixed cost, which more values per call spread thinner, but its
# temporaries peak at ~320 bytes a value (5 MB here); in the benchmark's
# wide-n100, 8192 and 16384 values ran alike, and 32768 ran no faster and
# raised the peak RSS by 6 MB
_CSV_CHUNK_VALUES = 16384

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0     # inverse Clarke transform


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no CPU affinity on this platform
        return os.cpu_count() or 1


def _format_rows(traj: Trajectory, start: int, stop: int, fh: IO[bytes]) -> None:
    """Rows ``start:stop`` of the time series, written to ``fh`` a few rows
    (about _CSV_CHUNK_VALUES values) at a time."""
    # imported here: only the writer needs the kernel, so importing the
    # package does not build its tables (or compile it, without a .pyc)
    from ._csvtext import csv_lines
    n = traj.n
    columns = 7 * n + 3
    # the block holds each distinct column once: i_a_k is i_alpha_k, so the
    # kernel formats it once and gathers its text twice
    i = 2 * n + 3
    order = np.arange(columns)
    order[i + 2 * n::3] = np.arange(i, i + 2 * n, 2)
    order[i + 2 * n + 1::3] = np.arange(i + 2 * n, i + 4 * n, 2)
    order[i + 2 * n + 2::3] = np.arange(i + 2 * n + 1, i + 4 * n, 2)
    step = max(1, _CSV_CHUNK_VALUES // columns)
    for first in range(start, stop, step):
        rows = slice(first, min(first + step, stop))
        x, v_o = traj.x[rows], traj.v_o[rows]
        re, im = traj.currents[rows].real, traj.currents[rows].imag
        block = np.empty((len(x), 6 * n + 3))
        block[:, 0] = traj.t[rows]
        block[:, 1:i - 2:2] = x.real
        block[:, 2:i - 2:2] = x.imag
        block[:, i - 2] = v_o.real
        block[:, i - 1] = v_o.imag
        block[:, i:i + 2 * n:2] = re
        block[:, i + 1:i + 2 * n:2] = im
        block[:, i + 2 * n::2] = -0.5 * re + SQRT3_OVER_2 * im
        block[:, i + 2 * n + 1::2] = -0.5 * re - SQRT3_OVER_2 * im
        fh.write(csv_lines(block, order))


def _format_in_child(traj: Trajectory, start: int, stop: int,
                     fh: IO[bytes]) -> NoReturn:
    """Format rows ``start:stop`` into ``fh`` and end this forked process.

    It always leaves through ``os._exit``: no atexit hook runs and no buffer
    inherited from the parent is flushed.  Exit status 0 means ``fh`` holds
    every row of the range.
    """
    status = 1
    try:
        _format_rows(traj, start, stop, fh)
        fh.flush()
        status = 0
    except Exception as err:
        os.write(2, f"error: rows {start}..{stop - 1}: {err!r}\n".encode())
    finally:
        os._exit(status)


def write_timeseries(traj: Trajectory, path: str | Path) -> None:
    """CSV time series: states (pu), bus voltage (V), currents (A, alpha/beta
    and three-phase via the inverse Clarke transform), 17 significant digits.

    The rows are split into contiguous ranges of whole blocks, one per CPU
    this process may run on.  Before the file is opened, one child per range
    after the first is forked to format its range into an unlinked temporary
    file in the output directory; this process writes the header and range 0,
    then appends each child's file in row order, so the bytes do not depend
    on the number of ranges.  Nothing is forked with one usable CPU, one
    block, no ``os.fork`` or other threads running (``fork`` is unsafe then).
    Each process formats a few rows at a time and files are copied in
    chunks, so memory is O(columns + _CSV_CHUNK_VALUES) whatever the number
    of steps; the output directory briefly holds up to one more CSV's worth
    of temporary data.

    Raises OSError naming ``path`` when a child fails; every child has been
    reaped when this returns or raises.
    """
    n = traj.n
    header = ["t"]
    header += [f"x_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += ["v_o_alpha", "v_o_beta"]
    header += [f"i_{ax}_{k}" for k in range(1, n + 1) for ax in ("alpha", "beta")]
    header += [f"i_{ph}_{k}" for k in range(1, n + 1) for ph in ("a", "b", "c")]

    steps = len(traj.t)
    blocks = -(-steps // _CSV_BLOCK_ROWS)
    parts = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        parts = max(1, min(_usable_cpus(), blocks))
    edges = [min(steps, blocks * k // parts * _CSV_BLOCK_ROWS)
             for k in range(parts + 1)]
    ranges = list(zip(edges[:-1], edges[1:]))

    temps: list[IO[bytes]] = []
    pids: list[int] = []        # children not yet reaped, in row order
    try:
        for start, stop in ranges[1:]:
            temps.append(tempfile.TemporaryFile(dir=Path(path).parent))
            pid = os.fork()
            if pid == 0:
                _format_in_child(traj, start, stop, temps[-1])
            pids.append(pid)
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode())
            _format_rows(traj, *ranges[0], fh)
            for (start, stop), tmp in zip(ranges[1:], temps):
                status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if status != 0:
                    raise OSError(f"{path}: rows {start}..{stop - 1} were not "
                                  f"formatted (child exit status {status})")
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for tmp in temps:
            tmp.close()


def build_report(scenario: Scenario, cert: CertificateReport,
                 traj: Trajectory,
                 diverged: Optional[SimulationDiverged] = None) -> dict:
    """Everything a run produces, as one JSON-ready dict."""
    try:
        metrics = build_metrics(traj)
    except ValueError:  # a run no longer than the window has no metrics
        metrics = None
    ks = k_sh(scenario.network, math.inf)
    r_star = predicted_r_star(scenario)
    return {
        "scenario": scenario_to_dict(scenario),
        "certificate": dataclasses.asdict(cert),
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
    path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


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
            params, radius, config.samples,
            config.seed or 0).max_found
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
    cert = certificate_margin(scenario.params[0])
    diverged: Optional[SimulationDiverged] = None
    try:
        traj = simulate(scenario)
    except SimulationDiverged as err:
        diverged = err
        traj = err.trajectory
    write_timeseries(traj, out / "timeseries.csv")
    report = build_report(scenario, cert, traj, diverged)
    _write_json(out / "report.json", report)
    if diverged is not None:
        # numbered from 1, as in report.json and the CSV columns
        print(f"error: state of inverter {diverged.inverter + 1} diverged at "
              f"t={diverged.t:.6g} s (last finite norm "
              f"{diverged.last_norm:.6g} pu)", file=sys.stderr)
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
