"""The four workloads: set-up, one timed operation, its checks.

All are closed loop: one caller, the next call after the previous returns.
Calls go through module attributes (``m.engine.simulate``), so the tracer's
patches see them.  Each operation returns one latency per checked point and
one message per failed point; checks run after the timed region.  After each
point it calls ``ref()``, which times the workload's ``REFERENCE`` mix of
reference slices (reference.py) in the same host state as the point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks


@dataclass
class OpResult:
    latencies: list[float]          # s, one per checked point
    refs: list[float]               # s, the reference kernel after each point
    failures: list[str]             # one message per failed point
    facts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _problems(*found) -> list[str]:
    return ["; ".join(p for p in found if p)] if any(found) else []


class LongN4:
    """Case II, N = 4, t_end = 1 s: 10 000 steps of the interpreter-bound
    step loop; engine is ~98 % of the time.  Mechanism workload for engine
    speed-ups, bypass workload for output and metrics work."""

    T_END = 1.0
    REFERENCE = {"small_arrays": 12}

    def __init__(self, m, seed: int, scratch: Path):
        self.m = m
        self.seed = seed

    def op(self, ref) -> OpResult:
        m = self.m
        start = time.perf_counter()
        scenario = m.scenarios.build_case("II", 4, self.seed, t_end=self.T_END)
        traj = m.engine.simulate(scenario)
        metrics = m.scenarios.build_metrics(traj)
        osc, branches, z_net = checks.scenario_dicts(scenario)
        c = checks.margin(osc)
        verdicts = [m.certificates.envelope_check(
            traj.t, traj.x[:, 0], traj.t, traj.x[:, k], c).ok
            for k in range(1, traj.n)]
        elapsed = time.perf_counter() - start
        ref_s = ref()

        y = checks.branch_admittances(branches, osc["omega0"])
        r_star = checks.sync_amplitude(osc, checks.sync_bus_ratio(y, z_net))
        amp_err = abs(metrics.amplitude / r_star - 1.0)
        own = [checks.envelope_holds(traj.t, traj.x[:, 0], traj.x[:, k], c)
               for k in range(1, traj.n)]
        false_neg = sum(1 for prog, ok in zip(verdicts, own)
                        if ok and not prog)
        failures = _problems(
            None if metrics.synchronized else "not synchronized",
            checks.sharing_problem(metrics.sharing_ratios, branches,
                                   osc["omega0"]),
            None if amp_err <= checks.AMPLITUDE_TOL
            else f"amplitude off r* by {amp_err:.3g}",
            checks.rate_problem(metrics.fitted_rate, c),
            None if all(own) else f"envelope violated beyond the floor: {own}")
        return OpResult([elapsed], [ref_s], failures, {
            "envelope_false_neg": false_neg,
            "envelope_program_ok": verdicts,
            "envelope_floor_aware_ok": own,
            "amplitude_rel_err": amp_err,
            "rate_over_margin": (metrics.fitted_rate or 0.0) / c,
        })


class WideN100:
    """``dvocsim case2 --n 100`` through ``cli.main``, t_end = 0.1 s with the
    start-up impedance removed at 0.05 s: post-processing and the 14 MB CSV
    are most of the time and the O(S*N^2) sync_error tensor sets the memory
    peak.  Workload for post-processing and output work."""

    N = 100
    T_END = 0.1
    DT = 1e-4
    # roughly the CSV : sync_error : step-loop split of the operation
    REFERENCE = {"format": 9, "bulk": 3, "small_arrays": 1}

    def __init__(self, m, seed: int, scratch: Path):
        self.m = m
        self.scratch = scratch
        self.argv = ["case2", "--n", str(self.N), "--set",
                     f"t_end={self.T_END}", "--set", "network.t_z=0.05",
                     "--seed", str(seed)]

    def op(self, ref) -> OpResult:
        out = Path(tempfile.mkdtemp(prefix="wide-", dir=self.scratch))
        try:
            start = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                code = self.m.cli.main(self.argv + ["--out", str(out)])
            elapsed = time.perf_counter() - start
            ref_s = ref()
            failures, facts = self._check(code, out)
        finally:
            shutil.rmtree(out)
        return OpResult([elapsed], [ref_s], failures, facts)

    def _check(self, code: int, out: Path) -> tuple[list[str], dict]:
        if code != 0:
            return [f"exit code {code}"], {}
        rows, cols, commas, digest = _scan_csv(out / "timeseries.csv")
        report_text = (out / "report.json").read_text()
        report = json.loads(report_text)
        sc, metrics = report["scenario"], report["metrics"]
        osc = sc["oscillator"]
        c = checks.margin(osc)
        want_rows = round(self.T_END / self.DT) + 1
        want_cols = 1 + 7 * self.N + 2
        shape_ok = (rows == want_rows and cols == want_cols
                    and commas == (rows + 1) * (cols - 1))
        failures = _problems(
            None if shape_ok else
            f"csv has {rows} rows x {cols} columns, want "
            f"{want_rows} x {want_cols}",
            None if metrics["synchronized"] else "not synchronized",
            None if metrics["sharing_ratio_error"] <= checks.SHARING_TOL
            else f"sharing_ratio_error {metrics['sharing_ratio_error']}",
            checks.sharing_problem(metrics["sharing_ratios"], sc["branches"],
                                   osc["omega0"]),
            checks.rate_problem(metrics["fitted_rate"], c))
        return failures, {"csv_sha256": digest,
                          "report_bytes": len(report_text.encode()),
                          "rate_over_margin": (metrics["fitted_rate"] or 0) / c}


def _scan_csv(path: Path) -> tuple[int, int, int, str]:
    """Data rows, header columns, total commas and sha256, streamed."""
    digest = hashlib.sha256()
    newlines = commas = 0
    header = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 23):
            if not header:
                header = chunk.split(b"\n", 1)[0]
            digest.update(chunk)
            newlines += chunk.count(b"\n")
            commas += chunk.count(b",")
    return newlines - 1, header.count(b",") + 1, commas, digest.hexdigest()


class SweepShort:
    """100 independent short runs: kappa in {0.5, 1, 2, 4} x 25 seeds of
    case II, N = 8, t_end = 0.1 s, t_z = 0.05 s.  Many short runs, so
    per-call fixed cost matters; mechanism workload for a batched engine,
    with long-n4 as its single-run bypass."""

    KAPPAS = (0.5, 1.0, 2.0, 4.0)
    SEEDS_PER_KAPPA = 25
    REFERENCE = {"small_arrays": 2}

    def __init__(self, m, seed: int, scratch: Path):
        self.m = m
        rng = random.Random(seed)
        seeds = rng.sample(range(1 << 30), self.SEEDS_PER_KAPPA)
        base = m.oscillator.InverterParams()
        self.points = [(dataclasses.replace(base, kappa=k), s)
                       for k in self.KAPPAS for s in seeds]

    def op(self, ref) -> OpResult:
        m = self.m
        latencies, refs, failures = [], [], []
        for base, seed in self.points:
            start = time.perf_counter()
            scenario = m.scenarios.build_case("II", 8, seed, t_end=0.1,
                                              t_z=0.05, base=base)
            cert = m.certificates.certificate_margin(scenario.params[0])
            traj = m.engine.simulate(scenario)
            metrics = m.scenarios.build_metrics(traj)
            latencies.append(time.perf_counter() - start)
            refs.append(ref())

            osc, branches, _ = checks.scenario_dicts(scenario)
            c = checks.margin(osc)
            failures += [f"kappa={base.kappa} seed={seed}: {msg}" for msg in
                         _problems(
                None if cert.passed and abs(cert.margin_c - c) <= 1e-9 * c
                else f"certificate {cert.margin_c} vs {c}",
                None if metrics.synchronized else "not synchronized",
                checks.sharing_problem(metrics.sharing_ratios, branches,
                                       osc["omega0"]),
                checks.rate_problem(metrics.fitted_rate, c))]
        return OpResult(latencies, refs, failures)


class CertifySampled:
    """``dvocsim certify --samples 100000 --d-bar 5`` through ``cli.main``:
    nearly all time is sampled_lambda_check's per-Phasor loop over
    sym_lambda_max.  Mechanism workload for array-valued certificates; it
    bypasses the engine and CLI output."""

    SAMPLES = 100_000
    D_BAR = 5.0
    REFERENCE = {"small_matrix": 12}

    def __init__(self, m, seed: int, scratch: Path):
        self.m = m
        self.argv = ["certify", "--samples", str(self.SAMPLES),
                     "--d-bar", str(self.D_BAR), "--seed", str(seed)]

    def op(self, ref) -> OpResult:
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.m.cli.main(self.argv)
        elapsed = time.perf_counter() - start
        ref_s = ref()
        if code != 0:
            return OpResult([elapsed], [ref_s], [f"exit code {code}"])
        out = json.loads(stdout.getvalue())
        c = checks.margin(out["params"])
        ball = self.D_BAR / c
        failures = _problems(
            None if abs(out["margin_c"] - checks.CERTIFY_MARGIN)
            <= checks.CERTIFY_MARGIN_TOL else f"margin_c {out['margin_c']}",
            None if abs(out["margin_c"] - c) <= 1e-9 * c
            else f"margin_c {out['margin_c']} vs {c}",
            None if out["lambda_max_sampled"] <= -c + 1e-9
            else f"lambda_max_sampled {out['lambda_max_sampled']} > -c",
            None if abs(out["error_ball_radius"] - ball) <= 1e-12 * ball
            else f"error_ball_radius {out['error_ball_radius']} vs {ball}")
        return OpResult([elapsed], [ref_s], failures)


WORKLOADS = {
    "long-n4": LongN4,
    "wide-n100": WideN100,
    "sweep-short": SweepShort,
    "certify-sampled": CertifySampled,
}
