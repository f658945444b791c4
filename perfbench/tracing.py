"""Spans and counters recorded from outside dvocsim, at its module boundaries.

A module binds a function under its own name when it does
``from .engine import simulate``, so ``cli.simulate`` and ``engine.simulate``
are distinct bindings.  Every binding the workloads reach is patched in the
namespace that looks it up (``BINDINGS``).  A span is named after the module
that *defines* the function (``cli.simulate`` records ``engine.simulate``), so
the first part of a span name is its layer.  Hot inner calls
(``rk4_increment``, ``sym_lambda_max``) get counters only, no spans.

Spans are kept in memory; the worker writes them out when the run ends.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("engine", "scenarios", "network", "certificates", "cli")

# (module, attribute, span name); the owner "network.NetworkConfig" is a class
BINDINGS = (
    ("cli", "main", "cli.main"),
    ("cli", "run", "cli.run"),
    ("cli", "write_timeseries", "cli.write_timeseries"),
    ("cli", "build_report", "cli.build_report"),
    ("engine", "simulate", "engine.simulate"),
    ("cli", "simulate", "engine.simulate"),
    ("scenarios", "build_case", "scenarios.build_case"),
    ("cli", "build_case", "scenarios.build_case"),
    ("scenarios", "build_metrics", "scenarios.build_metrics"),
    ("cli", "build_metrics", "scenarios.build_metrics"),
    ("scenarios", "sync_error", "scenarios.sync_error"),
    ("cli", "predicted_r_star", "scenarios.predicted_r_star"),
    ("certificates", "certificate_margin", "certificates.certificate_margin"),
    ("cli", "certificate_margin", "certificates.certificate_margin"),
    ("certificates", "sampled_lambda_check",
     "certificates.sampled_lambda_check"),
    ("cli", "sampled_lambda_check", "certificates.sampled_lambda_check"),
    ("certificates", "error_ball_radius", "certificates.error_ball_radius"),
    ("cli", "error_ball_radius", "certificates.error_ball_radius"),
    ("certificates", "envelope_check", "certificates.envelope_check"),
    ("network.NetworkConfig", "admittances", "network.admittances"),
    ("network", "k_sh", "network.k_sh"),
    ("cli", "k_sh", "network.k_sh"),
    ("network", "particular_radius", "network.particular_radius"),
    ("scenarios", "particular_radius", "network.particular_radius"),
    ("network", "synchronized_steady", "network.synchronized_steady"),
)

# every per-layer metric layer_metrics() returns, plus the run-level overhead
UNITS = {
    "engine.simulate_s": "s", "engine.us_per_step": "us",
    "engine.steps": "count", "engine.field_evals": "count",
    "engine.calls": "count", "engine.s_per_call": "s",
    "engine.diverged": "count", "engine.self_frac": "frac",
    "scenarios.build_case_s": "s", "scenarios.build_metrics_s": "s",
    "scenarios.build_metrics_peak_mb": "MB", "scenarios.sync_error_s": "s",
    "scenarios.sync_error_calls": "count",
    "scenarios.sync_error_bytes_computed": "bytes",
    "scenarios.self_frac": "frac",
    "cli.parse_s": "s", "cli.write_timeseries_s": "s",
    "cli.csv_bytes": "bytes", "cli.csv_mb_per_s": "MB/s",
    "cli.build_report_s": "s", "cli.report_bytes": "bytes",
    "cli.self_s": "s", "cli.self_frac": "frac",
    "certificates.sampled_lambda_s": "s",
    "certificates.samples_per_s": "1/s",
    "certificates.envelope_check_s": "s",
    "certificates.envelope_false_neg": "count",
    "certificates.self_frac": "frac",
    "oscillator.sym_lambda_max_calls": "count",
    "network.calls": "count", "network.s": "s",
    "bench.self_frac": "frac", "trace.overhead_frac": "frac",
}

# (module, attribute, counter name): called per step or per sample
COUNTED = (
    ("engine", "rk4_increment", "engine.rk4_increment"),
    ("certificates", "sym_lambda_max", "oscillator.sym_lambda_max"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "extra")

    def __init__(self, name: str, parent: int, extra: dict):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.error = None
        self.extra = extra

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "error": self.error,
                **self.extra}


def _extra(name: str, args: tuple, kwargs: dict) -> dict:
    """Work sizes read from a call's arguments, before the call runs."""
    if name == "scenarios.sync_error":
        s1, n = args[0].x.shape
        # the (S+1, N, N) complex128 difference tensor, from array sizes
        return {"bytes_computed": s1 * n * n * 16}
    if name == "certificates.sampled_lambda_check":
        n = kwargs["n_samples"] if "n_samples" in kwargs else args[2]
        return {"samples": n}
    return {}


class Tracer:
    """Patches the bindings, records spans and counters until removed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        owner = getattr(self.modules, mod)
        return getattr(owner, cls) if cls else owner

    def install(self) -> None:
        for table, wrap in ((BINDINGS, self._spanned),
                            (COUNTED, self._counted)):
            for path, attr, name in table:
                owner = self._owner(path)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrap(name, fn))

    def remove(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def reset(self) -> None:
        self.spans = []
        self.counters = defaultdict(int)

    def _spanned(self, name: str, fn):
        stack = self._stack
        track_memory = name == "scenarios.build_metrics"

        def wrapped(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1,
                        _extra(name, args, kwargs))
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            if track_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if track_memory:
                    span.extra["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if name == "cli.write_timeseries":
                span.extra["bytes"] = os.path.getsize(args[1])
            return result

        return wrapped

    def _counted(self, name: str, fn):
        def wrapped(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapped


def span_self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


def _total(spans, name, key=None):
    if key is None:
        return sum(s.duration for s in spans if s.name == name)
    return sum(s.extra.get(key, 0) for s in spans if s.name == name)


def _per(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], counters: dict, op_wall: float,
                  facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    ``facts`` holds what the workload measured itself: the report size and
    the envelope verdicts.  Layers an operation does not reach read 0.
    """
    def count(name):
        return sum(1 for s in spans if s.name == name)

    own = span_self_times(spans)
    selfs = dict.fromkeys(LAYERS, 0.0)
    for span, t in zip(spans, own):
        selfs[span.layer] += t
    top = sum(s.duration for s in spans if s.parent < 0)
    steps = counters.get("engine.rk4_increment", 0)
    simulate_s = _total(spans, "engine.simulate")
    calls = count("engine.simulate")
    wt_s = _total(spans, "cli.write_timeseries")
    csv_bytes = _total(spans, "cli.write_timeseries", "bytes")
    sampled_s = _total(spans, "certificates.sampled_lambda_check")
    samples = _total(spans, "certificates.sampled_lambda_check", "samples")
    run_self = sum(t for s, t in zip(spans, own) if s.name == "cli.run")
    peaks = [s.extra["peak_bytes"] for s in spans
             if s.name == "scenarios.build_metrics"]
    m = {
        "engine.simulate_s": simulate_s,
        "engine.us_per_step": _per(simulate_s * 1e6, steps),
        "engine.steps": steps,
        "engine.field_evals": 4 * steps,
        "engine.calls": calls,
        "engine.s_per_call": _per(simulate_s, calls),
        "engine.diverged": sum(1 for s in spans if s.name == "engine.simulate"
                               and s.error == "SimulationDiverged"),
        "scenarios.build_case_s": _total(spans, "scenarios.build_case"),
        "scenarios.build_metrics_s": _total(spans, "scenarios.build_metrics"),
        "scenarios.build_metrics_peak_mb": max(peaks, default=0) / 2**20,
        "scenarios.sync_error_s": _total(spans, "scenarios.sync_error"),
        "scenarios.sync_error_calls": count("scenarios.sync_error"),
        "scenarios.sync_error_bytes_computed":
            _total(spans, "scenarios.sync_error", "bytes_computed"),
        "cli.parse_s": _total(spans, "cli.main") - _total(spans, "cli.run"),
        "cli.write_timeseries_s": wt_s,
        "cli.csv_bytes": csv_bytes,
        "cli.csv_mb_per_s": _per(csv_bytes / 1e6, wt_s),
        "cli.build_report_s": _total(spans, "cli.build_report"),
        "cli.report_bytes": facts.get("report_bytes", 0),
        "cli.self_s": run_self,
        "certificates.sampled_lambda_s": sampled_s,
        "certificates.samples_per_s": _per(samples, sampled_s),
        "certificates.envelope_check_s":
            _total(spans, "certificates.envelope_check"),
        "certificates.envelope_false_neg": facts.get("envelope_false_neg", 0),
        "oscillator.sym_lambda_max_calls":
            counters.get("oscillator.sym_lambda_max", 0),
        "network.calls": sum(1 for s in spans if s.layer == "network"),
        "network.s": selfs["network"],
        "bench.self_frac": _per(op_wall - top, op_wall),
    }
    for layer in ("engine", "scenarios", "certificates", "cli"):
        m[f"{layer}.self_frac"] = _per(selfs[layer], op_wall)
    return m
