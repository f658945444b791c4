"""One benchmark process: import dvocsim from the checkout, set up, measure.

Started by run.py, one at a time.  With ``--setup-only`` it stops after
set-up and reports only the set-up time.  Otherwise it runs operations until
``--seconds`` would be exceeded and prints one JSON line: for each point, the
median over the run of its wall time over the mean reference-kernel time
just before and just after it; the raw samples; and the checks' outcome.  With ``--trace 1`` it
alternates untraced and traced operations: the fastest traced one gives the
per-layer metrics; the traced operations' reference-relative time over the
untraced operations' gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("certificates", "cli", "engine", "network", "oscillator",
           "scenarios")


def import_dvocsim() -> types.SimpleNamespace:
    """Import dvocsim from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dvocsim" / "__init__.py").is_file():
        sys.exit(f"worker: no dvocsim sources under {src}")
    sys.path.insert(0, str(src))
    import importlib
    mods = {name: importlib.import_module(f"dvocsim.{name}")
            for name in MODULES}
    origin = Path(mods["engine"].__file__).resolve()
    if src.resolve() not in origin.parents:
        sys.exit(f"worker: dvocsim was imported from {origin}, not {src}")
    return types.SimpleNamespace(**mods)


def run_ops(workload, seconds: float, tracer=None) -> dict:
    """Closed loop until the next operation (or pair) would pass ``seconds``.

    With a tracer, each round is one untraced and one traced operation, in
    alternating order.  ``ops`` lists (traced, result) in the order run.
    """
    rounds, ops, layer_rows, spans = [], [], [], []

    def ref() -> float:
        return reference.reference_s(workload.REFERENCE)

    first_ref = ref()
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            ops.append((False, workload.op(ref)))
        else:
            order = (False, True) if len(rounds) % 2 == 0 else (True, False)
            for with_trace in order:
                if not with_trace:
                    ops.append((False, workload.op(ref)))
                    continue
                tracer.reset()
                tracer.install()
                try:
                    res = workload.op(ref)
                finally:
                    tracer.remove()
                ops.append((True, res))
                layer_rows.append(tracing.layer_metrics(
                    tracer.spans, tracer.counters, res.wall, res.facts))
                spans.append({"spans": [s.as_dict() for s in tracer.spans],
                              "counters": dict(tracer.counters)})
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(rounds) > seconds:
            break
    return {"ops": ops, "layer_rows": layer_rows, "spans": spans,
            "first_ref": first_ref}


def relative_rows(ops, first_ref: float) -> list[list[float]]:
    """Each point's wall time over the mean of the reference times just
    before and just after it, one row per operation in ``ops``."""
    rows, before = [], first_ref
    for _, res in ops:
        refs = [before, *res.refs]
        rows.append([t / (0.5 * (refs[k] + refs[k + 1]))
                     for k, t in enumerate(res.latencies)])
        before = res.refs[-1]
    return rows


def column_medians(rows: list[list[float]]) -> list[float]:
    return [statistics.median(col) for col in zip(*rows)]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    start = time.perf_counter()
    m = import_dvocsim()
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](m, args.seed, OUT_DIR)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    import numpy
    tracer = tracing.Tracer(m) if args.trace else None
    got = run_ops(workload, args.seconds, tracer)
    results = [res for _, res in got["ops"]]
    failures = [f for r in results for f in r.failures]
    facts = {}
    for r in results:
        for key, value in r.facts.items():
            facts.setdefault(key, [])
            if value not in facts[key]:
                facts[key].append(value)
    rows = relative_rows(got["ops"], got["first_ref"])
    untraced = [res for traced, res in got["ops"] if not traced]
    # each point's median over the run, in reference-kernel units
    rel = column_medians([row for (traced, _), row in zip(got["ops"], rows)
                          if not traced])
    best = [min(col) for col in zip(*(r.latencies for r in untraced))]
    raw = [t for r in untraced for t in r.latencies]
    out = {
        "setup_s": setup_s,
        "rel_points": rel,
        "best_points": best,
        "ref_median_s": statistics.median(
            t for r in untraced for t in r.refs),
        "op_walls": [r.wall for r in untraced],
        "raw_points": raw,
        "attempted": sum(len(r.latencies) for r in results),
        "failed": len(failures),
        "failures": failures[:5],
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        traced = [res for t, res in got["ops"] if t]
        fastest = min(range(len(traced)), key=lambda i: traced[i].wall)
        layer = dict(got["layer_rows"][fastest])
        traced_rel = column_medians([row for (t, _), row
                                     in zip(got["ops"], rows) if t])
        layer["trace.overhead_frac"] = sum(traced_rel) / sum(rel) - 1.0
        out["layer"] = layer
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(got["spans"]))
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
