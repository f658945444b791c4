"""dvocsim benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload long-n4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dvocsim is imported from its ``src/``.
This process never imports dvocsim.  It starts child processes one at a
time, each with BLAS/OpenMP pinned to one thread: the measuring worker
(worker.py) and, with ``--trace 0``, set-up probes before and after it (a
first, untimed one fills the file caches).  The last line of standard output
is the result; the line before it (``{"info": ...}``) records the
environment, the seed, the operation count behind ``ops_failed_frac`` and
what the workload measured for information only.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics.  Operation times are reported in units of a fixed
reference kernel timed right after each point (reference.py); NOTES.md says
why and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long-n4", "wide-n100", "sweep-short", "certify-sampled")
SETUP_PROBES = 3           # before and again after the worker
DEADLINE_S = 170.0          # the whole run, probes included
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def child(args: argparse.Namespace, deadline: float, extra=()) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    env = {**os.environ, **THREAD_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} worker did not finish in time")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"worker printed no result: {proc.stderr.strip()[-2000:]}")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in 1..60")
    if not (ROOT / "src" / "dvocsim").is_dir():
        fail(f"no dvocsim sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S

    def setup_probe() -> float:
        return child(args, deadline, ["--setup-only"])["setup_s"]

    probes = 0 if args.trace else SETUP_PROBES
    if probes:
        setup_probe()                               # fills file caches
    setups = [setup_probe() for _ in range(probes)]
    res = child(args, deadline)
    setups += [res["setup_s"]] + [setup_probe() for _ in range(probes)]

    attempted, failed = res["attempted"], res["failed"]
    best, rel = res["best_points"], res["rel_points"]
    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(res["layer"].items())}
    else:
        metrics = {
            "setup_s": {"value": min(setups), "unit": "s"},
            "wall_rel": {"value": sum(rel), "unit": "ref"},
            "point_p50_rel": {"value": percentile(rel, 0.5), "unit": "ref"},
            "point_p90_rel": {"value": percentile(rel, 0.9), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": attempted, "ops_failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": res["failures"],
        "operations_timed": len(res["op_walls"]),
        "points_per_operation": len(best),
        "ref_median_s": res["ref_median_s"],
        "wall_best_s": sum(best),
        "op_wall_median_s": statistics.median(res["op_walls"]),
        "raw_point_p50_s": percentile(res["raw_points"], 0.5),
        "raw_point_p90_s": percentile(res["raw_points"], 0.9),
        "setup_samples_s": setups,
        "setup_median_s": statistics.median(setups),
        "facts": res["facts"],
        "trace_file": res.get("trace_file"),
        "env": {"python": res["python"], "numpy": res["numpy"],
                "nproc": os.cpu_count(), "cpu": cpu_model(),
                "git_commit": git_commit(), **THREAD_ENV},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
