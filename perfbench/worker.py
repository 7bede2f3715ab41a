"""Runs one workload in this process and prints what it measured as one JSON line.

run.py starts it with PYTHONPATH pointing at the checkout's ``src`` and with
BLAS/OpenMP threads pinned to 1.  Modes:

  timed  set up, then whole passes until --seconds have elapsed (at least one)
  trace  set up, one untraced pass, then one traced pass
  setup  set up only: one more sample of the set-up time

Set-up is the import of entcert (with numpy and scipy) plus the construction
of the workload's inputs.  Set-up and every pass run under a speed probe
(speed.py), which gives their times at the reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _pass(workload, inputs) -> dict:
    """One pass, timed, then checked. A pass that raises fails every task in it.

    The pass runs under a speed probe: it has a time at the reference speed,
    and its wall time leaves out the probe's samples.
    """
    attempted = workload.tasks(inputs)
    start = time.perf_counter()
    try:
        with speed.SpeedProbe() as probe:
            outputs = workload.run(inputs)
        wall_s = time.perf_counter() - start - probe.probe_s
        checked = workload.check(inputs, outputs)
    except Exception as exc:  # the benchmark reports the failure instead of dying
        return {
            "wall_s": time.perf_counter() - start,
            "tasks_s": [],
            "attempted": attempted,
            "failed": attempted,
            "failures": [f"pass raised {type(exc).__name__}: {exc}"],
            "digest": None,
        }
    return {
        "wall_s": wall_s,
        "ref_s": probe.ref_s,
        "tasks_s": outputs.tasks_s,
        "attempted": attempted,
        "failed": min(attempted, len(checked.failures)),
        "failures": checked.failures,
        "digest": checked.digest,
        "mass_sum": checked.mass_sum,
        "returned": len(checked.worst_cases),
        "unconverged": sum(1 for r in checked.worst_cases if not r.converged),
    }


def _environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("timed", "trace", "setup"), required=True)
    parser.add_argument("--spans", default=None, help="trace mode: gzip CSV path for the spans")
    args = parser.parse_args()

    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        import workloads  # imports entcert, numpy and scipy

        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.setup(args.seed)
    result: dict = {
        "setup_s": probe.ref_s,
        "setup_wall_s": time.perf_counter() - start - probe.probe_s,
    }
    source = Path(workloads.planner.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"entcert was imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    if args.mode == "timed":
        passes = []
        began = time.perf_counter()
        while True:
            passes.append(_pass(workload, inputs))
            elapsed = time.perf_counter() - began
            # Start another pass only if it should end within the budget.
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break
        result["passes"] = passes
        result["environment"] = _environment()
    elif args.mode == "trace":
        import tracing

        untraced = _pass(workload, inputs)
        tracer = tracing.Tracer()
        tracer.install()
        traced = _pass(workload, inputs)
        result["passes"] = [untraced, traced]
        result["layers"] = tracing.layer_metrics(tracer)
        result["environment"] = _environment()
        if args.spans:
            tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
