"""entcert benchmark: runs one workload in its own process and prints its metrics.

    python3 perfbench/run.py --workload {plan,report20,dist} \
        [--seed N] --seconds S [--trace {0,1}]

Run it from the root of a checkout; it uses the checkout's ``src`` without
installing anything.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it holds the per-layer metrics, measured by wrappers around
entcert's calls (see tracing.py).  The line before it records the run
environment, the answer digest and the task counts.  Everything is also
written to ``perfbench/out/``.  README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workloads and their default seeds: the acceptance suite's optimizer seeds,
#: and a fixed generator seed for dist.
WORKLOADS = {"plan": 17, "report20": 77, "dist": 2024}
#: Extra set-up samples, each a fresh process, besides the timed worker's own.
SETUP_PROBES = 4
#: A task latency percentile needs this many tasks beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _worker(args, mode: str, timeout: float, spans: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        env[var] = "1"
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(
            f"{mode} worker exited with code {done.returncode}:\n{done.stderr.strip()}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _tail(tasks: list[float]) -> tuple[float, float]:
    """(value, quantile) of the highest percentile of the sorted latencies with
    TAIL_BEYOND samples beyond it; below 2 * TAIL_BEYOND + 1 samples that
    percentile is under the median, and the median is reported instead."""
    index = len(tasks) - TAIL_BEYOND - 1
    if index <= (len(tasks) - 1) / 2:
        return statistics.median(tasks), 0.5
    return tasks[index], (index + 1) / len(tasks)


def _totals(passes: list[dict]) -> tuple[int, int, list[str], set]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        failures.append(f"passes disagree: digests {sorted(map(str, digests))}")
        failed = min(attempted, failed + 1)
    return max(attempted, 1), failed, failures, digests


def _timed(args) -> tuple[dict, dict]:
    worker = _worker(args, "timed", timeout=120)
    setups = [worker] + [_worker(args, "setup", timeout=25) for _ in range(SETUP_PROBES)]
    setup = [s["setup_s"] for s in setups]
    passes = worker["passes"]
    attempted, failed, failures, digests = _totals(passes)
    done = [p for p in passes if p["tasks_s"]]
    if not done:
        raise BenchError(f"no task completed: {failures}")
    # Latency percentiles are taken within each pass, then the median over
    # passes, so that the quantile does not depend on how many passes fit.
    tasks = [sorted(p["tasks_s"]) for p in done]
    tails = [_tail(t) for t in tasks]
    first = passes[0]
    metrics = {
        "pass_s": statistics.median(p["ref_s"] for p in done),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "worst_case_mass_sum": first.get("mass_sum", 0.0),
    }
    # Task latencies are recorded but not bounded: their run-to-run spread
    # exceeds the largest bound the benchmark may set (see README.md).
    info = {
        "passes": len(passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_ref_s": [p["ref_s"] for p in done],
        "setup_ref_s": setup,
        "setup_wall_s": [s["setup_wall_s"] for s in setups],
        "tasks_per_pass": [len(t) for t in tasks],
        "task_p50_ms": statistics.median(statistics.median(t) for t in tasks) * 1e3,
        "task_tail_ms": statistics.median(value for value, _ in tails) * 1e3,
        "task_tail_quantile": tails[0][1],
        "worst_cases_returned": first.get("returned", 0),
        "worst_cases_unconverged": first.get("unconverged", 0),
        "digest": sorted(map(str, digests)),
        "environment": worker["environment"],
    }
    return {"attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics}, info


def _traced(args) -> tuple[dict, dict]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    worker = _worker(args, "trace", timeout=170, spans=spans)
    untraced, traced = worker["passes"]
    attempted, failed, failures, digests = _totals([untraced, traced])
    metrics = dict(worker["layers"])
    classified = sum(
        metrics[f"inference.check.{c}"]
        for c in ("sum_certified", "pool_refuted", "probe_refuted", "full_search")
    )
    if classified != metrics["inference.checks"]:
        failures.append(
            f"check classes sum to {classified}, not to {metrics['inference.checks']} checks"
        )
        failed = min(attempted, failed + 1)
    returned = traced.get("returned", 0)
    metrics["worst_case.unconverged_frac"] = (
        traced.get("unconverged", 0) / returned if returned else 0.0
    )
    metrics["trace.overhead_frac"] = traced["ref_s"] / untraced["ref_s"] - 1.0
    info = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "untraced_ref_s": untraced["ref_s"],
        "traced_ref_s": traced["ref_s"],
        "digest": sorted(map(str, digests)),
        "spans": str(spans.relative_to(ROOT)),
        "environment": worker["environment"],
    }
    return {"attempted": attempted, "failed": failed, "failures": failures, "metrics": metrics}, info


def _with_units(metrics: dict, kind: str) -> dict:
    """The metrics with their units from BENCHMARK.json, which must list
    exactly these names under ``kind``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[kind]}
    if set(units) != set(metrics):
        raise BenchError(f"{kind} metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "entcert" / "__init__.py").is_file():
        print(f"error: no entcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        result, info = _traced(args) if args.trace else _timed(args)
        metrics = _with_units(result["metrics"], "per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"gate: {failure}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "failures": result["failures"], **info}
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": final}, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
