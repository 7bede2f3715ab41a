"""Command-line front end: JSON-configured runs with JSON/CSV output.

Subcommands: dist, worst-case, test, plan, noise-curve, simulate.  Exit
codes: 0 success, 2 configuration/schema error, 3 infeasible constraints,
4 optimizer non-convergence (output is still written).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Any

from . import config as cfg
from .acceptance import snap_to_grid
from .errors import DomainError, EntcertError, InfeasibleError, SchemaError
from .finite_stats import CorrelationSetting, check_copies, check_real
from .inference import build_test_report, check_q_bayes
from .pmf import OutcomePmf, format_fraction
from .planner import (
    PlanEvaluator,
    PlanSpec,
    equal_split_sweep,
    family_signs,
    optimize_plan,
    rank_allocations,
)
from .simulate import chi_square_compare, simulate_witness
from .states import white_noise_success_probability
from .witnesses import witness_pmf
from .worst_case import WorstCaseProblem, WorstCaseResult

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_NO_CONVERGENCE = 4

#: Most points a noise curve may hold: round(1 / step) + 1 of them, so the
#: finest accepted step is a little over 1e-4.
MAX_CURVE_POINTS = 10_000


def _pmf_rows(pmf: OutcomePmf) -> list[dict[str, Any]]:
    return [
        {"outcome": format_fraction(o), "decimal": float(o), "probability": p}
        for o, p in pmf.items()
    ]


def _result_doc(result: WorstCaseResult) -> dict[str, Any]:
    return {
        "correlations": list(result.correlations),
        "objective": result.objective,
        "restarts_used": result.restarts_used,
        "converged": result.converged,
        "dist": _pmf_rows(result.dist),
    }


def _load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return doc  # each command checks that it is an object with its keys


def _settings(correlations, copies) -> list[CorrelationSetting]:
    if len(correlations) != len(copies):
        raise SchemaError("correlations and copies must have equal length")
    return [CorrelationSetting(t, n) for t, n in zip(correlations, copies)]


# -- commands ----------------------------------------------------------------


def cmd_dist(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    cfg.check_keys(doc, "config", {"witness", "correlations", "copies"})
    witness = cfg.parse_witness(doc["witness"])
    correlations = cfg.array(doc["correlations"], "correlations")
    copies = cfg.array(doc["copies"], "copies")
    pmf = witness_pmf(_settings(correlations, copies), witness)
    report = {
        "command": "dist",
        "mean": pmf.mean(),
        "variance": pmf.variance(),
        "dist": _pmf_rows(pmf),
    }
    rows = [["outcome", "decimal", "probability"]] + [
        [r["outcome"], repr(r["decimal"]), repr(r["probability"])] for r in report["dist"]
    ]
    return report, rows, EXIT_OK


def cmd_worst_case(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    cfg.check_keys(
        doc, "config", {"witness", "copies"}, {"acceptance", "outcome", "optimizer"}
    )
    witness = cfg.parse_witness(doc["witness"])
    copies = cfg.array(doc["copies"], "copies")
    options = cfg.parse_optimizer(doc.get("optimizer"), args.seed)
    problem = WorstCaseProblem(witness, copies)
    if ("acceptance" in doc) == ("outcome" in doc):
        raise SchemaError("config: give exactly one of acceptance and outcome")
    if "acceptance" in doc:
        acc = cfg.parse_acceptance(doc["acceptance"], problem.grid)
        result = problem.maximize_set(acc, options)
        target: dict[str, Any] = {"acceptance": acc.describe()}
    else:
        outcome = cfg.raw_outcome(doc["outcome"], "outcome")
        key = snap_to_grid(outcome, problem.grid)
        result = problem.maximize_point(key, options)
        target = {"outcome": format_fraction(key)}
    report = {"command": "worst-case", **target, **_result_doc(result)}
    rows = [["outcome", "decimal", "probability"]] + [
        [r["outcome"], repr(r["decimal"]), repr(r["probability"])] for r in report["dist"]
    ]
    return report, rows, EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_test(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    cfg.check_keys(
        doc,
        "config",
        {"witness", "copies", "acceptance", "entangled", "priors", "q_bayes"},
        {"signs", "optimizer"},
    )
    witness = cfg.parse_witness(doc["witness"])
    copies = cfg.array(doc["copies"], "copies")
    priors = cfg.parse_priors(doc["priors"])
    q_bayes = check_q_bayes(doc["q_bayes"])
    options = cfg.parse_optimizer(doc.get("optimizer"), args.seed)
    model = cfg.parse_entangled(doc["entangled"])
    signs = cfg.parse_signs(doc, len(copies), family_signs(witness.kind, len(copies)))

    problem = WorstCaseProblem(witness, copies)
    acc = cfg.parse_acceptance(doc["acceptance"], problem.grid)
    ent = model.outcome_pmf(witness, copies, signs)
    worst = problem.maximize_set(acc, options)
    pointwise = problem.maximize_all_points(options)
    report_obj = build_test_report(
        acc,
        ent,
        worst.objective,
        {o: r.objective for o, r in pointwise.items()},
        priors,
        q_bayes,
    )
    report = {
        "command": "test",
        "acceptance": acc.describe(),
        "frequentist": {
            "confidence": report_obj.confidence,
            "power": report_obj.power,
        },
        "bayesian": {
            "acceptance_level": report_obj.acceptance_level,
            "expected_loss": report_obj.expected_loss,
            "q_bayes": q_bayes,
            "posteriors": [
                {"outcome": format_fraction(o), "posterior": p}
                for o, p in sorted(report_obj.posterior_by_outcome.items())
            ],
        },
        "worst_case": _result_doc(worst),
        "entangled_dist": _pmf_rows(ent),
    }
    rows = [["outcome", "posterior"]] + [
        [r["outcome"], repr(r["posterior"])] for r in report["bayesian"]["posteriors"]
    ]
    return report, rows, EXIT_OK if worst.converged else EXIT_NO_CONVERGENCE


def _plan_doc(plan) -> dict[str, Any]:
    return {
        "copies": list(plan.copies),
        "copies_used": plan.copies_used,
        "num_settings": plan.num_settings,
        "acceptance": plan.acceptance.describe(),
        "score": plan.score,
        "search_path": plan.search_path,
        "confidence": plan.report.confidence,
        "power": plan.report.power,
        "acceptance_level": plan.report.acceptance_level,
        "expected_loss": plan.report.expected_loss,
        "worst_case_correlations": list(plan.worst_case.correlations),
        "converged": plan.worst_case.converged,
    }


def cmd_plan(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    cfg.check_keys(
        doc,
        "config",
        {"witness_kind", "budget"},
        {
            "max_settings",
            "min_validity",
            "framework",
            "allow_unused_copies",
            "equal_allocation_only",
            "entangled",
            "priors",
            "optimizer",
            "mode",
        },
    )
    kind = doc["witness_kind"]
    if kind not in ("linear", "quadratic"):
        raise SchemaError("witness_kind: expected 'linear' or 'quadratic'")
    budget = doc["budget"]
    mode = doc.get("mode", "optimize")

    if mode == "sweep":
        model = cfg.parse_entangled(doc["entangled"]) if "entangled" in doc else None
        if model is None or model.purity is None:
            raise SchemaError("sweep mode needs entangled.purity")
        entries = equal_split_sweep(budget, kind, model.purity)
        report = {
            "command": "plan",
            "mode": "sweep",
            "best": {
                "num_settings": entries[0].num_settings,
                "copies_per_setting": entries[0].copies_per_setting,
            },
            "entries": [
                {
                    "num_settings": e.num_settings,
                    "copies_per_setting": e.copies_per_setting,
                    "best_bound": format_fraction(e.best_bound),
                    "sep_error": e.sep_error,
                    "ent_error": e.ent_error,
                    "score": e.score,
                }
                for e in entries
            ],
        }
        rows = [["num_settings", "copies_per_setting", "bound", "sep_error", "ent_error"]]
        for e in entries:
            for bound, sep_error, ent_error in e.curve:
                rows.append(
                    [
                        str(e.num_settings),
                        str(e.copies_per_setting),
                        format_fraction(bound),
                        repr(sep_error),
                        repr(ent_error),
                    ]
                )
        return report, rows, EXIT_OK
    if mode != "optimize":
        raise SchemaError("mode: expected 'optimize' or 'sweep'")

    for key in ("max_settings", "min_validity", "framework", "entangled", "priors"):
        if key not in doc:
            raise SchemaError(f"config: missing keys ['{key}'] for optimize mode")
    spec = PlanSpec(
        budget=budget,
        max_settings=doc["max_settings"],
        min_validity=doc["min_validity"],
        framework=doc["framework"],
        allow_unused_copies=doc.get("allow_unused_copies", True),
        equal_allocation_only=doc.get("equal_allocation_only", False),
    )
    evaluator = PlanEvaluator(
        kind,
        cfg.parse_entangled(doc["entangled"]),
        cfg.parse_priors(doc["priors"]),
        spec.min_validity,
        options=cfg.parse_optimizer(doc.get("optimizer"), args.seed),
    )
    ranked = rank_allocations(spec, evaluator, prune=True, workers=args.workers)
    if not ranked:
        optimize_plan(spec, evaluator, workers=args.workers)  # raises InfeasibleError
    report = {
        "command": "plan",
        "mode": "optimize",
        "framework": spec.framework,
        "optimum": _plan_doc(ranked[0]),
        "ranked": [_plan_doc(p) for p in ranked],
    }
    rows = [["copies", "score", "confidence", "power", "expected_loss"]]
    for p in ranked:
        rows.append(
            [
                " ".join(str(n) for n in p.copies),
                repr(p.score),
                repr(p.report.confidence),
                repr(p.report.power),
                repr(p.report.expected_loss),
            ]
        )
    exit_code = EXIT_OK if ranked[0].worst_case.converged else EXIT_NO_CONVERGENCE
    return report, rows, exit_code


def cmd_noise_curve(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    cfg.check_keys(doc, "config", {"copies_per_setting", "settings"}, {"step"})
    copies = check_copies(doc["copies_per_setting"], "copies_per_setting")
    settings = check_copies(doc["settings"], "settings")
    step = check_real(doc.get("step", 0.01), "step", 0.0, 1.0, "(]")
    intervals = 1.0 / step
    # Checked before rounding: a tiny step makes 1 / step inf, which round() rejects.
    if intervals >= MAX_CURVE_POINTS - 0.5:
        raise DomainError(f"step {step} gives more than {MAX_CURVE_POINTS} curve points")
    count = round(intervals)
    points = [min(1.0, i * step) for i in range(count + 1)]
    values = [
        {"purity": p, "success_probability": white_noise_success_probability(p, copies, settings)}
        for p in points
    ]
    report = {"command": "noise-curve", "copies_per_setting": copies, "settings": settings, "curve": values}
    rows = [["purity", "success_probability"]] + [
        [repr(v["purity"]), repr(v["success_probability"])] for v in values
    ]
    return report, rows, EXIT_OK


def cmd_simulate(doc: dict[str, Any], args) -> tuple[dict[str, Any], list[list[Any]], int]:
    witness, sim = cfg.parse_simulation(doc, args.seed)
    empirical = simulate_witness(sim, witness)
    exact = witness_pmf(_settings(sim.correlations, sim.copies), witness)
    comparison = chi_square_compare(empirical, exact, sim.trials)
    report = {
        "command": "simulate",
        "trials": sim.trials,
        "seed": sim.seed,
        "empirical": _pmf_rows(empirical),
        "exact": _pmf_rows(exact),
        "chi_square": {
            "statistic": comparison.statistic,
            "p_value": comparison.p_value,
            "bins": comparison.bins,
            "degenerate": comparison.degenerate,
        },
    }
    rows = [["outcome", "decimal", "frequency", "exact_probability"]]
    for emp_row, exact_row in zip(report["empirical"], report["exact"]):
        rows.append(
            [
                emp_row["outcome"],
                repr(emp_row["decimal"]),
                repr(emp_row["probability"]),
                repr(exact_row["probability"]),
            ]
        )
    return report, rows, EXIT_OK


_COMMANDS = {
    "dist": cmd_dist,
    "worst-case": cmd_worst_case,
    "test": cmd_test,
    "plan": cmd_plan,
    "noise-curve": cmd_noise_curve,
    "simulate": cmd_simulate,
}

_REQUIRED_REPORT_KEYS = {
    "dist": {"command", "mean", "variance", "dist"},
    "worst-case": {"command", "correlations", "objective", "restarts_used", "converged", "dist"},
    "test": {"command", "acceptance", "frequentist", "bayesian", "worst_case", "entangled_dist"},
    "plan": {"command", "mode"},
    "noise-curve": {"command", "copies_per_setting", "settings", "curve"},
    "simulate": {"command", "trials", "seed", "empirical", "exact", "chi_square"},
}


def validate_report(command: str, report: dict[str, Any]) -> None:
    """Structural self-check of an output document before it is written."""
    missing = _REQUIRED_REPORT_KEYS[command] - set(report)
    if missing:
        raise EntcertError(f"internal error: report missing keys {sorted(missing)}")
    json.dumps(report)  # must be serializable


def _write_output(args, report: dict[str, Any], rows: list[list[Any]]) -> None:
    if args.format == "json":
        payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        buffer = io.StringIO()
        for row in rows:
            buffer.write(",".join(str(cell) for cell in row) + "\n")
        payload = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _worker_count(text: str) -> int:
    """``--workers``: an integer from 1 to the number of CPUs."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    limit = os.cpu_count() or 1
    if not 1 <= workers <= limit:
        raise argparse.ArgumentTypeError(f"must lie in [1, {limit}], got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entcert",
        description="Design and evaluate finite-copy entanglement certification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("dist", "exact witness outcome distribution"),
        ("worst-case", "worst-case separable correlations for an acceptance set or outcome"),
        ("test", "evaluate an acceptance set under both inference frameworks"),
        ("plan", "optimize copy allocation and acceptance set under a budget"),
        ("noise-curve", "white-noise success probability curve"),
        ("simulate", "Monte Carlo simulation with chi-square comparison"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON configuration")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        cmd.add_argument("--seed", type=int, default=None, help="override the configured seed")
        cmd.add_argument("--workers", type=_worker_count, default=1, help="parallel worker cap")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        report, rows, exit_code = _COMMANDS[args.command](doc, args)
        validate_report(args.command, report)
        _write_output(args, report, rows)
        return exit_code
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
