"""Spans and counters recorded around entcert's calls, from outside the package.

``Tracer.install()`` replaces functions and methods of entcert's modules with
wrappers.  Most record one span per call (name, start, end, parent); the
Nelder-Mead runs (scipy's ``minimize``) and the annealing pass only add to
counters, so their time stays in the self time of the search that runs them.  Nothing in entcert
changes on disk: the wrappers are put in place at run time and stay until the
process exits.  ``layer_metrics`` turns the spans and counters into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import csv
import gzip
import statistics
import sys
import time

from entcert import inference, planner, pmf, simulate, states, witnesses, worst_case


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "info")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time its child spans cover (children never overlap)."""
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._evaluated: set = set()
        self.nm_runs = 0
        self.nfev = 0
        self.nm_s = 0.0
        self.anneal_runs = 0
        self.anneal_steps = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, info=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            span = Span(name, parent)
            spans.append(span)
            open_.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _span_function(self, module, attr: str, name: str, info=None) -> None:
        """Wrap a module-level function under every name entcert binds it to."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, info)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").partition(".")[0] != "entcert":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def _span_method(self, cls, attr: str, name: str, info=None) -> None:
        setattr(cls, attr, self._wrap(name, cls.__dict__[attr], info))

    def install(self) -> None:
        def first_evaluation(args, kwargs, result):
            key = (id(args[0]), tuple(args[1]))
            first = key not in self._evaluated
            self._evaluated.add(key)
            return (tuple(args[1]), first)

        problem = worst_case.WorstCaseProblem
        self._span_function(planner, "rank_allocations", "planner.rank")
        self._span_method(planner.PlanEvaluator, "evaluate", "planner.evaluate", first_evaluation)
        self._span_method(
            planner.PlanEvaluator, "plan_for", "planner.plan_for",
            lambda args, kwargs, result: tuple(args[1]),
        )
        self._span_function(
            inference, "max_power_acceptance_set", "inference.set_search",
            lambda args, kwargs, result: result.search_path if result is not None else None,
        )
        self._span_method(
            inference._FeasibilityChecker, "check", "inference.check",
            lambda args, kwargs, result: bool(result[0]),
        )
        self._span_method(problem, "__init__", "worst_case.build")
        self._span_method(problem, "maximize_set", "worst_case.interval")
        self._span_method(
            problem, "maximize_point", "worst_case.pointwise", lambda args, kwargs, result: 1
        )
        self._span_method(
            problem, "maximize_all_points", "worst_case.pointwise",
            lambda args, kwargs, result: len(result),
        )
        self._span_function(states, "mixture_witness_pmf", "states.mixture")
        self._span_function(witnesses, "witness_pmf", "witnesses.pmf")
        self._span_function(witnesses, "witness_grid", "witnesses.grid")
        self._span_method(pmf.OutcomePmf, "convolve", "pmf.convolve")
        self._span_function(pmf, "mix_pmfs", "pmf.mix")
        self._span_function(
            simulate, "simulate_witness", "simulate",
            lambda args, kwargs, result: args[0].trials,
        )
        self._span_function(
            simulate, "simulate_mixture_witness", "simulate",
            lambda args, kwargs, result: args[4] if len(args) > 4 else kwargs["trials"],
        )
        self._count_minimize()
        self._count_anneal()

    def _count_minimize(self) -> None:
        original = worst_case.minimize

        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.nm_s += time.perf_counter() - start
            self.nm_runs += 1
            self.nfev += int(result.nfev)
            return result

        worst_case.minimize = counted

    def _count_anneal(self) -> None:
        problem = worst_case.WorstCaseProblem
        original = problem.__dict__["_anneal"]

        def counted(*args, **kwargs):
            opts = args[4] if len(args) > 4 else kwargs["opts"]
            self.anneal_runs += 1
            self.anneal_steps += opts.anneal_steps
            return original(*args, **kwargs)

        problem._anneal = counted

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as gzip CSV: index, name, start, end, parent, self_s, info."""
        with gzip.open(path, "wt", newline="") as handle:
            out = csv.writer(handle)
            out.writerow(["index", "name", "start", "end", "parent", "self_s", "info"])
            for i, s in enumerate(self.spans):
                out.writerow([i, s.name, repr(s.start), repr(s.end), s.parent, repr(s.self_s), s.info])


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _check_classes(tracer: Tracer) -> dict[str, int]:
    """Classify every feasibility check by the interval searches it started.

    None: decided by the pointwise-sum bound (feasible) or by a pool point
    (infeasible).  One: refuted by the probe search.  Two: full search.  A
    check with any other count is left out, so the classes no longer sum to
    the number of checks.
    """
    interval_children: dict[int, int] = {}
    for s in tracer.spans:
        if s.name == "worst_case.interval" and s.parent >= 0:
            interval_children[s.parent] = interval_children.get(s.parent, 0) + 1
    classes = {"sum_certified": 0, "pool_refuted": 0, "probe_refuted": 0, "full_search": 0}
    for i, s in enumerate(tracer.spans):
        if s.name != "inference.check":
            continue
        n = interval_children.get(i, 0)
        if n == 0:
            classes["sum_certified" if s.info else "pool_refuted"] += 1
        elif n == 1:
            classes["probe_refuted"] += 1
        elif n == 2:
            classes["full_search"] += 1
    return classes


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    spans = tracer.spans
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(s.self_s for name in names for s in named(name))

    pointwise = named("worst_case.pointwise")
    pointwise_searches = sum(
        s.info for s in pointwise if s.parent < 0 or spans[s.parent].name != "worst_case.pointwise"
    )
    interval = named("worst_case.interval")
    checks = named("inference.check")
    classes = _check_classes(tracer)
    evaluations = [s for s in named("planner.evaluate") if s.info[1]]
    allocations = {s.info[0] for s in named("planner.evaluate")}
    designed = {s.info for s in named("planner.plan_for")}
    simulations = named("simulate")
    simulate_s = sum(s.duration for s in simulations)
    return {
        "worst_case.nm_runs": tracer.nm_runs,
        "worst_case.objective_calls": tracer.nfev + tracer.anneal_steps,
        "worst_case.objective_us": tracer.nm_s / tracer.nfev * 1e6 if tracer.nfev else 0.0,
        "worst_case.anneal_runs": tracer.anneal_runs,
        "worst_case.pointwise.self_s": self_s("worst_case.pointwise"),
        "worst_case.pointwise.searches": pointwise_searches,
        "worst_case.interval.self_s": self_s("worst_case.interval"),
        "worst_case.interval.searches": len(interval),
        "worst_case.interval.check_searches": sum(
            1 for s in interval if s.parent >= 0 and spans[s.parent].name == "inference.check"
        ),
        "worst_case.problem_build_ms": sum(s.duration for s in named("worst_case.build")) * 1e3,
        "inference.checks": len(checks),
        "inference.check.self_us": (
            sum(s.self_s for s in checks) / len(checks) * 1e6 if checks else 0.0
        ),
        # The set search's own work includes its feasibility checks, but not
        # the worst-case searches they start.
        "inference.set_search.self_s": self_s("inference.set_search", "inference.check"),
        **{f"inference.check.{k}": v for k, v in classes.items()},
        "inference.check.cheap_frac": (
            (classes["sum_certified"] + classes["pool_refuted"]) / len(checks) if checks else 0.0
        ),
        "inference.greedy_fallbacks": sum(
            1 for s in named("inference.set_search") if s.info == "greedy"
        ),
        "planner.allocations": len(allocations),
        "planner.evaluate.p50_ms": _p50_ms([s.duration for s in evaluations]),
        "planner.evaluate.max_ms": max((s.duration for s in evaluations), default=0.0) * 1e3,
        "planner.pruned_frac": 1.0 - len(designed) / len(allocations) if allocations else 0.0,
        "states.mixture.calls": len(named("states.mixture")),
        "states.mixture.p50_ms": _p50_ms([s.duration for s in named("states.mixture")]),
        "witnesses.pmf.calls": len(named("witnesses.pmf")),
        "witnesses.pmf.p50_ms": _p50_ms([s.duration for s in named("witnesses.pmf")]),
        "witnesses.grid.self_s": self_s("witnesses.grid"),
        "pmf.convolve.calls": len(named("pmf.convolve")),
        "pmf.convolve.self_s": self_s("pmf.convolve"),
        "pmf.mix.self_s": self_s("pmf.mix"),
        "simulate.self_s": self_s("simulate"),
        "simulate.trials_per_s": (
            sum(s.info for s in simulations) / simulate_s if simulate_s else 0.0
        ),
    }
