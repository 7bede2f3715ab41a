"""The benchmark's workloads: inputs made from a seed, one timed pass, and a
correctness gate on the answers of that pass.

Every workload drives entcert's public API in-process with the calls the CLI
commands make (``plan``, ``test``, ``dist`` and ``simulate``), serially.
Calls go through module attributes (``planner.rank_allocations``, not a name
imported from the module) so that the tracer's wrappers see them.

A workload has three steps:

* ``setup(seed)`` builds the inputs; it is timed as part of ``setup_s``.
* ``run(inputs)`` is one pass of the timed phase.  It returns the raw outputs
  and the latency of every task in the pass.
* ``check(inputs, outputs)`` runs after the timing stops.  It returns the
  answers (whose digest must repeat across passes), the worst-case results
  handed back to the user, the sum of reported worst-case masses and the
  gate checks that failed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from entcert import finite_stats, inference, planner, simulate, states, witnesses, worst_case
from entcert.acceptance import AcceptanceSet
from entcert.pmf import format_fraction

F = Fraction

#: Tolerances of the acceptance suite: reported percentages +/-0.15 pp, losses
#: +/-0.002, and +/-0.5 pp for the prior-averaged planning scenario.
PP = 1.5e-3
LOSS_TOL = 2e-3
PLAN_TOL = 5e-3
#: Exactness of the distribution engine against closed forms.
EXACT_TOL = 1e-12


@dataclass
class Outputs:
    """Raw result of one pass: whatever ``check`` needs, plus task latencies."""

    value: object
    tasks_s: list[float]


@dataclass
class Checked:
    """What one pass answered, and whether the answers pass the gate."""

    answers: dict
    worst_cases: list
    mass_sum: float
    failures: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        text = json.dumps(self.answers, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _close(failures: list[str], label: str, value: float, target: float, tol: float) -> None:
    if not abs(value - target) <= tol:
        failures.append(f"{label}: {value!r} is not {target} +/- {tol}")


def _outcomes(outcomes) -> list[str]:
    return [format_fraction(o) for o in sorted(outcomes)]


class TaskClock:
    """Times the outermost calls of chosen methods while installed.

    ``key(args)`` names the task a call belongs to; calls with one key add up
    to one task.  Nested calls of the wrapped methods are part of the
    outermost one.
    """

    def __init__(self):
        self.seconds: dict = {}
        self._depth = 0

    @contextlib.contextmanager
    def timing(self, owner, names, key):
        originals = {name: owner.__dict__[name] for name in names}
        for name, original in originals.items():
            setattr(owner, name, self._timed(original, key))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(owner, name, original)

    def _timed(self, original, key):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            if self._depth:
                return original(*args, **kwargs)
            self._depth += 1
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                task = key(args)
                self.seconds[task] = self.seconds.get(task, 0.0) + elapsed

        return timed


# -- plan ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Scenario:
    """One planning call of the plan workload, and the answer it must give.

    With ``rank`` the call is ``rank_allocations`` over every exact-budget
    allocation and ``copies`` is the optimum; otherwise it is ``plan_for``
    on ``copies`` alone.
    """

    budget: int
    rank: bool
    copies: tuple[int, ...]
    acceptance: frozenset
    power: float
    worst_case: float
    search_path: str = "exhaustive"


class Plan:
    """``entcert plan`` in the prior-averaged, 3-setting scenario.

    Quadratic witness, validity 0.70, ``TruncatedGaussianPrior(0.8, 0.1,
    0.2)``, ``PriorPair(2/3)``, a fresh evaluator for each call.  A pass makes
    two calls: the whole 7-copy plan (8 allocations, ranked with pruning),
    and the design of (5, 4, 4), the optimum of the 13-copy plan, whose exact
    acceptance-set search makes about 14,500 feasibility checks.  The whole
    13-copy plan takes about a minute, too long to repeat within a run.  One
    task is one allocation: its pointwise evaluation plus its acceptance-set
    design when that is not pruned.

    The 13-copy design must match acceptance criterion 6 (set {1, 34/25,
    59/25, 9/4, 3}, power 0.645, worst case 0.297).  The 7-copy answer has no
    published figure; it is this commit's, the same at seeds 17 to 19.
    """

    name = "plan"
    scenarios = (
        _Scenario(7, True, (3, 2, 2), frozenset({F(1, 9), F(3)}), 0.5216, 0.3000),
        _Scenario(
            13,
            False,
            (5, 4, 4),
            frozenset({F(1), F(34, 25), F(9, 4), F(59, 25), F(3)}),
            0.645,
            0.297,
        ),
    )

    def setup(self, seed: int):
        calls = []
        for scenario in self.scenarios:
            spec = planner.PlanSpec(
                scenario.budget, 3, 0.70, "frequentist", allow_unused_copies=False
            )
            allocations = (
                [copies for _, copies in planner.enumerate_allocations(spec)]
                if scenario.rank
                else [scenario.copies]
            )
            calls.append((scenario, spec, allocations))
        return {
            "calls": calls,
            "model": states.EntangledStateModel(
                prior=states.TruncatedGaussianPrior(0.8, 0.1, 0.2)
            ),
            "priors": inference.PriorPair(2 / 3),
            "options": worst_case.SearchOptions(restarts=12, seed=seed),
        }

    def tasks(self, inputs) -> int:
        return sum(len(allocations) for _, _, allocations in inputs["calls"])

    def run(self, inputs) -> Outputs:
        clock = TaskClock()
        designs = []
        with clock.timing(
            planner.PlanEvaluator, ("evaluate", "plan_for"), key=lambda args: tuple(args[1])
        ):
            for scenario, spec, _ in inputs["calls"]:
                evaluator = planner.PlanEvaluator(
                    "quadratic",
                    inputs["model"],
                    inputs["priors"],
                    spec.min_validity,
                    options=inputs["options"],
                )
                if scenario.rank:
                    ranked = planner.rank_allocations(spec, evaluator, prune=True, workers=1)
                else:
                    plan = evaluator.plan_for(scenario.copies, spec.framework)
                    ranked = [plan] if plan is not None else []
                designs.append((evaluator, ranked))
        return Outputs(designs, list(clock.seconds.values()))

    def check(self, inputs, outputs: Outputs) -> Checked:
        failures: list[str] = []
        results = []
        answers = {}
        for (scenario, _, allocations), (evaluator, ranked) in zip(inputs["calls"], outputs.value):
            pointwise = {}
            for copies in allocations:
                evaluation = evaluator.evaluate(copies)  # cached by the pass
                results.extend(evaluation.pointwise.values())
                pointwise[" ".join(map(str, copies))] = [
                    evaluation.pointwise[o].objective for o in evaluation.problem.grid
                ]
            results.extend(plan.worst_case for plan in ranked)
            answers[str(scenario.budget)] = {
                "pointwise": pointwise,
                "ranked": [
                    {
                        "copies": list(plan.copies),
                        "acceptance": _outcomes(plan.acceptance.outcomes),
                        "power": plan.report.power,
                        "worst_case": plan.worst_case.objective,
                        "loss": plan.report.expected_loss,
                    }
                    for plan in ranked
                ],
            }
            label = f"{scenario.budget} copies:"
            if not ranked:
                failures.append(f"{label} no feasible design")
                continue
            best = ranked[0]
            if best.copies != scenario.copies:
                failures.append(f"{label} optimum {best.copies} is not {scenario.copies}")
            if best.acceptance.outcomes != scenario.acceptance:
                failures.append(f"{label} acceptance set {_outcomes(best.acceptance.outcomes)}")
            _close(failures, f"{label} power", best.report.power, scenario.power, PLAN_TOL)
            _close(
                failures,
                f"{label} worst case",
                best.worst_case.objective,
                scenario.worst_case,
                PLAN_TOL,
            )
            if best.search_path != scenario.search_path:
                failures.append(
                    f"{label} set search path {best.search_path} is not {scenario.search_path}"
                )
        return Checked(answers, results, sum(r.objective for r in results), failures)


# -- report20 -----------------------------------------------------------------

_NAT4 = states.natural_prior(4)[0]
_NAT5 = states.natural_prior(5)[0]


@dataclass(frozen=True)
class _Threshold:
    """One reported threshold and the acceptance suite's numbers for it.

    ``confidence`` is (target, tolerance), or (floor, None) for "at least".
    A threshold with a ``loss`` is also the Bayesian set at ``p_ent``.
    """

    bound: Fraction
    p_ent: float
    confidence: tuple[float, float | None]
    power: float
    loss: float | None = None


class Report:
    """``entcert test`` on the 20-copy, 5-setting reports (criteria 4 and 5).

    For both witnesses at copies (4,)*5: three interval worst cases, the
    pointwise worst case of every grid outcome, posteriors, the Bayesian set
    and the loss bound.  One task is one worst-case search (6 interval + 39
    pointwise).
    """

    name = "report20"
    copies = (4,) * 5
    #: Three of the acceptance suite's 10 restarts keep one pass of both
    #: reports at 5-8 s on a 2-core Xeon VM, so that a run holds several, and
    #: three is the least number of restarts that can mark a search converged;
    #: the suite's numbers hold at every seed tried.
    restarts = 3
    cases = {
        "linear": (
            witnesses.LinearWitness([1, -1, -1, -1, -1], 1),
            (-0.75, 0.75, 0.75, 0.75, 0.75),
            "accept_low",
            (
                _Threshold(F(-5, 2), 0.5, (0.975, None), 0.765),
                _Threshold(F(-4), 0.5, (0.99996, 5e-5), 0.069),
                _Threshold(F(-3), 0.5, (0.9964, PP), 0.535, loss=0.007),
            ),
        ),
        "quadratic": (
            witnesses.QuadraticWitness(5),
            (0.75,) * 5,
            "accept_high",
            (
                _Threshold(F(7, 2), _NAT5, (0.925, PP), 0.549, loss=0.015),
                _Threshold(F(4), _NAT4, (0.976, PP), 0.314, loss=0.018),
                _Threshold(F(5), 0.5, (0.998, PP), 0.069, loss=0.013),
            ),
        ),
    }

    def setup(self, seed: int):
        inputs = {"options": worst_case.SearchOptions(restarts=self.restarts, seed=seed)}
        for kind, (witness, correlations, _, _) in self.cases.items():
            settings = [
                finite_stats.CorrelationSetting(t, n) for t, n in zip(correlations, self.copies)
            ]
            inputs[kind] = (
                worst_case.WorstCaseProblem(witness, self.copies),
                witnesses.witness_pmf(settings, witness),
            )
        return inputs

    def tasks(self, inputs) -> int:
        return sum(
            len(thresholds) + len(inputs[kind][0].grid)
            for kind, (_, _, _, thresholds) in self.cases.items()
        )

    def run(self, inputs) -> Outputs:
        options = inputs["options"]
        clock = TaskClock()
        count = itertools.count()
        out = {}
        with clock.timing(
            worst_case.WorstCaseProblem,
            ("maximize_set", "maximize_point"),
            key=lambda args: next(count),
        ):
            for kind, (_, _, direction, thresholds) in self.cases.items():
                problem, ent = inputs[kind]
                worst = {}
                for t in thresholds:
                    acc = AcceptanceSet.threshold(t.bound, direction)
                    worst[t.bound] = (acc, problem.maximize_set(acc, options))
                pointwise = problem.maximize_all_points(options)
                masses = {o: r.objective for o, r in pointwise.items()}
                reports = {
                    t.bound: inference.build_test_report(
                        acc, ent, result.objective, masses, inference.PriorPair(t.p_ent), 0.975
                    )
                    for t, (acc, result) in zip(thresholds, worst.values())
                }
                out[kind] = (worst, pointwise, reports)
        return Outputs(out, list(clock.seconds.values()))

    def check(self, inputs, outputs: Outputs) -> Checked:
        failures: list[str] = []
        answers = {}
        results = []
        for kind, (_, _, direction, thresholds) in self.cases.items():
            worst, pointwise, reports = outputs.value[kind]
            results.extend(result for _, result in worst.values())
            results.extend(pointwise.values())
            answer = {
                "pointwise": {format_fraction(o): r.objective for o, r in pointwise.items()}
            }
            for t in thresholds:
                report = reports[t.bound]
                bayes = inference.bayes_acceptance_set(0.975, report.posterior_by_outcome)
                label = f"{kind} {t.bound}"
                answer[format_fraction(t.bound)] = {
                    "worst_case": worst[t.bound][1].objective,
                    "confidence": report.confidence,
                    "power": report.power,
                    "loss": report.expected_loss,
                    "bayes_set": _outcomes(bayes.outcomes),
                }
                target, tol = t.confidence
                if tol is None:
                    if not report.confidence >= target:
                        failures.append(f"{label} confidence {report.confidence!r} < {target}")
                else:
                    _close(failures, f"{label} confidence", report.confidence, target, tol)
                _close(failures, f"{label} power", report.power, t.power, PP)
                if t.loss is not None:
                    _close(failures, f"{label} loss", report.expected_loss, t.loss, LOSS_TOL)
                    beyond = (
                        (lambda o: o <= t.bound)
                        if direction == "accept_low"
                        else (lambda o: o >= t.bound)
                    )
                    expected = {o for o in inputs[kind][1].outcomes if beyond(o)}
                    if bayes.outcomes != expected:
                        failures.append(f"{label} Bayesian set {_outcomes(bayes.outcomes)}")
            answers[kind] = answer
        return Checked(answers, results, sum(r.objective for r in results), failures)


# -- dist ---------------------------------------------------------------------


class Dist:
    """Optimizer-free distributions: ``entcert dist`` and ``entcert simulate``.

    Fresh-grid pmfs at random allocations with seeded correlations, prior
    mixtures for every 3-setting allocation of 12 and 13 copies, equal-split
    sweeps, and Monte Carlo runs checked by chi-square.  One task is one
    distribution.  A pass takes a few seconds, so that a run holds about ten
    and their median is steady.
    """

    name = "dist"
    pmfs = 100
    mixture_budgets = (12, 13)
    prior = states.TruncatedGaussianPrior(0.8, 0.1, 0.2)
    sweeps = ((20, "linear"), (20, "quadratic"), (36, "linear"), (36, "quadratic"))
    purity = 0.75
    #: The acceptance suite's simulation seeds (criterion 11).  They are fixed,
    #: not drawn from --seed: a correct sampler still fails p > 1e-3 once in a
    #: thousand seeds, which would make runs fail at random.
    simulations = (
        ("linear", (-0.75, 0.75, 0.75, 0.75, 0.75), 105),
        ("quadratic", (0.75,) * 5, 107),
    )
    trials = 10**6

    #: Seed of the random allocations.  The cost of a pmf grows with its grid,
    #: and mixed copy counts make linear grids of tens of thousands of
    #: outcomes, so allocations drawn from --seed would change the work from
    #: run to run.
    allocation_seed = 11

    def setup(self, seed: int):
        shapes = np.random.default_rng(self.allocation_seed)
        rng = np.random.default_rng(seed)
        fresh = []
        for i in range(self.pmfs):
            m = int(shapes.integers(2, 6))
            copies = shapes.integers(1, 13, m)
            correlations = rng.uniform(-1.0, 1.0, m)
            witness = planner.witness_for(("linear", "quadratic")[i % 2], m)
            fresh.append(
                (
                    witness,
                    [
                        finite_stats.CorrelationSetting(float(t), int(n))
                        for t, n in zip(correlations, copies)
                    ],
                )
            )
        mixtures = [
            copies
            for budget in self.mixture_budgets
            for m, copies in planner.enumerate_allocations(
                planner.PlanSpec(budget, 3, 0.5, "frequentist", allow_unused_copies=False)
            )
            if m == 3
        ]
        simulations = []
        for kind, correlations, sim_seed in self.simulations:
            copies = (4,) * len(correlations)
            simulations.append(
                (
                    planner.witness_for(kind, len(correlations)),
                    simulate.SimulationConfig(correlations, copies, self.trials, sim_seed),
                    [finite_stats.CorrelationSetting(t, n) for t, n in zip(correlations, copies)],
                )
            )
        return {"fresh": fresh, "mixtures": mixtures, "simulations": simulations}

    def tasks(self, inputs) -> int:
        return (
            len(inputs["fresh"])
            + len(inputs["mixtures"])
            + len(self.sweeps)
            + len(inputs["simulations"])
        )

    def run(self, inputs) -> Outputs:
        tasks_s = []
        clock = time.perf_counter

        def timed(call, *args):
            start = clock()
            result = call(*args)
            tasks_s.append(clock() - start)
            return result

        fresh = [timed(witnesses.witness_pmf, sts, w) for w, sts in inputs["fresh"]]
        quadratic3 = witnesses.QuadraticWitness(3)
        mixtures = [
            timed(states.mixture_witness_pmf, self.prior, (1, 1, 1), copies, quadratic3)
            for copies in inputs["mixtures"]
        ]
        sweeps = [
            timed(planner.equal_split_sweep, budget, kind, self.purity)
            for budget, kind in self.sweeps
        ]

        def simulate_and_compare(witness, config, settings):
            empirical = simulate.simulate_witness(config, witness)
            exact = witnesses.witness_pmf(settings, witness)
            return simulate.chi_square_compare(empirical, exact, config.trials)

        comparisons = [timed(simulate_and_compare, *sim) for sim in inputs["simulations"]]
        return Outputs((fresh, mixtures, sweeps, comparisons), tasks_s)

    def check(self, inputs, outputs: Outputs) -> Checked:
        fresh, mixtures, sweeps, comparisons = outputs.value
        failures: list[str] = []

        def exact(label, pmf, mean, variance):
            _close(failures, f"{label} total mass", pmf.total_mass(), 1.0, EXACT_TOL)
            _close(failures, f"{label} mean", pmf.mean(), mean, EXACT_TOL)
            _close(failures, f"{label} variance", pmf.variance(), variance, EXACT_TOL)

        for i, ((witness, settings), pmf) in enumerate(zip(inputs["fresh"], fresh)):
            exact(f"pmf {i}", pmf, *witnesses.witness_moments(settings, witness))

        points, weights = self.prior.discretize(0.01)
        quadratic3 = witnesses.QuadraticWitness(3)
        for copies, pmf in zip(inputs["mixtures"], mixtures):
            mean = second = 0.0
            for p, w in zip(points, weights):
                settings = [finite_stats.CorrelationSetting(p, n) for n in copies]
                m, v = witnesses.witness_moments(settings, quadratic3)
                mean += w * m
                second += w * (v + m * m)
            exact(f"mixture {copies}", pmf, mean, second - mean * mean)

        sweep_answers = {}
        for (budget, kind), entries in zip(self.sweeps, sweeps):
            sweep_answers[f"{kind} {budget}"] = [
                [e.num_settings, format_fraction(e.best_bound), e.sep_error, e.ent_error]
                for e in entries
            ]
            if (budget, kind) == (20, "quadratic"):
                best = (entries[0].num_settings, entries[0].copies_per_setting)
                if best != (5, 4):
                    failures.append(f"quadratic 20-copy sweep winner {best} is not (5, 4)")

        for (_, config, _), result in zip(inputs["simulations"], comparisons):
            if result.degenerate or not result.p_value > 1e-3:
                failures.append(f"simulation {config.correlations}: chi-square p {result.p_value!r}")

        answers = {
            "fresh": [list(pmf.probabilities) for pmf in fresh],
            "mixtures": [list(pmf.probabilities) for pmf in mixtures],
            "sweeps": sweep_answers,
            "chi_square": [[r.statistic, r.p_value, r.bins] for r in comparisons],
        }
        # The sweep scores each split by its separable error at the analytic
        # worst case: the worst-case masses this workload reports.
        mass_sum = sum(e.sep_error for entries in sweeps for e in entries)
        return Checked(answers, [], mass_sum, failures)


WORKLOADS = {w.name: w for w in (Plan(), Report(), Dist())}
