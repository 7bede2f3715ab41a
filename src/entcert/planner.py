"""Experiment planning: enumerate copy allocations, build each framework's
optimal acceptance set, and pick the best design under a copy budget.

A design is the number of settings M, the copies per setting, and an
acceptance set.  Frequentist designs maximize power subject to a worst-case
confidence floor; Bayesian designs accept outcomes whose certified posterior
reaches the validity target and are scored by a worst-case expected-loss
bound.  Evaluations are cached per allocation so sweeps over budgets or
frameworks reuse work.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Literal

from .acceptance import AcceptanceSet
from .errors import DomainError, InfeasibleError
from .finite_stats import CorrelationSetting, check_integer, check_real
from .inference import (
    PriorPair,
    TestReport,
    bayes_acceptance_set,
    build_test_report,
    max_power_acceptance_set,
    np_power_upper_bound,
    posterior_map,
)
from .pmf import OutcomePmf
from .states import EntangledStateModel
from .witnesses import LinearWitness, QuadraticWitness, Witness, witness_pmf
from .worst_case import POLISH, SearchOptions, WorstCaseProblem, WorstCaseResult

WitnessKind = Literal["linear", "quadratic"]
Framework = Literal["frequentist", "bayesian"]

#: Allocations that one plan may enumerate at most; each costs a pointwise
#: search, so a budget past this could not finish.  The 13-copy, 3-setting
#: plan has 122 and 30 copies over at most 5 settings have 5,325.
MAX_ALLOCATIONS = 10_000


def witness_for(kind: WitnessKind, num_settings: int) -> Witness:
    """The M-setting member of the witness family.

    Linear uses the standard extension: leading coefficient +1, the rest -1,
    unit constant; quadratic is the plain sum of M squared correlations.
    """
    num_settings = check_integer(num_settings, "num_settings", 1)
    if kind == "quadratic":
        return QuadraticWitness(num_settings)
    if kind == "linear":
        return LinearWitness((1,) + (-1,) * (num_settings - 1), 1)
    raise DomainError(f"unknown witness kind {kind!r}")


def family_signs(kind: WitnessKind, num_settings: int) -> tuple[int, ...]:
    """Ideal correlation signs of the target pure state for each setting."""
    num_settings = check_integer(num_settings, "num_settings", 1)
    if kind == "quadratic":
        return (1,) * num_settings
    if kind == "linear":
        return (-1,) + (1,) * (num_settings - 1)
    raise DomainError(f"unknown witness kind {kind!r}")


@dataclass(frozen=True)
class PlanSpec:
    """Search space and validity target of a planning run."""

    budget: int
    max_settings: int
    min_validity: float
    framework: Framework
    allow_unused_copies: bool = True
    equal_allocation_only: bool = False

    def __post_init__(self):
        for name in ("budget", "max_settings"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, 1))
        level = check_real(self.min_validity, "min_validity", 0.0, 1.0, "()")
        object.__setattr__(self, "min_validity", level)
        for name in ("allow_unused_copies", "equal_allocation_only"):
            if not isinstance(getattr(self, name), bool):
                raise DomainError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.framework not in ("frequentist", "bayesian"):
            raise DomainError(f"unknown framework {self.framework!r}")


@dataclass(frozen=True)
class Plan:
    """One evaluated design; ``score`` is power (frequentist) or loss (bayesian)."""

    framework: Framework
    copies: tuple[int, ...]
    acceptance: AcceptanceSet
    report: TestReport
    worst_case: WorstCaseResult
    score: float
    search_path: str | None = None

    @property
    def num_settings(self) -> int:
        return len(self.copies)

    @property
    def copies_used(self) -> int:
        return sum(self.copies)


def enumerate_allocations(spec: PlanSpec) -> list[tuple[int, tuple[int, ...]]]:
    """All candidate (M, copies) pairs in canonical descending multiset form.

    Raises DomainError as soon as there would be more than
    ``MAX_ALLOCATIONS`` of them.
    """

    def partitions(total: int, parts: int, cap: int) -> Iterator[tuple[int, ...]]:
        if parts == 1:
            if 1 <= total <= cap:
                yield (total,)
            return
        for head in range(min(cap, total - (parts - 1)), 0, -1):
            for tail in partitions(total - head, parts - 1, head):
                yield (head,) + tail

    def candidates() -> Iterator[tuple[int, tuple[int, ...]]]:
        for m in range(1, spec.max_settings + 1):
            if spec.equal_allocation_only:
                if spec.allow_unused_copies:
                    sizes: list[int] = list(range(spec.budget // m, 0, -1))
                else:
                    sizes = [spec.budget // m] if spec.budget % m == 0 else []
                for n in sizes:
                    yield m, (n,) * m
                continue
            totals = (
                range(spec.budget, m - 1, -1) if spec.allow_unused_copies else [spec.budget]
            )
            for total in totals:
                for allocation in partitions(total, m, total):
                    yield m, allocation

    out = list(itertools.islice(candidates(), MAX_ALLOCATIONS + 1))
    if len(out) > MAX_ALLOCATIONS:
        raise DomainError(
            f"budget {spec.budget} over at most {spec.max_settings} settings gives more "
            f"than {MAX_ALLOCATIONS} allocations"
        )
    return out


@dataclass
class _AllocationEvaluation:
    """Everything computed for one allocation, built lazily per framework."""

    copies: tuple[int, ...]
    problem: WorstCaseProblem
    ent_pmf: OutcomePmf
    pointwise: dict[Fraction, WorstCaseResult]
    posteriors: dict[Fraction, float]
    power_bound: float
    #: Each framework's design once ``plan_for`` has made it (None if infeasible).
    plans: dict[Framework, Plan | None] = field(default_factory=dict)


class PlanEvaluator:
    """Caches per-allocation evaluations for one planning scenario.

    Reusing one evaluator across budgets or frameworks (the allocation sets
    overlap) avoids repeating the worst-case searches.
    """

    def __init__(
        self,
        witness_kind: WitnessKind,
        ent_model: EntangledStateModel,
        priors: PriorPair,
        min_validity: float,
        options: SearchOptions | None = None,
    ):
        self.witness_kind = witness_kind
        self.ent_model = ent_model
        self.priors = priors
        self.min_validity = min_validity
        self.options = options or SearchOptions(restarts=12)
        self._cache: dict[tuple[int, ...], _AllocationEvaluation] = {}

    def evaluate(self, copies: tuple[int, ...]) -> _AllocationEvaluation:
        copies = tuple(int(n) for n in copies)
        if copies in self._cache:
            return self._cache[copies]
        witness = witness_for(self.witness_kind, len(copies))
        signs = family_signs(self.witness_kind, len(copies))
        problem = WorstCaseProblem(witness, copies)
        ent = self.ent_model.outcome_pmf(witness, copies, signs)
        # Single-outcome objectives are tame; a loose polish is plenty.
        pointwise = problem.maximize_all_points(POLISH)
        posteriors = posterior_map(
            ent, {o: r.objective for o, r in pointwise.items()}, self.priors
        )
        # Any achievable power is capped by the most powerful test against
        # each single separability-compatible point already found.
        budget = 1.0 - self.min_validity
        seen: set[tuple[float, ...]] = set()
        power_bound = 1.0
        for result in pointwise.values():
            if result.correlations in seen:
                continue
            seen.add(result.correlations)
            power_bound = min(power_bound, np_power_upper_bound(budget, result.dist, ent))
        evaluation = _AllocationEvaluation(
            copies=copies,
            problem=problem,
            ent_pmf=ent,
            pointwise=pointwise,
            posteriors=posteriors,
            power_bound=power_bound,
        )
        self._cache[copies] = evaluation
        return evaluation

    def _constructor_args(self):
        return (
            self.witness_kind,
            self.ent_model,
            self.priors,
            self.min_validity,
            self.options,
        )

    def prefetch(self, allocations: list[tuple[int, ...]], workers: int = 1) -> None:
        """Fill the evaluation cache, optionally with a process pool.

        Evaluations are pure and seeded, so results do not depend on the
        worker count; the cache merge is keyed by allocation.
        """
        pending = [tuple(c) for c in allocations if tuple(c) not in self._cache]
        if workers <= 1 or len(pending) < 2:
            for copies in pending:
                self.evaluate(copies)
            return
        from concurrent.futures import ProcessPoolExecutor

        args = [(self._constructor_args(), copies) for copies in pending]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for copies, evaluation in pool.map(_evaluate_allocation, args, chunksize=4):
                self._cache[copies] = evaluation

    def plan_for(self, copies: tuple[int, ...], framework: Framework) -> Plan | None:
        """The framework's optimal design for a fixed allocation (None if infeasible)."""
        evaluation = self.evaluate(tuple(copies))
        if framework not in evaluation.plans:
            design = self._frequentist_plan if framework == "frequentist" else self._bayesian_plan
            evaluation.plans[framework] = design(evaluation)
        return evaluation.plans[framework]

    def _frequentist_plan(self, evaluation: _AllocationEvaluation) -> Plan | None:
        witness = witness_for(self.witness_kind, len(evaluation.copies))
        search = max_power_acceptance_set(
            witness,
            evaluation.copies,
            evaluation.ent_pmf,
            max_sep_mass=1.0 - self.min_validity,
            options=self.options,
            problem=evaluation.problem,
            pointwise=evaluation.pointwise,
        )
        if search is None:
            return None
        report = build_test_report(
            search.acceptance,
            evaluation.ent_pmf,
            search.worst_case.objective,
            {o: r.objective for o, r in evaluation.pointwise.items()},
            self.priors,
            self.min_validity,
        )
        return Plan(
            framework="frequentist",
            copies=evaluation.copies,
            acceptance=search.acceptance,
            report=report,
            worst_case=search.worst_case,
            score=report.power,
            search_path=search.search_path,
        )

    def _bayesian_plan(self, evaluation: _AllocationEvaluation) -> Plan | None:
        acc = bayes_acceptance_set(self.min_validity, evaluation.posteriors)
        if acc.is_empty_on(evaluation.problem.grid):
            return None
        worst = evaluation.problem.maximize_set(acc, self.options)
        # The loss is scored with the pointwise-sum bound: the same estimates
        # that selected the set, and a valid (weaker) interval bound.
        loss_mass = sum(
            evaluation.pointwise[o].objective
            for o in evaluation.problem.grid
            if acc.accepts(o)
        )
        report = build_test_report(
            acc,
            evaluation.ent_pmf,
            worst.objective,
            {o: r.objective for o, r in evaluation.pointwise.items()},
            self.priors,
            self.min_validity,
            loss_mass=loss_mass,
        )
        return Plan(
            framework="bayesian",
            copies=evaluation.copies,
            acceptance=acc,
            report=report,
            worst_case=worst,
            score=report.expected_loss,
            search_path=None,
        )


def _plan_sort_key(plan: Plan):
    efficiency = -plan.score if plan.framework == "frequentist" else plan.score
    return (
        efficiency,
        plan.copies_used,
        tuple(-n for n in plan.copies),
    )


def _evaluate_allocation(args):
    evaluator_args, copies = args
    evaluator = PlanEvaluator(*evaluator_args)
    return copies, evaluator.evaluate(copies)


def rank_allocations(
    spec: PlanSpec,
    evaluator: PlanEvaluator,
    prune: bool = False,
    workers: int = 1,
) -> list[Plan]:
    """Feasible designs ranked best first.

    With ``prune`` enabled, frequentist allocations whose Neyman-Pearson
    power bound is already beaten by the best design found so far skip the
    expensive acceptance-set construction (the bound is valid because every
    frequentist set is an alpha-level test against each pool point); the
    returned list then omits those provably dominated allocations but still
    starts with the true optimum.  Bayesian sets are not alpha-level tests,
    so no pruning applies to them.
    """
    allocations = [copies for _, copies in enumerate_allocations(spec)]
    evaluator.prefetch(allocations, workers)

    if spec.framework == "frequentist":
        promise = sorted(
            allocations,
            key=lambda c: (-evaluator.evaluate(c).power_bound, sum(c), tuple(-n for n in c)),
        )
    else:
        promise = allocations

    plans: list[Plan] = []
    best: Plan | None = None
    for copies in promise:
        if (
            prune
            and best is not None
            and spec.framework == "frequentist"
            and evaluator.evaluate(copies).power_bound < best.score
        ):
            continue
        plan = evaluator.plan_for(copies, spec.framework)
        if plan is None:
            continue
        plans.append(plan)
        if best is None or _plan_sort_key(plan) < _plan_sort_key(best):
            best = plan
    return sorted(plans, key=_plan_sort_key)


def optimize_plan(spec: PlanSpec, evaluator: PlanEvaluator, workers: int = 1) -> Plan:
    """Best design under the spec; raises InfeasibleError when none qualifies."""
    ranked = rank_allocations(spec, evaluator, prune=True, workers=workers)
    if ranked:
        return ranked[0]
    best_validity = 0.0
    best_copies: tuple[int, ...] | None = None
    for _, copies in enumerate_allocations(spec):
        evaluation = evaluator.evaluate(copies)
        achieved = (
            1.0 - min(r.objective for r in evaluation.pointwise.values())
            if spec.framework == "frequentist"
            else max(evaluation.posteriors.values(), default=0.0)
        )
        if achieved > best_validity:
            best_validity, best_copies = achieved, copies
    raise InfeasibleError(
        f"no allocation reaches validity {spec.min_validity}; "
        f"best achievable is {best_validity:.6f} with copies {best_copies}",
        payload={"best_validity": best_validity, "copies": best_copies},
    )


def cross_evaluate(plan: Plan, framework: Framework, evaluator: PlanEvaluator) -> TestReport:
    """Evaluate a fixed allocation under the other framework's optimal set."""
    other = evaluator.plan_for(plan.copies, framework)
    if other is None:
        raise InfeasibleError(
            f"allocation {plan.copies} is infeasible under the {framework} framework"
        )
    return other.report


# -- equal-split sweep -------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    """Error tradeoff of one equal split, scored at its best threshold."""

    num_settings: int
    copies_per_setting: int
    best_bound: Fraction
    sep_error: float
    ent_error: float
    score: float
    curve: tuple[tuple[Fraction, float, float], ...]


def equal_split_sweep(
    budget: int,
    witness_kind: WitnessKind,
    purity: float,
) -> list[SweepEntry]:
    """Score every equal split of the budget by its minimax error.

    For each (M, n) with M * n = budget, the separable side uses the analytic
    worst case and the entangled side the purity-p family; each threshold on
    the outcome grid yields a false-positive and a false-negative
    probability, and the split is scored by the best achievable maximum of
    the two.  The returned list is sorted by (score, M).
    """
    budget = check_integer(budget, "budget", 1)
    entries = []
    for m in range(1, budget + 1):
        if budget % m:
            continue
        n = budget // m
        witness = witness_for(witness_kind, m)
        signs = family_signs(witness_kind, m)
        ent_settings = [CorrelationSetting(s * purity, n) for s in signs]
        sep_settings = [CorrelationSetting(t, n) for t in witness.analytic_worst_case()]
        ent = witness_pmf(ent_settings, witness)
        sep = witness_pmf(sep_settings, witness)
        accept_low = witness_kind == "linear"
        curve = []
        for bound in ent.outcomes:
            if accept_low:
                sep_error = sep.mass_below(bound)
                ent_error = ent.mass_above(bound, inclusive=False)
            else:
                sep_error = sep.mass_above(bound)
                ent_error = ent.mass_below(bound, inclusive=False)
            curve.append((bound, sep_error, ent_error))
        stricter = (lambda b: b) if accept_low else (lambda b: -b)
        best_bound, sep_error, ent_error = min(
            curve, key=lambda row: (max(row[1], row[2]), stricter(row[0]))
        )
        entries.append(
            SweepEntry(
                num_settings=m,
                copies_per_setting=n,
                best_bound=best_bound,
                sep_error=sep_error,
                ent_error=ent_error,
                score=max(sep_error, ent_error),
                curve=tuple(curve),
            )
        )
    return sorted(entries, key=lambda e: (e.score, e.num_settings))


def best_equal_split(budget: int, witness_kind: WitnessKind, purity: float) -> SweepEntry:
    return equal_split_sweep(budget, witness_kind, purity)[0]
