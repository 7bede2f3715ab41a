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
from typing import Iterator, Literal, Sequence

from .acceptance import AcceptanceSet
from .errors import DomainError, InfeasibleError
from .finite_stats import check_copies, check_integer, check_real
from .inference import (
    PriorPair,
    TestReport,
    bayes_acceptance_set,
    build_test_report,
    max_power_acceptance_set,
    posterior_map,
    power_ceiling,
)
from .pmf import OutcomePmf
from .states import EntangledStateModel, check_purity
from .witnesses import LinearWitness, QuadraticWitness, Witness, WitnessGrid
from .worst_case import POLISH, SearchOptions, WorstCaseProblem, WorstCaseResult

WitnessKind = Literal["linear", "quadratic"]
Framework = Literal["frequentist", "bayesian"]

#: Allocations that one plan may enumerate at most; each costs a pointwise
#: search, so a budget past this could not finish.  The 13-copy, 3-setting
#: plan has 122 and 30 copies over at most 5 settings have 5,325.
MAX_ALLOCATIONS = 10_000

#: Largest budget that an equal-split sweep takes; a larger one is refused
#: before any pmf is built.  A sweep's work grows steeply with the budget:
#: on a 2-vCPU machine the quadratic witness takes about 1 s at 180 to 200
#: copies, 5 s at 240 and 27 s at 360.
MAX_SWEEP_BUDGET = 200


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
    """One evaluated design: its report and its set's worst case."""

    framework: Framework
    copies: tuple[int, ...]
    report: TestReport
    worst_case: WorstCaseResult

    @property
    def acceptance(self) -> AcceptanceSet:
        return self.report.acceptance

    @property
    def score(self) -> float:
        """Power (frequentist) or expected-loss bound (bayesian)."""
        return self.report.power if self.framework == "frequentist" else self.report.expected_loss

    @property
    def search_path(self) -> str | None:
        """How the set was searched: ``"exhaustive"`` for a frequentist set."""
        return "exhaustive" if self.framework == "frequentist" else None

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
        # Past the budget, settings would get no copies.
        for m in range(1, min(spec.max_settings, spec.budget) + 1):
            if spec.equal_allocation_only:
                if spec.allow_unused_copies:
                    sizes: Sequence[int] = range(spec.budget // m, 0, -1)
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
    #: Each outcome's pointwise worst-case mass.
    masses: dict[Fraction, float]
    posteriors: dict[Fraction, float]
    #: ``power_ceiling`` at the validity floor: no frequentist set of the
    #: allocation has more power.
    power_bound: float
    #: Each framework's design once ``plan_for`` has made it (None if infeasible).
    plans: dict[Framework, Plan | None] = field(default_factory=dict)


class PlanEvaluator:
    """Caches per-allocation evaluations for one planning scenario.

    Reusing one evaluator across budgets or frameworks (the allocation sets
    overlap) avoids repeating the worst-case searches.  An unknown witness
    kind, or a ``min_validity`` that is no real number in (0, 1), raises
    DomainError here, before any search.
    """

    def __init__(
        self,
        witness_kind: WitnessKind,
        ent_model: EntangledStateModel,
        priors: PriorPair,
        min_validity: float,
        options: SearchOptions | None = None,
    ):
        if witness_kind not in ("linear", "quadratic"):
            raise DomainError(f"unknown witness kind {witness_kind!r}")
        self.witness_kind = witness_kind
        self.ent_model = ent_model
        self.priors = priors
        self.min_validity = check_real(min_validity, "min_validity", 0.0, 1.0, "()")
        self.options = options or SearchOptions(restarts=12)
        self._cache: dict[tuple[int, ...], _AllocationEvaluation] = {}

    def evaluate(self, copies: tuple[int, ...]) -> _AllocationEvaluation:
        """The cached evaluation of ``copies``, each an integer >= 1."""
        copies = tuple(check_copies(n) for n in copies)
        if copies in self._cache:
            return self._cache[copies]
        witness = witness_for(self.witness_kind, len(copies))
        signs = family_signs(self.witness_kind, len(copies))
        problem = WorstCaseProblem(witness, copies)
        ent = self.ent_model.outcome_pmf(witness, copies, signs)
        # Single-outcome objectives are tame; a loose polish is plenty.
        pointwise = problem.maximize_all_points(POLISH)
        masses = {o: r.objective for o, r in pointwise.items()}
        evaluation = _AllocationEvaluation(
            copies=copies,
            problem=problem,
            ent_pmf=ent,
            pointwise=pointwise,
            masses=masses,
            posteriors=posterior_map(ent, masses, self.priors),
            power_bound=power_ceiling(ent, pointwise, 1.0 - self.min_validity),
        )
        self._cache[copies] = evaluation
        return evaluation

    def prefetch(self, allocations: list[tuple[int, ...]], workers: int = 1) -> None:
        """Fill the evaluation cache, optionally with a process pool.

        Evaluations are pure and seeded, so results do not depend on the
        worker count; the cache merge is keyed by allocation.  Workers
        evaluate with a fresh evaluator, so no cache is sent to them.
        """
        pending = [tuple(c) for c in allocations if tuple(c) not in self._cache]
        if workers <= 1 or len(pending) < 2:
            for copies in pending:
                self.evaluate(copies)
            return
        from concurrent.futures import ProcessPoolExecutor

        fresh = PlanEvaluator(
            self.witness_kind, self.ent_model, self.priors, self.min_validity, self.options
        )
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for evaluation in pool.map(fresh.evaluate, pending, chunksize=4):
                self._cache[evaluation.copies] = evaluation

    def plan_for(self, copies: tuple[int, ...], framework: Framework) -> Plan | None:
        """The framework's optimal design for a fixed allocation (None if infeasible).

        A frequentist design takes the most powerful set within the
        confidence floor; a Bayesian one accepts the outcomes whose
        posterior bound reaches the validity target, and its loss is scored
        with the pointwise-sum bound: the same estimates that selected the
        set, and a valid (weaker) interval bound.
        """
        evaluation = self.evaluate(copies)
        if framework in evaluation.plans:
            return evaluation.plans[framework]
        problem, loss_mass = evaluation.problem, None
        if framework == "frequentist":
            search = max_power_acceptance_set(
                problem,
                evaluation.ent_pmf,
                1.0 - self.min_validity,
                self.options,
                evaluation.pointwise,
            )
            acc, worst = (search.acceptance, search.worst_case) if search else (None, None)
        else:
            acc = bayes_acceptance_set(self.min_validity, evaluation.posteriors)
            worst = problem.maximize_set(acc, self.options) if acc.outcomes else None
            loss_mass = sum(evaluation.masses[o] for o in problem.grid if acc.accepts(o))
        plan = None
        if worst is not None:
            report = build_test_report(
                acc,
                evaluation.ent_pmf,
                worst.objective,
                evaluation.masses,
                self.priors,
                self.min_validity,
                loss_mass=loss_mass,
            )
            plan = Plan(framework, evaluation.copies, report, worst)
        evaluation.plans[framework] = plan
        return plan


def _plan_sort_key(plan: Plan):
    efficiency = -plan.score if plan.framework == "frequentist" else plan.score
    return (
        efficiency,
        plan.copies_used,
        tuple(-n for n in plan.copies),
    )


def rank_allocations(
    spec: PlanSpec,
    evaluator: PlanEvaluator,
    prune: bool = False,
    workers: int = 1,
) -> list[Plan]:
    """Feasible designs ranked best first.

    Frequentist allocations are designed in descending ``power_bound``,
    their ``power_ceiling``.  With ``prune`` enabled, one whose ceiling is
    below the best power found so far skips its acceptance-set search; the
    returned list then omits those dominated designs but still starts with
    the true optimum.  Bayesian sets are not tests at a fixed level, so no
    pruning applies to them.  A spec whose validity target is not the
    evaluator's raises DomainError before any search.
    """
    if spec.min_validity != evaluator.min_validity:
        raise DomainError(
            f"the spec plans at validity {spec.min_validity}, "
            f"the evaluator at {evaluator.min_validity}"
        )
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
    if not ranked:
        raise _infeasible(spec, evaluator)
    return ranked[0]


def _infeasible(spec: PlanSpec, evaluator: PlanEvaluator) -> InfeasibleError:
    """The error of an empty ranking: the best validity an allocation reaches."""
    best_validity = 0.0
    best_copies: tuple[int, ...] | None = None
    for _, copies in enumerate_allocations(spec):
        evaluation = evaluator.evaluate(copies)
        achieved = (
            1.0 - min(evaluation.masses.values())
            if spec.framework == "frequentist"
            else max(evaluation.posteriors.values(), default=0.0)
        )
        if achieved > best_validity:
            best_validity, best_copies = achieved, copies
    return InfeasibleError(
        f"no allocation reaches validity {spec.min_validity}; "
        f"best achievable is {best_validity:.6f} with copies {best_copies}",
        payload={"best_validity": best_validity, "copies": best_copies},
    )


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
    the two.  The returned list is sorted by (score, M).  A budget above
    ``MAX_SWEEP_BUDGET``, or a purity outside [0, 1], raises DomainError
    before any grid is built.
    """
    budget = check_integer(budget, "budget", 1)
    if budget > MAX_SWEEP_BUDGET:
        raise DomainError(f"a sweep's budget must lie in [1, {MAX_SWEEP_BUDGET}], got {budget}")
    purity = check_purity(purity)
    entries = []
    for m in range(1, budget + 1):
        if budget % m:
            continue
        n = budget // m
        witness = witness_for(witness_kind, m)
        ent_correlations = [s * purity for s in family_signs(witness_kind, m)]
        # One grid for both sides: pmf_batch computes each row on its own.
        grid = WitnessGrid(witness, [n] * m)
        ent_row, sep_row = grid.pmf_batch([ent_correlations, witness.analytic_worst_case()])
        ent, sep = grid.as_pmf(ent_row.tolist()), grid.as_pmf(sep_row.tolist())
        accept_low = witness_kind == "linear"
        # Both pmfs live on one grid; threshold k splits it before point k
        # (accept at or above it) or after it (accept at or below it).
        sep_below, sep_above = sep.tail_masses()
        ent_below, ent_above = ent.tail_masses()
        curve = []
        for k, bound in enumerate(ent.outcomes):
            if accept_low:
                sep_error, ent_error = sep_below[k + 1], ent_above[k + 1]
            else:
                sep_error, ent_error = sep_above[k], ent_below[k]
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
