"""Frequentist and Bayesian evaluation of certification tests.

Separable states are summarized by worst-case bounds from the search in
``worst_case``: an interval bound (the maximal probability of the whole
acceptance set) for confidence and loss estimates, and pointwise bounds (the
maximal probability of each single outcome) for certified posterior lower
bounds.  The entangled hypothesis is an explicit outcome distribution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Mapping, Sequence

import numpy as np

from .acceptance import AcceptanceSet
from .errors import DomainError, UndefinedOutcomeError
from .pmf import OutcomePmf
from .witnesses import Witness
from .worst_case import POLISH, SearchOptions, WorstCaseProblem, WorstCaseResult

#: Largest grid for which the acceptance-set search enumerates all subsets.
MAX_EXHAUSTIVE_OUTCOMES = 24

#: Heap-pop budget of the exhaustive search before falling back to greedy.
MAX_SEARCH_POPS = 200_000

#: Candidates that the set searches screen for the cheap bounds at once.
_SCREEN_BATCH = 64


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities of the two hypotheses."""

    p_ent: float

    def __post_init__(self):
        if not (0.0 <= self.p_ent <= 1.0):
            raise DomainError(f"P(ent) must lie in [0, 1], got {self.p_ent}")

    @property
    def p_sep(self) -> float:
        return 1.0 - self.p_ent


@dataclass(frozen=True)
class TestReport:
    """Evaluation of one acceptance set under both inference frameworks."""

    confidence: float
    power: float
    posterior_by_outcome: dict[Fraction, float]
    acceptance_level: float | None
    expected_loss: float
    acceptance: AcceptanceSet | None = None
    q_bayes: float | None = None


def confidence(acc: AcceptanceSet, worst_case_mass: float) -> float:
    """1 minus the worst-case false-positive probability.

    ``worst_case_mass`` is the (gamma-weighted) worst-case probability of the
    acceptance set given separability-compatible correlations.
    """
    if not (0.0 <= worst_case_mass <= 1.0 + 1e-12):
        raise DomainError(f"worst-case mass must lie in [0, 1], got {worst_case_mass}")
    return 1.0 - min(worst_case_mass, 1.0)


def power(acc: AcceptanceSet, ent_pmf: OutcomePmf) -> float:
    """Probability of accepting given the entangled hypothesis."""
    return acc.weighted_mass(ent_pmf)


def posterior_lower_bound(
    outcome: Fraction,
    ent_pmf: OutcomePmf,
    pointwise_mass: float,
    priors: PriorPair,
) -> float:
    """Certified lower bound on P(ent | outcome).

    ``pointwise_mass`` is the worst case of P(outcome | sep); plugging it into
    Bayes' rule can only decrease the posterior, so the bound is safe.
    """
    p_ent_outcome = ent_pmf.probability(outcome)
    numerator = p_ent_outcome * priors.p_ent
    denominator = pointwise_mass * priors.p_sep + numerator
    if denominator <= 0.0:
        raise UndefinedOutcomeError(
            f"outcome {outcome} has zero probability under both hypotheses"
        )
    return numerator / denominator


def posterior_map(
    ent_pmf: OutcomePmf,
    pointwise: Mapping[Fraction, float],
    priors: PriorPair,
) -> dict[Fraction, float]:
    """Posterior lower bounds for every grid outcome where one is defined."""
    out: dict[Fraction, float] = {}
    for outcome in ent_pmf.outcomes:
        mass = pointwise.get(outcome, 0.0)
        if ent_pmf.probability(outcome) <= 0.0 and mass <= 0.0:
            continue
        out[outcome] = posterior_lower_bound(outcome, ent_pmf, mass, priors)
    return out


def _check_q_bayes(q_bayes: float) -> None:
    if not (0.0 <= q_bayes <= 1.0):
        raise DomainError(f"q_bayes must lie in [0, 1], got {q_bayes}")


def bayes_acceptance_set(q_bayes: float, posteriors: Mapping[Fraction, float]) -> AcceptanceSet:
    """Accept exactly the outcomes whose posterior bound reaches ``q_bayes``."""
    _check_q_bayes(q_bayes)
    return AcceptanceSet.explicit(o for o, p in posteriors.items() if p >= q_bayes)


def expected_loss_bound(
    acc: AcceptanceSet,
    q_bayes: float,
    priors: PriorPair,
    worst_case_mass: float,
    ent_pmf: OutcomePmf,
) -> float:
    """Worst-case bound on the prior expected loss.

    False positives are weighted by ``q_bayes`` and bounded through the
    worst-case acceptance mass; false negatives are weighted by 1 - q_bayes
    and use the entangled model directly.  ``q_bayes`` must lie in [0, 1].
    """
    _check_q_bayes(q_bayes)
    reject_mass = 1.0 - acc.weighted_mass(ent_pmf)
    return q_bayes * worst_case_mass * priors.p_sep + (1.0 - q_bayes) * reject_mass * priors.p_ent


def np_power_upper_bound(alpha: float, sep_pmf: OutcomePmf, ent_pmf: OutcomePmf) -> float:
    """Power of the most powerful alpha-level test against ``sep_pmf``.

    By the fundamental lemma this bounds the power of every acceptance set
    whose worst-case separable mass stays within alpha, because such a set is
    an alpha-level test against any single separability-compatible point.
    """
    acc = neyman_pearson_test(alpha, sep_pmf, ent_pmf)
    return acc.weighted_mass(ent_pmf)


def neyman_pearson_test(alpha: float, sep_pmf: OutcomePmf, ent_pmf: OutcomePmf) -> AcceptanceSet:
    """Most powerful randomized test at exact significance ``alpha``.

    Outcomes are ranked by likelihood ratio ent/sep (infinite ratios first,
    ties toward larger outcomes) and accepted greedily; the first outcome
    that would overflow the significance budget is accepted with the
    probability gamma that lands the separable mass exactly on alpha.
    Outcomes with zero probability under both hypotheses are left out.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if sep_pmf.outcomes != ent_pmf.outcomes:
        raise DomainError("both hypotheses must share one outcome grid")

    ranked = []
    for outcome in sep_pmf.outcomes:
        ps = sep_pmf.probability(outcome)
        pe = ent_pmf.probability(outcome)
        if ps <= 0.0 and pe <= 0.0:
            continue
        ranked.append((_ratio_key(outcome, pe, ps), outcome, ps))
    ranked.sort(key=lambda item: item[0])

    accepted: list[Fraction] = []
    used = 0.0
    for _, outcome, ps in ranked:
        if used + ps <= alpha + 1e-12 or ps <= 0.0:
            accepted.append(outcome)
            used += ps
            continue
        gamma = (alpha - used) / ps
        if gamma <= 0.0:  # budget already consumed up to float noise
            return AcceptanceSet.explicit(accepted)
        return AcceptanceSet.explicit(accepted, gamma=gamma, boundary=outcome)
    # Budget never exhausted: every informative outcome is already accepted.
    return AcceptanceSet.explicit(accepted)


def _ratio_key(outcome: Fraction, ent: float, sep: float) -> tuple:
    """Sort key of the likelihood ratio ent/sep, largest first: infinite
    ratios lead, and ties go toward larger outcomes."""
    if sep <= 0.0:
        return (0, 0.0, -outcome)
    return (1, -ent / sep, -outcome)


# -- acceptance-set construction -------------------------------------------


@dataclass
class SetSearchOutcome:
    """Result of the max-power acceptance-set search."""

    acceptance: AcceptanceSet
    worst_case: WorstCaseResult
    power: float
    search_path: Literal["exhaustive", "greedy"]


class _FeasibilityChecker:
    """Shared machinery to decide feasibility of candidate subsets.

    Candidates are arrays of grid indices.  Feasibility means the worst-case
    acceptance mass stays within budget.  Cheap bounds come first: the sum of
    pointwise worst cases (an upper bound on the interval worst case)
    certifies feasibility, and any already-found feasible correlation vector
    whose mass overshoots certifies infeasibility.  Undecided candidates get
    a ``POLISH`` probe seeded from the most threatening pool points; only
    survivors pay for the full search.

    The searches ``screen`` a batch of candidates at once for the cheap
    bounds and then ``check`` each in turn; ``check`` adds the pool points
    found since the screen, so each decision is the one that screening the
    candidate alone would give.
    """

    #: Safety margin of the pointwise-sum shortcut (the pointwise values are
    #: themselves numeric optima, so a thin slack could be optimizer noise).
    SUM_MARGIN = 0.01

    def __init__(
        self,
        problem: WorstCaseProblem,
        budget: float,
        pointwise: Mapping[Fraction, WorstCaseResult],
        options: SearchOptions,
    ):
        self.problem = problem
        self.budget = budget
        self.options = options
        self.pointwise_mass = np.array([pointwise[o].objective for o in problem.grid])
        self._points: list[tuple[float, ...]] = []
        # Column 0 holds the pointwise masses, then one column per pool point.
        self._columns: list[np.ndarray] = [self.pointwise_mass]
        self._table: np.ndarray | None = None
        seen = set()
        for result in pointwise.values():
            if result.correlations not in seen:
                seen.add(result.correlations)
                self._add_pool(result.correlations, result.dist)

    def _add_pool(self, point: tuple[float, ...], dist: OutcomePmf) -> None:
        self._points.append(point)
        self._columns.append(np.array(dist.probabilities))
        self._table = None

    def outcomes(self, indices: np.ndarray) -> frozenset[Fraction]:
        grid = self.problem.grid
        return frozenset(grid[i] for i in indices)

    def _sums(self, order: np.ndarray, kept: np.ndarray, first: int) -> np.ndarray:
        """Sums (K, C) of the table columns from ``first`` on over the rows
        ``order[kept[k]]`` of each candidate k, added one row at a time in
        ``order``, as ``table[indices].sum(axis=0)`` adds them for two
        columns or more."""
        if self._table is None:
            self._table = np.column_stack(self._columns)
        rows = self._table[:, first:]
        sums = np.zeros((len(kept), rows.shape[1]))
        for position in np.flatnonzero(kept.any(axis=0)):
            np.add(sums, rows[order[position]], out=sums, where=kept[:, position, None])
        return sums

    def screen(self, order: np.ndarray, kept: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise sums (K,) and pool masses (K, P) of the K candidates
        ``order[kept[k]]``, for a (K, len(order)) boolean ``kept``."""
        sums = self._sums(order, kept, 0)
        return sums[:, 0], sums[:, 1:]

    def check(
        self, indices: np.ndarray, total: float, masses: np.ndarray
    ) -> tuple[bool, WorstCaseResult | None]:
        """(feasible, worst-case result if a full search ran) of the
        candidate ``indices``, given its pointwise sum ``total`` and pool
        masses ``masses`` from ``screen``."""
        if total <= self.budget - self.SUM_MARGIN:
            return True, None
        if len(masses) < len(self._points):
            added = self._sums(indices, np.ones((1, len(indices)), dtype=bool), 1 + len(masses))
            masses = np.concatenate([masses, added[0]])
        if masses.max() > self.budget:
            return False, None
        order = np.argsort(masses)[::-1][:2]
        acc = AcceptanceSet.explicit(self.outcomes(indices))
        probe = self.problem.maximize_set(acc, POLISH, seed_points=[self._points[i] for i in order])
        self._add_pool(probe.correlations, probe.dist)
        if probe.objective > self.budget:
            return False, None
        result = self.problem.maximize_set(
            acc, self.options, seed_points=[probe.correlations]
        )
        self._add_pool(result.correlations, result.dist)
        return result.objective <= self.budget, result

    def resolve(self, outcomes: frozenset[Fraction]) -> WorstCaseResult:
        return self.problem.maximize_set(AcceptanceSet.explicit(outcomes), self.options)


def max_power_acceptance_set(
    witness: Witness,
    copies: Sequence[int],
    ent_pmf: OutcomePmf,
    max_sep_mass: float,
    options: SearchOptions | None = None,
    problem: WorstCaseProblem | None = None,
    pointwise: Mapping[Fraction, WorstCaseResult] | None = None,
) -> SetSearchOutcome | None:
    """Power-maximizing explicit acceptance set with worst-case mass in budget.

    The universe is the outcomes that add power and fit the budget alone.
    Universes of at most ``MAX_EXHAUSTIVE_OUTCOMES`` outcomes are searched
    exactly: all subsets are enumerated best-power-first and the first
    feasible one wins.  Larger universes (or more than ``MAX_SEARCH_POPS``
    heap pops) fall back to likelihood-ratio prefixes.  Both limits are read
    at call time.  Returns None when not even a single outcome is feasible.
    """
    opts = options or SearchOptions()
    problem = problem or WorstCaseProblem(witness, tuple(copies))
    if ent_pmf.outcomes != problem.grid:
        raise DomainError("entangled pmf must live on the witness outcome grid")
    if pointwise is None:
        pointwise = problem.maximize_all_points(opts)
    if set(pointwise) != set(problem.grid):
        raise DomainError("pointwise bounds must cover the whole outcome grid")
    checker = _FeasibilityChecker(problem, max_sep_mass, pointwise, opts)

    # Outcomes whose single-point worst case already overshoots the budget
    # poison every superset; keeping only outcomes that help power keeps the
    # search exact.
    universe = [
        i
        for i, o in enumerate(problem.grid)
        if ent_pmf.probabilities[i] > 0.0 and pointwise[o].objective <= max_sep_mass
    ]
    total_power = sum(ent_pmf.probabilities[i] for i in universe)
    # Ascending mass makes both heap successors weakly lower-power.
    universe.sort(key=lambda i: (ent_pmf.probabilities[i], problem.grid[i]))
    masses = [ent_pmf.probabilities[i] for i in universe]
    order = np.array(universe, dtype=np.intp)

    search_path: Literal["exhaustive", "greedy"] = "exhaustive"
    found = None
    if len(universe) <= MAX_EXHAUSTIVE_OUTCOMES:
        found = _best_first_search(order, masses, total_power, checker, MAX_SEARCH_POPS)
    if found is None:
        search_path = "greedy"
        found = _greedy_prefix_search(order, masses, checker)
    if found is None or not found[0]:
        return None
    outcomes, result = found
    acc = AcceptanceSet.explicit(outcomes)
    if result is None:
        result = checker.resolve(outcomes)
    return SetSearchOutcome(acc, result, power(acc, ent_pmf), search_path)


def _screened(checker: _FeasibilityChecker, order: np.ndarray, batches: Iterator[np.ndarray]):
    """(indices, pointwise sum, pool masses) of every candidate
    ``order[row]``, for the boolean rows of each (K, len(order)) batch in
    turn, with each batch screened at once."""
    for kept in batches:
        totals, pool = checker.screen(order, kept)
        for row, total, masses in zip(kept, totals.tolist(), pool):
            yield order[row], total, masses


def _best_first_search(
    order: np.ndarray,
    masses: Sequence[float],
    total_power: float,
    checker: _FeasibilityChecker,
    max_pops: int,
) -> tuple[frozenset[Fraction], WorstCaseResult | None] | None:
    """Enumerate subsets in non-increasing power order; first feasible wins.

    ``order`` holds the grid indices of the universe, ``masses`` their
    entangled probabilities.  Subsets are identified by the strictly
    increasing tuple of removed universe positions.  With the universe
    sorted by ascending mass, the two successors of a node (bump the last
    removed position, or additionally remove the next one) both have weakly
    lower power, so a max-heap pops subsets in exact non-increasing power
    order and every subset appears once.  Every pop pushes its successors
    whatever its check decides, so the order of the pops does not depend on
    the checks: the search pops ``_SCREEN_BATCH`` subsets ahead, screens
    them at once and checks them in pop order.  Returns the winner, an
    empty-set marker when the whole space is infeasible, or None when the
    pop budget runs out.
    """
    n = len(order)
    heap: list[tuple[float, tuple[int, ...]]] = [(-total_power, ())]

    def frontier() -> Iterator[np.ndarray]:
        pops = 0
        while heap and pops < max_pops:
            batch = []
            while heap and pops < max_pops and len(batch) < _SCREEN_BATCH:
                neg_power, removed = heapq.heappop(heap)
                pops += 1
                if len(removed) < n:
                    batch.append(removed)
                if not removed:
                    if n:
                        heapq.heappush(heap, (-total_power + masses[0], (0,)))
                    continue
                last = removed[-1]
                if last + 1 < n:
                    step = masses[last + 1] - masses[last]
                    heapq.heappush(heap, (-(-neg_power - step), removed[:-1] + (last + 1,)))
                    heapq.heappush(heap, (-(-neg_power - masses[last + 1]), removed + (last + 1,)))
            kept = np.ones((len(batch), n), dtype=bool)
            rows = np.repeat(np.arange(len(batch)), [len(removed) for removed in batch])
            kept[rows, [position for removed in batch for position in removed]] = False
            yield kept

    for candidate, total, pool in _screened(checker, order, frontier()):
        feasible, result = checker.check(candidate, total, pool)
        if feasible:
            return checker.outcomes(candidate), result
    if not heap:
        return frozenset(), None
    return None


def _greedy_prefix_search(
    order: np.ndarray,
    masses: Sequence[float],
    checker: _FeasibilityChecker,
) -> tuple[frozenset[Fraction], WorstCaseResult | None] | None:
    """Longest feasible prefix of the likelihood-ratio ordering."""
    grid = checker.problem.grid

    def ratio_key(position: int):
        index = order[position]
        return _ratio_key(grid[index], masses[position], checker.pointwise_mass[index])

    ranked = order[sorted(range(len(order)), key=ratio_key)]

    def prefixes() -> Iterator[np.ndarray]:
        positions = np.arange(len(ranked))
        for start in range(1, len(ranked) + 1, _SCREEN_BATCH):
            sizes = np.arange(start, min(start + _SCREEN_BATCH, len(ranked) + 1))
            yield positions < sizes[:, None]

    best: tuple[int, WorstCaseResult | None] | None = None
    for candidate, total, pool in _screened(checker, ranked, prefixes()):
        feasible, result = checker.check(candidate, total, pool)
        if not feasible:
            break
        best = (len(candidate), result)
    if best is None:
        return None
    return checker.outcomes(ranked[: best[0]]), best[1]


def build_test_report(
    acc: AcceptanceSet,
    ent_pmf: OutcomePmf,
    worst_case_mass: float,
    pointwise: Mapping[Fraction, float],
    priors: PriorPair,
    q_bayes: float,
    loss_mass: float | None = None,
) -> TestReport:
    """Assemble the full two-framework evaluation of one acceptance set.

    ``loss_mass`` overrides the worst-case mass used in the loss bound (the
    loss may be scored with a weaker, pointwise-sum estimate than the
    confidence); it defaults to ``worst_case_mass``.
    """
    posteriors = posterior_map(ent_pmf, pointwise, priors)
    accepted_levels = [p for o, p in posteriors.items() if acc.weight(o) > 0.0]
    return TestReport(
        confidence=confidence(acc, worst_case_mass),
        power=power(acc, ent_pmf),
        posterior_by_outcome=posteriors,
        acceptance_level=min(accepted_levels) if accepted_levels else None,
        expected_loss=expected_loss_bound(
            acc, q_bayes, priors, loss_mass if loss_mass is not None else worst_case_mass, ent_pmf
        ),
        acceptance=acc,
        q_bayes=q_bayes,
    )
