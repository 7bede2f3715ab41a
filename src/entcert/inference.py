"""Frequentist and Bayesian evaluation of certification tests.

Separable states are summarized by worst-case bounds from the search in
``worst_case``: an interval bound (the maximal probability of the whole
acceptance set) for confidence and loss estimates, and pointwise bounds (the
maximal probability of each single outcome) for certified posterior lower
bounds.  The entangled hypothesis is an explicit outcome distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Sequence

import numpy as np

from .acceptance import AcceptanceSet
from .errors import DomainError, UndefinedOutcomeError
from .finite_stats import check_real
from .pmf import OutcomePmf
from .worst_case import POLISH, SearchOptions, WorstCaseProblem, WorstCaseResult

#: Tie rule of every budget comparison: a separable mass at most this far
#: above a budget meets the budget.  It absorbs float noise only: the worst
#: case of {1/9, 3} at copies (3, 2, 2) is exactly 3/10, and searches from
#: different seeds land within 1e-13 of it on either side, so a set whose
#: mass equals its budget is feasible whatever the seed.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities of the two hypotheses."""

    p_ent: float

    def __post_init__(self):
        object.__setattr__(self, "p_ent", check_real(self.p_ent, "P(ent)", 0.0, 1.0))

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
    return _posterior(outcome, ent_pmf.probability(outcome), pointwise_mass, priors)


def _posterior(outcome: Fraction, p_ent: float, pointwise_mass: float, priors: PriorPair) -> float:
    """``posterior_lower_bound`` given the outcome's entangled probability."""
    numerator = p_ent * priors.p_ent
    denominator = pointwise_mass * priors.p_sep + numerator
    if denominator <= 0.0:
        raise UndefinedOutcomeError(
            f"outcome {outcome} has zero prior-weighted probability under both hypotheses, "
            "so it has no posterior"
        )
    return numerator / denominator


def posterior_map(
    ent_pmf: OutcomePmf,
    pointwise: Mapping[Fraction, float],
    priors: PriorPair,
) -> dict[Fraction, float]:
    """Posterior lower bounds for every grid outcome where one is defined.

    ``pointwise`` must hold a worst-case mass for every outcome of
    ``ent_pmf``; a missing one raises DomainError, since no bound on its
    separable mass means no bound on its posterior.
    """
    missing = [o for o in ent_pmf.outcomes if o not in pointwise]
    if missing:
        named = ", ".join(map(str, missing[:10])) + (", ..." if len(missing) > 10 else "")
        raise DomainError(f"no pointwise bound for grid outcomes {named}")
    out: dict[Fraction, float] = {}
    for outcome, p_ent in ent_pmf.items():
        mass = pointwise[outcome]
        if p_ent <= 0.0 and mass <= 0.0:
            continue
        out[outcome] = _posterior(outcome, p_ent, mass, priors)
    return out


def check_q_bayes(q_bayes) -> float:
    """A validity target as a float: a real number in [0, 1]."""
    return check_real(q_bayes, "q_bayes", 0.0, 1.0)


def bayes_acceptance_set(q_bayes: float, posteriors: Mapping[Fraction, float]) -> AcceptanceSet:
    """Accept exactly the outcomes whose posterior bound reaches ``q_bayes``."""
    q_bayes = check_q_bayes(q_bayes)
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
    q_bayes = check_q_bayes(q_bayes)
    reject_mass = 1.0 - acc.weighted_mass(ent_pmf)
    return q_bayes * worst_case_mass * priors.p_sep + (1.0 - q_bayes) * reject_mass * priors.p_ent


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
    for i, (outcome, ps, pe) in enumerate(
        zip(sep_pmf.outcomes, sep_pmf.probabilities, ent_pmf.probabilities)
    ):
        if ps <= 0.0 and pe <= 0.0:
            continue
        ranked.append((_ratio_key(i, pe, ps), outcome, ps))
    ranked.sort(key=lambda item: item[0])

    accepted: list[Fraction] = []
    used = 0.0
    for _, outcome, ps in ranked:
        if used + ps <= alpha + TIE_TOLERANCE or ps <= 0.0:
            accepted.append(outcome)
            used += ps
            continue
        gamma = (alpha - used) / ps
        if gamma <= 0.0:  # budget already consumed up to float noise
            return AcceptanceSet.explicit(accepted)
        return AcceptanceSet.explicit(accepted, gamma=gamma, boundary=outcome)
    # Budget never exhausted: every informative outcome is already accepted.
    return AcceptanceSet.explicit(accepted)


def _ratio_key(index: int, ent: float, sep: float) -> tuple:
    """Sort key of the likelihood ratio ent/sep at grid position ``index``,
    largest first: infinite ratios lead, and ties go toward larger grid
    positions, which are the larger outcomes."""
    if sep <= 0.0:
        return (0, 0.0, -index)
    return (1, -ent / sep, -index)


def power_ceiling(
    ent_pmf: OutcomePmf, pointwise: Mapping[Fraction, WorstCaseResult], budget: float
) -> float:
    """Bound on the power of every set, randomized or not, whose worst case is
    within ``budget``: the least Neyman-Pearson power against a distinct point of
    ``pointwise``, as Dantzig's fractional-knapsack bound at budget + TIE_TOLERANCE."""
    if next(iter(pointwise.values())).dist.outcomes != ent_pmf.outcomes:
        raise DomainError("both hypotheses must share one outcome grid")
    table = np.column_stack(_pointwise_pool(pointwise)[1])
    caps = np.full(table.shape[1], budget + TIE_TOLERANCE)
    bound = _FractionalBound(np.array(ent_pmf.probabilities), table, caps)
    return min(1.0, bound(np.zeros(len(caps)), np.arange(len(table))))


def _pointwise_pool(pointwise: Mapping[Fraction, WorstCaseResult]) -> tuple[list, list[np.ndarray]]:
    """The distinct points of ``pointwise``, first seen first, and their outcome masses."""
    pool = {}
    for result in pointwise.values():
        pool.setdefault(result.correlations, result.dist)
    return list(pool), [np.array(dist.probabilities) for dist in pool.values()]


# -- acceptance-set construction -------------------------------------------

@dataclass
class SetSearchOutcome:
    """Result of the max-power acceptance-set search.

    ``search_path`` is always ``"exhaustive"``: the constraint-generation
    loop is exact for every universe size.
    """

    acceptance: AcceptanceSet
    worst_case: WorstCaseResult
    power: float
    search_path: Literal["exhaustive"]


class _FeasibilityChecker:
    """Decides feasibility of candidate subsets and keeps the pool.

    Candidates are arrays of grid indices.  Feasibility means the worst-case
    acceptance mass stays within budget.  The pool holds every separable
    correlation vector found so far: the pointwise worst cases, then the
    points that ``check`` finds.  A pool point whose mass overshoots the
    budget refutes a candidate at once.  Any other candidate gets a
    ``POLISH`` probe seeded from the most threatening pool points, and only
    survivors pay for the full search, seeded from the probe's point, which
    alone can accept.  Every probe and full search adds its point to the
    pool.
    """

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
        self._points, self._columns = _pointwise_pool(pointwise)
        self._table: np.ndarray | None = None

    def _add_pool(self, point: tuple[float, ...], dist: OutcomePmf) -> None:
        self._points.append(point)
        self._columns.append(np.array(dist.probabilities))
        self._table = None

    @property
    def table(self) -> np.ndarray:
        """(G, P) outcome masses of each pool point."""
        if self._table is None:
            self._table = np.column_stack(self._columns)
        return self._table

    def outcomes(self, indices: np.ndarray) -> frozenset[Fraction]:
        grid = self.problem.grid
        return frozenset(grid[i] for i in indices)

    def check(self, indices: np.ndarray) -> tuple[bool, WorstCaseResult | None]:
        """(feasible, worst-case result of the full search if one ran) of
        the candidate ``indices``; a feasible candidate always has one.

        The pool masses are float sums over ``indices``, added row by row in
        the given order, as ``_max_power_subset`` adds them.
        Every test allows ``TIE_TOLERANCE`` above the budget: the candidate
        is infeasible when a pool mass exceeds that, and otherwise the probe
        may refute it in the same way and the full search decides it, each
        of them adding its point to the pool.
        """
        cap = self.budget + TIE_TOLERANCE
        masses = np.cumsum(self.table[indices], axis=0)[-1]
        if masses.max() > cap:
            return False, None
        order = np.argsort(masses)[::-1][:2]
        acc = AcceptanceSet.explicit(self.outcomes(indices))
        probe = self.problem.maximize_set(acc, POLISH, seed_points=[self._points[i] for i in order])
        self._add_pool(probe.correlations, probe.dist)
        if probe.objective > cap:
            return False, None
        result = self.problem.maximize_set(
            acc, self.options, seed_points=[probe.correlations]
        )
        self._add_pool(result.correlations, result.dist)
        return result.objective <= cap, result


def max_power_acceptance_set(
    problem: WorstCaseProblem,
    ent_pmf: OutcomePmf,
    max_sep_mass: float,
    options: SearchOptions | None = None,
    pointwise: Mapping[Fraction, WorstCaseResult] | None = None,
) -> SetSearchOutcome | None:
    """Power-maximizing explicit acceptance set of ``problem``'s grid with
    worst-case mass in budget.  ``pointwise``, the worst case of every grid
    outcome, defaults to ``problem.maximize_all_points(options)``.

    The universe is the outcomes that add power and fit the budget alone,
    and every budget comparison allows ``TIE_TOLERANCE``.
    ``_constraint_generation`` searches all its subsets exactly, for every
    universe size: a branch and bound over the pool of separable points
    proposes the most powerful subset, and ``_FeasibilityChecker.check``
    verifies it.  The reported worst case is the full search of the check
    that accepted the winner.  Powers that differ by more than float noise
    are ranked exactly; an exact power tie goes to the subset the branch
    and bound finds first.  Returns None when no non-empty subset is
    feasible.
    """
    opts = options or SearchOptions()
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
        if ent_pmf.probabilities[i] > 0.0
        and pointwise[o].objective <= max_sep_mass + TIE_TOLERANCE
    ]
    order = np.array(universe, dtype=np.intp)
    outcomes, result = _constraint_generation(
        order, np.array(ent_pmf.probabilities)[order], checker
    )
    if not outcomes:
        return None
    acc = AcceptanceSet.explicit(outcomes)
    return SetSearchOutcome(acc, result, power(acc, ent_pmf), "exhaustive")


def _constraint_generation(
    universe: np.ndarray, gains: np.ndarray, checker: _FeasibilityChecker
) -> tuple[frozenset[Fraction], WorstCaseResult | None]:
    """Most powerful subset of ``universe`` that ``checker`` accepts.

    Blankenship and Falk's constraint generation for semi-infinite programs
    (JOTA 19, 1976).  Each round solves the 0/1 knapsack over the pool with
    ``_max_power_subset``: maximise the power, the sum of ``gains`` over the
    subset, subject to every pool point's mass within the budget plus
    ``TIE_TOLERANCE``.  ``check`` then verifies the winner.  A refuted
    winner is cut off with a no-good cut, and its probe or full search has
    usually added the pool point that refutes it and its neighbours.  The
    universe is put in descending gain (stably), the order in which the
    knapsack tries items and in which both it and ``check`` add masses, so
    the pool never refutes a winner; each subset is checked at most once,
    so the loop ends.

    Tie rule: the knapsack is exact, so powers that differ by more than
    float noise are ranked exactly, and an exact power tie goes to the
    subset found first in that order.  Returns the winner with its
    accepting check's result, or the empty set and None when every
    non-empty subset is refuted.
    """
    rank = np.argsort(-gains, kind="stable")
    universe, gains = universe[rank], gains[rank]
    cuts: list[np.ndarray] = []
    while universe.size:
        chosen = _max_power_subset(gains, checker.table[universe], checker.budget, cuts)
        if not chosen.any():
            break
        feasible, result = checker.check(universe[chosen])
        if feasible:
            return checker.outcomes(universe[chosen]), result
        cuts.append(chosen)
    return frozenset(), None


#: Nodes a knapsack may visit before ``_max_power_subset`` adds its
#: surrogate bound: smaller knapsacks end before the bound would pay for
#: its multipliers.
_SURROGATE_NODES = 200

#: Subgradient steps that ``_surrogate_multipliers`` takes at most.
_SUBGRADIENT_STEPS = 200


def _max_power_subset(
    gains: np.ndarray, masses: np.ndarray, budget: float, cuts: Sequence[np.ndarray]
) -> np.ndarray:
    """Boolean mask of the subset of largest gain whose (N, P) ``masses``
    sum to at most ``budget + TIE_TOLERANCE`` in every column, other than
    the subsets of ``cuts``; all False when no other subset fits.

    Exact depth-first branch and bound over the items in the order given,
    which should be descending gain, each item included before it is
    excluded.  An item leaves the free set once adding it would overflow
    some column: masses are nonnegative, so it would overflow every
    superset too.  A node is pruned when its gain plus a bound on the free
    items is at most the incumbent's.  The bounds are the free items' total
    gain, the least of the columns' fractional bounds and, once the search
    has visited ``_SURROGATE_NODES`` nodes, the fractional bound of one
    surrogate column.  A subset becomes the incumbent only on a strictly
    larger gain, so a tie goes to the first subset found, and a cut subset
    never does.  Column masses are added row by row in the given order, as
    ``_FeasibilityChecker.check`` adds them, so a subset fits here exactly
    when it fits the pool there.
    """
    n, width = masses.shape
    cap = budget + TIE_TOLERANCE
    excluded = {sum(1 << int(i) for i in np.flatnonzero(cut)) for cut in cuts}
    columns = _FractionalBound(gains, masses, np.full(width, cap))
    surrogate = mix = None
    best_gain, best = 0.0, 0
    start = np.flatnonzero((masses <= cap).all(axis=1))
    stack = [(np.zeros(width), 0.0, 0, start)]
    nodes = 0
    while stack:
        mass, gain, chosen, free = stack.pop()
        if not free.size:
            if gain > best_gain and chosen not in excluded:
                best_gain, best = gain, chosen
            continue
        nodes += 1
        if nodes == _SURROGATE_NODES:
            mix = _surrogate_multipliers(gains, masses, cap, best_gain)[:, None]
            # The relative slack covers the rounding of the mixed sums.
            surrogate = _FractionalBound(gains, masses @ mix, cap * mix.sum(0) * (1 + 1e-12))
        if (
            gain + gains[free].sum() <= best_gain
            or (surrogate is not None and gain + surrogate(mass @ mix, free) <= best_gain)
            or gain + columns(mass, free) <= best_gain
        ):
            continue
        item, rest = free[0], free[1:]
        grown = mass + masses[item]
        stack.append((mass, gain, chosen, rest))
        stack.append(
            (grown, gain + gains[item], chosen | 1 << int(item),
             rest[(grown + masses[rest] <= cap).all(axis=1)])
        )
    return np.array([bool(best >> i & 1) for i in range(n)], dtype=bool)


class _FractionalBound:
    """Dantzig's bound (Oper. Res. 5, 1957) for knapsacks that share their
    items: the most gain that fractions of the free items can take within
    each column's room of the (N, K) ``weights`` under the (K,) ``caps``,
    least over the columns.  Each column ranks the items once, by gain per
    unit weight, weightless items first."""

    def __init__(self, gains: np.ndarray, weights: np.ndarray, caps: np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = gains[:, None] / weights
        self.order = np.argsort(-ratio.T, axis=1, kind="stable")
        self.weights = np.take_along_axis(weights.T, self.order, axis=1)
        self.gains = gains[self.order]
        self.caps = caps
        self.rows = np.arange(len(caps))

    def __call__(self, loads: np.ndarray, free: np.ndarray) -> float:
        """The bound for the ``free`` items when the columns carry ``loads``."""
        k, n = self.order.shape
        held = np.zeros(n, dtype=bool)
        held[free] = True
        held = held[self.order]
        weight = np.where(held, self.weights, 0.0)
        worth = np.where(held, self.gains, 0.0)
        # Prefix sums, the first before any item.
        weight_sum = np.zeros((k, n + 1))
        worth_sum = np.zeros((k, n + 1))
        np.cumsum(weight, axis=1, out=weight_sum[:, 1:])
        np.cumsum(worth, axis=1, out=worth_sum[:, 1:])
        # Never below 0, so the item that overflows has a positive weight.
        room = np.maximum(self.caps - loads, 0.0)
        over = weight_sum[:, 1:] > room[:, None]
        split = over.argmax(axis=1)  # the first free item that overflows
        rows = self.rows
        overflows = over[rows, split]
        last = np.where(overflows, weight[rows, split], 1.0)
        fractional = worth_sum[rows, split] + (room - weight_sum[rows, split]) / last * worth[rows, split]
        return float(np.where(overflows, fractional, worth_sum[:, -1]).min())


def _surrogate_multipliers(
    gains: np.ndarray, masses: np.ndarray, cap: float, target: float
) -> np.ndarray:
    """Column multipliers mu >= 0 for Glover's surrogate constraint (Oper.
    Res. 16, 1968): every subset that fits all columns of ``masses`` also
    has (masses @ mu) summing to at most cap * sum(mu).  Good multipliers
    make the one constraint bind as all columns do together.  They come
    from subgradient steps on the Lagrangian dual
    sum_i max(0, g_i - masses_i @ mu) + cap * sum(mu) toward ``target``, a
    gain some subset reaches, with Held and Karp's step rule (Math. Program.
    1, 1971): the step halves after 10 steps without a new least value.
    Returns the multipliers of the least value seen."""
    mu = np.zeros(masses.shape[1])
    least, best, scale, stale = np.inf, mu, 2.0, 0
    for _ in range(_SUBGRADIENT_STEPS):
        reduced = gains - masses @ mu
        taken = reduced > 0.0
        value = reduced[taken].sum() + cap * mu.sum()
        if value < least:
            least, best, stale = value, mu, 0
        else:
            stale += 1
            if stale == 10:
                scale, stale = scale / 2, 0
        slope = cap - masses[taken].sum(axis=0)
        slope[(mu <= 0.0) & (slope > 0.0)] = 0.0  # steps that would leave mu >= 0
        norm = slope @ slope
        if norm <= 0.0 or value <= target:
            break
        mu = np.maximum(0.0, mu - scale * (value - target) / norm * slope)
    return best


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
