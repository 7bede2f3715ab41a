"""Frequentist and Bayesian evaluation of certification tests.

Separable states are summarized by worst-case bounds from the search in
``worst_case``: an interval bound (the maximal probability of the whole
acceptance set) for confidence and loss estimates, and pointwise bounds (the
maximal probability of each single outcome) for certified posterior lower
bounds.  The entangled hypothesis is an explicit outcome distribution.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Mapping, Sequence

import numpy as np

from .acceptance import AcceptanceSet
from .errors import DomainError, UndefinedOutcomeError
from .finite_stats import check_real
from .pmf import OutcomePmf
from .witnesses import Witness
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
    p_ent_outcome = ent_pmf.probability(outcome)
    numerator = p_ent_outcome * priors.p_ent
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
    """Posterior lower bounds for every grid outcome where one is defined."""
    out: dict[Fraction, float] = {}
    for outcome, p_ent in ent_pmf.items():
        mass = pointwise.get(outcome, 0.0)
        if p_ent <= 0.0 and mass <= 0.0:
            continue
        out[outcome] = posterior_lower_bound(outcome, ent_pmf, mass, priors)
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


# -- acceptance-set construction -------------------------------------------

#: Factor on the power in the MILP objective.  HiGHS stops at an absolute
#: objective gap of 1e-6 (``mip_abs_gap``, which ``milp`` does not expose),
#: so scaled by 1e12 the gap is 1e-18 in power, below the float spacing of
#: powers near 1.
_POWER_SCALE = 1e12


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
        self._points: list[tuple[float, ...]] = []
        self._columns: list[np.ndarray] = []
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

        The pool masses are float sums over ``indices`` in the given order.
        Every test allows ``TIE_TOLERANCE`` above the budget: the candidate
        is infeasible when a pool mass exceeds that, and otherwise the probe
        may refute it in the same way and the full search decides it, each
        of them adding its point to the pool.
        """
        cap = self.budget + TIE_TOLERANCE
        masses = self.table[indices].sum(axis=0)
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
    witness: Witness,
    copies: Sequence[int],
    ent_pmf: OutcomePmf,
    max_sep_mass: float,
    options: SearchOptions | None = None,
    problem: WorstCaseProblem | None = None,
    pointwise: Mapping[Fraction, WorstCaseResult] | None = None,
) -> SetSearchOutcome | None:
    """Power-maximizing explicit acceptance set with worst-case mass in budget.

    The universe is the outcomes that add power and fit the budget alone,
    and every budget comparison allows ``TIE_TOLERANCE``.
    ``_constraint_generation`` searches all its subsets exactly, for every
    universe size: a MILP over the pool of separable points proposes the
    most powerful subset, and ``_FeasibilityChecker.check`` verifies it.
    The reported worst case is the full search of the check that accepted
    the winner.  Powers that differ by more than float noise are ranked
    exactly; exact power ties may resolve either way.  Returns None when no
    non-empty subset is feasible.
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
        if ent_pmf.probabilities[i] > 0.0
        and pointwise[o].objective <= max_sep_mass + TIE_TOLERANCE
    ]
    # Ascending mass fixes the order in which ``check`` adds the masses.
    universe.sort(key=lambda i: (ent_pmf.probabilities[i], problem.grid[i]))
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
    (JOTA 19, 1976).  Each round solves the 0/1 knapsack over the pool:
    maximise the power, the sum of ``gains`` over the subset, subject to
    every pool point's mass within the budget.  ``check`` then verifies the
    winner.  A refuted winner is cut off with a no-good cut, and its probe
    or full search has usually added the pool point that refutes it and
    its neighbours.  The pool constraints sit at the budget plus
    ``TIE_TOLERANCE``, the bound that ``check`` applies, so a winner may fit
    them only within HiGHS's feasibility tolerance; ``check`` then refutes
    it on its float pool masses, and the cut alone removes it.  Each subset
    is checked at most once, so the loop ends.

    Tie rule: HiGHS returns a subset within 1e-6 / ``_POWER_SCALE`` of the
    best power over the pool, so powers that differ by more than float
    noise are ranked exactly; exact power ties may resolve either way.
    Returns the winner with its accepting check's result, or the empty set
    and None when every non-empty subset is refuted.
    """
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


def milp(*args, **kwargs):
    """``scipy.optimize.milp``, imported on the first call: loading
    ``scipy.optimize`` costs more than all of ``import entcert``, and only
    the acceptance-set search needs it."""
    from scipy.optimize import milp as solve

    return solve(*args, **kwargs)


def _max_power_subset(
    gains: np.ndarray, masses: np.ndarray, budget: float, cuts: Sequence[np.ndarray]
) -> np.ndarray:
    """Boolean mask of the subset of largest gain whose (N, P) ``masses``
    sum to at most ``budget + TIE_TOLERANCE`` in every column, excluding
    each subset of ``cuts`` by its no-good cut
    sum(x in S) - sum(x not in S) <= |S| - 1."""
    from scipy.optimize import Bounds, LinearConstraint

    rows = [masses.T, *(np.where(cut, 1.0, -1.0)[None] for cut in cuts)]
    cap = budget + TIE_TOLERANCE
    upper = [np.full(masses.shape[1], cap), *(np.array([cut.sum() - 1.0]) for cut in cuts)]
    with _stdout_silenced():
        found = milp(
            -_POWER_SCALE * gains,
            integrality=np.ones(len(gains)),
            bounds=Bounds(0.0, 1.0),
            constraints=LinearConstraint(np.vstack(rows), -np.inf, np.concatenate(upper)),
            options={"mip_rel_gap": 0.0},
        )
    if found.status != 0:
        raise RuntimeError(f"acceptance-set MILP failed: {found.message}")
    return found.x > 0.5


#: Serialises the descriptor swaps of threads that solve at once, so that
#: none saves another's null device as the descriptor to restore.
_STDOUT_LOCK = threading.Lock()


@contextmanager
def _stdout_silenced():
    """Point file descriptor 1 at the null device: HiGHS can write solver
    lines straight to it, past ``sys.stdout``, which would corrupt the
    CLI's JSON on stdout."""
    with _STDOUT_LOCK:
        sys.stdout.flush()
        saved = os.dup(1)
        try:
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), 1)
            yield
        finally:
            os.dup2(saved, 1)
            os.close(saved)


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
