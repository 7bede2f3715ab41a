"""Frequentist/Bayesian evaluation: confidence, power, posteriors, NP tests."""

import heapq
import itertools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from entcert import inference
from entcert.acceptance import AcceptanceSet
from entcert.errors import DomainError, UndefinedOutcomeError
from entcert.finite_stats import CorrelationSetting
from entcert.inference import (
    PriorPair,
    _constraint_generation,
    _FeasibilityChecker,
    bayes_acceptance_set,
    build_test_report,
    confidence,
    expected_loss_bound,
    max_power_acceptance_set,
    neyman_pearson_test,
    posterior_lower_bound,
    posterior_map,
    power,
    power_ceiling,
)
from entcert.pmf import OutcomePmf
from entcert.states import EntangledStateModel, TruncatedGaussianPrior
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf
from entcert.worst_case import POLISH, SearchOptions, WorstCaseProblem
from oracles import reference_power_bound
from sampling import sample_separable

F = Fraction
OPTS = SearchOptions(restarts=10, seed=31)


def linear20():
    witness = LinearWitness([1, -1, -1, -1, -1], 1)
    copies = (4,) * 5
    ent = witness_pmf(
        [CorrelationSetting(-0.75, 4)] + [CorrelationSetting(0.75, 4)] * 4, witness
    )
    return witness, copies, ent


def quadratic20():
    witness = QuadraticWitness(5)
    copies = (4,) * 5
    ent = witness_pmf([CorrelationSetting(0.75, 4)] * 5, witness)
    return witness, copies, ent


class TestConfidencePower:
    def test_confidence_is_complement_of_worst_mass(self):
        acc = AcceptanceSet.threshold(-4, "accept_low")
        assert confidence(acc, 0.25) == 0.75
        assert confidence(acc, 0.0) == 1.0
        with pytest.raises(DomainError):
            confidence(acc, 1.5)

    def test_linear_strictest_bound_confidence(self):
        witness, copies, _ = linear20()
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.threshold(-4, "accept_low")
        worst = problem.maximize_set(acc, OPTS)
        assert confidence(acc, worst.objective) == pytest.approx(0.99996, abs=5e-5)

    def test_empty_set_has_full_confidence_and_no_power(self):
        _, _, ent = linear20()
        acc = AcceptanceSet.explicit([])
        assert confidence(acc, acc.weighted_mass(ent) * 0.0) == 1.0
        assert power(acc, ent) == 0.0

    def test_power_examples(self):
        witness, copies, ent = linear20()
        assert power(AcceptanceSet.threshold(F(-5, 2), "accept_low"), ent) == pytest.approx(
            0.765, abs=1.5e-3
        )
        full = AcceptanceSet.explicit(ent.outcomes)
        assert power(full, ent) == pytest.approx(1.0, abs=1e-12)

    def test_power_monotone_under_enlargement(self):
        _, _, ent = quadratic20()
        rng = np.random.default_rng(4)
        outcomes = list(ent.outcomes)
        for _ in range(50):
            size = int(rng.integers(0, len(outcomes)))
            chosen = list(rng.choice(len(outcomes), size=size, replace=False))
            base = AcceptanceSet.explicit([outcomes[i] for i in chosen])
            extra = [i for i in range(len(outcomes)) if i not in chosen]
            if not extra:
                continue
            grown = AcceptanceSet.explicit(
                [outcomes[i] for i in chosen] + [outcomes[extra[0]]]
            )
            assert power(grown, ent) >= power(base, ent) - 1e-15


class TestPosterior:
    def test_certain_prior_gives_certain_posterior(self):
        _, _, ent = quadratic20()
        outcome = ent.outcomes[-1]
        assert posterior_lower_bound(outcome, ent, 0.5, PriorPair(1.0)) == 1.0

    def test_zero_worst_case_gives_certainty(self):
        _, _, ent = quadratic20()
        outcome = ent.outcomes[-1]
        assert posterior_lower_bound(outcome, ent, 0.0, PriorPair(0.5)) == 1.0

    def test_undefined_outcome(self):
        pmf = OutcomePmf((F(0), F(1)), (0.0, 1.0))
        with pytest.raises(UndefinedOutcomeError):
            posterior_lower_bound(F(0), pmf, 0.0, PriorPair(0.5))

    def test_map_holds_each_outcomes_bound_bit_for_bit(self):
        witness = LinearWitness([F(1, 2), -1, F(2, 3)], F(-1, 4))
        ent = witness_pmf([CorrelationSetting(t, n) for t, n in [(0.6, 5), (-0.3, 3), (0.9, 4)]], witness)
        rng = np.random.default_rng(3)
        masses = {o: float(m) for o, m in zip(ent.outcomes, rng.random(len(ent.outcomes)))}
        priors = PriorPair(0.3)
        posteriors = posterior_map(ent, masses, priors)
        assert len(posteriors) == len(ent.outcomes)
        for outcome, bound in posteriors.items():
            assert bound == posterior_lower_bound(outcome, ent, masses[outcome], priors)

    def test_missing_pointwise_outcome_rejected(self):
        # With no bound on an outcome's separable mass, its posterior has no
        # lower bound; read as mass 0, each missing outcome got 1.0.
        witness = QuadraticWitness(2)
        ent = witness_pmf([CorrelationSetting(0.8, 3)] * 2, witness)
        with pytest.raises(DomainError, match=r"outcomes 2/9, 10/9, 2$"):
            posterior_map(ent, {}, PriorPair(0.5))
        partial = {o: 0.1 for o in ent.outcomes[:-1]}
        with pytest.raises(DomainError, match=r"outcomes 2$"):
            build_test_report(
                AcceptanceSet.explicit(ent.outcomes), ent, 0.5, partial, PriorPair(0.5), 0.99
            )

    def test_bound_below_true_posterior_for_feasible_points(self):
        witness = QuadraticWitness(2)
        copies = (10, 10)
        problem = WorstCaseProblem(witness, copies)
        ent = witness_pmf([CorrelationSetting(0.75, 10)] * 2, witness)
        outcome = F(2)
        gq = problem.maximize_point(outcome, OPTS).objective
        priors = PriorPair(0.5)
        bound = posterior_lower_bound(outcome, ent, gq, priors)
        rng = np.random.default_rng(17)
        for _ in range(100):
            point = sample_separable(problem.witness, rng)
            sep_mass = problem.pmf_at(point).probability(outcome)
            truth = (
                ent.probability(outcome)
                * priors.p_ent
                / (sep_mass * priors.p_sep + ent.probability(outcome) * priors.p_ent)
            )
            assert bound <= truth + 1e-12


class TestBayesSets:
    def test_zero_threshold_accepts_everything_defined(self):
        _, _, ent = quadratic20()
        posteriors = {o: 0.4 for o in ent.outcomes}
        acc = bayes_acceptance_set(0.0, posteriors)
        assert acc.outcomes == frozenset(ent.outcomes)

    def test_linear_twenty_copy_bound(self):
        witness, copies, ent = linear20()
        problem = WorstCaseProblem(witness, copies)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        posteriors = posterior_map(ent, pointwise, PriorPair(0.5))
        acc = bayes_acceptance_set(0.975, posteriors)
        expected = {o for o in ent.outcomes if o <= -3}
        assert acc.outcomes == expected

    def test_quadratic_twenty_copy_bound_with_natural_prior(self):
        witness, copies, ent = quadratic20()
        problem = WorstCaseProblem(witness, copies)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        posteriors = posterior_map(ent, pointwise, PriorPair(8 / 9))
        acc = bayes_acceptance_set(0.975, posteriors)
        expected = {o for o in ent.outcomes if o >= 4}
        assert acc.outcomes == expected

    def test_accepted_outcomes_meet_the_threshold(self):
        witness, copies, ent = quadratic20()
        problem = WorstCaseProblem(witness, copies)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        posteriors = posterior_map(ent, pointwise, PriorPair(0.5))
        acc = bayes_acceptance_set(0.975, posteriors)
        assert all(posteriors[o] >= 0.975 for o in acc.outcomes)


class TestExpectedLoss:
    def test_linear_twenty_copy_loss(self):
        witness, copies, ent = linear20()
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.threshold(-3, "accept_low")
        worst = problem.maximize_set(acc, OPTS)
        loss = expected_loss_bound(acc, 0.975, PriorPair(0.5), worst.objective, ent)
        assert loss == pytest.approx(0.007, abs=2e-3)

    def test_generalised_frequentist_loss(self):
        witness = QuadraticWitness(3)
        copies = (4, 4, 4)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.explicit([0, 1, F(9, 4), 3])
        worst = problem.maximize_set(acc, OPTS)
        loss = expected_loss_bound(acc, 0.70, PriorPair(2 / 3), worst.objective, ent)
        assert loss == pytest.approx(0.137, abs=4e-3)

    def test_generalised_bayesian_loss_with_pointwise_sum(self):
        witness = QuadraticWitness(3)
        copies = (5, 3, 3)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.explicit([F(59, 25), 3])
        pointwise = problem.maximize_all_points(OPTS)
        mass = sum(pointwise[o].objective for o in problem.grid if acc.accepts(o))
        loss = expected_loss_bound(acc, 0.70, PriorPair(2 / 3), mass, ent)
        assert loss == pytest.approx(0.146, abs=4e-3)


class TestNeymanPearson:
    def test_toy_randomized_construction(self):
        sep = OutcomePmf((F(0), F(1)), (0.9, 0.1))
        ent = OutcomePmf((F(0), F(1)), (0.2, 0.8))
        acc = neyman_pearson_test(0.05, sep, ent)
        assert acc.boundary == F(1)
        assert acc.gamma == pytest.approx(0.5)
        assert acc.weighted_mass(sep) == pytest.approx(0.05, abs=1e-12)
        assert acc.weighted_mass(ent) == pytest.approx(0.4)

    def test_exactly_attainable_alpha_needs_no_randomization(self):
        sep = OutcomePmf((F(0), F(1), F(2)), (0.7, 0.2, 0.1))
        ent = OutcomePmf((F(0), F(1), F(2)), (0.1, 0.3, 0.6))
        acc = neyman_pearson_test(0.3, sep, ent)
        assert acc.gamma == 0.0
        assert acc.outcomes == {F(1), F(2)}
        assert acc.weighted_mass(sep) == pytest.approx(0.3, abs=1e-12)

    def test_ties_break_toward_larger_outcomes(self):
        sep = OutcomePmf((F(0), F(1)), (0.5, 0.5))
        ent = OutcomePmf((F(0), F(1)), (0.5, 0.5))
        acc = neyman_pearson_test(0.5, sep, ent)
        assert F(1) in acc.outcomes or acc.boundary == F(1)
        assert acc.weighted_mass(sep) == pytest.approx(0.5, abs=1e-12)

    def test_exhaustive_dominance_on_random_grids(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            size = int(rng.integers(2, 11))
            outcomes = tuple(F(i) for i in range(size))
            sep_raw = rng.random(size) + 1e-3
            ent_raw = rng.random(size) + 1e-3
            sep = OutcomePmf(outcomes, tuple(sep_raw / sep_raw.sum()))
            ent = OutcomePmf(outcomes, tuple(ent_raw / ent_raw.sum()))
            alpha = float(rng.uniform(0.02, 0.6))
            acc = neyman_pearson_test(alpha, sep, ent)
            np_power = acc.weighted_mass(ent)
            assert acc.weighted_mass(sep) == pytest.approx(alpha, abs=1e-12)
            for mask in itertools.product([0, 1], repeat=size):
                sep_mass = sum(p for bit, p in zip(mask, sep.probabilities) if bit)
                if sep_mass <= alpha:
                    ent_mass = sum(p for bit, p in zip(mask, ent.probabilities) if bit)
                    assert np_power >= ent_mass - 1e-12

    def test_power_upper_bound_matches_construction(self):
        sep = OutcomePmf((F(0), F(1)), (0.9, 0.1))
        ent = OutcomePmf((F(0), F(1)), (0.2, 0.8))
        pointwise = {o: SimpleNamespace(correlations=(0.0,), dist=sep) for o in sep.outcomes}
        assert power_ceiling(ent, pointwise, 0.05) == pytest.approx(0.4)


COEFFICIENTS = st.sampled_from([F(1), F(-1), F(1, 2), F(-2, 3), F(2), F(0)])
#: Nonnegative constants, so that the witness is nonnegative at t = 0 and
#: its separable region is not empty.
CONSTANTS = st.sampled_from([F(0), F(1, 2), F(1), F(2)])


@st.composite
def ceiling_problems(draw):
    """A witness of either kind over 1 to 3 settings of 1 to 4 copies, and
    the correlations of an entangled point."""
    settings = draw(st.integers(1, 3))
    copies = draw(st.lists(st.integers(1, 4), min_size=settings, max_size=settings))
    if draw(st.booleans()):
        witness = QuadraticWitness(settings)
    else:
        coefficients = draw(st.lists(COEFFICIENTS, min_size=settings, max_size=settings))
        witness = LinearWitness(coefficients, draw(CONSTANTS))
    correlations = draw(st.lists(st.floats(-0.95, 0.95), min_size=settings, max_size=settings))
    return witness, tuple(copies), correlations


class TestPowerCeiling:
    """``power_ceiling`` bounds every pointwise point at once as a
    fractional knapsack; the single-point Neyman-Pearson reference builds
    one test per point."""

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(ceiling_problems())
    def test_between_the_single_point_references(self, case):
        # The ceiling takes the knapsack's cap, budget + TIE_TOLERANCE, so
        # it lies between the reference at the budget and at that cap; the
        # two ends differ by TIE_TOLERANCE times the likelihood ratio of the
        # outcome that splits, which can pass 1e-11 at an arbitrary point.
        witness, copies, correlations = case
        ent = witness_pmf([CorrelationSetting(t, n) for t, n in zip(correlations, copies)], witness)
        pointwise = WorstCaseProblem(witness, copies).maximize_all_points(POLISH)
        for budget in (0.01, 0.05, 0.2, 0.3, 0.6, 0.95):
            ceiling = power_ceiling(ent, pointwise, budget)
            assert reference_power_bound(ent, pointwise, budget) - 1e-12 <= ceiling
            assert ceiling <= reference_power_bound(ent, pointwise, budget + inference.TIE_TOLERANCE) + 1e-12

    def test_refuses_another_grid(self):
        witness = QuadraticWitness(2)
        pointwise = WorstCaseProblem(witness, (2, 2)).maximize_all_points(POLISH)
        ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
        with pytest.raises(DomainError, match="one outcome grid"):
            power_ceiling(ent, pointwise, 0.3)


class TestMaxPowerSearch:
    def test_generalised_frequentist_set(self):
        witness = QuadraticWitness(3)
        copies = (4, 4, 4)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        found = max_power_acceptance_set(WorstCaseProblem(witness, copies), ent, 0.30, OPTS)
        assert found.search_path == "exhaustive"
        assert found.acceptance.outcomes == {F(0), F(1), F(9, 4), F(3)}
        assert found.power == pytest.approx(0.664, abs=5e-3)
        assert found.worst_case.objective <= 0.30

    def test_search_never_exceeds_np_bound(self):
        witness = QuadraticWitness(2)
        copies = (4, 4)
        ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
        problem = WorstCaseProblem(witness, copies)
        pointwise = problem.maximize_all_points(OPTS)
        found = max_power_acceptance_set(problem, ent, 0.20, OPTS, pointwise)
        bound = power(neyman_pearson_test(0.20, found.worst_case.dist, ent), ent)
        assert found.power <= bound + 1e-9
        assert found.power <= power_ceiling(ent, pointwise, 0.20) + 1e-12

    def test_infeasible_budget_returns_none(self):
        witness = QuadraticWitness(1)
        ent = witness_pmf([CorrelationSetting(0.9, 2)], witness)
        # Every single outcome has a worst case above this tiny budget.
        assert max_power_acceptance_set(WorstCaseProblem(witness, (2,)), ent, 1e-6, OPTS) is None

    def test_exact_beyond_the_old_exhaustive_limit(self):
        # 32 outcomes in the universe: the old search fell back to
        # likelihood-ratio prefixes above 24 and reached power 0.7232 only.
        witness = QuadraticWitness(3)
        copies = (8, 8, 8)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        problem = WorstCaseProblem(witness, copies)
        pointwise = problem.maximize_all_points(OPTS)
        universe = [o for o, p in zip(problem.grid, ent.probabilities) if p > 0.0]
        assert sum(pointwise[o].objective <= 0.30 for o in universe) > 24
        found = max_power_acceptance_set(problem, ent, 0.30, OPTS, pointwise)
        assert found.search_path == "exhaustive"
        assert found.power > 0.7232
        assert found.worst_case.objective <= 0.30

    def test_best_first_order_finds_the_most_powerful_feasible_subset(self):
        # One hidden column: a subset is feasible when its separable masses
        # sum to within budget, so brute force gives the exact optimum.
        rng = np.random.default_rng(12)
        for _ in range(25):
            size = int(rng.integers(1, 10))
            sep = rng.random(size)
            ent = rng.random(size)
            budget = float(rng.uniform(0.0, sep.sum()))
            problem = HiddenPoints(sep[:, None])
            checker = _FeasibilityChecker(problem, budget, problem.pointwise(), OPTS)
            universe = np.flatnonzero(sep <= budget)
            found, _ = _constraint_generation(universe, ent[universe], checker)
            best = max(
                (
                    sum(ent[i] for i in subset)
                    for k in range(1, size + 1)
                    for subset in itertools.combinations(range(size), k)
                    if sep[list(subset)].sum() <= budget
                ),
                default=0.0,
            )
            assert sum(ent[int(o)] for o in found) == pytest.approx(best, abs=1e-12)

    def test_partial_pointwise_map_rejected(self):
        witness = QuadraticWitness(2)
        copies = (4, 4)
        ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
        problem = WorstCaseProblem(witness, copies)
        partial = {problem.grid[0]: problem.maximize_point(problem.grid[0], OPTS)}
        with pytest.raises(DomainError):
            max_power_acceptance_set(problem, ent, 0.3, OPTS, partial)


def one_at_a_time_search(order, masses, total_power, checker):
    """Oracle of ``_constraint_generation``: all subsets of ``order`` by a
    heap in non-increasing power, each checked as soon as it is popped;
    the first feasible one wins."""
    n = len(order)
    heap = [(-total_power, ())]
    while heap:
        neg_power, removed = heapq.heappop(heap)
        kept = np.ones(n, dtype=bool)
        kept[list(removed)] = False
        candidate = order[kept]
        if len(candidate):
            feasible, result = checker.check(candidate)
            if feasible:
                return checker.outcomes(candidate), result
        if not removed:
            if n:
                heapq.heappush(heap, (-total_power + masses[0], (0,)))
            continue
        last = removed[-1]
        if last + 1 < n:
            step = masses[last + 1] - masses[last]
            heapq.heappush(heap, (-(-neg_power - step), removed[:-1] + (last + 1,)))
            heapq.heappush(heap, (-(-neg_power - masses[last + 1]), removed + (last + 1,)))
    return frozenset(), None


class HiddenPoints:
    """Stand-in for ``WorstCaseProblem`` whose separable region is a finite
    set of outcome distributions, the columns of ``hidden`` (G, Q): every
    search finds the column of largest acceptance mass, and logs its set."""

    def __init__(self, hidden):
        self.hidden = hidden
        self.grid = tuple(F(i) for i in range(len(hidden)))
        self.searches = []

    def result(self, column):
        dist = SimpleNamespace(probabilities=tuple(self.hidden[:, column]))
        return SimpleNamespace(correlations=(float(column),), dist=dist)

    def maximize_set(self, acc, options=None, seed_points=()):
        self.searches.append(acc.outcomes)
        mass = self.hidden[[int(o) for o in acc.outcomes]].sum(axis=0)
        result = self.result(int(np.argmax(mass)))
        result.objective = float(mass.max())
        return result

    def pointwise(self):
        out = {}
        for outcome, row in zip(self.grid, self.hidden):
            out[outcome] = self.result(int(np.argmax(row)))
            out[outcome].objective = float(row.max())
        return out


class RecordingChecker(_FeasibilityChecker):
    """Logs every check: the candidate, the number of searches it made, and
    its decision."""

    def __init__(self, problem, budget):
        super().__init__(problem, budget, problem.pointwise(), OPTS)
        self.log = []

    def check(self, indices):
        before = len(self.problem.searches)
        feasible, result = super().check(indices)
        searches = len(self.problem.searches) - before
        self.log.append((tuple(int(i) for i in indices), searches, feasible))
        return feasible, result


class TestConstraintGeneration:
    """The constraint-generation loop finds the winner of the one-at-a-time
    oracle."""

    @staticmethod
    def problem(seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(7, 11))
        hidden = rng.dirichlet(np.full(size, 0.3), int(rng.integers(4, 12))).T
        ent = rng.random(size)
        order = np.argsort(ent, kind="stable")
        budget = float(rng.uniform(0.2, 0.9))
        return hidden, order, ent, budget

    @staticmethod
    def run(hidden, order, ent, budget):
        checker = RecordingChecker(HiddenPoints(hidden), budget)
        found, _ = _constraint_generation(order, ent[order], checker)
        return found, checker.log

    @staticmethod
    def oracle(hidden, order, ent, budget):
        checker = RecordingChecker(HiddenPoints(hidden), budget)
        masses = [float(ent[i]) for i in order]
        found, _ = one_at_a_time_search(order, masses, sum(masses), checker)
        return found, checker.log

    def test_same_winner_as_the_oracle(self):
        winners, rounds, oracle_checks = 0, [], 0
        for seed in range(60):
            hidden, order, ent, budget = self.problem(seed)
            found, log = self.run(hidden, order, ent, budget)
            expected, oracle_log = self.oracle(hidden, order, ent, budget)
            assert found == expected
            winners += bool(found)
            rounds.append(len(log))
            oracle_checks += len(oracle_log)
        assert winners >= 40
        # Some winners take more than one round, and the loop checks far
        # fewer subsets than the oracle.
        assert max(rounds) > 1
        assert sum(rounds) * 10 < oracle_checks

    def test_fully_infeasible_space(self):
        hidden, order, ent, _ = self.problem(3)
        # Below every single outcome's worst case: every subset is refuted.
        budget = 0.5 * float(hidden.max(axis=1).min())
        assert self.run(hidden, order, ent, budget) == (frozenset(), [])
        assert self.oracle(hidden, order, ent, budget)[0] == frozenset()
        problem = HiddenPoints(hidden)
        pmf = SimpleNamespace(outcomes=problem.grid, probabilities=tuple(ent))
        assert max_power_acceptance_set(problem, pmf, budget, OPTS, problem.pointwise()) is None

    def test_near_tie_in_power_is_ranked(self):
        # HiGHS's absolute gap of 1e-6 on the unscaled power would accept
        # {0} here; only {1}, 1e-9 more powerful, is right.
        hidden = np.array([[6 / 13, 1 / 3], [6 / 13, 1 / 3], [1 / 13, 1 / 3]])
        ent = np.array([0.3, 0.3 + 1e-9, 0.05])
        found, _ = self.run(hidden, np.arange(3), ent, 0.6)
        assert found == {F(1)}

    def test_float_pool_refutation_cuts_the_winner(self, monkeypatch):
        # {0, 1} overshoots the budget by 1e-9 at column 0.  The knapsack
        # adds its pool masses as ``check`` does, so it never proposes the
        # set, and {1, 2} wins in the first round.
        hidden = np.array([[0.3, 0.1], [0.3 + 1e-9, 0.1], [0.05, 0.45]])
        ent = np.array([0.4, 0.41, 0.1])
        proposed = []
        solve = inference._max_power_subset

        def recorded(gains, masses, budget, cuts):
            chosen = solve(gains, masses, budget, cuts)
            proposed.append(chosen)
            return chosen

        monkeypatch.setattr(inference, "_max_power_subset", recorded)
        found, log = self.run(hidden, np.arange(3), ent, 0.6)
        assert len(proposed) == 1
        assert log == [((1, 2), 2, True)]
        assert found == {F(1), F(2)}

    def test_each_decision_class(self):
        # Columns A, B, C; the pool holds A and B, the pointwise argmaxes,
        # and only a search finds C.
        hidden = np.array([[0.40, 0.15, 0.35], [0.10, 0.40, 0.35], [0.25, 0.05, 0.10]])
        checker = RecordingChecker(HiddenPoints(hidden), 0.6)
        for indices in ([0, 2], [0, 1], [1, 2], [2]):
            feasible, result = checker.check(np.array(indices))
            assert (result is not None) == (checker.log[-1][1] == 2)
            if feasible:
                assert result.objective <= 0.6
        assert checker.log == [
            ((0, 2), 0, False),  # 0.65 at pool point A
            ((0, 1), 1, False),  # the probe finds 0.70 at C
            ((1, 2), 2, True),  # 0.45 at most: the full search decides
            # A pointwise sum of 0.25 certifies nothing: only a full
            # search accepts.
            ((2,), 2, True),
        ]

    def test_winner_reports_the_search_that_accepted_it(self, monkeypatch):
        # Pointwise worst cases sum to 0.3, well inside the budget, so a
        # pointwise-sum bound would accept the winner {0, 1, 2} without a
        # search; its reported worst case must still come from the check.
        hidden = np.array([[0.10, 0.05], [0.10, 0.05], [0.10, 0.05]])
        problem = HiddenPoints(hidden)
        pointwise = problem.pointwise()
        assert sum(r.objective for r in pointwise.values()) <= 0.6 - 0.01
        checks = []
        check = _FeasibilityChecker.check

        def recorded(self, indices):
            feasible, result = check(self, indices)
            checks.append((feasible, result, len(problem.searches)))
            return feasible, result

        monkeypatch.setattr(_FeasibilityChecker, "check", recorded)
        ent = OutcomePmf(problem.grid, (0.2, 0.3, 0.5))
        found = max_power_acceptance_set(problem, ent, 0.6, OPTS, pointwise)
        assert found.acceptance.outcomes == set(problem.grid)
        feasible, result, searches = checks[-1]
        assert feasible
        assert found.worst_case is result
        assert found.worst_case.objective == pytest.approx(0.3)
        assert len(problem.searches) == searches


def fits(masses, subset, budget):
    """Whether ``subset``'s masses, added row by row, stay within budget."""
    if len(subset) == 0:
        return True
    total = np.cumsum(masses[list(subset)], axis=0)[-1]
    return bool((total <= budget + inference.TIE_TOLERANCE).all())


def solved_power(gains, masses, budget, cuts=()):
    chosen = inference._max_power_subset(gains, masses, budget, list(cuts))
    assert fits(masses, np.flatnonzero(chosen), budget)
    assert not any(np.array_equal(chosen, cut) for cut in cuts)
    return gains[chosen].sum()


class TestMaxPowerSubset:
    """The branch and bound that proposes each round's winner."""

    @pytest.mark.parametrize("surrogate_nodes", [inference._SURROGATE_NODES, 1])
    def test_brute_force_with_cuts_and_ties(self, surrogate_nodes, monkeypatch):
        # At 1 the surrogate bound prunes from the root's first node on.
        monkeypatch.setattr(inference, "_SURROGATE_NODES", surrogate_nodes)
        rng = np.random.default_rng(5)
        for trial in range(120):
            size = int(rng.integers(1, 13))
            width = int(rng.integers(1, 6))
            # Gains on a coarse lattice half the time, so powers tie exactly.
            gains = rng.integers(1, 5, size) / 8 if trial % 2 else rng.random(size)
            masses = rng.dirichlet(np.full(size, 0.5), width).T
            budget = float(rng.uniform(0.1, 0.8))
            feasible = sorted(
                (
                    (gains[list(subset)].sum(), subset)
                    for k in range(1, size + 1)
                    for subset in itertools.combinations(range(size), k)
                    if fits(masses, subset, budget)
                ),
                reverse=True,
            )
            cuts = []
            for power_left, subset in feasible[:3]:
                assert solved_power(gains, masses, budget, cuts) == pytest.approx(
                    power_left, abs=1e-12
                )
                cut = np.zeros(size, dtype=bool)
                cut[list(subset)] = True
                cuts.append(cut)
            if len(feasible) < 3:
                assert not inference._max_power_subset(gains, masses, budget, cuts).any()

    @pytest.mark.parametrize("surrogate_nodes", [inference._SURROGATE_NODES, 1])
    def test_same_power_as_milp(self, surrogate_nodes, monkeypatch):
        monkeypatch.setattr(inference, "_SURROGATE_NODES", surrogate_nodes)
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(9)
        for _ in range(12):
            size = int(rng.integers(20, 41))
            width = int(rng.integers(3, 16))
            # In descending gain, the order ``_constraint_generation`` gives.
            gains = np.sort(rng.dirichlet(np.full(size, 0.5)))[::-1]
            masses = rng.dirichlet(np.full(size, 0.5), width).T
            budget = float(rng.uniform(0.2, 0.6))
            found = optimize.milp(
                -1e12 * gains,  # scaled: HiGHS stops at an absolute gap of 1e-6
                integrality=np.ones(size),
                bounds=optimize.Bounds(0.0, 1.0),
                constraints=optimize.LinearConstraint(masses.T, -np.inf, budget),
                options={"mip_rel_gap": 0.0},
            )
            assert found.status == 0
            expected = gains[found.x > 0.5].sum()
            assert solved_power(gains, masses, budget) == pytest.approx(expected, abs=1e-12)

    def test_first_found_wins_an_exact_tie(self):
        # {0} and {1, 2} both have power 1/2 and fit; {0, 1} and {0, 2}
        # do not.  Items are tried in order, each included first.
        gains = np.array([0.5, 0.25, 0.25])
        masses = np.array([[0.5], [0.25], [0.25]])
        chosen = inference._max_power_subset(gains, masses, 0.5, [])
        assert chosen.tolist() == [True, False, False]
        chosen = inference._max_power_subset(gains[::-1], masses[::-1], 0.5, [])
        assert chosen.tolist() == [True, True, False]
        cut = np.array([True, False, False])
        chosen = inference._max_power_subset(gains, masses, 0.5, [cut])
        assert chosen.tolist() == [False, True, True]

    def test_a_proposed_winner_is_never_pool_refuted(self, monkeypatch):
        # Masses in tenths with no tie tolerance: a float sum such as
        # 0.1 + 0.2 + 0.3 lands above or on the budget 0.6 depending on its
        # order, and ``ndarray.sum`` would add a single pool column of 8 or
        # more items pairwise.
        monkeypatch.setattr(inference, "TIE_TOLERANCE", 0.0)
        rng = np.random.default_rng(23)
        rounds = 0
        for trial in range(80):
            size = int(rng.integers(4, 15))
            width = 1 if trial % 2 == 0 else int(rng.integers(2, 6))
            hidden = rng.choice(4, (size, width), p=[0.4, 0.3, 0.2, 0.1]) / 10
            ent = rng.random(size)
            checker = RecordingChecker(HiddenPoints(hidden), 0.6)
            order = np.flatnonzero(hidden.max(axis=1) <= 0.6)
            _constraint_generation(order, ent[order], checker)
            for _, searches, _ in checker.log:
                assert searches > 0
            rounds += len(checker.log)
        assert rounds > 80


class TestTieTolerance:
    """Every budget test allows ``TIE_TOLERANCE`` above the budget: a mass
    5e-13 above it meets the budget, one 2e-12 above it does not."""

    BUDGET = 0.6

    @staticmethod
    def checker(hidden, probe, full):
        """A checker of ``HiddenPoints(hidden)`` whose probe and full search
        report the masses ``probe`` and ``full``."""
        problem = HiddenPoints(hidden)
        search = problem.maximize_set

        def reported(acc, options=None, seed_points=()):
            result = search(acc, options, seed_points)
            result.objective = probe if options is POLISH else full
            return result

        problem.maximize_set = reported
        return RecordingChecker(problem, TestTieTolerance.BUDGET)

    @pytest.mark.parametrize("excess,feasible", [(5e-13, True), (2e-12, False)])
    def test_full_search(self, excess, feasible):
        hidden = np.array([[0.2, 0.1], [0.1, 0.2]])
        checker = self.checker(hidden, 0.5, self.BUDGET + excess)
        decided, result = checker.check(np.array([0, 1]))
        assert decided is feasible
        assert result.objective == self.BUDGET + excess
        assert checker.log == [((0, 1), 2, feasible)]

    @pytest.mark.parametrize("excess,searches", [(5e-13, 2), (2e-12, 1)])
    def test_probe(self, excess, searches):
        hidden = np.array([[0.2, 0.1], [0.1, 0.2]])
        checker = self.checker(hidden, self.BUDGET + excess, 0.5)
        assert checker.check(np.array([0, 1]))[0] is (searches == 2)
        assert checker.log[-1][1] == searches

    @pytest.mark.parametrize("excess,searches", [(5e-13, 2), (2e-12, 0)])
    def test_pool(self, excess, searches):
        # Pool point 0 carries the set's mass at the budget plus excess; the
        # searches report less, so only the pool can refute.
        hidden = np.array([[0.5, 0.1], [0.1 + excess, 0.1]])
        assert hidden[:, 0].sum() - self.BUDGET == pytest.approx(excess, rel=0.01)
        checker = self.checker(hidden, 0.5, 0.5)
        assert checker.check(np.array([0, 1]))[0] is (searches == 2)
        assert checker.log[-1][1] == searches

    @pytest.mark.parametrize("excess,winner", [(5e-13, 0), (2e-12, 1)])
    def test_outcome_at_the_budget_stays_in_the_search(self, excess, winner):
        # Outcome 0's own worst case is the budget plus excess: within the
        # tie, {0} is the most powerful feasible set; beyond it the universe
        # loses outcome 0 and {1} wins.
        hidden = np.array([[self.BUDGET + excess, 0.3], [0.3, 0.5]])
        problem = HiddenPoints(hidden)
        ent = OutcomePmf(problem.grid, (0.7, 0.3))
        found = max_power_acceptance_set(problem, ent, self.BUDGET, OPTS, problem.pointwise())
        assert found.acceptance.outcomes == {F(winner)}

    @pytest.mark.parametrize("excess,randomized", [(5e-13, False), (2e-12, True)])
    def test_neyman_pearson(self, excess, randomized):
        # The two outcomes of largest likelihood ratio have separable mass
        # the budget plus excess.
        grid = (F(0), F(1), F(2))
        sep = OutcomePmf(grid, (0.25, 0.35 + excess, 0.4 - excess))
        ent = OutcomePmf(grid, (0.5, 0.5, 0.0))
        acc = neyman_pearson_test(self.BUDGET, sep, ent)
        assert (acc.boundary == F(1)) is randomized
        assert acc.weight(F(1)) == (acc.gamma if randomized else 1.0)


class TestReportAssembly:
    def test_full_grid_acceptance_report(self):
        witness, copies, ent = quadratic20()
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.explicit(ent.outcomes)
        worst = problem.maximize_set(acc, OPTS)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        report = build_test_report(acc, ent, worst.objective, pointwise, PriorPair(0.5), 0.9)
        assert report.power == pytest.approx(1.0, abs=1e-12)
        assert report.confidence == pytest.approx(1.0 - worst.objective, abs=1e-12)
        assert worst.objective == pytest.approx(1.0, abs=1e-9)

    def test_report_acceptance_level_is_min_over_accepted(self):
        witness, copies, ent = quadratic20()
        problem = WorstCaseProblem(witness, copies)
        acc = AcceptanceSet.threshold(4, "accept_high")
        worst = problem.maximize_set(acc, OPTS)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        report = build_test_report(acc, ent, worst.objective, pointwise, PriorPair(0.5), 0.975)
        accepted = [report.posterior_by_outcome[o] for o in ent.outcomes if o >= 4]
        assert report.acceptance_level == pytest.approx(min(accepted))
