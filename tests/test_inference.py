"""Frequentist/Bayesian evaluation: confidence, power, posteriors, NP tests."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from entcert import inference
from entcert.acceptance import AcceptanceSet
from entcert.errors import DomainError, UndefinedOutcomeError
from entcert.finite_stats import CorrelationSetting
from entcert.inference import (
    PriorPair,
    _best_first_search,
    bayes_acceptance_set,
    build_test_report,
    confidence,
    expected_loss_bound,
    max_power_acceptance_set,
    neyman_pearson_test,
    np_power_upper_bound,
    posterior_lower_bound,
    posterior_map,
    power,
)
from entcert.pmf import OutcomePmf
from entcert.states import EntangledStateModel, TruncatedGaussianPrior
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf
from entcert.worst_case import SearchOptions, WorstCaseProblem

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
            point = problem.witness.sample_separable(rng)
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
        assert np_power_upper_bound(0.05, sep, ent) == pytest.approx(0.4)


class TestMaxPowerSearch:
    def test_generalised_frequentist_set(self):
        witness = QuadraticWitness(3)
        copies = (4, 4, 4)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        found = max_power_acceptance_set(witness, copies, ent, 0.30, OPTS)
        assert found.search_path == "exhaustive"
        assert found.acceptance.outcomes == {F(0), F(1), F(9, 4), F(3)}
        assert found.power == pytest.approx(0.664, abs=5e-3)
        assert found.worst_case.objective <= 0.30

    def test_search_never_exceeds_np_bound(self):
        witness = QuadraticWitness(2)
        copies = (4, 4)
        ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
        found = max_power_acceptance_set(witness, copies, ent, 0.20, OPTS)
        bound = np_power_upper_bound(0.20, found.worst_case.dist, ent)
        assert found.power <= bound + 1e-9

    def test_infeasible_budget_returns_none(self):
        witness = QuadraticWitness(1)
        ent = witness_pmf([CorrelationSetting(0.9, 2)], witness)
        # Every single outcome has a worst case above this tiny budget.
        assert max_power_acceptance_set(witness, (2,), ent, 1e-6, OPTS) is None

    def test_greedy_fallback_on_large_grids(self, monkeypatch):
        # Forcing the grid over the exhaustive limit exercises the
        # likelihood-ratio prefix path: still feasible, possibly weaker.
        witness = QuadraticWitness(3)
        copies = (4, 4, 4)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        exhaustive = max_power_acceptance_set(witness, copies, ent, 0.30, OPTS)
        monkeypatch.setattr(inference, "MAX_EXHAUSTIVE_OUTCOMES", 2)
        greedy = max_power_acceptance_set(witness, copies, ent, 0.30, OPTS)
        assert greedy.search_path == "greedy"
        assert greedy.worst_case.objective <= 0.30
        assert greedy.power <= exhaustive.power + 1e-12
        # The prefix path cannot reach the poor-ratio outcomes 0 and 1, which
        # is exactly why the exhaustive search exists.
        assert greedy.acceptance.outcomes == {F(9, 4), F(3)}

    def test_best_first_order_finds_the_most_powerful_feasible_subset(self):
        class SumChecker:
            """Feasible when the subset's separable masses sum to within budget."""

            def __init__(self, sep, budget):
                self.sep, self.budget = sep, budget

            def check(self, indices):
                return float(self.sep[indices].sum()) <= self.budget, None

            def outcomes(self, indices):
                return frozenset(F(int(i)) for i in indices)

        rng = np.random.default_rng(12)
        for _ in range(25):
            size = int(rng.integers(1, 10))
            sep = rng.random(size)
            ent = rng.random(size)
            budget = float(rng.uniform(0.0, sep.sum()))
            order = np.argsort(ent, kind="stable")
            masses = [float(ent[i]) for i in order]
            found, _ = _best_first_search(
                order, masses, sum(masses), SumChecker(sep, budget), 10**6
            )
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

    def test_pop_budget_overflow_falls_back_to_greedy(self, monkeypatch):
        witness = QuadraticWitness(3)
        copies = (4, 4, 4)
        model = EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))
        ent = model.outcome_pmf(witness, copies, (1, 1, 1))
        monkeypatch.setattr(inference, "MAX_SEARCH_POPS", 2)
        capped = max_power_acceptance_set(witness, copies, ent, 0.30, OPTS)
        assert capped.search_path == "greedy"
        assert capped.worst_case.objective <= 0.30

    def test_partial_pointwise_map_rejected(self):
        witness = QuadraticWitness(2)
        copies = (4, 4)
        ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
        problem = WorstCaseProblem(witness, copies)
        partial = {problem.grid[0]: problem.maximize_point(problem.grid[0], OPTS)}
        with pytest.raises(DomainError):
            max_power_acceptance_set(
                witness, copies, ent, 0.3, OPTS, problem=problem, pointwise=partial
            )


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
