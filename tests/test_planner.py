"""Allocation enumeration, equal-split sweep, and plan optimization."""

import dataclasses
import time
from fractions import Fraction

import numpy as np
import pytest

from entcert import planner
from entcert.errors import DomainError, InfeasibleError
from entcert.finite_stats import CorrelationSetting
from entcert.inference import PriorPair
from entcert.planner import (
    MAX_ALLOCATIONS,
    MAX_SWEEP_BUDGET,
    PlanEvaluator,
    PlanSpec,
    enumerate_allocations,
    equal_split_sweep,
    family_signs,
    optimize_plan,
    rank_allocations,
    witness_for,
)
from entcert.states import EntangledStateModel, TruncatedGaussianPrior
from entcert.witnesses import witness_pmf
from entcert.worst_case import SearchOptions, WorstCaseProblem
from oracles import reference_power_bound

F = Fraction
OPTS = SearchOptions(restarts=8, seed=41)


def small_evaluator(framework_validity=0.7, witness_kind="quadratic"):
    return PlanEvaluator(
        witness_kind,
        EntangledStateModel(purity=0.8),
        PriorPair(2 / 3),
        framework_validity,
        options=OPTS,
    )


class TestEnumeration:
    def test_equal_split_divisors(self):
        spec = PlanSpec(20, 20, 0.9, "frequentist", allow_unused_copies=False, equal_allocation_only=True)
        allocations = enumerate_allocations(spec)
        assert (5, (4,) * 5) in allocations
        assert (10, (2,) * 10) in allocations
        assert (4, (5,) * 4) in allocations
        assert all(m * alloc[0] == 20 for m, alloc in allocations)

    def test_budget_thirteen_includes_paper_allocations(self):
        spec = PlanSpec(13, 3, 0.7, "frequentist", allow_unused_copies=True)
        allocations = enumerate_allocations(spec)
        assert (3, (4, 4, 4)) in allocations
        assert (3, (5, 3, 3)) in allocations
        for m, alloc in allocations:
            assert len(alloc) == m
            assert sum(alloc) <= 13
            assert tuple(sorted(alloc, reverse=True)) == alloc

    def test_thirty_copies_over_five_settings_still_enumerate(self):
        allocations = enumerate_allocations(PlanSpec(30, 5, 0.7, "frequentist"))
        assert len(allocations) == 5325 <= MAX_ALLOCATIONS

    def test_too_many_allocations_rejected(self):
        # 4 settings of up to 100,000 copies would give billions.
        with pytest.raises(DomainError, match="allocations"):
            enumerate_allocations(PlanSpec(100_000, 4, 0.7, "frequentist"))

    def test_huge_equal_budget_rejected_at_once(self):
        # One setting alone would take 10^9 equal allocations.
        start = time.perf_counter()
        with pytest.raises(DomainError, match="allocations"):
            enumerate_allocations(PlanSpec(10**9, 3, 0.7, "frequentist", equal_allocation_only=True))
        with pytest.raises(DomainError, match="allocations"):
            enumerate_allocations(PlanSpec(10**9, 10**9, 0.7, "frequentist"))
        assert time.perf_counter() - start < 5.0

    def test_settings_past_the_budget_add_nothing(self):
        start = time.perf_counter()
        for equal in (False, True):
            huge = PlanSpec(6, 10**9, 0.7, "frequentist", equal_allocation_only=equal)
            capped = PlanSpec(6, 6, 0.7, "frequentist", equal_allocation_only=equal)
            assert enumerate_allocations(huge) == enumerate_allocations(capped)
        assert time.perf_counter() - start < 5.0

    def test_single_copy_budget(self):
        spec = PlanSpec(1, 3, 0.7, "frequentist")
        assert enumerate_allocations(spec) == [(1, (1,))]

    def test_no_duplicates(self):
        spec = PlanSpec(9, 3, 0.7, "bayesian")
        allocations = enumerate_allocations(spec)
        assert len(allocations) == len(set(allocations))

    def test_exact_budget_when_unused_forbidden(self):
        spec = PlanSpec(9, 3, 0.7, "frequentist", allow_unused_copies=False)
        assert all(sum(alloc) == 9 for _, alloc in enumerate_allocations(spec))


class TestSweep:
    def test_twenty_copies_best_quadratic_split(self):
        best = equal_split_sweep(20, "quadratic", 0.75)[0]
        assert (best.num_settings, best.copies_per_setting) == (5, 4)

    def test_linear_sweep_favors_fine_splits(self):
        # For the linear witness the minimax error strictly improves as the
        # budget is split across more settings; the best split is (20, 1),
        # with (10, 2) second.  (The acceptance suite records where this
        # deviates from the source material.)
        entries = equal_split_sweep(20, "linear", 0.75)
        assert (entries[0].num_settings, entries[0].copies_per_setting) == (20, 1)
        assert (entries[1].num_settings, entries[1].copies_per_setting) == (10, 2)

    def test_budget_past_the_cap_rejected_at_once(self):
        start = time.perf_counter()
        for budget in (MAX_SWEEP_BUDGET + 1, 1_000_003):
            with pytest.raises(DomainError, match="budget"):
                equal_split_sweep(budget, "quadratic", 0.75)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("purity", [-0.5, 1.5])
    def test_purity_checked_before_any_grid(self, purity, monkeypatch):
        # Checked only as a correlation, -0.5 gave a sweep and 1.5 was
        # reported as correlation -1.5.
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(planner, "WitnessGrid", no_grid)
        with pytest.raises(DomainError, match="purity must lie in"):
            equal_split_sweep(8, "linear", purity)

    def test_sweep_scores_are_minimax(self):
        entries = equal_split_sweep(20, "quadratic", 0.75)
        for entry in entries:
            assert entry.score == max(entry.sep_error, entry.ent_error)
            assert entry.score == min(max(s, e) for _, s, e in entry.curve)

    @pytest.mark.parametrize("budget", [20, 36])
    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_curve_matches_tail_reads(self, budget, kind):
        # The sweep's running tail sums equal the pmf's one-off reads
        # exactly, not just to rounding.
        for entry in equal_split_sweep(budget, kind, 0.75):
            m, n = entry.num_settings, entry.copies_per_setting
            witness = witness_for(kind, m)
            ent = witness_pmf(
                [CorrelationSetting(s * 0.75, n) for s in family_signs(kind, m)], witness
            )
            sep = witness_pmf(
                [CorrelationSetting(t, n) for t in witness.analytic_worst_case()], witness
            )
            for bound, sep_error, ent_error in entry.curve:
                if kind == "linear":
                    expected = sep.mass_below(bound), ent.mass_above(bound, inclusive=False)
                else:
                    expected = sep.mass_above(bound), ent.mass_below(bound, inclusive=False)
                assert (sep_error, ent_error) == expected

    def test_sorted_by_score(self):
        entries = equal_split_sweep(20, "linear", 0.75)
        scores = [e.score for e in entries]
        assert scores == sorted(scores)


class TestWitnessFamilies:
    def test_linear_family(self):
        w = witness_for("linear", 4)
        assert [float(c) for c in w.coefficients] == [1, -1, -1, -1]
        assert float(w.constant) == 1
        assert family_signs("linear", 4) == (-1, 1, 1, 1)

    def test_quadratic_family(self):
        assert witness_for("quadratic", 3).num_settings == 3
        assert family_signs("quadratic", 3) == (1, 1, 1)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            witness_for("cubic", 2)

    @pytest.mark.parametrize("kind", ["cubic", "", None, ["linear"], {"kind": "linear"}])
    def test_evaluator_refuses_an_unknown_kind_before_any_search(self, kind):
        with pytest.raises(DomainError, match="unknown witness kind"):
            small_evaluator(witness_kind=kind)


class TestOptimization:
    def test_optimum_dominates_all_alternatives(self):
        evaluator = small_evaluator()
        spec = PlanSpec(6, 2, 0.7, "frequentist")
        ranked = rank_allocations(spec, evaluator)
        best = optimize_plan(spec, evaluator)
        assert best.copies == ranked[0].copies
        assert all(best.report.power >= p.report.power - 1e-12 for p in ranked)
        assert all(p.report.confidence >= 0.7 - 1e-9 for p in ranked)

    def test_bayesian_scoring_minimizes_loss(self):
        evaluator = small_evaluator()
        spec = PlanSpec(6, 2, 0.7, "bayesian")
        ranked = rank_allocations(spec, evaluator)
        best = optimize_plan(spec, evaluator)
        assert best.copies == ranked[0].copies
        assert all(best.report.expected_loss <= p.report.expected_loss + 1e-12 for p in ranked)

    def test_determinism(self):
        spec = PlanSpec(6, 2, 0.7, "frequentist")
        first = optimize_plan(spec, small_evaluator())
        second = optimize_plan(spec, small_evaluator())
        assert first.copies == second.copies
        assert first.acceptance.outcomes == second.acceptance.outcomes
        assert first.report.power == second.report.power
        assert first.worst_case.correlations == second.worst_case.correlations

    def test_pruned_ranking_keeps_the_optimum(self):
        evaluator = small_evaluator()
        spec = PlanSpec(6, 2, 0.7, "frequentist")
        exhaustive = rank_allocations(spec, evaluator)
        pruned = rank_allocations(spec, evaluator, prune=True)
        assert pruned[0].copies == exhaustive[0].copies
        assert pruned[0].report.power == exhaustive[0].report.power

    def test_infeasible_budget_raises_with_payload(self):
        evaluator = PlanEvaluator(
            "linear",
            EntangledStateModel(purity=0.9),
            PriorPair(0.5),
            0.999,
            options=OPTS,
        )
        spec = PlanSpec(1, 1, 0.999, "frequentist")
        with pytest.raises(InfeasibleError) as err:
            optimize_plan(spec, evaluator)
        assert err.value.payload["best_validity"] < 0.999

    def test_cross_evaluation_uses_other_frameworks_set(self):
        evaluator = PlanEvaluator(
            "quadratic",
            EntangledStateModel(purity=0.9),
            PriorPair(2 / 3),
            0.7,
            options=OPTS,
        )
        spec = PlanSpec(6, 2, 0.7, "frequentist")
        plan = optimize_plan(spec, evaluator)
        report = evaluator.plan_for(plan.copies, "bayesian").report
        bayes_plan = evaluator.plan_for(plan.copies, "bayesian")
        assert report.acceptance.outcomes == bayes_plan.acceptance.outcomes
        assert report.expected_loss == bayes_plan.report.expected_loss

    def test_prefetch_cache_consistency_across_workers(self):
        spec = PlanSpec(5, 2, 0.7, "frequentist")
        serial = optimize_plan(spec, small_evaluator(), workers=1)
        parallel = optimize_plan(spec, small_evaluator(), workers=2)
        assert serial.copies == parallel.copies
        assert serial.report.power == parallel.report.power
        assert serial.worst_case.correlations == parallel.worst_case.correlations

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_set_at_the_budget_is_kept_at_every_seed(self, seed):
        # The worst case of {1/9, 3} at (3, 2, 2) is exactly the budget 3/10,
        # at t = (sqrt(3/5), 1/sqrt(5), 1/sqrt(5)); searches from different
        # seeds land a few 1e-14 on either side of it, and the tie rule keeps
        # the set at every seed.
        evaluator = PlanEvaluator(
            "quadratic",
            EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2)),
            PriorPair(2 / 3),
            0.70,
            options=SearchOptions(restarts=12, seed=seed),
        )
        spec = PlanSpec(7, 3, 0.70, "frequentist", allow_unused_copies=False)
        best = rank_allocations(spec, evaluator, prune=True)[0]
        assert best.copies == (3, 2, 2)
        assert best.acceptance.outcomes == {F(1, 9), F(3)}
        assert best.worst_case.objective == pytest.approx(0.3, abs=1e-12)

    def test_shrinking_budget_never_helps(self, generalised_evaluator):
        # Allocations of a smaller budget are a subset of the larger one's,
        # so the optimal power is monotone in the budget.
        powers = []
        for budget in range(13, 7, -1):
            spec = PlanSpec(budget, 3, 0.70, "frequentist")
            powers.append(optimize_plan(spec, generalised_evaluator, workers=2).report.power)
        assert all(a >= b - 1e-12 for a, b in zip(powers, powers[1:]))


class TestPowerCeiling:
    """Pruning with ``power_ceiling`` ranks what pruning with the
    single-point Neyman-Pearson reference ranks."""

    # Random small scenarios in which pruning skips designs.
    @pytest.mark.parametrize("seed", [2, 4, 5, 6, 8])
    def test_pruned_ranking_is_the_references(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        kind = ["linear", "quadratic"][seed % 2]
        budget, max_settings = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        validity, purity = float(rng.choice([0.6, 0.7, 0.8])), float(rng.choice([0.7, 0.8, 0.9]))
        spec = PlanSpec(budget, max_settings, validity, "frequentist")

        def ranking():
            model = EntangledStateModel(purity=purity)
            evaluator = PlanEvaluator(kind, model, PriorPair(2 / 3), validity, options=OPTS)
            ranked = rank_allocations(spec, evaluator, prune=True)
            for _, copies in enumerate_allocations(spec):
                evaluation = evaluator.evaluate(copies)
                reference = reference_power_bound(evaluation.ent_pmf, evaluation.pointwise, 1 - validity)
                assert evaluation.power_bound == pytest.approx(reference, rel=0.0, abs=1e-11)
            for plan in ranked:
                assert plan.report.power <= evaluator.evaluate(plan.copies).power_bound + 1e-12
            return [(plan.copies, plan.acceptance, plan.report.power) for plan in ranked]

        ranked = ranking()
        assert ranked
        monkeypatch.setattr(planner, "power_ceiling", reference_power_bound)
        assert ranking() == ranked


class TestEvaluatorInputs:
    @staticmethod
    def no_search(*args, **kwargs):
        raise AssertionError("no allocation may be evaluated")

    @pytest.mark.parametrize("framework", ["frequentist", "bayesian"])
    def test_spec_must_plan_at_the_evaluators_validity(self, framework, monkeypatch):
        evaluator = small_evaluator(0.7)
        monkeypatch.setattr(PlanEvaluator, "evaluate", self.no_search)
        spec = PlanSpec(4, 2, 0.99, framework)
        with pytest.raises(DomainError, match=r"validity 0\.99, the evaluator at 0\.7$"):
            rank_allocations(spec, evaluator)
        with pytest.raises(DomainError, match=r"validity 0\.99, the evaluator at 0\.7$"):
            optimize_plan(spec, evaluator)

    @pytest.mark.parametrize("validity", [0.0, 1.0, True, float("nan"), "x", None, 1.5])
    def test_evaluator_refuses_a_bad_validity_before_any_search(self, validity, monkeypatch):
        monkeypatch.setattr(WorstCaseProblem, "maximize_all_points", self.no_search)
        with pytest.raises(DomainError, match="^min_validity must "):
            small_evaluator(validity)

    @pytest.mark.parametrize("copies", [(2.7, 1), (2.0, 1), (True, 1), (2, 0)])
    def test_copies_are_integers_of_at_least_one(self, copies):
        with pytest.raises(DomainError, match="^copies must be"):
            small_evaluator().evaluate(copies)

    def test_numpy_copies_share_one_cache_entry(self):
        evaluator = small_evaluator()
        assert evaluator.evaluate((np.int64(3), np.int32(2))) is evaluator.evaluate((3, 2))

    @pytest.mark.parametrize(
        "framework,score", [("frequentist", "power"), ("bayesian", "expected_loss")]
    )
    def test_plan_reads_its_set_and_score_from_its_report(self, framework, score):
        plan = small_evaluator().plan_for((4, 4), framework)
        assert [f.name for f in dataclasses.fields(plan)] == [
            "framework", "copies", "report", "worst_case"
        ]
        assert plan.acceptance is plan.report.acceptance
        assert plan.score == getattr(plan.report, score)


class TestSpecValidation:
    def test_rejects_bad_validity(self):
        with pytest.raises(DomainError):
            PlanSpec(10, 2, 1.5, "frequentist")

    def test_rejects_bad_framework(self):
        with pytest.raises(DomainError):
            PlanSpec(10, 2, 0.7, "fiducial")
