"""Acceptance suite: every target number at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
all).  Tolerances: reported percentages +/-0.15 percentage points, losses
+/-0.002, except the prior-averaged scenario, which allows +/-0.5 pp and
+/-0.004 to absorb discretization differences.  Two sub-claims of the
source material are computationally unreachable (see the strict xfails and
their reasons); everything else must be green.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from entcert.acceptance import AcceptanceSet
from entcert.finite_stats import (
    CorrelationSetting,
    correlation_moments,
    correlation_pmf,
    squared_correlation_moments,
    squared_correlation_pmf,
)
from entcert.inference import (
    PriorPair,
    bayes_acceptance_set,
    expected_loss_bound,
    neyman_pearson_test,
    posterior_map,
)
from entcert.planner import (
    PlanSpec,
    best_equal_split,
    equal_split_sweep,
    optimize_plan,
)
from entcert.simulate import (
    SimulationConfig,
    chi_square_compare,
    simulate_mixture_witness,
    simulate_witness,
)
from entcert.states import (
    TruncatedGaussianPrior,
    mixture_witness_pmf,
    natural_prior,
    white_noise_success_probability,
)
from entcert.witnesses import (
    LinearWitness,
    QuadraticWitness,
    witness_moments,
    witness_pmf,
)
from entcert.worst_case import SearchOptions, WorstCaseProblem

F = Fraction
PP = 1.5e-3  # 0.15 percentage points
LOSS_TOL = 2e-3
PP6 = 5e-3  # generalised scenario: 0.5 percentage points
LOSS6 = 4e-3
OPTS = SearchOptions(restarts=10, seed=77)


class Criterion:
    """Collects named checks and prints one PASS/FAIL line."""

    def __init__(self, number, title):
        self.number = number
        self.title = title
        self.failures = []

    def check(self, label, ok):
        if not ok:
            self.failures.append(label)

    def close(self, value, target, tolerance, label):
        self.check(f"{label}: {value:.6g} != {target} +/- {tolerance}", abs(value - target) <= tolerance)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            status = "PASS" if not self.failures else "FAIL"
            print(f"ACCEPTANCE CRITERION {self.number} ({self.title}): {status}")
            assert not self.failures, self.failures
        else:
            print(f"ACCEPTANCE CRITERION {self.number} ({self.title}): FAIL (error)")
        return False


def settings(correlations, copies):
    return [CorrelationSetting(t, n) for t, n in zip(correlations, copies)]


def twenty_copy_linear():
    witness = LinearWitness([1, -1, -1, -1, -1], 1)
    copies = (4,) * 5
    ent = witness_pmf(settings([-0.75] + [0.75] * 4, copies), witness)
    return witness, copies, ent


def twenty_copy_quadratic():
    witness = QuadraticWitness(5)
    copies = (4,) * 5
    ent = witness_pmf(settings([0.75] * 5, copies), witness)
    return witness, copies, ent


def test_criterion_01_limited_significance_linear():
    with Criterion(1, "limited-significance linear example") as c:
        witness = LinearWitness([1, -1], 1)
        sep = witness_pmf(settings([-0.5, 0.5], [10, 10]), witness)
        rho = witness_pmf(settings([-0.75, 0.75], [10, 10]), witness)
        c.close(sep.mass_below(0, inclusive=False), 0.415, PP, "P(E<0|sep)")
        c.close(sep.mass_below(F(-4, 5)), 0.025, PP, "P(E<=-4/5|sep)")
        c.close(rho.mass_below(F(-4, 5)), 0.267, PP, "P(E<=-4/5|rho)")


def test_criterion_02_limited_significance_quadratic():
    with Criterion(2, "limited-significance quadratic example") as c:
        sep = witness_pmf(settings([0.5**0.5] * 2, [10, 10]), QuadraticWitness(2))
        rho = witness_pmf(settings([0.75, -0.75], [10, 10]), QuadraticWitness(2))
        c.close(sep.probability(2), 0.042, PP, "P(S=2|sep)")
        c.close(rho.probability(2), 0.069, PP, "P(S=2|rho)")


def test_criterion_03_equal_split_sweep_quadratic():
    with Criterion(3, "20-copy equal-split sweep, quadratic witness") as c:
        best = best_equal_split(20, "quadratic", 0.75)
        c.check(
            f"best quadratic split {(best.num_settings, best.copies_per_setting)} != (5, 4)",
            (best.num_settings, best.copies_per_setting) == (5, 4),
        )
        runner_up = equal_split_sweep(20, "quadratic", 0.75)[1]
        c.check("(5,4) must win strictly", best.score < runner_up.score - 1e-9)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "source-material defect: for the linear witness, splits with more "
        "settings strictly dominate (5,4) on every error measure (minimax "
        "0.035 at (20,1) and 0.055 at (10,2) vs 0.095 at (5,4); power 0.905 "
        "vs 0.765 at matched 97.5% validity), with the worst cases verified "
        "by the numeric optimizer; see the decisions ledger"
    ),
)
def test_criterion_03_equal_split_sweep_linear():
    with Criterion(3, "20-copy equal-split sweep, linear witness") as c:
        best = best_equal_split(20, "linear", 0.75)
        c.check(
            f"best linear split {(best.num_settings, best.copies_per_setting)} != (5, 4)",
            (best.num_settings, best.copies_per_setting) == (5, 4),
        )


def test_criterion_04_linear_twenty_copy_reports():
    with Criterion(4, "linear 20-copy reports") as c:
        witness, copies, ent = twenty_copy_linear()
        problem = WorstCaseProblem(witness, copies)

        loose = problem.maximize_set(AcceptanceSet.threshold(F(-5, 2), "accept_low"), OPTS)
        c.check("confidence at C=-2.5 >= 97.5%", 1.0 - loose.objective >= 0.975)
        c.close(ent.mass_below(F(-5, 2)), 0.765, PP, "power at C=-2.5")

        strict = problem.maximize_set(AcceptanceSet.threshold(-4, "accept_low"), OPTS)
        c.close(1.0 - strict.objective, 0.99996, 5e-5, "confidence at C=-4")
        c.close(ent.mass_below(-4), 0.069, PP, "power at C=-4")

        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}
        posteriors = posterior_map(ent, pointwise, PriorPair(0.5))
        bayes = bayes_acceptance_set(0.975, posteriors)
        c.check(
            f"Bayesian set {sorted(map(str, bayes.outcomes))} != {{E <= -3}}",
            bayes.outcomes == {o for o in ent.outcomes if o <= -3},
        )
        mid = problem.maximize_set(AcceptanceSet.threshold(-3, "accept_low"), OPTS)
        loss = expected_loss_bound(
            AcceptanceSet.threshold(-3, "accept_low"), 0.975, PriorPair(0.5), mid.objective, ent
        )
        c.close(loss, 0.007, LOSS_TOL, "loss at C_B=-3")
        c.close(1.0 - mid.objective, 0.9964, PP, "confidence at C=-3")
        c.close(ent.mass_below(-3), 0.535, PP, "power at C=-3")


def test_criterion_05_quadratic_twenty_copy_reports():
    with Criterion(5, "quadratic 20-copy reports") as c:
        witness, copies, ent = twenty_copy_quadratic()
        problem = WorstCaseProblem(witness, copies)
        pointwise = {o: r.objective for o, r in problem.maximize_all_points(OPTS).items()}

        worst = {
            bound: problem.maximize_set(AcceptanceSet.threshold(bound, "accept_high"), OPTS)
            for bound in (F(7, 2), F(4), F(5))
        }
        c.close(ent.mass_above(4), 0.314, PP, "power at B_F=4")

        cases = [
            (PriorPair(0.5), F(5), 0.013),
            (PriorPair(natural_prior(4)[0]), F(4), 0.018),
            (PriorPair(natural_prior(5)[0]), F(7, 2), 0.015),
        ]
        for priors, bound, target_loss in cases:
            posteriors = posterior_map(ent, pointwise, priors)
            bayes = bayes_acceptance_set(0.975, posteriors)
            c.check(
                f"Bayesian set at P(ent)={priors.p_ent:.3f}: "
                f"{sorted(map(str, bayes.outcomes))} != {{S >= {bound}}}",
                bayes.outcomes == {o for o in ent.outcomes if o >= bound},
            )
            loss = expected_loss_bound(
                AcceptanceSet.threshold(bound, "accept_high"),
                0.975,
                priors,
                worst[bound].objective,
                ent,
            )
            c.close(loss, target_loss, LOSS_TOL, f"loss at B_B={bound}")

        triples = [(F(5), 0.998, 0.069), (F(4), 0.976, 0.314), (F(7, 2), 0.925, 0.549)]
        for bound, confidence, power in triples:
            c.close(1.0 - worst[bound].objective, confidence, PP, f"confidence at B={bound}")
            c.close(ent.mass_above(bound), power, PP, f"power at B={bound}")


def test_criterion_06_generalised_scenario(generalised_evaluator):
    with Criterion(6, "generalised 13-copy scenario (reproducible part)") as c:
        evaluator = generalised_evaluator
        spec = PlanSpec(13, 3, 0.70, "frequentist")
        plan = optimize_plan(spec, evaluator, workers=2)
        c.check(f"Frequentist optimum {plan.copies} != (4, 4, 4)", plan.copies == (4, 4, 4))
        c.check(
            f"Frequentist set {sorted(map(str, plan.acceptance.outcomes))}",
            plan.acceptance.outcomes == {F(0), F(1), F(9, 4), F(3)},
        )
        c.close(plan.worst_case.objective, 0.298, PP6, "worst-case separable mass")
        c.close(plan.report.power, 0.664, PP6, "Frequentist power")
        c.close(plan.report.expected_loss, 0.137, LOSS6, "loss of the Frequentist set")

        bayes_444 = evaluator.plan_for((4, 4, 4), "bayesian")
        c.check(
            f"Bayesian set for [4 4 4] {sorted(map(str, bayes_444.acceptance.outcomes))}",
            bayes_444.acceptance.outcomes == {F(9, 4), F(3)},
        )
        c.close(bayes_444.report.acceptance_level, 0.768, PP6, "acceptance level [4 4 4]")
        c.close(bayes_444.report.power, 0.656, PP6, "Bayesian power [4 4 4]")

        bayes_533 = evaluator.plan_for((5, 3, 3), "bayesian")
        c.check(
            f"Bayesian set for [5 3 3] {sorted(map(str, bayes_533.acceptance.outcomes))}",
            bayes_533.acceptance.outcomes == {F(59, 25), F(3)},
        )
        c.close(bayes_533.report.expected_loss, 0.146, LOSS6, "loss [5 3 3]")
        c.close(bayes_533.report.power, 0.504, PP6, "Bayesian power [5 3 3]")

        freq_533 = evaluator.plan_for((5, 3, 3), "frequentist")
        c.check(
            f"Frequentist cross-set for [5 3 3] {sorted(map(str, freq_533.acceptance.outcomes))}",
            freq_533.acceptance.outcomes == {F(131, 225), F(59, 25), F(3)},
        )
        c.close(freq_533.report.power, 0.535, PP6, "cross power [5 3 3]")
        c.close(freq_533.report.confidence, 0.711, PP6, "cross confidence [5 3 3]")
        c.close(freq_533.report.expected_loss, 0.1603, LOSS6, "cross loss [5 3 3]")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "source-material defect: the claimed loss 0.149 for the [4 4 4] "
        "Bayesian set {2.25,3} requires a worst-case acceptance mass of "
        "0.344, which only matches a boundary-inclusive set {2,2.25,3}; the "
        "true worst case of {2.25,3} is 0.2605 (dense-grid verified), giving "
        "loss 0.1297; see the decisions ledger"
    ),
)
def test_criterion_06_bayes_444_loss_as_published(generalised_evaluator):
    with Criterion(6, "generalised scenario, published [4 4 4] Bayesian loss") as c:
        plan = generalised_evaluator.plan_for((4, 4, 4), "bayesian")
        c.close(plan.report.expected_loss, 0.149, LOSS6, "loss [4 4 4] Bayesian")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "source-material defect: every coherent loss estimate ranks [4 4 4] "
        "(0.130) below [5 3 3] (0.146-0.149), so a loss-minimizing planner "
        "cannot select [5 3 3]; see the decisions ledger"
    ),
)
def test_criterion_06_bayesian_optimum_as_published(generalised_evaluator):
    with Criterion(6, "generalised scenario, published Bayesian optimum") as c:
        spec = PlanSpec(13, 3, 0.70, "bayesian")
        plan = optimize_plan(spec, generalised_evaluator, workers=2)
        c.check(f"Bayesian optimum {plan.copies} != (5, 3, 3)", plan.copies == (5, 3, 3))


def test_criterion_07_moment_identities():
    with Criterion(7, "moment identities on random settings") as c:
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            setting = CorrelationSetting(float(rng.uniform(-1, 1)), int(rng.integers(1, 51)))
            pmf = correlation_pmf(setting)
            mean, variance = correlation_moments(setting)
            sq = squared_correlation_pmf(setting)
            sq_mean, sq_variance = squared_correlation_moments(setting)
            worst = max(
                worst,
                abs(pmf.mean() - mean),
                abs(pmf.variance() - variance),
                abs(sq.mean() - sq_mean),
                abs(sq.variance() - sq_variance),
            )
        c.check(f"per-setting identities drift {worst:.2e} > 1e-12", worst <= 1e-12)

        worst_sum = 0.0
        for _ in range(150):
            m = int(rng.integers(1, 5))
            sts = settings(rng.uniform(-1, 1, m), rng.integers(1, 13, m))
            pmf = witness_pmf(sts, QuadraticWitness(m))
            mean, variance = witness_moments(sts, QuadraticWitness(m))
            worst_sum = max(worst_sum, abs(pmf.mean() - mean), abs(pmf.variance() - variance))
        c.check(f"sum-of-squares identities drift {worst_sum:.2e} > 1e-12", worst_sum <= 1e-12)


def test_criterion_08_brute_force_equivalence():
    with Criterion(8, "brute-force enumeration equals convolution") as c:
        rng = np.random.default_rng(88)
        allocations = [
            ("linear", (10, 10)),
            ("linear", (6, 5, 4)),
            ("linear", (19,)),
            ("linear", (3, 3, 3, 3, 3, 3)),
            ("quadratic", (10, 9, 8)),
            ("quadratic", (6, 6, 6, 6)),
            ("quadratic", (45, 44)),
            ("quadratic", (9, 9, 9, 9, 9)),
        ]
        for kind, copies in allocations:
            size = 1
            for n in copies:
                size *= n + 1
            assert size <= 10**5
            m = len(copies)
            witness = (
                QuadraticWitness(m) if kind == "quadratic" else LinearWitness([1] + [-1] * (m - 1), 1)
            )
            sts = settings(rng.uniform(-1, 1, m), copies)
            exact = witness_pmf(sts, witness)
            if kind == "quadratic":
                grids = [list(squared_correlation_pmf(s).items()) for s in sts]
                combine = lambda values: sum(values, F(0))
            else:
                grids = [list(correlation_pmf(s).items()) for s in sts]
                combine = lambda values: sum(
                    (a * v for a, v in zip(witness.coefficients, values)), witness.constant
                )
            oracle = {}
            for combo in itertools.product(*grids):
                value = combine([v for v, _ in combo])
                prob = 1.0
                for _, p in combo:
                    prob *= p
                oracle[value] = oracle.get(value, 0.0) + prob
            c.check(f"{kind} {copies}: grids differ", set(exact.outcomes) == set(oracle))
            drift = max(abs(exact.probability(o) - p) for o, p in oracle.items())
            c.check(f"{kind} {copies}: probability drift {drift:.2e} > 1e-14", drift <= 1e-14)


def test_criterion_09_worst_case_recovery():
    with Criterion(9, "optimizer recovers analytic worst cases") as c:
        cases = [
            (LinearWitness([1, -1], 1), (10, 10), AcceptanceSet.threshold(F(-4, 5), "accept_low")),
            (LinearWitness([1, -1, -1], 1), (4, 4, 4), AcceptanceSet.threshold(F(-3, 2), "accept_low")),
            (
                LinearWitness([1, -1, -1, -1, -1], 1),
                (4,) * 5,
                AcceptanceSet.threshold(F(-5, 2), "accept_low"),
            ),
            (QuadraticWitness(2), (10, 10), AcceptanceSet.threshold(2, "accept_high")),
            (QuadraticWitness(3), (4, 4, 4), AcceptanceSet.threshold(F(9, 4), "accept_high")),
            (QuadraticWitness(5), (4,) * 5, AcceptanceSet.threshold(4, "accept_high")),
        ]
        for witness, copies, acc in cases:
            problem = WorstCaseProblem(witness, copies)
            result = problem.maximize_set(acc, OPTS)
            analytic = witness.analytic_worst_case()
            reference = acc.weighted_mass(problem.pmf_at(analytic))
            label = f"{type(witness).__name__} M={witness.num_settings}"
            c.check(
                f"{label}: objective {result.objective:.6f} vs analytic {reference:.6f}",
                abs(result.objective - reference) < 1e-3 and result.objective >= reference - 1e-12,
            )
            c.check(
                f"{label}: correlations {result.correlations}",
                max(abs(a - b) for a, b in zip(result.correlations, analytic)) <= 1e-2,
            )
            c.check(
                f"{label}: infeasible point", problem.witness.violation(result.correlations) <= 1e-9
            )


def test_criterion_10_noise_curve():
    with Criterion(10, "white-noise success curve") as c:
        worst = 0.0
        for i in range(101):
            p = i / 100
            general = white_noise_success_probability(p, 4, 5)
            quartic = ((1 + 6 * p**2 + p**4) / 8) ** 5
            worst = max(worst, abs(general - quartic))
        c.check(f"curve drift {worst:.2e} > 1e-12", worst <= 1e-12)


def test_criterion_11_monte_carlo_validation():
    with Criterion(11, "Monte Carlo validation of the exact pmfs") as c:
        lin2 = LinearWitness([1, -1], 1)
        quad2 = QuadraticWitness(2)
        lin5, copies5, ent_lin5 = twenty_copy_linear()
        quad5, _, ent_quad5 = twenty_copy_quadratic()
        runs = [
            ("c1 sep", lin2, [-0.5, 0.5], [10, 10], 101),
            ("c1 rho", lin2, [-0.75, 0.75], [10, 10], 102),
            ("c2 sep", quad2, [0.5**0.5] * 2, [10, 10], 103),
            ("c2 rho", quad2, [0.75, -0.75], [10, 10], 104),
            ("c4 ent", lin5, [-0.75] + [0.75] * 4, [4] * 5, 105),
            ("c4 sep", lin5, list(lin5.analytic_worst_case()), [4] * 5, 106),
            ("c5 ent", quad5, [0.75] * 5, [4] * 5, 107),
            ("c5 sep", quad5, list(quad5.analytic_worst_case()), [4] * 5, 108),
        ]
        trials = 10**6
        for label, witness, correlations, copies, seed in runs:
            config = SimulationConfig(correlations, copies, trials, seed)
            empirical = simulate_witness(config, witness)
            exact = witness_pmf(settings(correlations, copies), witness)
            result = chi_square_compare(empirical, exact, trials)
            c.check(f"{label}: p={result.p_value:.2e} <= 1e-3", result.p_value > 1e-3)

        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        for label, copies, seed in [("c6 [4 4 4]", (4, 4, 4), 109), ("c6 [5 3 3]", (5, 3, 3), 110)]:
            witness = QuadraticWitness(3)
            empirical = simulate_mixture_witness(prior, (1, 1, 1), copies, witness, trials, seed)
            exact = mixture_witness_pmf(prior, (1, 1, 1), copies, witness)
            result = chi_square_compare(empirical, exact, trials)
            c.check(f"{label}: p={result.p_value:.2e} <= 1e-3", result.p_value > 1e-3)

        controls = [
            ("negative control linear", lin2, [-0.75, 0.75], [-0.5, 0.5], 111),
            ("negative control quadratic", quad2, [0.75, -0.75], [0.5, -0.5], 112),
        ]
        for label, witness, true_t, wrong_t, seed in controls:
            config = SimulationConfig(true_t, [10, 10], trials, seed)
            empirical = simulate_witness(config, witness)
            mistaken = witness_pmf(settings(wrong_t, [10, 10]), witness)
            result = chi_square_compare(empirical, mistaken, trials)
            c.check(f"{label}: p={result.p_value:.2e} >= 1e-6", result.p_value < 1e-6)


def test_criterion_12_neyman_pearson_dominance(generalised_evaluator):
    with Criterion(12, "randomized test dominates deterministic subsets") as c:
        scenarios = []

        plan444 = generalised_evaluator.plan_for((4, 4, 4), "frequentist")
        ent444 = generalised_evaluator.evaluate((4, 4, 4)).ent_pmf
        scenarios.append(("[4 4 4] worst case", plan444.worst_case.dist, ent444))

        plan533 = generalised_evaluator.plan_for((5, 3, 3), "frequentist")
        ent533 = generalised_evaluator.evaluate((5, 3, 3)).ent_pmf
        scenarios.append(("[5 3 3] worst case", plan533.worst_case.dist, ent533))

        quad2 = QuadraticWitness(2)
        sep2 = witness_pmf(settings([0.5**0.5] * 2, [10, 10]), quad2)
        rho2 = witness_pmf(settings([0.75, -0.75], [10, 10]), quad2)
        scenarios.append(("quadratic M=2 n=10", sep2, rho2))

        for label, sep, ent in scenarios:
            size = len(sep.outcomes)
            c.check(f"{label}: grid size {size} > 20", size <= 20)
            sep_vec = np.array(sep.probabilities)
            ent_vec = np.array(ent.probabilities)
            for alpha in (0.05, 0.30):
                acc = neyman_pearson_test(alpha, sep, ent)
                np_power = acc.weighted_mass(ent)
                c.check(
                    f"{label} alpha={alpha}: sep mass off",
                    abs(acc.weighted_mass(sep) - alpha) <= 1e-12,
                )
                indices = np.arange(2**size, dtype=np.int64)
                worst_gap = 0.0
                for start in range(0, 2**size, 1 << 16):
                    chunk = indices[start : start + (1 << 16)]
                    masks = ((chunk[:, None] >> np.arange(size)) & 1).astype(np.float64)
                    sep_masses = masks @ sep_vec
                    ent_masses = masks @ ent_vec
                    feasible = sep_masses <= alpha
                    if feasible.any():
                        worst_gap = max(worst_gap, float(ent_masses[feasible].max()) - np_power)
                c.check(
                    f"{label} alpha={alpha}: deterministic subset beats NP by {worst_gap:.2e}",
                    worst_gap <= 1e-12,
                )

        # The [4 4 4] randomized test at the scenario budget must reach at
        # least the best deterministic power; frozen value for regression.
        acc = neyman_pearson_test(0.30, plan444.worst_case.dist, ent444)
        np_power = acc.weighted_mass(ent444)
        c.check("[4 4 4] alpha=0.30 power < 0.664", np_power >= 0.664 - 1e-9)
