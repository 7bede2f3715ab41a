"""Monte Carlo oracle: determinism, convergence, chi-square machinery."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from entcert.errors import DomainError
from entcert.finite_stats import CorrelationSetting
from entcert.pmf import OutcomePmf
from entcert.simulate import (
    CHUNK_TRIALS,
    MAX_TRIALS,
    SimulationConfig,
    chi_square_compare,
    simulate_mixture_witness,
    simulate_witness,
)
from entcert.states import TruncatedGaussianPrior, mixture_witness_pmf
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf

F = Fraction


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimulationConfig([0.5], [4, 4], 100, 0)
        with pytest.raises(DomainError):
            SimulationConfig([0.5], [4], 0, 0)
        with pytest.raises(DomainError):
            SimulationConfig([1.5], [4], 100, 0)
        with pytest.raises(DomainError):
            SimulationConfig([0.5], [0], 100, 0)

    @pytest.mark.parametrize(
        "copies, trials, seed",
        [
            ([4], 2.5, 0),
            ([4], True, 0),
            ([3.7], 100, 0),
            ([True], 100, 0),
            ([4], 100, 1.5),
            ([4], 100, False),
            ([4], 100, -1),
            ([4], 100, 2**64),
            ([4], MAX_TRIALS + 1, 0),
        ],
    )
    def test_rejects_non_integral_or_out_of_range_values(self, copies, trials, seed):
        with pytest.raises(DomainError):
            SimulationConfig([0.5], copies, trials, seed)

    def test_keeps_numpy_integers_as_ints(self):
        cfg = SimulationConfig([0.5], [np.int64(4)], np.int64(100), np.uint64(3))
        assert (cfg.copies, cfg.trials, cfg.seed) == ((4,), 100, 3)
        assert all(type(v) is int for v in (cfg.copies[0], cfg.trials, cfg.seed))


class TestPerSettingLaw:
    # The simulator inverts the CDF of the outcome grid's own binomial
    # weights, which also give the exact pmfs, so the law of one setting is
    # checked against scipy.  One linear setting's grid lists k = 0..n in
    # order.  Tolerance as for ``finite_stats._binomial_weights``.
    @pytest.mark.parametrize("n", [1, 4, 20, 1000, 1001, 5000])
    @pytest.mark.parametrize("success", [0.0, 0.3, 0.5, 0.97, 1.0])
    def test_grid_weights_match_scipy(self, n, success):
        setting = CorrelationSetting(2.0 * success - 1.0, n)
        pmf = witness_pmf([setting], LinearWitness([1], 0))
        expected = binom.pmf(np.arange(n + 1), n, (1.0 + setting.correlation) / 2.0)
        np.testing.assert_allclose(pmf.probabilities, expected, rtol=1e-9, atol=1e-12)


class TestSimulation:
    def test_deterministic_witness_value(self):
        cfg = SimulationConfig([1.0, -1.0], [3, 3], 5000, seed=1)
        pmf = simulate_witness(cfg, QuadraticWitness(2))
        assert pmf.probability(2) == 1.0

    def test_bit_identical_reruns(self):
        cfg = SimulationConfig([-0.5, 0.5], [10, 10], 200_000, seed=99)
        w = LinearWitness([1, -1], 1)
        first = simulate_witness(cfg, w)
        second = simulate_witness(cfg, w)
        assert first.probabilities == second.probabilities

    def test_settings_count_must_match_the_witness(self):
        with pytest.raises(DomainError, match="witness expects 3 settings, got 2"):
            simulate_witness(SimulationConfig([0.5, 0.5], [4, 4], 100, seed=1), QuadraticWitness(3))

    def test_different_seeds_differ(self):
        w = LinearWitness([1, -1], 1)
        a = simulate_witness(SimulationConfig([-0.5, 0.5], [10, 10], 100_000, 1), w)
        b = simulate_witness(SimulationConfig([-0.5, 0.5], [10, 10], 100_000, 2), w)
        assert a.probabilities != b.probabilities

    def test_empirical_grid_matches_exact_grid(self):
        cfg = SimulationConfig([0.3, -0.8], [5, 3], 50_000, seed=5)
        w = QuadraticWitness(2)
        empirical = simulate_witness(cfg, w)
        exact = witness_pmf(
            [CorrelationSetting(0.3, 5), CorrelationSetting(-0.8, 3)], w
        )
        assert empirical.outcomes == exact.outcomes

    def test_mean_converges_within_standard_error(self):
        # The estimate's mean matches the ideal correlation within 4 sigma.
        trials = 500_000
        for t, n, seed in [(0.75, 10, 3), (0.5, 4, 4), (0.0, 2, 5)]:
            cfg = SimulationConfig([t], [n], trials, seed)
            pmf = simulate_witness(cfg, LinearWitness([1], 0))
            stderr = np.sqrt((1 - t * t) / (n * trials))
            assert abs(pmf.mean() - t) < 4 * max(stderr, 1e-12)

    @pytest.mark.parametrize("t, end", [(1.0, 1), (-1.0, -1)])
    def test_log_space_copy_count_at_perfect_correlation(self, t, end):
        # 1,500 copies take the log-space binomial weights.
        cfg = SimulationConfig([t], [1500], 10_000, seed=8)
        pmf = simulate_witness(cfg, LinearWitness([1], 0))
        assert pmf.probability(end) == 1.0

    def test_log_space_copy_count_matches_exact(self):
        cfg = SimulationConfig([0.3], [1500], 10**6, seed=9)
        w = LinearWitness([1], 0)
        empirical = simulate_witness(cfg, w)
        exact = witness_pmf([CorrelationSetting(0.3, 1500)], w)
        assert chi_square_compare(empirical, exact, cfg.trials).p_value > 1e-3

    def test_chunk_stable(self):
        # One trial past a chunk adds exactly one trial to the first chunk's
        # histogram: a chunk's draws depend only on the seed and its index.
        w = LinearWitness([1, 1], 0)

        def counts(trials):
            cfg = SimulationConfig([0.2, -0.6], [6, 3], trials, seed=12)
            return np.rint(np.array(simulate_witness(cfg, w).probabilities) * trials)

        added = counts(CHUNK_TRIALS + 1) - counts(CHUNK_TRIALS)
        assert added.min() == 0 and added.sum() == 1


class TestChiSquare:
    def test_exact_against_itself_is_zero(self):
        exact = witness_pmf([CorrelationSetting(0.75, 10)], LinearWitness([1], 0))
        result = chi_square_compare(exact, exact, 10**6)
        assert result.statistic == pytest.approx(0.0, abs=1e-18)
        assert result.p_value == pytest.approx(1.0)

    def test_seeded_simulation_passes(self):
        for t, n in [(0.75, 10), (0.5, 4), (0.0, 2)]:
            cfg = SimulationConfig([t], [n], 10**6, seed=20240818)
            w = LinearWitness([1], 0)
            empirical = simulate_witness(cfg, w)
            exact = witness_pmf([CorrelationSetting(t, n)], w)
            result = chi_square_compare(empirical, exact, cfg.trials)
            assert result.p_value > 1e-3

    def test_wrong_model_is_rejected(self):
        cfg = SimulationConfig([0.5], [10], 10**6, seed=7)
        w = LinearWitness([1], 0)
        empirical = simulate_witness(cfg, w)
        wrong = witness_pmf([CorrelationSetting(0.75, 10)], w)
        result = chi_square_compare(empirical, wrong, cfg.trials)
        assert result.p_value < 1e-6

    def test_degenerate_single_bin_flagged(self):
        cfg = SimulationConfig([1.0], [4], 1000, seed=2)
        w = QuadraticWitness(1)
        empirical = simulate_witness(cfg, w)
        exact = witness_pmf([CorrelationSetting(1.0, 4)], w)
        result = chi_square_compare(empirical, exact, 1000)
        assert result.degenerate
        assert result.p_value == 1.0

    def test_mismatched_grids_rejected(self):
        a = OutcomePmf((F(0), F(1)), (0.5, 0.5))
        b = OutcomePmf((F(0), F(2)), (0.5, 0.5))
        with pytest.raises(DomainError):
            chi_square_compare(a, b, 1000)


class TestMixtureSimulation:
    def test_matches_exact_mixture(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        witness = QuadraticWitness(3)
        empirical = simulate_mixture_witness(
            prior, (1, 1, 1), (4, 4, 4), witness, 10**6, seed=11
        )
        exact = mixture_witness_pmf(prior, (1, 1, 1), (4, 4, 4), witness)
        result = chi_square_compare(empirical, exact, 10**6)
        assert result.p_value > 1e-3

    def test_bit_identical_reruns_and_seeds_differ(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        witness = QuadraticWitness(3)

        def run(seed):
            return simulate_mixture_witness(
                prior, (1, -1, 1), (4, 3, 2), witness, 200_000, seed
            ).probabilities

        first = run(21)
        assert run(21) == first
        assert run(22) != first

    @pytest.mark.parametrize(
        "signs, copies, trials, seed",
        [
            ((1, 1, 1, 1), (4, 4, 4), 1000, 0),
            ((1, 1), (4, 4, 4), 1000, 0),
            ((1, 2, 1), (4, 4, 4), 1000, 0),  # success probability above 1
            ((1, 1, 1), (4, 3.5, 4), 1000, 0),
            ((1, 1, 1), (4, 4, 4), 0, 0),
            ((1, 1, 1), (4, 4, 4), 2.5, 0),
            ((1, 1, 1), (4, 4, 4), 1000, -1),
            ((1, 1, 1), (4, 4, 4), 1000, 1.5),
            ((1, 1, 1), (4, 4, 4), MAX_TRIALS + 1, 0),
        ],
    )
    def test_rejects_bad_inputs(self, signs, copies, trials, seed):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        with pytest.raises(DomainError):
            simulate_mixture_witness(prior, signs, copies, QuadraticWitness(3), trials, seed)
