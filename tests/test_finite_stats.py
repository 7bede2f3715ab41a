"""Finite-sample correlation model: grids, binomial weights, moments."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from entcert.errors import DomainError
from entcert.finite_stats import (
    CorrelationSetting,
    correlation_moments,
    squared_correlation_moments,
)
from entcert.witnesses import _binomial_weights, correlation_pmf, squared_correlation_pmf

F = Fraction


class TestValidation:
    # Strings and bools are not correlations, though float() converts them.
    @pytest.mark.parametrize(
        "correlation", [-1.5, 1.0001, float("nan"), "0.5", True, None, np.True_, 0.5j]
    )
    def test_rejects_bad_correlation(self, correlation):
        with pytest.raises(DomainError):
            CorrelationSetting(correlation, 4)

    @pytest.mark.parametrize("copies", [0, -3, 2.5, True, "3", np.float64(3), None])
    def test_rejects_bad_copies(self, copies):
        with pytest.raises(DomainError):
            CorrelationSetting(0.5, copies)

    def test_keeps_numpy_numbers(self):
        setting = CorrelationSetting(np.float32(-0.25), np.int64(4))
        assert (setting.correlation, setting.copies) == (-0.25, 4)
        assert (type(setting.correlation), type(setting.copies)) == (float, int)


class TestCorrelationPmf:
    def test_perfect_correlation_is_point_mass(self):
        pmf = correlation_pmf(CorrelationSetting(1.0, 10))
        assert pmf.probability(1) == 1.0
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert len(pmf.outcomes) == 11  # zero-probability points kept

    def test_fair_two_copy_case(self):
        pmf = correlation_pmf(CorrelationSetting(0.0, 2))
        assert pmf.outcomes == (F(-1), F(0), F(1))
        assert pmf.probabilities == pytest.approx((0.25, 0.5, 0.25))

    def test_anticorrelated_floor_probability(self):
        # All ten products land on -1 with probability ((1 - T) / 2)^10.
        pmf = correlation_pmf(CorrelationSetting(-0.75, 10))
        assert pmf.probability(-1) == pytest.approx((7 / 8) ** 10, abs=1e-15)
        assert pmf.probability(-1) == pytest.approx(0.263076, abs=1e-6)

    def test_monte_carlo_oracle_floor_probability(self):
        # Independent check: sample one million sign products.
        rng = np.random.default_rng(20240817)
        trials = 10**6
        agree = rng.binomial(10, (1 - 0.75) / 2, size=trials)
        observed = np.mean(agree == 0)
        expected = (7 / 8) ** 10
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(observed - expected) < 4 * sigma

    def test_grid_is_reduced_rationals(self):
        pmf = correlation_pmf(CorrelationSetting(0.3, 10))
        assert pmf.outcomes[1] == F(-4, 5)
        assert all(o.denominator in (1, 5) for o in pmf.outcomes)

    @pytest.mark.parametrize("correlation", [0.3, -0.9, 0.999])
    def test_log_space_weights_keep_unit_mass(self, correlation):
        # 5,000 copies take the log-space path; unnormalised it summed to
        # 1 + 2e-12 at correlation 0.3 and failed the mass check.
        setting = CorrelationSetting(correlation, 5000)
        pmf = correlation_pmf(setting)
        mean, variance = correlation_moments(setting)
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(mean, abs=1e-12)
        assert pmf.variance() == pytest.approx(variance, abs=1e-12)


class TestBinomialWeights:
    # The exact pmfs and the simulator's CDFs rest on these weights above
    # 1,000 copies, so they need a reference of their own; the smaller n
    # run the same log-space path.  The tolerance covers lgamma's rounding
    # (relative error ~1e-11 at 5,000 copies).
    @pytest.mark.parametrize("n", [1, 4, 20, 1000, 1001, 5000])
    @pytest.mark.parametrize("success", [0.0, 0.3, 0.5, 0.97, 1.0])
    def test_match_scipy(self, n, success):
        expected = binom.pmf(np.arange(n + 1), n, success)
        np.testing.assert_allclose(_binomial_weights(n, success), expected, rtol=1e-9, atol=1e-12)


class TestMoments:
    @pytest.mark.parametrize(
        "correlation,copies,expected",
        [(1.0, 5, (1.0, 0.0)), (0.0, 4, (0.0, 0.25)), (0.75, 10, (0.75, 0.04375))],
    )
    def test_correlation_moments(self, correlation, copies, expected):
        assert correlation_moments(CorrelationSetting(correlation, copies)) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "correlation,copies,expected_mean,expected_var",
        [(1.0, 7, 1.0, 0.0), (0.0, 2, 0.5, 0.25), (0.75, 10, 0.60625, None)],
    )
    def test_squared_moments(self, correlation, copies, expected_mean, expected_var):
        mean, variance = squared_correlation_moments(CorrelationSetting(correlation, copies))
        assert mean == pytest.approx(expected_mean, abs=1e-12)
        if expected_var is not None:
            assert variance == pytest.approx(expected_var, abs=1e-12)

    def test_moments_match_pmf_everywhere(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            setting = CorrelationSetting(float(rng.uniform(-1, 1)), int(rng.integers(1, 51)))
            pmf = correlation_pmf(setting)
            mean, variance = correlation_moments(setting)
            assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
            assert pmf.mean() == pytest.approx(mean, abs=1e-12)
            assert pmf.variance() == pytest.approx(variance, abs=1e-12)
            sq = squared_correlation_pmf(setting)
            sq_mean, sq_var = squared_correlation_moments(setting)
            assert sq.mean() == pytest.approx(sq_mean, abs=1e-12)
            assert sq.variance() == pytest.approx(sq_var, abs=1e-12)


class TestSquaredPmf:
    def test_fair_fold(self):
        pmf = squared_correlation_pmf(CorrelationSetting(0.0, 2))
        assert pmf.outcomes == (F(0), F(1))
        assert pmf.probabilities == pytest.approx((0.5, 0.5))

    def test_extreme_value_fold(self):
        pmf = squared_correlation_pmf(CorrelationSetting(0.75, 10))
        expected = (7 / 8) ** 10 + (1 / 8) ** 10
        assert pmf.probability(1) == pytest.approx(expected, abs=1e-15)

    def test_symmetric_correlation_fold(self):
        t = 0.5**0.5
        pmf = squared_correlation_pmf(CorrelationSetting(t, 10))
        expected = ((1 + t) / 2) ** 10 + ((1 - t) / 2) ** 10
        assert pmf.probability(1) == pytest.approx(expected, abs=1e-15)
        assert pmf.probability(1) == pytest.approx(0.205261, abs=1e-6)

    def test_fold_matches_mirror_mass_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            setting = CorrelationSetting(float(rng.uniform(-1, 1)), int(rng.integers(1, 30)))
            base = correlation_pmf(setting)
            folded = squared_correlation_pmf(setting)
            n = setting.copies
            for k in range(n // 2, n + 1):
                tau = F(2 * k - n, n)
                expected = base.probability(tau)
                if tau != 0:
                    expected += base.probability(-tau)
                assert folded.probability(tau * tau) == expected

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = float(rng.uniform(-1, 1))
            n = int(rng.integers(1, 25))
            plus = correlation_pmf(CorrelationSetting(t, n))
            minus = correlation_pmf(CorrelationSetting(-t, n))
            assert tuple(-o for o in reversed(plus.outcomes)) == minus.outcomes
            assert plus.probabilities[::-1] == pytest.approx(minus.probabilities, abs=1e-15)
