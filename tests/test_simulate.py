"""Monte Carlo oracle: determinism, convergence, chi-square machinery."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.stats import binom

from entcert.errors import DomainError
from entcert.finite_stats import CorrelationSetting
from entcert.pmf import OutcomePmf
from entcert.simulate import (
    CHUNK_TRIALS,
    MAX_TRIALS,
    MIN_EXPECTED,
    SimulationConfig,
    _look_up,
    _tally,
    _thresholds,
    _value_guides,
    chi_square_compare,
    chi_square_groups,
    chi_square_sf,
    simulate_mixture_witness,
    simulate_witness,
)
from entcert.states import TruncatedGaussianPrior, mixture_witness_pmf
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf
from oracles import reference_tally

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

    @pytest.mark.parametrize("correlations, copies", [(None, [4]), (0.5, [4]), ([0.5], 4), ([0.5], None)])
    def test_rejects_non_sequences(self, correlations, copies):
        with pytest.raises(DomainError):
            SimulationConfig(correlations, copies, 100, 0)

    @pytest.mark.parametrize("correlation", ["a", "0.5", None, 0.5j, True, False, np.True_])
    def test_rejects_non_real_correlations(self, correlation):
        with pytest.raises(DomainError):
            SimulationConfig([correlation], [4], 100, 0)

    def test_keeps_real_correlations_as_floats(self):
        cfg = SimulationConfig([F(1, 2), np.float32(-0.25), 1], [4, 4, 4], 100, 0)
        assert cfg.correlations == (0.5, -0.25, 1.0)
        assert all(type(t) is float for t in cfg.correlations)

    def test_keeps_numpy_integers_as_ints(self):
        cfg = SimulationConfig([0.5], [np.int64(4)], np.int64(100), np.uint64(3))
        assert (cfg.copies, cfg.trials, cfg.seed) == ((4,), 100, 3)
        assert all(type(v) is int for v in (cfg.copies[0], cfg.trials, cfg.seed))


class TestPerSettingLaw:
    # The simulator inverts the CDF of the outcome grid's own binomial
    # weights, which also give the exact pmfs, so the law of one setting is
    # checked against scipy.  One linear setting's grid lists k = 0..n in
    # order.  Tolerance as for ``witnesses._binomial_weights``.
    @pytest.mark.parametrize("n", [1, 4, 20, 1000, 1001, 5000])
    @pytest.mark.parametrize("success", [0.0, 0.3, 0.5, 0.97, 1.0])
    def test_grid_weights_match_scipy(self, n, success):
        setting = CorrelationSetting(2.0 * success - 1.0, n)
        pmf = witness_pmf([setting], LinearWitness([1], 0))
        expected = binom.pmf(np.arange(n + 1), n, (1.0 + setting.correlation) / 2.0)
        np.testing.assert_allclose(pmf.probabilities, expected, rtol=1e-9, atol=1e-12)


@st.composite
def threshold_rows(draw):
    """A sorted row of 1 to 1,500 partial sums, a guide size and the draws
    to look up.  Entries are zeros, subnormals, exact guide bin edges,
    repeats and values within a few ulps of 1, and the last one lies below,
    at or above 1.  The draws include 0, 2^53 - 1, every bin edge and every
    threshold with their neighbours."""
    n = draw(st.integers(1, 1500))
    bits = draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))) + 1e-3
    kinds = rng.choice(5, size=n, p=mix / mix.sum())
    special = [
        rng.random(n),
        np.zeros(n),
        rng.integers(1, 2**20, n) * 2.0**-1074,
        rng.integers(0, 2**bits + 1, n) * 2.0**-bits,
        1.0 + rng.integers(-4, 5, n) * 2.0**-52,
    ]
    row = np.choose(kinds, special)
    repeats = rng.integers(0, n, (2, draw(st.integers(0, n))))
    row[repeats[0]] = row[repeats[1]]
    row = np.sort(row)
    last = draw(st.sampled_from([None, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 1.0 + 2.0**-50]))
    if last is not None:
        row = np.minimum(row, last)
        row[-1] = last
    edges = np.arange(1 << bits, dtype=np.int64) << (53 - bits)
    thresholds = _thresholds(row)
    draws = np.concatenate(
        [
            [0, 2**53 - 1],
            edges,
            edges - 1,
            thresholds - 1,
            thresholds,
            thresholds + 1,
            rng.integers(0, 2**53, 4096),
        ]
    )
    return row, bits, np.clip(draws, 0, 2**53 - 1)


class TestIntegerLookup:
    """The values come from integer thresholds and a value guide table, on
    the raw draws behind ``Generator.random``; both must give the value at
    the count that a binary search of the floating-point CDF row finds on
    the uniforms."""

    @pytest.mark.parametrize("chunk", [0, 3])
    def test_raw_draws_are_the_uniform_stream(self, chunk):
        # The premise of the integer lookup: after a multinomial on the same
        # generator, Philox's uniforms are its raw draws shifted right by 11,
        # times 2^-53, draw for draw, across odd sizes.
        base = np.random.Philox(key=20240818)
        uniform = np.random.Generator(base.jumped(chunk))
        raw = np.random.Generator(base.jumped(chunk))
        for rng in (uniform, raw):
            rng.multinomial(1001, [0.2, 0.3, 0.5])
        for size in (1001, 7, CHUNK_TRIALS):
            expected = uniform.random(size)
            draws = raw.bit_generator.random_raw(size) >> 11
            np.testing.assert_array_equal(draws * 2.0**-53, expected)

    @hypothesis_settings(max_examples=150, deadline=None)
    @given(threshold_rows())
    def test_guide_lookup_equals_the_float_search(self, case):
        row, bits, draws = case
        thresholds = _thresholds(row)[None]
        # Distinct values from one above the fallback marker to near 2^63.
        n = len(row)
        values = np.array([-(2**63 - 1) + k * ((2**64 - 2) // n) for k in range(n + 1)])
        guides = _value_guides(thresholds, values, bits)
        assert guides.shape == (1, 2**bits)
        # The lookup reads the top 53 of the 64 raw bits; the low 11 vary.
        low = np.arange(len(draws), dtype=np.uint64) * np.uint64(1031) % np.uint64(2048)
        raw = (draws.astype(np.uint64) << np.uint64(11)) | low
        out = np.empty(len(raw), dtype=np.int64)
        index = np.empty(len(raw), dtype=np.intp)
        _look_up(thresholds, values, guides, raw, out, index, None, [len(raw)])
        expected = values[np.searchsorted(row, draws * 2.0**-53, side="right")]
        np.testing.assert_array_equal(out, expected)


RATIONALS = [F(1, 2), F(-1), F(2, 3), F(-3, 4), F(5, 7), F(2)]


@st.composite
def tally_cases(draw):
    """Arguments of ``_tally``: 1 to 3 settings of 1 to 12 copies, a
    quadratic witness or a linear one with rational coefficients and a
    nonzero constant, 1 to 3,000 prior rows (zero weights included) with
    correlations that include -1, 0 and 1, and up to one trial past a
    chunk."""
    m = draw(st.integers(1, 3))
    copies = tuple(draw(st.lists(st.integers(1, 12), min_size=m, max_size=m)))
    if draw(st.booleans()):
        witness = QuadraticWitness(m)
    else:
        coefficients = draw(st.lists(st.sampled_from(RATIONALS), min_size=m, max_size=m))
        witness = LinearWitness(coefficients, draw(st.sampled_from(RATIONALS)))
    rows = draw(st.sampled_from([1, 1, 2, 7, 300, 3000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drawn = rng.uniform(-1.0, 1.0, (rows, m))
    ends = rng.choice([-1.0, 0.0, 1.0], (rows, m))
    correlations = np.where(rng.random((rows, m)) < 0.6, drawn, ends)
    weights = rng.random(rows) * (rng.random(rows) < 0.9)
    weights[0] += 0.01
    trials = draw(st.sampled_from([1, 2, 999, CHUNK_TRIALS, CHUNK_TRIALS + 1]))
    seed = draw(st.integers(0, 2**64 - 1))
    return witness, copies, trials, seed, correlations, weights / weights.sum()


class TestTallyReference:
    """``_tally`` looks every draw's witness value up directly; the oracle
    looks up its count, then the value.  Both read one Philox stream in one
    order, so their counts agree exactly."""

    @staticmethod
    def assert_matches(witness, copies, trials, seed, correlations, weights):
        args = (witness, copies, trials, seed, np.asarray(correlations, dtype=np.float64), weights)
        got, expected = _tally(*args), reference_tally(*args)
        assert got.outcomes == expected.outcomes
        assert got.probabilities == expected.probabilities

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(tally_cases())
    # Log space: 1,001 copies or more take ``_binomial_weights``.
    @example((LinearWitness([1], 0), (1100,), 5000, 9, [[0.3]], np.ones(1)))
    @example(
        (QuadraticWitness(2), (1001, 3), 999, 4, [[-0.2, 0.5], [0.7, 1.0]], np.array([0.4, 0.6]))
    )
    # One trial past a chunk, on a linear witness whose values are negative
    # and whose shift is nonzero.
    @example((LinearWitness([F(1, 2), -1, F(2, 3)], F(-1, 4)), (5, 3, 7), CHUNK_TRIALS + 1, 11,
              [[0.6, -0.3, 0.9]], np.ones(1)))
    def test_counts_equal_the_reference(self, case):
        self.assert_matches(*case)

    def test_one_guide_bin_per_row(self):
        # 2^15 + 1 rows leave every row's guide one bin, which holds every
        # threshold, so every draw falls back to the binary search.
        rows = 2**15 + 1
        correlations = np.linspace(-0.9, 0.9, rows)[:, None]
        weights = np.full(rows, 1 / rows)
        self.assert_matches(LinearWitness([F(3, 2)], F(1, 3)), (2,), 5000, 3, correlations, weights)

    @pytest.mark.parametrize(
        "witness, copies",
        [
            # Values +-(2^63 - 1): the lower is one above the fallback marker.
            (LinearWitness([2**63 - 1], 0), (1,)),
            # Totals down to -(2^63 - 4) and values of +-2^62 over 6.
            (LinearWitness([F(2**61, 3), F(-1, 2)], F(-1537228672809129299, 2)), (2, 1)),
        ],
    )
    def test_values_next_to_the_int64_bound(self, witness, copies):
        cfg = SimulationConfig([0.2] * len(copies), copies, 20_000, seed=5)
        got = simulate_witness(cfg, witness)
        correlations = np.array([cfg.correlations])
        expected = reference_tally(witness, copies, 20_000, 5, correlations, np.ones(1))
        assert got.probabilities == expected.probabilities
        assert min(got.probabilities) > 0.0


def histogram(pmf, trials) -> list[int]:
    counts = np.rint(np.array(pmf.probabilities) * trials).astype(np.int64)
    assert counts.sum() == trials
    return counts.tolist()


class TestPinnedHistograms:
    """Exact counts of seeded runs, drawn by the floating-point CDF search
    that the integer guide lookup replaced.  A change to the sampler that
    changes any draw fails here, where reruns of one version cannot see it."""

    @pytest.mark.parametrize(
        "witness, correlations, seed, expected",
        [
            # Criterion 11's two 5 x 4-copy runs, also the dist benchmark's.
            (
                LinearWitness([1, -1, -1, -1, -1], 1),
                [-0.75] + [0.75] * 4,
                105,
                [69375, 198281, 267600, 230187, 139508, 63973, 22749, 6497, 1508,
                 273, 40, 7, 2, 0, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                QuadraticWitness(5),
                [0.75] * 5,
                107,
                [2, 44, 424, 2121, 5033, 6176, 10604, 33599, 41372, 18082, 86181,
                 137175, 10313, 99315, 235704, 42447, 201968, 69440],
            ),
        ],
    )
    def test_criterion_11_runs(self, witness, correlations, seed, expected):
        cfg = SimulationConfig(correlations, [4] * 5, 10**6, seed)
        assert histogram(simulate_witness(cfg, witness), 10**6) == expected

    def test_log_space_run(self):
        # Outcomes 886 to 1069 of 1,501 (k agreeing products of 1,500); all
        # other counts are zero.
        expected = [
            1, 0, 0, 0, 0, 0, 1, 1, 1, 4, 1, 5, 3, 7, 6, 7, 11, 18, 11, 28, 26, 35, 20,
            37, 43, 71, 77, 88, 98, 138, 128, 142, 223, 242, 286, 289, 357, 426, 527,
            616, 622, 783, 840, 995, 1117, 1282, 1450, 1697, 1827, 2065, 2373, 2677,
            2985, 3324, 3689, 3976, 4304, 4657, 5221, 5814, 6194, 6770, 7334, 7874,
            8533, 9163, 10037, 10536, 11139, 11896, 12677, 13474, 14077, 14693, 15547,
            16096, 16645, 17343, 18072, 18689, 19231, 19520, 20002, 20194, 20888,
            21172, 21388, 21507, 21517, 21546, 21594, 21602, 21293, 21157, 20715,
            20684, 20136, 19703, 19287, 18847, 18018, 17774, 17068, 16191, 15697,
            14851, 14219, 13554, 12827, 12057, 11468, 10841, 10022, 9349, 8662, 7988,
            7430, 6916, 6248, 5780, 5270, 4664, 4359, 3999, 3641, 3190, 2882, 2488,
            2270, 2026, 1888, 1610, 1403, 1232, 1124, 921, 808, 721, 605, 529, 449,
            396, 367, 309, 254, 213, 155, 123, 123, 107, 80, 64, 62, 44, 39, 43, 29,
            23, 21, 14, 13, 11, 6, 4, 2, 5, 2, 3, 2, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 1,
        ]
        cfg = SimulationConfig([0.3], [1500], 10**6, seed=9)
        counts = histogram(simulate_witness(cfg, LinearWitness([1], 0)), 10**6)
        assert counts == [0] * 886 + expected + [0] * (1501 - 886 - len(expected))

    def test_mixture_run(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        pmf = simulate_mixture_witness(prior, (1, -1, 1), (4, 3, 2), QuadraticWitness(3), 200_000, 21)
        assert histogram(pmf, 200_000) == [
            970, 3902, 1711, 9458, 7625, 13476, 21342, 25947, 31903, 83666,
        ]


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


def test_refuses_a_grid_past_int64():
    wide = LinearWitness([F(3, p) for p in [997, 991, 983, 977, 967, 953]], F(1, 971))
    with pytest.raises(DomainError):
        simulate_witness(SimulationConfig([0.3] * 6, [2] * 6, 100, seed=1), wide)


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

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 3), min_size=2, max_size=40).filter(any),
        st.integers(1, 10**6),
        st.randoms(use_true_random=False),
    )
    def test_every_group_expects_at_least_min_expected(self, weights, trials, rng):
        # Zero-probability bins join a neighbour's group, never one of their own.
        grid = tuple(F(k) for k in range(len(weights)))
        exact = OutcomePmf(grid, tuple(w / sum(weights) for w in weights))
        drawn = [1.0 + rng.random() for _ in weights]
        empirical = OutcomePmf(grid, tuple(d / sum(drawn) for d in drawn))
        observed, expected = chi_square_groups(empirical, exact, trials)
        assert sum(expected) == pytest.approx(trials) and sum(observed) == pytest.approx(trials)
        if len(expected) > 1:
            assert min(expected) >= MIN_EXPECTED
        result = chi_square_compare(empirical, exact, trials)
        assert result.bins == len(expected) and math.isfinite(result.statistic)


class TestChiSquareTail:
    """``chi_square_sf`` at its ends and edges; ``test_imports.py`` checks it
    against scipy and a 30-digit reference across the whole tail."""

    @pytest.mark.parametrize("dof", [1, 2, 3, 17, 18, 999, 20_000])
    def test_ends(self, dof):
        assert chi_square_sf(0.0, dof) == 1.0
        assert chi_square_sf(-1.0, dof) == 1.0
        assert chi_square_sf(math.inf, dof) == 0.0

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_one_and_two_degrees_in_closed_form(self, x):
        assert chi_square_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert chi_square_sf(x, 2) == math.exp(-x / 2)

    @given(st.floats(min_value=0.0, allow_infinity=True), st.integers(1, 20_000))
    def test_is_a_probability(self, x, dof):
        assert 0.0 <= chi_square_sf(x, dof) <= 1.0

    @pytest.mark.parametrize("dof", [1, 2, 3, 30, 31, 999, 20_000])
    @pytest.mark.parametrize("x", [5e3, 1e5, 1e300, sys.float_info.max])
    def test_far_tail_is_zero_or_positive(self, dof, x):
        p = chi_square_sf(x, dof)
        assert p == 0.0 or p > 0.0

    def test_far_tail_underflows_to_zero(self):
        assert chi_square_sf(5e3, 3) == 0.0
        assert 0.0 < chi_square_sf(1.3e3, 3) < 1e-280

    def test_falls_with_the_statistic_and_rises_with_dof(self):
        # Up to rounding: a tail within 1e-16 of 1 may come out two ulps below it.
        slack = 2 * math.ulp(1.0)
        xs = [0.01 * k for k in range(1, 400)]
        for dof in [1, 2, 5, 40]:
            tails = [chi_square_sf(x, dof) for x in xs]
            assert all(a >= b - slack for a, b in zip(tails, tails[1:]))
        tails = [chi_square_sf(3.0, d) for d in range(1, 60)]
        assert all(a <= b + slack for a, b in zip(tails, tails[1:]))
        assert tails[0] < tails[5] < tails[10] < 1.0

    @pytest.mark.parametrize("dof", [0, -1, 2.5, True, "3"])
    def test_refuses_a_bad_dof(self, dof):
        with pytest.raises(DomainError):
            chi_square_sf(1.0, dof)

    def test_refuses_nan(self):
        with pytest.raises(DomainError):
            chi_square_sf(math.nan, 3)


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
