"""Witness outcome distributions: paper examples, moments, brute force."""

import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from entcert.errors import DomainError, InfeasibleError
from entcert.finite_stats import CorrelationSetting
from entcert.pmf import OutcomePmf
from entcert.states import TruncatedGaussianPrior, mixture_witness_pmf
from entcert.witnesses import (
    LinearWitness,
    QuadraticWitness,
    WitnessGrid,
    _binomial_weights,
    correlation_pmf,
    squared_correlation_pmf,
    witness_grid,
    witness_moments,
    witness_pmf,
)
from entcert.worst_case import FEASIBILITY_TOLERANCE, POLISH, WorstCaseProblem
from oracles import reference_value_and_grad, setting_grid
from sampling import sample_separable

F = Fraction
PP = 1.5e-3  # percentage-point tolerance on reported probabilities


def settings(correlations, copies):
    return [CorrelationSetting(t, n) for t, n in zip(correlations, copies)]


class TestLinearExamples:
    """The two-setting, ten-copy scenario the whole analysis starts from."""

    W = LinearWitness([1, -1], 1)

    def test_boundary_violation_probability(self):
        pmf = witness_pmf(settings([-0.75, 0.75], [10, 10]), self.W)
        assert pmf.mass_below(F(-4, 5)) == pytest.approx(0.267, abs=PP)

    def test_separable_violation_at_strict_bound(self):
        pmf = witness_pmf(settings([-0.5, 0.5], [10, 10]), self.W)
        assert pmf.mass_below(F(-4, 5)) == pytest.approx(0.025, abs=PP)

    def test_separable_negative_value_probability(self):
        pmf = witness_pmf(settings([-0.5, 0.5], [10, 10]), self.W)
        assert pmf.mass_below(0, inclusive=False) == pytest.approx(0.415, abs=PP)


class TestQuadraticExamples:
    def test_maximal_value_probabilities(self):
        ent = witness_pmf(settings([0.75, -0.75], [10, 10]), QuadraticWitness(2))
        assert ent.probability(2) == pytest.approx(0.069, abs=PP)
        sep = witness_pmf(settings([0.5**0.5, 0.5**0.5], [10, 10]), QuadraticWitness(2))
        assert sep.probability(2) == pytest.approx(0.042, abs=PP)

    def test_single_setting_single_copy(self):
        pmf = witness_pmf(settings([1.0], [1]), QuadraticWitness(1))
        assert pmf.outcomes == (F(1),)
        assert pmf.probabilities == (1.0,)


class TestMoments:
    def test_quadratic_equal_copies_closed_form(self):
        sts = settings([0.75, -0.75], [10, 10])
        mean, variance = witness_moments(sts, QuadraticWitness(2))
        # ((n - 1) * S_ideal + M) / n with S_ideal = 9/8
        assert mean == pytest.approx((9 * 9 / 8 + 2) / 10, abs=1e-15)
        pmf = witness_pmf(sts, QuadraticWitness(2))
        assert pmf.mean() == pytest.approx(mean, abs=1e-12)
        assert pmf.variance() == pytest.approx(variance, abs=1e-12)

    def test_zero_coefficients_give_constant(self):
        w = LinearWitness([0, 0], F(5, 2))
        sts = settings([0.3, -0.8], [4, 6])
        assert witness_moments(sts, w) == pytest.approx((2.5, 0.0))
        pmf = witness_pmf(sts, w)
        assert pmf.outcomes == (F(5, 2),)

    def test_perfect_correlations_have_no_variance(self):
        sts = settings([1, -1, 1, -1, 1], [4] * 5)
        mean, variance = witness_moments(sts, QuadraticWitness(5))
        assert mean == pytest.approx(5.0)
        assert variance == pytest.approx(0.0)

    def test_closed_forms_match_pmf_moments(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            m = int(rng.integers(1, 4))
            sts = settings(rng.uniform(-1, 1, m), rng.integers(1, 9, m))
            coeffs = [F(int(v), int(d)) for v, d in zip(rng.integers(-3, 4, m), rng.integers(1, 4, m))]
            const = F(int(rng.integers(-2, 3)))
            w = LinearWitness(coeffs, const)
            mean, variance = witness_moments(sts, w)
            pmf = witness_pmf(sts, w)
            assert pmf.mean() == pytest.approx(mean, abs=1e-12)
            assert pmf.variance() == pytest.approx(variance, abs=1e-12)
            q_mean, q_var = witness_moments(sts, QuadraticWitness(m))
            q_pmf = witness_pmf(sts, QuadraticWitness(m))
            assert q_pmf.mean() == pytest.approx(q_mean, abs=1e-12)
            assert q_pmf.variance() == pytest.approx(q_var, abs=1e-12)


class TestSupportBounds:
    def test_linear_support_inside_coefficient_range(self):
        w = LinearWitness([F(1, 2), -2], 1)
        pmf = witness_pmf(settings([0.2, 0.9], [5, 3]), w)
        low, high = 1 - F(5, 2), 1 + F(5, 2)
        assert all(low <= o <= high for o in pmf.outcomes)

    def test_quadratic_support_inside_zero_to_m(self):
        pmf = witness_pmf(settings([0.3, -0.4, 0.5], [3, 4, 5]), QuadraticWitness(3))
        assert all(0 <= o <= 3 for o in pmf.outcomes)


class TestOneSettingPmfs:
    """``correlation_pmf`` and ``squared_correlation_pmf`` are the engine's
    one-setting pmfs, bit for bit, on both binomial paths."""

    CASES = settings(np.random.default_rng(60).uniform(-1, 1, 62), [*range(1, 61), 2000, 5000])

    @pytest.mark.parametrize(
        "single,witness",
        [(correlation_pmf, LinearWitness([1])), (squared_correlation_pmf, QuadraticWitness(1))],
    )
    def test_equal_the_engine_exactly(self, single, witness):
        for setting in self.CASES:
            pmf = single(setting)
            reference = witness_pmf([setting], witness)
            assert pmf.outcomes == reference.outcomes
            assert pmf.probabilities == reference.probabilities

    def test_package_exports_them(self):
        import entcert

        assert entcert.correlation_pmf is correlation_pmf
        assert entcert.squared_correlation_pmf is squared_correlation_pmf


def brute_force_pmf(sts, witness):
    """Exhaustive enumeration over all per-setting outcome tuples."""
    if isinstance(witness, QuadraticWitness):
        grids = [list(setting_grid(s, square=True).items()) for s in sts]
        evaluate = lambda values: sum(values, F(0))
    else:
        grids = [list(setting_grid(s).items()) for s in sts]
        evaluate = lambda values: sum(
            (c * v for c, v in zip(witness.coefficients, values)), witness.constant
        )
    acc = {}
    for combo in itertools.product(*grids):
        value = evaluate([v for v, _ in combo])
        prob = 1.0
        for _, p in combo:
            prob *= p
        acc[value] = acc.get(value, 0.0) + prob
    return acc


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_small_allocations_exhaustively(self, m):
        rng = np.random.default_rng(100 + m)
        for copies in itertools.product(range(1, 5), repeat=m):
            sts = settings(rng.uniform(-1, 1, m), copies)
            for witness in [QuadraticWitness(m), LinearWitness([1] + [-1] * (m - 1), 1)]:
                exact = witness_pmf(sts, witness)
                oracle = brute_force_pmf(sts, witness)
                assert set(exact.outcomes) == set(oracle)
                for outcome, prob in oracle.items():
                    assert abs(exact.probability(outcome) - prob) < 1e-14

    def test_permuting_quadratic_settings_is_invariant(self):
        rng = np.random.default_rng(9)
        sts = settings(rng.uniform(-1, 1, 3), [5, 3, 2])
        base = witness_pmf(sts, QuadraticWitness(3))
        for perm in itertools.permutations(sts):
            other = witness_pmf(list(perm), QuadraticWitness(3))
            assert other.outcomes == base.outcomes
            assert other.probabilities == pytest.approx(base.probabilities, abs=1e-15)


@st.composite
def witness_batches(draw, margin=0.0, max_settings=4, max_denominator=6, max_rows=3):
    """A random small witness, its copy counts and 1 to ``max_rows``
    correlation vectors at least ``margin`` inside [-1, 1]."""
    m = draw(st.integers(1, max_settings))
    copies = draw(st.lists(st.integers(1, 6), min_size=m, max_size=m))
    if draw(st.booleans()):
        witness = QuadraticWitness(m)
    else:
        rationals = st.fractions(min_value=-3, max_value=3, max_denominator=max_denominator)
        witness = LinearWitness(draw(st.lists(rationals, min_size=m, max_size=m)), draw(rationals))
    correlation = st.floats(-1.0 + margin, 1.0 - margin, allow_nan=False)
    rows = draw(st.lists(st.lists(correlation, min_size=m, max_size=m), min_size=1, max_size=max_rows))
    return witness, copies, rows


def same_bits(a, b) -> bool:
    """Equal arrays down to the sign of every zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGridEngine:
    @hypothesis_settings(max_examples=80, deadline=None)
    @given(witness_batches())
    def test_pmf_batch_matches_enumeration(self, case):
        witness, copies, rows = case
        grid = WitnessGrid(witness, copies)
        batch = grid.pmf_batch(rows)
        assert batch.shape == (len(rows), len(grid.outcomes))
        for row, masses in zip(rows, batch):
            oracle = brute_force_pmf(settings(row, copies), witness)
            assert grid.outcomes == tuple(sorted(oracle))
            expected = [oracle[o] for o in grid.outcomes]
            assert masses.tolist() == pytest.approx(expected, abs=1e-14)
            single = grid.pmf_batch([row])[0]
            assert single.tolist() == pytest.approx(masses.tolist(), abs=1e-15)

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(witness_batches(margin=1e-3), st.integers(0, 2**32 - 1))
    def test_value_and_grad_match_expectation_and_differences(self, case, seed):
        # Rows 1e-3 inside the box keep the central differences in [-1, 1].
        witness, copies, rows = case
        grid = WitnessGrid(witness, copies)
        t = np.array(rows)
        weights = np.random.default_rng(seed).uniform(-1.0, 2.0, (len(t), len(grid.outcomes)))
        values, grads = grid.value_and_grad(weights, t)
        assert values.shape == (len(t),) and grads.shape == t.shape
        h = 1e-6
        for w, row, value, grad in zip(weights, t, values, grads):

            def objective(point):
                return grid.pmf_batch([point])[0] @ w

            assert abs(value - objective(row)) <= 1e-14
            central = [(objective(row + e) - objective(row - e)) / (2 * h) for e in h * np.eye(len(row))]
            assert np.max(np.abs(grad - central)) <= 1e-7

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(witness_batches(), st.integers(0, 2**32 - 1))
    @example((LinearWitness([1, -1, -1, -1, -1], 1), [4] * 5, [[-1.0, 1.0, 0.2, 0.2, 0.2]]), 0)
    @example((QuadraticWitness(3), [4, 1, 6], [[1.0, 0.0, -1.0], [0.5, 0.5, 0.5]]), 1)
    def test_value_and_grad_equal_the_reference_bit_for_bit(self, case, seed):
        witness, copies, rows = case
        grid = WitnessGrid(witness, copies)
        weights = np.random.default_rng(seed).uniform(-1.0, 2.0, (len(rows), len(grid.outcomes)))
        values, grads = grid.value_and_grad(weights, rows)
        expected_values, expected_grads = reference_value_and_grad(grid, weights, rows)
        assert same_bits(values, expected_values)
        assert same_bits(grads, expected_grads)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(witness_batches(max_rows=6), st.integers(0, 2**32 - 1))
    def test_every_row_is_computed_alone_bit_for_bit(self, case, seed):
        # The grid keeps its bincount indices between calls, so calls with
        # more rows, then fewer, must still give each row what a fresh grid
        # gives it alone.
        witness, copies, rows = case
        t = np.array(rows)
        size = len(WitnessGrid(witness, copies).outcomes)
        weights = np.random.default_rng(seed).uniform(-1.0, 2.0, (len(t), size))
        alone = []
        for i in range(len(t)):
            fresh = WitnessGrid(witness, copies)
            alone.append((fresh.pmf_batch(t[i : i + 1]), *fresh.value_and_grad(weights[i : i + 1], t[i : i + 1])))
        grid = WitnessGrid(witness, copies)
        for order in ([0], list(range(len(t))) * 2, list(range(len(t)))[::-1], [len(t) - 1]):
            masses = grid.pmf_batch(t[order])
            values, grads = grid.value_and_grad(weights[order], t[order])
            for r, i in enumerate(order):
                pmf, value, grad = alone[i]
                assert same_bits(masses[r], pmf[0])
                assert same_bits(values[r], value[0])
                assert same_bits(grads[r], grad[0])

    @pytest.mark.parametrize(
        "witness,copies", [(QuadraticWitness(2), (4, 1)), (LinearWitness([1, -1, 2], 1), (3, 2, 5))]
    )
    def test_gradient_at_the_box_corners(self, witness, copies):
        # At t = +-1 the binomial derivative table has 0 * q**-1 terms,
        # which must give 0, not NaN or a division warning.
        grid = WitnessGrid(witness, copies)
        corners = np.array([[1.0] * len(copies), [-1.0] * len(copies), [1.0, -1.0] + [0.5] * (len(copies) - 2)])
        weights = np.linspace(-1.0, 2.0, len(grid.outcomes))
        _, grads = grid.value_and_grad(np.tile(weights, (3, 1)), corners)
        def objective(row):
            return grid.pmf_batch([row])[0] @ weights

        h = 1e-7
        for row, grad in zip(corners, grads):
            inward = -np.sign(row) * h * np.eye(len(row))
            one_sided = [(objective(row + e) - objective(row)) / e.sum() for e in inward]
            assert np.all(np.isfinite(grad))
            assert np.max(np.abs(grad - one_sided)) <= 1e-4

    @pytest.mark.parametrize("n", [*range(1, 13), 1000])
    def test_comb_table_matches_math_comb(self, n):
        grid = WitnessGrid(LinearWitness([1, 1]), (n, 3))
        expected = [float(math.comb(n, k)) for k in range(n + 1)] + [0.0] * max(0, 3 - n)
        assert grid.comb_table[0].tolist() == expected
        assert grid.comb_table[1, :4].tolist() == [1.0, 3.0, 3.0, 1.0]

    def test_gradients_need_direct_binomials(self):
        grid = WitnessGrid(LinearWitness([1]), (1001,))
        with pytest.raises(DomainError):
            grid.value_and_grad(np.ones((1, len(grid.outcomes))), [[0.0]])

    @pytest.mark.parametrize("witness", [LinearWitness([1] + [-1] * 35, 1), QuadraticWitness(36)])
    def test_many_single_copy_settings(self, witness):
        # 36 settings x 1 copy span 2**36 outcome combinations.
        sts = settings([0.5, -0.5] * 18, [1] * 36)
        pmf = witness_pmf(sts, witness)
        mean, variance = witness_moments(sts, witness)
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(mean, abs=1e-12)
        assert pmf.variance() == pytest.approx(variance, abs=1e-12)

    def test_log_space_binomial_beyond_direct_limit(self):
        setting = CorrelationSetting(0.3, 2000)
        pmf = witness_pmf([setting], LinearWitness([1]))
        assert pmf.outcomes == tuple(F(2 * k - 2000, 2000) for k in range(2001))
        assert pmf.probabilities == pytest.approx(_binomial_weights(2000, 0.65), abs=1e-15)

    @pytest.mark.parametrize("witness", [LinearWitness([1]), QuadraticWitness(1)])
    def test_five_thousand_copies_keep_unit_mass(self, witness):
        sts = settings([0.3], [5000])
        pmf = witness_pmf(sts, witness)
        mean, variance = witness_moments(sts, witness)
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert pmf.mean() == pytest.approx(mean, abs=1e-12)
        assert pmf.variance() == pytest.approx(variance, abs=1e-12)


class TestEnginePmfs:
    """A pmf of the grid engine shares its grid's outcomes, which the grid
    builds once, on their first read."""

    @hypothesis_settings(max_examples=120, deadline=None)
    @given(witness_batches(max_settings=3, max_denominator=997))
    @example((LinearWitness([F(1, 997), F(-2, 991), F(5, 983)], F(1, 977)), [5, 4, 3], [[0.3, -0.6, 0.45]]))
    def test_equals_the_pmf_built_from_fractions(self, case):
        # Three settings keep the common denominator of 997ths within int64.
        witness, copies, rows = case
        grid = WitnessGrid(witness, copies)
        for row in rows:
            engine = grid.pmf(row)
            # The engine's moments come first, before any Fraction exists.
            mean, variance = engine.mean(), engine.variance()
            public = OutcomePmf(grid.outcomes, engine.probabilities)
            assert engine == public and public == engine
            assert engine.outcomes == public.outcomes
            assert hash(engine) == hash(public)
            assert mean.hex() == public.mean().hex()
            assert variance.hex() == public.variance().hex()

    @pytest.mark.parametrize(
        "make",
        [
            lambda witness: witness_pmf(settings([0.3, -0.6, 0.45], [3, 4, 5]), witness),
            lambda witness: mixture_witness_pmf(
                TruncatedGaussianPrior(0.8, 0.1, 0.2), (1, -1, 1), (3, 4, 5), witness, 0.05
            ),
        ],
        ids=["witness_pmf", "mixture"],
    )
    def test_moments_build_no_fraction(self, make, monkeypatch):
        witness = LinearWitness([F(1, 3), F(-2, 7), F(5, 11)], F(1, 5))
        built = []
        construct = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        pmf = make(witness)
        assert len(pmf.probabilities) == 120
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
        pmf.mean()
        pmf.variance()
        assert built == []
        # The spy does see the grid build its outcomes on their first read.
        assert pmf.outcomes[0] == F(-1009, 1155)
        assert len(built) >= 120

    def test_pmfs_of_one_grid_share_its_outcomes(self):
        grid = WitnessGrid(QuadraticWitness(3), (4, 3, 2))
        first, second = grid.pmf([0.1, 0.2, 0.3]), grid.pmf([0.5, -0.5, 0.9])
        assert first.outcomes is second.outcomes is grid.outcomes
        assert grid.as_pmf(first.probabilities).outcomes is grid.outcomes
        problem = WorstCaseProblem(LinearWitness([1, -1, 2], 1), (3, 2, 2))
        assert problem.pmf_at([0.0, 0.5, -0.5]).outcomes is problem.grid
        assert problem.maximize_point(problem.grid[0], POLISH).dist.outcomes is problem.grid

    def test_checks_its_probabilities(self):
        grid = WitnessGrid(LinearWitness([1, -1], 1), (2, 3))
        good = grid.pmf([0.2, 0.4]).probabilities
        assert grid.as_pmf(good).probabilities == good
        for bad in (good[:-1], good + (0.0,), (), tuple(0.9 * p for p in good)):
            with pytest.raises(DomainError):
                grid.as_pmf(bad)
        with pytest.raises(DomainError, match="negative probability"):
            grid.as_pmf((-0.25, 1.25) + (0.0,) * (len(good) - 2))


@st.composite
def separable_witnesses(draw, quadratic=True):
    """A random witness of 1-4 settings whose separable region is not empty;
    linear only unless ``quadratic``."""
    m = draw(st.integers(1, 4))
    if quadratic and draw(st.booleans()):
        return QuadraticWitness(m)
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=100)
    coefficients = draw(st.lists(rationals, min_size=m, max_size=m))
    constant = draw(rationals)
    assume(constant + sum(abs(c) for c in coefficients) >= 0)
    return LinearWitness(coefficients, constant)


#: Regions of tiny and of zero area: t2 >= 1 - t1/100, and the point (1, 1).
THIN = [LinearWitness([F(1, 100), 1], -1), LinearWitness([F(1, 100), 1], F(-101, 100))]

#: A single-point region, (1, -1, -1), and a row 2 ulps off it that the
#: half-space test once found short through numpy's one-row dot kernel
#: while every kink value, through gemv, rounded to 0; counting the
#: negative ones then gave piece -1, and the step divided 0 by 0.
CORNER = LinearWitness([F(1, 3), F(-2, 3), -1], -2)
NEAR_CORNER = [0.9999999999999997, -1.0, -1.0]


@st.composite
def single_point_regions(draw):
    """A linear witness with constant -sum |c_j|, whose region is one corner
    of the box where any coefficient is nonzero, and 1 to 6 rows near that
    corner or anywhere in [-2, 2]."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    coefficients = draw(st.lists(rationals, min_size=1, max_size=4))
    witness = LinearWitness(coefficients, -sum(abs(c) for c in coefficients))
    corner = [1.0 if c > 0 else -1.0 for c in coefficients]
    offset = st.one_of(st.floats(-1e-12, 1e-12), st.floats(-2.0, 2.0))
    row = st.lists(offset, min_size=len(corner), max_size=len(corner))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return witness, [[x + d for x, d in zip(corner, r)] for r in rows]


class TestSeparableRegion:
    """Each witness class's region methods, over random witnesses of both classes."""

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        separable_witnesses(),
        st.lists(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), min_size=1, max_size=8),
    )
    @example(THIN[0], [[-1.0, 0.5, 0.0, 0.0]])
    @example(THIN[1], [[-1.0, 0.5, 0.0, 0.0], [0.3, -0.7, 0.0, 0.0]])
    def test_methods_stay_in_the_region(self, witness, rows):
        points = np.array(rows)[:, : witness.num_settings]
        for t in points:
            assert witness.violation(witness.project_batch([t])[0]) <= FEASIBILITY_TOLERANCE

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        separable_witnesses(),
        st.lists(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @example(QuadraticWitness(2), [[2.0, 1.0, 0.0, 0.0]], 0)
    @example(THIN[0], [[-1.0, 0.5, 0.0, 0.0], [0.5, 0.9, 0.0, 0.0]], 0)
    def test_batch_projection_is_the_nearest_point(self, witness, rows, seed):
        points = np.array(rows)[:, : witness.num_settings]
        projected = witness.project_batch(points)
        rng = np.random.default_rng(seed)
        region = [sample_separable(witness, rng) for _ in range(20)]
        for t, p in zip(points, projected):
            assert witness.violation(p) <= FEASIBILITY_TOLERANCE
            # The nearest point of a convex region sees every other point of
            # it at an angle of at least 90 degrees from t.
            assert max(np.dot(t - p, z - p) for z in region) <= 1e-9

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(witness_batches(max_rows=6))
    @example((CORNER, [1, 3, 1], [NEAR_CORNER, [0.5, 0.5, 0.5]]))
    def test_every_row_is_projected_alone_bit_for_bit(self, case):
        witness, _, rows = case
        assume(isinstance(witness, QuadraticWitness) or not witness._empty_region)
        projected = witness.project_batch(rows)
        for row, batched in zip(rows, projected):
            assert same_bits(witness.project_batch([row])[0], batched)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(single_point_regions())
    @example((CORNER, [NEAR_CORNER]))
    def test_a_single_point_region_gives_no_nan(self, case):
        witness, rows = case
        projected = witness.project_batch(rows)
        assert not np.isnan(projected).any()
        for p in projected:
            assert witness.violation(p) <= FEASIBILITY_TOLERANCE

    def test_quadratic_projection_is_not_a_clip(self):
        # Clipping (2, 1) to the box first would give (1, 1) / sqrt(2).
        assert QuadraticWitness(2).project_batch([[2.0, 1.0]])[0] == pytest.approx(
            (2 / 5**0.5, 1 / 5**0.5), abs=1e-15
        )

    def test_projection_reaches_a_thin_region(self):
        # Regions of tiny and of zero area: the projection lands on their corner.
        assert THIN[0].project_batch([[-1.0, 0.5]])[0] == pytest.approx((0.0, 1.0), abs=1e-12)
        assert THIN[1].project_batch([[-1.0, 0.5]])[0] == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_region_emptiness_is_exact(self):
        empty = LinearWitness([F(1, 100), 1], F(-102, 100))
        with pytest.raises(InfeasibleError):
            empty.check_separable_region()
        with pytest.raises(InfeasibleError):
            empty.project_batch([[0.0, 0.0]])
        # The point (1, 1), although 1/2 + 1/3 - 5/6 is below 0 in floats.
        point = LinearWitness([F(1, 2), F(1, 3)], F(-5, 6))
        point.check_separable_region()
        assert point.project_batch([[0.0, 0.0]])[0] == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_an_empty_region_raises_at_its_first_short_row(self):
        # Construction and a batch without rows never ask.
        empty = LinearWitness([F(1, 100), 1], F(-102, 100))
        assert empty.project_batch(np.empty((0, 2))).shape == (0, 2)
        with pytest.raises(InfeasibleError):
            empty.project_batch([[1.0, 1.0]])


class TestLinearWitnessFloats:
    """``LinearWitness`` holds its float coefficients and region test from
    construction on; they are no fields of the dataclass."""

    ARGS = ((F(1, 2), -1, F(2, 3)), F(-1, 4))
    #: Rows inside the box, short of the half-space, and outside the box.
    POINTS = [[0.5, -0.5, 0.5], [-1.0, 1.0, -1.0], [2.0, -3.0, 0.25], [0.0, 0.0, 0.0]]

    def test_they_change_no_identity(self):
        witness = LinearWitness(*self.ARGS)
        before = (repr(witness), hash(witness), pickle.dumps(witness))
        projected = witness.project_batch(self.POINTS)
        assert (repr(witness), hash(witness), pickle.dumps(witness)) == before
        twin = LinearWitness(*self.ARGS)
        assert witness == twin and hash(witness) == hash(twin)
        assert repr(witness) == (
            "LinearWitness(coefficients=(Fraction(1, 2), Fraction(-1, 1), Fraction(2, 3)), "
            "constant=Fraction(-1, 4))"
        )
        assert [f.name for f in dataclasses.fields(witness)] == ["coefficients", "constant"]
        assert b"_floats" not in before[2] and b"_empty_region" not in before[2]
        copy = pickle.loads(pickle.dumps(witness))
        assert copy == witness and hash(copy) == hash(witness)
        assert same_bits(copy.project_batch(self.POINTS), projected)

    def test_they_are_read_only(self):
        for array in (LinearWitness(*self.ARGS)._floats[i] for i in (0, 2, 3)):
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_projection_does_no_fraction_arithmetic(self, monkeypatch):
        witness = LinearWitness(*self.ARGS)
        expected = witness.project_batch(self.POINTS)

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in project_batch")

        for name in (
            "__float__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__truediv__", "__abs__", "__neg__", "__lt__", "__le__", "__gt__", "__ge__",
        ):
            monkeypatch.setattr(Fraction, name, refuse)
        assert same_bits(witness.project_batch(self.POINTS), expected)
        witness.check_separable_region()


class TestValidation:
    @pytest.mark.parametrize("copies", [(2.5, 3), ("3", 3), (True, 3), (np.float64(3), 3), (0, 3), (None, 3)])
    def test_rejects_what_it_used_to_coerce(self, copies):
        # int() would truncate 2.5 copies to 2 and turn "3" and True into 3 and 1.
        with pytest.raises(DomainError):
            WitnessGrid(QuadraticWitness(2), copies)
        with pytest.raises(DomainError):
            WorstCaseProblem(QuadraticWitness(2), copies)

    def test_keeps_numpy_integers(self):
        grid = WitnessGrid(QuadraticWitness(2), (np.int64(3), np.uint8(2)))
        assert grid.copies == (3, 2)
        assert all(type(n) is int for n in grid.copies)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            witness_pmf(settings([0.5], [4]), LinearWitness([1, -1], 1))
        with pytest.raises(DomainError):
            witness_pmf(settings([0.5], [4]), QuadraticWitness(2))

    def test_witness_needs_a_setting(self):
        with pytest.raises(DomainError):
            LinearWitness([], 1)
        with pytest.raises(DomainError):
            QuadraticWitness(0)

    def test_refuses_grids_past_int64(self):
        # Six coefficients 3/p at two copies each: a 71-bit common
        # denominator, whose int64 grid would wrap without an error.
        primes = [997, 991, 983, 977, 967, 953]
        wide = LinearWitness([F(3, p) for p in primes], F(1, 971))
        with pytest.raises(DomainError):
            WitnessGrid(wide, (2,) * 6)
        with pytest.raises(DomainError):
            witness_pmf(settings([0.3] * 6, [2] * 6), wide)
        with pytest.raises(DomainError):
            WitnessGrid(QuadraticWitness(4), (997, 991, 983, 977))
        # Five of them need 55 bits and keep the closed-form moments.
        five = LinearWitness([F(3, p) for p in primes[:5]], F(1, 971))
        sts = settings([0.3] * 5, [2] * 5)
        mean, variance = five.moments(sts)
        pmf = witness_pmf(sts, five)
        assert pmf.mean() == pytest.approx(mean, rel=1e-12)
        assert pmf.variance() == pytest.approx(variance, rel=1e-12)

    def test_grid_is_independent_of_correlations(self):
        w = QuadraticWitness(2)
        grid = witness_grid([4, 6], w)
        pmf = witness_pmf(settings([0.9, -0.2], [4, 6]), w)
        assert pmf.outcomes == grid
