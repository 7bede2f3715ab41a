"""Separability-constrained worst-case search."""

import functools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from entcert import worst_case
from entcert.acceptance import AcceptanceSet
from entcert.errors import DomainError, InfeasibleError
from entcert.finite_stats import CorrelationSetting
from entcert.pmf import OutcomePmf
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf
from entcert.worst_case import POLISH, SearchOptions, WorstCaseProblem
from oracles import setting_grid
from sampling import sample_separable

F = Fraction
OPTS = SearchOptions(restarts=12, seed=101)


def convolution_pmf(settings, witness):
    """Independent oracle: the ``OutcomePmf.convolve`` chain over per-setting pmfs."""
    if isinstance(witness, QuadraticWitness):
        grids = [setting_grid(s, square=True) for s in settings]
    else:
        shifts = [witness.constant] + [0] * (len(settings) - 1)
        grids = [
            setting_grid(s, scale=c, shift=b)
            for s, c, b in zip(settings, witness.coefficients, shifts)
        ]
    return functools.reduce(OutcomePmf.convolve, map(OutcomePmf.from_entries, grids))


def dense_quadratic_oracle(copies, accepted, resolution=1e-3):
    """Grid search over (T1, T2) on the separability disk (two settings)."""
    ts = np.arange(0.0, 1.0 + resolution / 2, resolution)
    n1, n2 = copies

    def top_mass(n, t):
        q = (1.0 + t) / 2.0
        return q**n + (1.0 - q) ** n

    best = -1.0
    arg = None
    t1_grid, t2_grid = np.meshgrid(ts, ts, indexing="ij")
    feasible = t1_grid**2 + t2_grid**2 <= 1.0
    total = np.zeros_like(t1_grid)
    # accepted outcomes on the two-setting grid are sums of squared values
    for v1 in sorted({F(2 * k - n1, n1) ** 2 for k in range(n1 + 1)}):
        for v2 in sorted({F(2 * k - n2, n2) ** 2 for k in range(n2 + 1)}):
            if v1 + v2 in accepted:
                total += _squared_mass(n1, v1, t1_grid) * _squared_mass(n2, v2, t2_grid)
    total[~feasible] = -1.0
    idx = np.unravel_index(np.argmax(total), total.shape)
    return float(total[idx]), (float(t1_grid[idx]), float(t2_grid[idx]))


def multistart_nelder_mead(problem, weights, restarts=12, seed=7):
    """Independent oracle: the best mass ``weights`` reaches over
    Nelder-Mead runs on the mass with an exterior quadratic penalty, from the
    analytic worst case where one applies and from ``restarts`` random
    feasible starts.  Each run's start and end count, projected onto the
    region.  A run's first simplex is scipy's, reflected into the box at
    both bounds, so that a start on a face can leave it."""
    witness = problem.witness
    def objective(t):
        return problem._engine.pmf_batch([t])[0] @ weights

    def penalized_negative(t):
        return -objective(t) + 1e4 * witness.violation(t) ** 2

    rng = np.random.default_rng(seed)
    starts = [sample_separable(witness, rng) for _ in range(restarts)]
    try:
        starts.insert(0, np.array(witness.analytic_worst_case()))
    except DomainError:
        pass
    best = -np.inf
    for start in starts:
        simplex = np.tile(start, (len(start) + 1, 1))
        diagonal = np.arange(len(start))
        simplex[diagonal + 1, diagonal] = np.where(start != 0.0, 1.05 * start, 0.00025)
        simplex = np.where(simplex > 1.0, 2.0 - simplex, simplex)
        simplex = np.where(simplex < witness.low, 2.0 * witness.low - simplex, simplex)
        run = minimize(
            penalized_negative,
            start,
            method="Nelder-Mead",
            bounds=[(witness.low, 1.0)] * len(start),
            options={
                "xatol": 1e-6,
                "fatol": 1e-12,
                "maxiter": 600,
                "maxfev": 2400,
                "initial_simplex": np.clip(simplex, witness.low, 1.0),
            },
        )
        for point in (start, run.x):
            best = max(best, objective(witness.project_batch([point])[0]))
    return best


def _squared_mass(n, value, t):
    q = (1.0 + t) / 2.0
    mass = np.zeros_like(t)
    for k in range(n + 1):
        if F(2 * k - n, n) ** 2 == value:
            from math import comb

            mass += comb(n, k) * q**k * (1.0 - q) ** (n - k)
    return mass


class TestAnalytic:
    def test_linear_pattern(self):
        assert LinearWitness([1, -1], 1).analytic_worst_case() == pytest.approx((-0.5, 0.5))
        assert LinearWitness([1, -1, -1, -1, -1], 1).analytic_worst_case() == pytest.approx(
            (-0.2, 0.2, 0.2, 0.2, 0.2)
        )

    def test_quadratic_pattern(self):
        assert QuadraticWitness(2).analytic_worst_case() == pytest.approx((0.5**0.5,) * 2)
        assert QuadraticWitness(1).analytic_worst_case() == pytest.approx((1.0,))

    def test_unsupported_shape_raises(self):
        with pytest.raises(DomainError):
            LinearWitness([2, -1], 1).analytic_worst_case()
        with pytest.raises(DomainError):
            LinearWitness([1, -1], 0).analytic_worst_case()


class TestRecovery:
    """The numeric search must land on the known analytic optima."""

    @pytest.mark.parametrize(
        "m,copies,bound",
        [(2, 10, F(-4, 5)), (3, 4, F(-3, 2)), (5, 4, F(-5, 2))],
    )
    def test_linear_threshold(self, m, copies, bound):
        witness = LinearWitness([1] + [-1] * (m - 1), 1)
        problem = WorstCaseProblem(witness, (copies,) * m)
        result = problem.maximize_set(AcceptanceSet.threshold(bound, "accept_low"), OPTS)
        analytic = witness.analytic_worst_case()
        reference = problem.pmf_at(analytic).mass_below(bound)
        assert result.objective >= reference - 1e-12
        assert abs(result.objective - reference) < 1e-3
        assert np.allclose(result.correlations, analytic, atol=1e-2)
        assert problem.witness.violation(result.correlations) <= 1e-9

    @pytest.mark.parametrize("m,copies,bound", [(2, 10, F(2)), (3, 4, F(9, 4)), (5, 4, F(4))])
    def test_quadratic_threshold(self, m, copies, bound):
        witness = QuadraticWitness(m)
        problem = WorstCaseProblem(witness, (copies,) * m)
        result = problem.maximize_set(AcceptanceSet.threshold(bound, "accept_high"), OPTS)
        analytic = witness.analytic_worst_case()
        reference = problem.pmf_at(analytic).mass_above(bound)
        assert result.objective >= reference - 1e-12
        assert abs(result.objective - reference) < 1e-3
        assert np.allclose(result.correlations, analytic, atol=1e-2)
        assert problem.witness.violation(result.correlations) <= 1e-9


class TestSetSearch:
    def test_generalised_frequentist_mass(self):
        problem = WorstCaseProblem(QuadraticWitness(3), (4, 4, 4))
        acc = AcceptanceSet.explicit([0, 1, F(9, 4), 3])
        result = problem.maximize_set(acc, OPTS)
        assert result.objective == pytest.approx(0.298, abs=5e-3)

    def test_two_setting_mass_matches_grid_oracle(self):
        result = WorstCaseProblem(QuadraticWitness(2), (10, 10)).maximize_set(
            AcceptanceSet.threshold(2, "accept_high"), OPTS
        )
        oracle_value, oracle_point = dense_quadratic_oracle((10, 10), {F(2)})
        assert result.objective == pytest.approx(oracle_value, abs=1e-4)
        assert result.objective == pytest.approx(0.042, abs=1.5e-3)
        assert np.allclose(sorted(result.correlations), sorted(oracle_point), atol=5e-3)

    def test_gamma_weighted_objective(self):
        problem = WorstCaseProblem(QuadraticWitness(2), (10, 10))
        hard = problem.maximize_set(AcceptanceSet.threshold(2, "accept_high"), OPTS)
        soft = problem.maximize_set(
            AcceptanceSet.threshold(2, "accept_high", gamma=0.5), OPTS
        )
        assert soft.objective == pytest.approx(0.5 * hard.objective, rel=1e-6)

    def test_objective_equals_dist_mass(self):
        problem = WorstCaseProblem(QuadraticWitness(3), (5, 3, 3))
        acc = AcceptanceSet.explicit([F(59, 25), 3])
        result = problem.maximize_set(acc, OPTS)
        assert result.objective == pytest.approx(acc.weighted_mass(result.dist), abs=1e-12)

    def test_search_leaves_the_lower_face(self):
        # A start on the face t1 = -1: clipping the first simplex there would
        # flatten it onto the face and leave the seed's 0.206998.  POLISH is
        # what the feasibility probes of the set search run.
        problem = WorstCaseProblem(LinearWitness([1, -1, -1], 1), (4, 3, 2))
        result = problem.maximize_set(
            AcceptanceSet.explicit([F(-1, 3)]), POLISH, seed_points=[(-1.0, 0.2258, -0.2258)]
        )
        assert result.objective >= 0.20735

    def test_no_start_rejected(self):
        # (2, -1) has no analytic worst case; without seeds or restarts
        # there is nothing to search from.
        problem = WorstCaseProblem(LinearWitness([2, -1], 1), (4, 4))
        acc = AcceptanceSet.threshold(0, "accept_low")
        with pytest.raises(DomainError):
            problem.maximize_set(acc, POLISH)
        assert problem.maximize_set(acc, POLISH, seed_points=[(0.0, 0.0)]).objective > 0.0

    @pytest.mark.parametrize(
        "witness,copies,acc,options,seed",
        [
            # 2 t1 - t2 + 1 >= 0 has no analytic start: the seed is the only one.
            (
                LinearWitness([2, -1], 1),
                (4, 4),
                AcceptanceSet.threshold(0, "accept_low"),
                POLISH,
                (-1.5, 0.8),
            ),
            (
                QuadraticWitness(2),
                (4, 3),
                AcceptanceSet.explicit([F(13, 36), 2]),
                SearchOptions(restarts=4, seed=5),
                (1.5, -0.5),
            ),
        ],
    )
    def test_seed_outside_the_region(self, witness, copies, acc, options, seed):
        # The ascent projects every start, so the search seeded outside the
        # region climbs as if seeded with the seed's projection.
        problem = WorstCaseProblem(witness, copies)
        assert witness.violation(seed) > 0.0
        outside = problem.maximize_set(acc, options, seed_points=[seed])
        assert witness.violation(outside.correlations) <= 1e-9
        image = witness.project_batch([seed])[0]
        inside = problem.maximize_set(acc, options, seed_points=[image])
        assert outside.objective == pytest.approx(inside.objective, abs=1e-12)

    def test_floor_is_the_ascent_value_of_the_analytic_start(self):
        # The 5-setting linear report's set {<= -5/2} from its analytic start
        # alone: a floor summed in another order than the ascent's values
        # can sit above every candidate.
        problem = WorstCaseProblem(LinearWitness([1, -1, -1, -1, -1], 1), (4,) * 5)
        acc = AcceptanceSet.threshold(F(-5, 2), "accept_low")
        result = problem.maximize_set(acc, POLISH)
        assert result.objective >= 0.0159611628 - 1e-9

    @pytest.mark.parametrize(
        "witness,copies,acc",
        [
            (QuadraticWitness(3), (5, 4, 4), AcceptanceSet.explicit([1, F(34, 25), F(9, 4), 3])),
            (LinearWitness([1, -1, -1], 1), (4, 3, 2), AcceptanceSet.threshold(-1, "accept_low")),
        ],
    )
    def test_independent_of_chunk_size(self, witness, copies, acc, monkeypatch):
        def run():
            result = WorstCaseProblem(witness, copies).maximize_set(acc, OPTS)
            return result.objective, result.correlations, result.converged, result.restarts_used

        reference = run()
        # One ascent row per engine call.
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 1)
        assert run() == reference

    @pytest.mark.parametrize(
        "witness,copies,acc,options",
        [
            (QuadraticWitness(3), (3, 2, 2), AcceptanceSet.explicit([F(1, 9), 3]), OPTS),
            (
                LinearWitness([1, -1], 1),
                (4, 3),
                AcceptanceSet.threshold(0, "accept_low"),
                SearchOptions(restarts=8),
            ),
        ],
    )
    def test_reports_the_best_candidate(self, witness, copies, acc, options, monkeypatch):
        # Both cases have restarts, so the screened start's row is a
        # candidate too.
        found = []
        search = WorstCaseProblem._search

        def spied(self, weights, groups, opts):
            (candidates,) = search(self, weights, groups, opts)
            found.extend(candidates)
            return [candidates]

        monkeypatch.setattr(WorstCaseProblem, "_search", spied)
        result = WorstCaseProblem(witness, copies).maximize_set(acc, options)
        best = max(value for value, _, _ in found)
        assert result.correlations == next(p for v, p, _ in found if v == best)
        assert result.objective == pytest.approx(best, abs=1e-14)

    @pytest.mark.parametrize(
        "witness,copies,outcomes,options,floor",
        [
            # Three random restarts end at 0.2703; the annealing walk that
            # once ran here reached 0.4722.
            (
                LinearWitness([-1, -1, 1, F(1, 2)], F(1, 2)),
                (3, 6, 3, 3),
                [-2, F(-5, 3), F(-4, 3), F(-2, 3), F(4, 3), F(8, 3), F(10, 3)],
                SearchOptions(restarts=3, seed=472),
                0.4722,
            ),
            # 0.25 from the restarts, 0.26171875 with the walk.
            (
                QuadraticWitness(4),
                (1, 2, 6, 4),
                [F(10, 9), F(5, 4), 2, F(31, 9)],
                SearchOptions(restarts=3, seed=374),
                0.2617,
            ),
        ]
        + [
            # All four starts of seed 1 climb to 0.444 at (-1, -1/3); (1, -1)
            # gives 1.
            (
                LinearWitness([1, -1], 1),
                (4, 3),
                [F(1, 3), F(1, 2), F(5, 6), 2, F(5, 2), 3],
                SearchOptions(restarts=4, seed=seed),
                1.0 - 1e-9,
            )
            for seed in range(8)
        ],
    )
    def test_few_restarts_reach_the_worst_case(self, witness, copies, outcomes, options, floor):
        result = WorstCaseProblem(witness, copies).maximize_set(AcceptanceSet.explicit(outcomes), options)
        assert result.objective >= floor
        assert result.restarts_used == options.restarts

    @pytest.mark.parametrize("restarts", [0, 1, 5])
    def test_screened_start_climbs_last(self, restarts, monkeypatch):
        groups = []
        search = WorstCaseProblem._search

        def spied(self, weights, starts, opts):
            groups.extend(starts)
            return search(self, weights, starts, opts)

        monkeypatch.setattr(WorstCaseProblem, "_search", spied)
        problem = WorstCaseProblem(QuadraticWitness(3), (4, 3, 2))
        acc = AcceptanceSet.explicit([F(1, 9), 3])
        seeds = [(0.1, 0.2, 0.3)]
        options = SearchOptions(restarts=restarts, seed=9)
        result = problem.maximize_set(acc, options, seed_points=seeds)
        (starts,) = groups
        analytic = [problem.witness.analytic_worst_case()]
        rng = np.random.default_rng(9)
        low = problem.witness.low
        box = rng.uniform(low, 1.0, (max(0, restarts - 2), 3))
        assert result.restarts_used == 2 + len(box)
        if not restarts:
            assert np.array_equal(np.array(starts), np.array(analytic + seeds))
            return
        assert np.array_equal(np.array(starts[:-1]), np.vstack([analytic, seeds, box]))
        screen = problem.witness.project_batch(rng.uniform(low, 1.0, (worst_case._SCREEN_POINTS, 3)))
        mass = problem._engine.pmf_batch(screen) @ problem.outcome_weights(acc)
        assert np.array_equal(starts[-1], screen[np.argmax(mass)])

    def test_screen_is_chunked_by_the_grid(self, monkeypatch):
        problem = WorstCaseProblem(QuadraticWitness(3), (5, 4, 4))
        acc = AcceptanceSet.explicit([1, F(34, 25), F(9, 4), 3])
        options = SearchOptions(restarts=3, seed=4)
        reference = problem.maximize_set(acc, options)
        calls = []
        pmf_batch = problem._engine.pmf_batch

        def counted(points):
            calls.append(len(points))
            return pmf_batch(points)

        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 5 * problem._engine.table_size)
        monkeypatch.setattr(problem._engine, "pmf_batch", counted)
        chunked = problem.maximize_set(acc, options)
        # 64 screen points 5 at a time, then the result's own evaluation.
        assert calls == [5] * 12 + [4, 1]
        assert (chunked.objective, chunked.correlations) == (reference.objective, reference.correlations)

    def test_acceptance_must_live_on_grid(self):
        problem = WorstCaseProblem(QuadraticWitness(2), (4, 4))
        with pytest.raises(DomainError):
            problem.maximize_set(AcceptanceSet.explicit([F(1, 3)]), OPTS)


class TestSearchOptions:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("restarts", -5),
            ("seed", -1),
            ("max_iterations", -1),
            ("xatol", 0.0),
            ("fatol", -1e-12),
            ("xatol", float("nan")),
        ],
    )
    def test_out_of_range_rejected(self, field, value):
        with pytest.raises(DomainError):
            SearchOptions(**{field: value})


class TestPointwise:
    def test_deterministic_single_point(self):
        result = WorstCaseProblem(QuadraticWitness(1), (2,)).maximize_point(1, OPTS)
        assert result.objective == pytest.approx(1.0, abs=1e-12)
        assert result.correlations == pytest.approx((1.0,), abs=1e-9)

    def test_two_setting_point_matches_grid_oracle(self):
        result = WorstCaseProblem(QuadraticWitness(2), (10, 10)).maximize_point(2, OPTS)
        oracle_value, _ = dense_quadratic_oracle((10, 10), {F(2)})
        assert result.objective == pytest.approx(oracle_value, abs=1e-4)

    def test_linear_point_matches_constrained_oracle(self):
        # E = tau1 - tau2 + 1 = -1 forces (tau1, tau2) = (-1, 1); on the
        # active constraint T2 = T1 + 1 the mass is ((1-t)(2+t)/4)^10,
        # maximized at t = -1/2.
        result = WorstCaseProblem(LinearWitness([1, -1], 1), (10, 10)).maximize_point(-1, OPTS)
        ts = np.arange(-1.0, 0.0 + 1e-9, 1e-3)
        oracle = np.max(((1 - ts) / 2) ** 10 * ((2 + ts) / 2) ** 10)
        assert result.objective == pytest.approx(float(oracle), abs=1e-6)
        assert result.objective == pytest.approx(0.5625**10, rel=1e-4)

    @pytest.mark.parametrize(
        "witness,copies",
        [(QuadraticWitness(3), (5, 4, 4)), (LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (3, 2, 2))],
    )
    def test_objective_is_the_dist_at_the_outcome(self, witness, copies):
        results = WorstCaseProblem(witness, copies).maximize_all_points(POLISH)
        for outcome, result in results.items():
            assert result.objective == result.dist.probability(outcome)

    def test_off_grid_outcome_rejected(self):
        with pytest.raises(DomainError):
            WorstCaseProblem(QuadraticWitness(2), (4, 4)).maximize_point(F(7, 13), OPTS)


class TestPolish:
    """One batched projected-gradient ascent polishes every outcome."""

    CASES = [
        (QuadraticWitness(3), (5, 4, 4)),
        (LinearWitness([1, -1, -1], 1), (4, 3, 2)),
        (LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (3, 2, 2)),
    ]

    @staticmethod
    def fields(result):
        return result.objective, result.correlations, result.converged, result.restarts_used

    @pytest.mark.parametrize("witness,copies", CASES)
    @pytest.mark.parametrize("rows_per_call", [None, 2])
    def test_single_outcome_matches_the_batch(self, witness, copies, rows_per_call, monkeypatch):
        problem = WorstCaseProblem(witness, copies)
        if rows_per_call is not None:
            # Two rows per engine call, each probing every setting.
            floats = rows_per_call * len(copies) * problem._engine.table_size
            monkeypatch.setattr(worst_case, "_SCAN_FLOATS", floats)
        batch = problem.maximize_all_points(POLISH)
        for outcome, result in batch.items():
            assert self.fields(problem.maximize_point(outcome, POLISH)) == self.fields(result)

    def test_leaves_the_saddle_of_the_symmetric_start(self):
        # From (-1/5, 1/5, 1/5, 1/5, 1/5) the ascent stays on the symmetric
        # line and stops at a stationary point of value 0.176; the scan
        # seeds reach the maximum.
        problem = WorstCaseProblem(LinearWitness([1, -1, -1, -1, -1], 1), (4,) * 5)
        result = problem.maximize_point(1, POLISH)
        assert result.objective >= 0.375 - 1e-9
        assert result.converged

    def test_makes_no_nelder_mead_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worst-case search ran Nelder-Mead")

        monkeypatch.setattr(worst_case, "minimize", refuse)
        problem = WorstCaseProblem(LinearWitness([1, -1], 1), (4, 3))
        problem.maximize_all_points(OPTS)
        problem.maximize_point(problem.grid[0], OPTS)
        walks = []
        anneal = WorstCaseProblem._anneal

        def counted(*args, **kwargs):
            walks.append(args)
            return anneal(*args, **kwargs)

        monkeypatch.setattr(WorstCaseProblem, "_anneal", counted)
        acc = AcceptanceSet.threshold(0, "accept_low")
        problem.maximize_set(acc, SearchOptions(restarts=8))
        assert walks == []
        problem.maximize_set(acc, POLISH, seed_points=[(0.0, 0.0)])

    def test_reports_the_best_candidate(self):
        # Every row reaches 0.1676336589; a tie tolerance of 1e-6 once
        # reported the smaller start point 9.2e-7 lower.
        problem = WorstCaseProblem(QuadraticWitness(3), (7, 3, 2))
        result = problem.maximize_point(F(107, 49), POLISH)
        assert result.objective >= 0.1676336589 - 1e-10

    def test_converged_means_the_chosen_row_stopped(self):
        # With no iterations only rows that start at a stationary point
        # stop, such as outcome -1's analytic start (-1/2, 1/2) at one copy
        # per setting.
        problem = WorstCaseProblem(QuadraticWitness(2), (4, 3))
        capped = problem.maximize_all_points(SearchOptions(max_iterations=0))
        assert not all(r.converged for r in capped.values())
        assert all(r.converged for r in problem.maximize_all_points(POLISH).values())
        single = WorstCaseProblem(LinearWitness([1, -1], 1), (1, 1))
        result = single.maximize_point(-1, SearchOptions(max_iterations=0))
        assert result.converged
        assert result.objective == pytest.approx(0.5625, abs=1e-15)


class TestInvariants:
    def test_pointwise_sum_dominates_interval_dominates_feasible(self):
        problem = WorstCaseProblem(QuadraticWitness(2), (4, 4))
        acc = AcceptanceSet.explicit([F(5, 4), 2])
        pointwise = problem.maximize_all_points(OPTS)
        interval = problem.maximize_set(acc, OPTS)
        pointwise_sum = sum(pointwise[o].objective for o in problem.grid if acc.accepts(o))
        assert pointwise_sum >= interval.objective - 1e-9
        rng = np.random.default_rng(77)
        for _ in range(100):
            point = sample_separable(problem.witness, rng)
            mass = acc.weighted_mass(problem.pmf_at(point))
            assert interval.objective >= mass - 1e-9

    def test_feasibility_of_returned_points(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = int(rng.integers(1, 4))
            copies = tuple(int(n) for n in rng.integers(1, 7, m))
            problem = WorstCaseProblem(QuadraticWitness(m), copies)
            outcome = problem.grid[int(rng.integers(0, len(problem.grid)))]
            result = problem.maximize_point(outcome, SearchOptions(restarts=4, seed=9))
            assert problem.witness.violation(result.correlations) <= 1e-9

    def test_determinism_under_fixed_seed(self):
        problem = WorstCaseProblem(QuadraticWitness(3), (4, 4, 4))
        acc = AcceptanceSet.explicit([F(9, 4), 3])
        first = problem.maximize_set(acc, OPTS)
        second = WorstCaseProblem(QuadraticWitness(3), (4, 4, 4)).maximize_set(acc, OPTS)
        assert first.correlations == second.correlations
        assert first.objective == second.objective
        assert first.restarts_used == second.restarts_used

    def test_grid_matches_convolution_grid(self):
        for witness, copies in [
            (QuadraticWitness(3), (5, 3, 3)),
            (LinearWitness([1, -1, -1], 1), (4, 3, 2)),
        ]:
            problem = WorstCaseProblem(witness, copies)
            zero = [CorrelationSetting(0.0, n) for n in copies]
            assert problem.grid == convolution_pmf(zero, witness).outcomes

    def test_pmf_at_matches_convolution(self):
        rng = np.random.default_rng(13)
        for witness, copies in [
            (QuadraticWitness(3), (5, 3, 3)),
            (LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (4, 3, 2)),
        ]:
            problem = WorstCaseProblem(witness, copies)
            for _ in range(5):
                point = sample_separable(problem.witness, rng)
                fast = problem.pmf_at(point)
                slow = convolution_pmf(
                    [CorrelationSetting(float(t), n) for t, n in zip(point, copies)], witness
                )
                assert fast.outcomes == slow.outcomes
                assert fast.probabilities == pytest.approx(slow.probabilities, abs=1e-12)


def one_hot(problem, outcome):
    return np.array([1.0 if o == outcome else 0.0 for o in problem.grid])


def dense_feasible_points(problem, step=1e-3):
    """Dense lattice of the feasible region plus its boundary (one or two settings)."""
    quadratic = isinstance(problem.witness, QuadraticWitness)
    axis = np.arange(0.0 if quadratic else -1.0, 1.0 + step / 2, step)
    lattice = np.stack(np.meshgrid(*[axis] * len(problem.copies), indexing="ij"), -1)
    lattice = lattice.reshape(-1, len(problem.copies))
    if quadratic:
        feasible = lattice[np.sum(lattice**2, axis=1) <= 1.0]
        if len(problem.copies) == 1:
            return np.vstack([feasible, [[1.0]]])
        angles = np.arange(0.0, np.pi / 2 + step / 2, step / 2)
        return np.vstack([feasible, np.stack([np.cos(angles), np.sin(angles)], axis=1)])
    coeffs = np.array([float(c) for c in problem.witness.coefficients])
    const = float(problem.witness.constant)
    feasible = lattice[lattice @ coeffs + const >= 0.0]
    if len(problem.copies) == 1:
        return np.vstack([feasible, [[-const / coeffs[0]]]])
    t2 = -(const + coeffs[0] * axis) / coeffs[1]
    line = np.stack([axis, t2], axis=1)[np.abs(t2) <= 1.0]
    return np.vstack([feasible, line])


class TestScan:
    """One scan of the feasible region seeds every pointwise polish."""

    SMALL = [
        (QuadraticWitness(1), (6,)),
        (QuadraticWitness(2), (4, 3)),
        (QuadraticWitness(3), (3, 2, 2)),
        (LinearWitness([1], F(-1, 3)), (5,)),
        (LinearWitness([1, -1], 1), (4, 3)),
        (LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (3, 2, 2)),
    ]

    @pytest.mark.parametrize("witness,copies", SMALL)
    def test_never_below_multistart_search(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        scanned = problem.maximize_all_points(OPTS)
        for outcome, result in scanned.items():
            reference = multistart_nelder_mead(problem, one_hot(problem, outcome))
            assert result.objective >= reference - 1e-6
            assert problem.witness.violation(result.correlations) <= 1e-9

    @pytest.mark.parametrize("witness,copies", SMALL)
    def test_set_search_never_below_multistart_search(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        grid = problem.grid
        rng = np.random.default_rng(len(grid))
        sets = [
            AcceptanceSet.threshold(grid[len(grid) // 3], "accept_low"),
            AcceptanceSet.threshold(grid[2 * len(grid) // 3], "accept_high"),
        ] + [
            AcceptanceSet.explicit(rng.choice(grid, max(1, len(grid) // 3), replace=False))
            for _ in range(2)
        ]
        for acc in sets:
            result = problem.maximize_set(acc, OPTS)
            reference = multistart_nelder_mead(problem, problem.outcome_weights(acc))
            assert result.objective >= reference - 1e-6
            assert problem.witness.violation(result.correlations) <= 1e-9

    @pytest.mark.parametrize("witness,copies", [c for c in SMALL if len(c[1]) <= 2])
    def test_never_below_dense_lattice(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        scanned = problem.maximize_all_points(OPTS)
        points = dense_feasible_points(problem)
        chunks = [points[i : i + 4096] for i in range(0, len(points), 4096)]
        dense = np.max([problem._engine.pmf_batch(c).max(axis=0) for c in chunks], axis=0)
        for outcome, value in zip(problem.grid, dense):
            assert scanned[outcome].objective >= value - 1e-6

    @pytest.mark.parametrize(
        "witness,copies",
        [
            (QuadraticWitness(3), (4, 4, 4)),
            (LinearWitness([1, -1, -1], 1), (4, 3, 2)),
            (LinearWitness([1, -1, -1, -1, -1], 1), (4,) * 5),
        ],
    )
    def test_independent_of_seed_options_and_chunk_size(self, witness, copies, monkeypatch):
        def run(options):
            results = WorstCaseProblem(witness, copies).maximize_all_points(options)
            return {o: (r.objective, r.correlations) for o, r in results.items()}

        reference = run(SearchOptions(restarts=3, seed=1))
        table_size = WorstCaseProblem(witness, copies)._engine.table_size
        # Budgets for 7, 50 and 1 lattice points per pmf_batch call.
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 2 * 7 * table_size)
        varied = SearchOptions(restarts=20, seed=2)
        assert run(varied) == reference
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 2 * 50 * table_size)
        assert run(SearchOptions(restarts=3, seed=1)) == reference
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 3 * table_size)
        assert run(SearchOptions(restarts=3, seed=1)) == reference

    @staticmethod
    def scan_calls(problem):
        """Points of every pmf_batch call that the problem's scan makes."""
        calls = []
        batch = problem._engine.pmf_batch

        def counted(points):
            calls.append(np.array(points))
            return batch(points)

        problem._engine.pmf_batch = counted
        problem._scan
        return calls

    @pytest.mark.parametrize("witness,copies", SMALL)
    def test_scan_is_the_first_argmax_over_the_projected_lattice(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        cells, axis = problem._scan_lattice()
        digits = np.unravel_index(cells, (len(axis),) * len(copies))
        points = witness.project_batch(axis[np.stack(digits, axis=1)])
        mass = problem._engine.pmf_batch(points)
        first = np.argmax(mass, axis=0)
        best, where = problem._scan
        assert np.array_equal(best, mass[first, np.arange(len(problem.grid))])
        assert np.array_equal(where, points[first])

    @pytest.mark.parametrize("m", [16, 21])
    def test_scan_is_capped(self, m):
        problem = WorstCaseProblem(LinearWitness([1] + [-1] * (m - 1), 1), (1,) * m)
        cells, axis = problem._scan_lattice()
        assert len(cells) == worst_case._SCAN_LATTICE_CAP == len(set(cells.tolist()))
        assert list(axis) == [-1.0, 1.0]
        calls = self.scan_calls(problem)
        rows = [len(points) for points in calls]
        assert max(rows) * problem._engine.table_size <= worst_case._SCAN_FLOATS
        assert max(rows) <= 1024
        assert sum(rows) == worst_case._SCAN_LATTICE_CAP
        # Every scan point, and so every seed, lies in the region.
        assert max(problem.witness.violation(t) for points in calls for t in points) <= 1e-9
        mass, where = problem._scan
        assert np.all(np.isfinite(mass))
        assert max(problem.witness.violation(t) for t in where) <= 1e-9

    @pytest.mark.parametrize("m,per_axis", [(1, 32), (2, 32), (3, 32), (4, 13), (5, 8)])
    def test_scan_is_capped_per_axis(self, m, per_axis):
        problem = WorstCaseProblem(QuadraticWitness(m), (2,) * m)
        cells, axis = problem._scan_lattice()
        assert worst_case._SCAN_AXIS_CAP == 32
        assert len(axis) == per_axis
        assert list(cells) == list(range(per_axis**m))

    @pytest.mark.parametrize(
        "floats,lattice,points", [(1, 64, 1), (2**12, 64, 32), (2**20, 32_768, 1024)]
    )
    def test_scan_chunk_is_sized_by_the_grid(self, floats, lattice, points, monkeypatch):
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", floats)
        monkeypatch.setattr(worst_case, "_SCAN_LATTICE_CAP", lattice)
        problem = WorstCaseProblem(LinearWitness([1, F(1, 5), F(1, 25)], 1), (4, 4, 4))
        # 25 partial sums x 5 counts in the last step.
        assert problem._engine.table_size == 125
        # One row per lattice point.
        rows = [len(points) for points in self.scan_calls(problem)]
        assert max(rows) == points
        assert max(rows) * 125 <= max(floats, 125)


class TestLimits:
    def test_copies_beyond_direct_binomial_limit_rejected(self):
        with pytest.raises(DomainError):
            WorstCaseProblem(LinearWitness([1]), (1001,))

    @pytest.mark.parametrize(
        "witness,copies",
        [(LinearWitness((1,) + (-1,) * 9, 1), (4,) * 10), (QuadraticWitness(15), (4,) * 15)],
    )
    def test_millions_of_outcome_combinations(self, witness, copies):
        # 5**10 and 3**15 combinations of per-setting values; the objective
        # never enumerates them.
        problem = WorstCaseProblem(witness, copies)
        result = problem.maximize_point(problem.grid[0])
        assert problem.witness.violation(result.correlations) <= 1e-9
        if isinstance(witness, QuadraticWitness):
            # Outcome 0: every setting splits 2/2, at most 6 * (1/2)**4 each.
            assert result.objective == 0.375**15


class TestInfeasible:
    def test_empty_constraint_region(self):
        witness = LinearWitness([1, -1], -10)
        with pytest.raises(InfeasibleError):
            WorstCaseProblem(witness, (4, 4)).maximize_set(
                AcceptanceSet.threshold(0, "accept_low"), OPTS
            )


class TestThinRegion:
    """Regions of tiny or zero area."""

    def test_sliver_region_is_searched(self):
        # 1/100 t1 + t2 >= 1: a sliver of 1/800 of the box along t2 = 1.
        witness = LinearWitness([F(1, 100), 1], -1)
        problem = WorstCaseProblem(witness, (4, 4))
        middle = problem.grid[len(problem.grid) // 2]
        acc = AcceptanceSet.threshold(middle, "accept_low")
        result = problem.maximize_set(acc, SearchOptions(restarts=8))
        assert witness.violation(result.correlations) <= 1e-9
        t1 = np.repeat(np.linspace(0.0, 1.0, 1001), 21)
        t2 = 1.0 - t1 / 100 * np.tile(np.linspace(1.0, 0.0, 21), 1001)
        masses = problem._engine.pmf_batch(np.stack([t1, t2], axis=1))
        dense = np.max(masses @ problem.outcome_weights(acc))
        assert result.objective >= dense - 1e-9

    def test_single_point_region(self):
        # 1/100 t1 + t2 >= 101/100 holds only at (1, 1), where the outcome is 0.
        problem = WorstCaseProblem(LinearWitness([F(1, 100), 1], F(-101, 100)), (4, 4))
        result = problem.maximize_set(AcceptanceSet.explicit([0]), SearchOptions(restarts=8))
        assert result.correlations == pytest.approx((1.0, 1.0), abs=1e-9)
        assert result.objective == pytest.approx(1.0, abs=1e-9)


class TestValidityPowerTradeoff:
    def test_statistics_reduction_collapses_power(self):
        # Two squared correlations at 0.8, validity 90%: cutting the copies
        # per setting from 100 to 10 drops the best achievable power from
        # about 75% to about 12%.
        powers = {}
        for n in (100, 10):
            witness = QuadraticWitness(2)
            ent = witness_pmf(
                [CorrelationSetting(0.8, n), CorrelationSetting(-0.8, n)], witness
            )
            sep = witness_pmf(
                [CorrelationSetting(t, n) for t in witness.analytic_worst_case()], witness
            )
            powers[n] = max(
                (ent.mass_above(b) for b in ent.outcomes if sep.mass_above(b) <= 0.1),
                default=0.0,
            )
        assert powers[100] == pytest.approx(0.755, abs=5e-3)
        assert powers[10] == pytest.approx(0.122, abs=5e-3)
