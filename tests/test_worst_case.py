"""Separability-constrained worst-case search."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from entcert import worst_case
from entcert.acceptance import AcceptanceSet
from entcert.errors import DomainError, InfeasibleError
from entcert.finite_stats import CorrelationSetting
from entcert.planner import witness_for
from entcert.pmf import OutcomePmf
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_pmf
from entcert.worst_case import POLISH, SearchOptions, WorstCaseProblem
from oracles import reference_two_start_polish, setting_grid
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
        # A lone row's witness value once went through numpy's dot kernel and
        # a batch's through gemv, which round differently, and outcomes -9/4
        # and 0 of these two moved.
        (LinearWitness([F(-3, 2), -1], -2), (4, 2)),
        (LinearWitness([0, -1, -1, 1], 0), (1, 4, 2, 2)),
    ]

    @staticmethod
    def fields(result):
        return (
            result.objective.hex(),
            tuple(t.hex() for t in result.correlations),
            result.converged,
            result.restarts_used,
            np.array(result.dist.probabilities).tobytes(),
        )

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

    def test_one_row_per_engine_call_moves_no_linear_result(self, monkeypatch):
        # Both searches moved here with one row per call, the set search
        # also when only its screen's mass still rounded by row count.
        witness = LinearWitness([-1, F(-3, 2), 0, F(-1, 2)], F(1, 2))
        acc = AcceptanceSet.threshold(F(-5, 2), "accept_high")

        def results():
            problem = WorstCaseProblem(witness, (1, 3, 4, 4))
            points = problem.maximize_all_points(POLISH)
            found = problem.maximize_set(acc, SearchOptions(restarts=3, seed=2))
            return [self.fields(r) for r in points.values()], self.fields(found)

        batched = results()
        monkeypatch.setattr(worst_case, "_SCAN_FLOATS", 1)
        assert results() == batched

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

    def test_converges_along_an_edge_of_a_general_linear_region(self):
        # The row of outcome -5/12 once sat on the plane 5.6e-12 off the face
        # t1 = -1, every long step left the plane, and the row ran to
        # max_iterations unconverged.
        problem = WorstCaseProblem(LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (4, 3, 2))
        result = problem.maximize_point(F(-5, 12), POLISH)
        assert result.converged
        assert result.objective >= 0.21382930390

    def test_converged_means_the_chosen_row_stopped(self):
        # With no iterations only rows that start at a stationary point
        # stop, such as outcome -1's scan seed at one copy per setting: the
        # lattice corner (-1, 1) projects exactly onto (-1/2, 1/2).
        problem = WorstCaseProblem(QuadraticWitness(2), (4, 3))
        capped = problem.maximize_all_points(SearchOptions(max_iterations=0))
        assert not all(r.converged for r in capped.values())
        assert all(r.converged for r in problem.maximize_all_points(POLISH).values())
        single = WorstCaseProblem(LinearWitness([1, -1], 1), (1, 1))
        result = single.maximize_point(-1, SearchOptions(max_iterations=0))
        assert result.converged
        assert result.objective == pytest.approx(0.5625, abs=1e-15)


class TestOneStart:
    """Every pointwise search climbs from its outcome's scan point alone,
    and one engine call re-evaluates every chosen point."""

    CASES = [
        (QuadraticWitness(3), (5, 4, 4)),
        (QuadraticWitness(5), (4,) * 5),
        (LinearWitness([1, -1, -1], 1), (4, 3, 2)),
        (LinearWitness([1, -1, -1, -1, -1], 1), (4,) * 5),
    ]

    #: Allocations of both family witnesses (``planner.witness_for``): 3
    #: settings up to 9 copies, and 5 settings of 4 copies.
    ORACLE_CASES = [
        (kind, copies)
        for kind in ("quadratic", "linear")
        for copies in [
            (3, 2, 2), (3, 3, 1), (3, 3, 2), (3, 3, 3), (4, 3, 2),
            (4, 4, 1), (5, 2, 2), (5, 3, 1), (6, 2, 1), (7, 1, 1), (4,) * 5,
        ]
    ]

    @pytest.mark.parametrize("witness,copies", CASES)
    def test_one_start_and_the_exact_pmf_of_its_point(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        for result in problem.maximize_all_points(POLISH).values():
            assert result.restarts_used == 1
            exact = problem.pmf_at(result.correlations)
            assert np.array(result.dist.probabilities).tobytes() == np.array(exact.probabilities).tobytes()

    @pytest.mark.parametrize("kind,copies", ORACLE_CASES)
    def test_never_below_the_two_start_search(self, kind, copies):
        problem = WorstCaseProblem(witness_for(kind, len(copies)), copies)
        found = problem.maximize_all_points(POLISH)
        reference = reference_two_start_polish(problem, POLISH)
        for outcome, result in found.items():
            assert result.objective >= reference[outcome].objective - 1e-6
            assert problem.witness.violation(result.correlations) <= worst_case.FEASIBILITY_TOLERANCE

    def test_the_analytic_start_serves_only_the_set_search(self, monkeypatch):
        problem = WorstCaseProblem(LinearWitness([1, -1, -1], 1), (3, 2, 2))

        def refuse(self):
            raise AssertionError("a pointwise search asked for the analytic start")

        monkeypatch.setattr(WorstCaseProblem, "_analytic_start", refuse)
        problem.maximize_all_points(POLISH)
        problem.maximize_point(problem.grid[0], POLISH)


class TestAscentDirections:
    """``_ascent_directions`` projects the gradients at both reaches, the
    step's and the stopping test's, and must give each what one projection
    per reach gives, bit for bit."""

    #: Single rows on a linear region's plane, with gradients along it, where
    #: one stacked projection of both reaches rounded otherwise while the
    #: witness value went through ``@``.
    ON_THE_PLANE = [
        (
            LinearWitness([-1, F(-1, 2), F(1, 4), -3], F(-1, 3)),
            [0.9847851623583481, 0.023915810976998797, 0.007716026870176473, -0.44271579815421225],
            [-0.3056546456352377, -2.152634488825924, 0.3053116748793795, 0.48609993626259107],
            1.466816726249076e-05,
            1.674575857112041e-05,
        ),
        (
            LinearWitness([2, 2, 3, F(1, 3), F(1, 4)], F(2, 3)),
            [0.07670305421784293, 0.9006383053998327, -0.8135542582825874, -0.22748825810625772,
             -0.41942876674201246],
            [0.37826146773650365, -0.35496872921761324, 0.05590788401660197, 0.13423642924422394,
             -1.0362184219936212],
            2.168627933869541e-05,
            0.0002372002014175466,
        ),
    ]

    @staticmethod
    def one_reach(witness, points, grads, reach):
        scale = worst_case._largest(grads) / reach
        probe = witness.project_batch(points + grads / scale[:, None])
        return (probe - points) * scale[:, None]

    def check(self, witness, points, grads, reach, xatol):
        problem = WorstCaseProblem(witness, (2,) * witness.num_settings)
        heading, reduced = problem._ascent_directions(points, grads, reach, xatol)
        assert heading.tobytes() == self.one_reach(witness, points, grads, reach).tobytes()
        expected = self.one_reach(witness, points, grads, np.full(len(points), xatol))
        assert reduced.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("case", range(len(ON_THE_PLANE)))
    def test_a_lone_row_on_the_plane(self, case):
        witness, point, grad, reach, xatol = self.ON_THE_PLANE[case]
        self.check(witness, np.array([point]), np.array([grad]), np.array([reach]), xatol)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_random_rows_along_the_plane(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(150):
            m = int(rng.integers(2, 6))
            coefficients = [F(int(a), int(b)) for a, b in zip(rng.integers(-3, 4, m), rng.integers(1, 5, m))]
            witness = LinearWitness(coefficients, F(int(rng.integers(0, 4)), int(rng.integers(1, 4))))
            normal = np.array([float(c) for c in coefficients])
            if not normal.any():
                continue
            points = witness.project_batch(rng.uniform(-1.5, 1.5, (rows, m)))
            grads = rng.normal(size=(rows, m))
            grads -= (grads @ normal)[:, None] / (normal @ normal) * normal
            grads += rng.normal(scale=1e-9, size=(rows, m))
            reach = 10.0 ** rng.uniform(-6, -1, rows)
            self.check(witness, points, grads, reach, float(10.0 ** rng.uniform(-6, -3)))


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
        corners = np.random.default_rng(0).choice(2**m, worst_case._SCAN_LATTICE_CAP, replace=False)
        # Equal coefficients make settings 2..M exchangeable; distinct ones
        # (integers, so that the grid stays small) leave every setting alone.
        for exchangeable in (True, False):
            coefficients = [1] + ([-1] * (m - 1) if exchangeable else list(range(-2, -m - 1, -1)))
            problem = WorstCaseProblem(LinearWitness(coefficients, 1), (1,) * m)
            cells, axis = problem._scan_lattice()
            assert list(axis) == [-1.0, 1.0]
            # The canonical cells of the pseudo-random corner subset: the
            # digits of settings 2..M sorted where they are exchangeable.
            canonical = set()
            for corner in corners.tolist():
                digits = [(corner >> (m - 1 - j)) & 1 for j in range(m)]
                if exchangeable:
                    digits = digits[:1] + sorted(digits[1:])
                canonical.add(int("".join(map(str, digits)), 2))
            assert cells.tolist() == sorted(canonical)
            # One cell per corner without symmetry, and with it at most one
            # per count of ones among settings 2..M.
            if exchangeable:
                assert len(cells) <= 2 * m
            else:
                assert len(cells) == worst_case._SCAN_LATTICE_CAP
            calls = self.scan_calls(problem)
            rows = [len(points) for points in calls]
            assert max(rows) * problem._engine.table_size <= worst_case._SCAN_FLOATS
            assert max(rows) <= 1024
            assert sum(rows) == len(cells)
            # Every scan point, and so every seed, lies in the region.
            assert max(problem.witness.violation(t) for points in calls for t in points) <= 1e-9
            mass, where = problem._scan
            assert np.all(np.isfinite(mass))
            assert max(problem.witness.violation(t) for t in where) <= 1e-9

    @pytest.mark.parametrize("m,per_axis", [(1, 32), (2, 32), (3, 32), (4, 13), (5, 8)])
    def test_scan_is_capped_per_axis(self, m, per_axis):
        assert worst_case._SCAN_AXIS_CAP == 32
        # Equal copies: one class, so only nondecreasing digit tuples.
        problem = WorstCaseProblem(QuadraticWitness(m), (2,) * m)
        cells, axis = problem._scan_lattice()
        assert len(axis) == per_axis
        lattice = itertools.product(range(per_axis), repeat=m)
        sorted_cells = [i for i, digits in enumerate(lattice) if list(digits) == sorted(digits)]
        assert cells.tolist() == sorted_cells
        assert len(cells) == math.comb(per_axis + m - 1, m)
        # Distinct copies: no two settings exchangeable, the whole lattice.
        problem = WorstCaseProblem(QuadraticWitness(m), tuple(range(2, m + 2)))
        cells, axis = problem._scan_lattice()
        assert len(axis) == per_axis
        assert cells.tolist() == list(range(per_axis**m))

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


def full_lattice_scan(problem):
    """Brute-force oracle of the scan: every cell of the lattice (or of the
    pseudo-random corner subset past the cap) projected and evaluated, and
    each outcome's first best cell in lattice order."""
    m = len(problem.copies)
    per_axis = len(problem._scan_lattice()[1])
    if per_axis**m <= worst_case._SCAN_LATTICE_CAP:
        cells = np.arange(per_axis**m)
    else:
        corners = np.random.default_rng(0).choice(2**m, worst_case._SCAN_LATTICE_CAP, replace=False)
        cells = np.sort(corners)
    axis = np.linspace(problem.witness.low, 1.0, per_axis)
    digits = np.stack(np.unravel_index(cells, (per_axis,) * m), axis=1)
    points = problem.witness.project_batch(axis[digits])
    mass = np.concatenate(
        [problem._engine.pmf_batch(points[i : i + 1024]) for i in range(0, len(points), 1024)]
    )
    first = np.argmax(mass, axis=0)
    return mass[first, np.arange(mass.shape[1])], points[first]


class TestChamberScan:
    """The scan evaluates one cell of each orbit of exchangeable settings and
    finds what the full lattice finds."""

    @pytest.mark.parametrize(
        "witness,copies,classes",
        [
            (QuadraticWitness(3), (5, 4, 4), [[0], [1, 2]]),
            (QuadraticWitness(5), (4,) * 5, [[0, 1, 2, 3, 4]]),
            (LinearWitness([1, -1, -1, -1, -1], 1), (4,) * 5, [[0], [1, 2, 3, 4]]),
            # Equal copies, equal coefficients only in pairs.
            (LinearWitness([1, -1, -1, F(-1, 2), F(-1, 2)], 1), (4,) * 5, [[0], [1, 2], [3, 4]]),
            # The corner subset past the lattice cap.
            (LinearWitness([1] + [-1] * 15, 1), (1,) * 16, [[0], list(range(1, 16))]),
        ],
    )
    def test_matches_the_full_lattice(self, witness, copies, classes):
        problem = WorstCaseProblem(witness, copies)
        assert problem._exchangeable() == classes
        best, where = full_lattice_scan(problem)
        mass, seeds = problem._scan
        assert np.abs(mass - best).max() <= 1e-15

        def canonical(point):
            return [sorted(point[members].tolist()) for members in classes]

        at_seeds = problem._engine.pmf_batch(seeds)
        for outcome in range(len(problem.grid)):
            permuted = canonical(seeds[outcome]) == canonical(where[outcome])
            assert permuted or abs(at_seeds[outcome, outcome] - best[outcome]) <= 1e-15

    @pytest.mark.parametrize(
        "copies,cells", [((5, 4, 4), 16_896), ((4, 4, 4), 5_984), ((4,) * 5, 792), ((4, 2, 1), 1_024)]
    )
    def test_cells_evaluated(self, copies, cells):
        problem = WorstCaseProblem(QuadraticWitness(len(copies)), copies)
        assert len(problem._scan_lattice()[0]) == cells

    @pytest.mark.parametrize(
        "witness,copies",
        [
            # Equal copies, distinct coefficients: no swap keeps the region.
            (LinearWitness([1, -1, F(-1, 2)], 1), (4, 4, 4)),
            (LinearWitness([F(1, 2), -1, 2], F(-1, 4)), (3, 3, 3)),
            (QuadraticWitness(3), (4, 3, 2)),
        ],
    )
    def test_settings_that_differ_are_not_merged(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        assert problem._exchangeable() == [[0], [1], [2]]
        cells, axis = problem._scan_lattice()
        assert cells.tolist() == list(range(len(axis) ** 3))
        best, where = full_lattice_scan(problem)
        mass, seeds = problem._scan
        assert np.array_equal(mass, best)
        assert np.array_equal(seeds, where)


class TestPinnedSettings:
    """A setting whose law is constant is fixed at ``low`` in every search."""

    @pytest.mark.parametrize(
        "copies,pinned,cells",
        [((4, 2, 1), [2], 1_024), ((5, 1, 1), [1, 2], 32), ((3, 3, 1), [2], 528), ((1, 1), [0, 1], 1)],
    )
    def test_cells_evaluated(self, copies, pinned, cells):
        problem = WorstCaseProblem(QuadraticWitness(len(copies)), copies)
        assert problem._pinned == pinned
        found, axis = problem._scan_lattice()
        assert len(found) == cells
        shape = problem._lattice_shape(len(axis))
        assert [n for j, n in enumerate(shape) if j in pinned] == [1] * len(pinned)
        digits = np.stack(np.unravel_index(found, shape), axis=1)
        assert not digits[:, pinned].any()

    def test_corner_subset_is_drawn_over_the_free_settings(self):
        # 16 free settings, no two exchangeable, and one pinned: the corner
        # subset of the free settings' box, at its full size.
        coefficients = list(range(-2, -17, -1))
        problem = WorstCaseProblem(LinearWitness([1] + coefficients + [0], 1), (1,) * 17)
        assert problem._pinned == [16]
        cells, axis = problem._scan_lattice()
        assert list(axis) == [-1.0, 1.0]
        assert problem._lattice_shape(2) == (2,) * 16 + (1,)
        corners = np.random.default_rng(0).choice(2**16, worst_case._SCAN_LATTICE_CAP, replace=False)
        assert cells.tolist() == sorted(corners.tolist())

    @pytest.mark.parametrize("copies", [(1,) * 13, (2,) + (1,) * 12, (3, 2) + (1,) * 12])
    def test_many_pinned_settings(self, copies):
        # A lattice over every setting would have 32**13 cells or more, past
        # the range of a flat int64 index; pinned axes have one point each.
        problem = WorstCaseProblem(QuadraticWitness(len(copies)), copies)
        free = [j for j, n in enumerate(copies) if n > 1]
        assert problem._pinned == [j for j in range(len(copies)) if j not in free]
        _, seeds = problem._scan
        assert np.all(seeds[:, problem._pinned] == 0.0)
        for result in problem.maximize_all_points(POLISH).values():
            assert all(result.correlations[j] == 0.0 for j in problem._pinned)

    @staticmethod
    def outcomes(problem):
        return {o: r.objective for o, r in problem.maximize_all_points(POLISH).items()}

    def test_quadratic_search_drops_one_copy_settings(self):
        # Every 2- to 8-copy allocation over 2 or 3 settings with a 1-copy
        # setting and another: each 1-copy setting adds 1 to every outcome.
        checked = 0
        for m in (2, 3):
            for copies in itertools.product(range(1, 8), repeat=m):
                if not 2 <= sum(copies) <= 8 or 1 not in copies or max(copies) == 1:
                    continue
                reduced = tuple(n for n in copies if n > 1)
                full = self.outcomes(WorstCaseProblem(QuadraticWitness(m), copies))
                alone = self.outcomes(WorstCaseProblem(QuadraticWitness(len(reduced)), reduced))
                shift = len(copies) - len(reduced)
                assert sorted(full) == [o + shift for o in sorted(alone)]
                for outcome, value in full.items():
                    assert value == pytest.approx(alone[outcome - shift], abs=1e-9)
                    checked += 1
        assert checked == 222

    def test_linear_search_drops_zero_coefficients(self):
        full = self.outcomes(WorstCaseProblem(LinearWitness([1, 0, -1], 1), (4, 2, 3)))
        alone = self.outcomes(WorstCaseProblem(LinearWitness([1, -1], 1), (4, 3)))
        assert full.keys() == alone.keys()
        for outcome, value in full.items():
            assert value == pytest.approx(alone[outcome], abs=1e-9)

    @pytest.mark.parametrize(
        "witness,copies",
        [
            (QuadraticWitness(3), (4, 2, 1)),
            (QuadraticWitness(3), (5, 1, 1)),
            (LinearWitness([1, 0, -1], 1), (4, 2, 3)),
            (LinearWitness([F(1, 2), 0, -1, 0], F(1, 4)), (3, 4, 2, 5)),
        ],
    )
    def test_pinned_coordinates_stay_at_low(self, witness, copies):
        problem = WorstCaseProblem(witness, copies)
        assert problem._pinned
        results = list(problem.maximize_all_points(POLISH).values())
        results += list(problem.maximize_all_points(SearchOptions(restarts=3)).values())
        grid = problem.grid
        for restarts in (3, 12):
            for acc in (
                AcceptanceSet.threshold(grid[len(grid) // 3], "accept_low"),
                AcceptanceSet.threshold(grid[2 * len(grid) // 3], "accept_high"),
                AcceptanceSet.explicit(grid[1::3]),
            ):
                results.append(problem.maximize_set(acc, SearchOptions(restarts=restarts, seed=3)))
                seed = [0.5] * len(copies)
                results.append(problem.maximize_set(acc, POLISH, seed_points=[seed]))
        for result in results:
            assert all(result.correlations[j] == witness.low for j in problem._pinned)


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
        # Pointwise searches raise too, though the witness and the problem
        # were built without complaint.
        with pytest.raises(InfeasibleError):
            WorstCaseProblem(witness, (4, 4)).maximize_all_points(POLISH)


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
