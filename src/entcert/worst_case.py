"""Worst-case correlations compatible with separability.

Given a witness, copy counts, and an acceptance set (or a single outcome),
find the correlation vector that maximizes the acceptance probability while
staying inside the separability region: a nonnegative ideal value for linear
witnesses, a sum of squares at most 1 for the quadratic witness, and every
correlation inside [-1, 1].  Such correlations bound what any separable
state can do even when they correspond to no physical state.

The search is multi-start Nelder-Mead with an exterior quadratic penalty,
refined by a short simulated-annealing pass when the restarts stall, and the
final point is projected back onto the feasible set.  Symmetric threshold
problems additionally have known analytic solutions that seed the search and
floor the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .acceptance import AcceptanceSet
from .errors import DomainError, InfeasibleError
from .finite_stats import _DIRECT_BINOMIAL_LIMIT
from .pmf import OutcomePmf, RationalLike, as_fraction
from .witnesses import QuadraticWitness, Witness, WitnessGrid

#: Tolerated constraint violation of a returned point.
FEASIBILITY_TOLERANCE = 1e-9

#: Guard against accidentally enormous outcome-combination spaces.
_MAX_COMBINATIONS = 4_000_000


@dataclass(frozen=True)
class SearchOptions:
    """Tunable knobs of the worst-case search; defaults are reproducible."""

    restarts: int = 32
    seed: int = 0
    max_iterations: int = 600
    xatol: float = 1e-6
    fatol: float = 1e-12
    penalty_weight: float = 1e4
    anneal_steps: int = 200
    anneal_factor: float = 0.95
    anneal_initial_temp: float = 0.05
    anneal_initial_step: float = 0.25
    stall_tolerance: float = 1e-6
    tie_tolerance: float = 1e-6


@dataclass(frozen=True)
class WorstCaseResult:
    """Optimizer output: the correlations, the achieved probability, and the
    full outcome distribution at that point."""

    correlations: tuple[float, ...]
    objective: float
    dist: OutcomePmf
    restarts_used: int
    converged: bool


class WorstCaseProblem:
    """One witness + copy allocation, with precomputed combination space.

    The outcome grid and its integer encoding come from ``WitnessGrid``; the
    probability of every grid outcome is a polynomial in the per-setting
    binomial weights, evaluated with one batched matrix product per
    candidate correlation vector.
    """

    def __init__(self, witness: Witness, copies: tuple[int, ...] | list[int]):
        grid = WitnessGrid(witness, copies)
        if max(grid.copies) > _DIRECT_BINOMIAL_LIMIT:
            raise DomainError(
                f"worst-case searches take at most {_DIRECT_BINOMIAL_LIMIT} copies per setting"
            )
        self.witness = witness
        self.copies = grid.copies
        self._quadratic = isinstance(witness, QuadraticWitness)
        self._engine = grid
        self._shape = tuple(len(s) for s in grid.supports)
        size = math.prod(self._shape)
        if size > _MAX_COMBINATIONS:
            raise DomainError(f"outcome combination space too large ({size} points)")
        self._inverse = grid.combination_index()
        self.grid: tuple[Fraction, ...] = grid.outcomes
        self._k_table, self._nk_table, self._comb_table = grid.k_table, grid.nk_table, grid.comb_table
        self._slices, self._block = grid.slices, grid.block

    # -- evaluation --------------------------------------------------------

    def _setting_weights(self, correlations) -> np.ndarray:
        """Concatenated per-setting outcome-contribution probabilities."""
        q = (1.0 + np.asarray(correlations, dtype=np.float64))[:, None] / 2.0
        powers = np.power(q, self._k_table) * np.power(1.0 - q, self._nk_table)
        return self._block @ (powers * self._comb_table).ravel()

    def pmf_at(self, correlations) -> OutcomePmf:
        """Exact-grid outcome pmf for the given correlations."""
        return self._engine.pmf(correlations)

    def _make_objective(self, outcome_weights: np.ndarray):
        """Maximand  sum_combos P(combo) * weight(outcome(combo))."""
        weight_tensor = outcome_weights[self._inverse].reshape(self._shape)
        slices = self._slices

        def objective(correlations) -> float:
            stacked = self._setting_weights(correlations)
            value = weight_tensor
            for s in slices:
                value = np.tensordot(stacked[s], value, axes=([0], [0]))
            return float(value)

        return objective

    def outcome_weights(self, acc: AcceptanceSet) -> np.ndarray:
        acc.validate_on_grid(self.grid)
        return np.array([acc.weight(o) for o in self.grid], dtype=np.float64)

    # -- feasible region ---------------------------------------------------

    def violation(self, correlations) -> float:
        worst = 0.0
        if self._quadratic:
            total = 0.0
            for t in correlations:
                worst = max(worst, -t, abs(t) - 1.0)
                total += t * t
            return max(worst, total - 1.0, 0.0)
        ideal = float(self.witness.constant)
        for t, c in zip(correlations, self.witness.coefficients):
            worst = max(worst, abs(t) - 1.0)
            ideal += float(c) * t
        return max(worst, -ideal, 0.0)

    def project(self, correlations) -> np.ndarray:
        """Map a point onto the feasible set (radial scaling / plane shift)."""
        t = np.asarray(correlations, dtype=np.float64)
        if self._quadratic:
            t = np.clip(t, 0.0, 1.0)
            norm_sq = float(np.sum(t * t))
            if norm_sq > 1.0:
                t = t / math.sqrt(norm_sq) * (1.0 - 1e-12)
            return t
        coeffs = np.array([float(c) for c in self.witness.coefficients])
        const = float(self.witness.constant)
        weight = float(np.dot(coeffs, coeffs))
        for _ in range(100):
            t = np.clip(t, -1.0, 1.0)
            ideal = float(np.dot(coeffs, t)) + const
            if ideal >= -1e-15:
                return t
            t = t + coeffs * (-ideal / weight) * (1.0 + 1e-12)
        raise InfeasibleError("could not project onto the separability constraint")

    def sample_feasible(self, rng: np.random.Generator) -> np.ndarray:
        m = len(self.copies)
        if self._quadratic:
            for _ in range(64):
                t = rng.uniform(0.0, 1.0, m)
                if float(np.sum(t * t)) <= 1.0:
                    return t
            t = rng.uniform(0.0, 1.0, m)
            return t / math.sqrt(float(np.sum(t * t))) * rng.uniform(0.0, 1.0) ** (1.0 / m)
        for _ in range(64):
            t = rng.uniform(-1.0, 1.0, m)
            if self.violation(t) == 0.0:
                return t
        return self.project(rng.uniform(-1.0, 1.0, m))

    def _check_feasible_region(self) -> None:
        if self._quadratic:
            return
        best = float(self.witness.constant) + sum(abs(float(c)) for c in self.witness.coefficients)
        if best < 0.0:
            raise InfeasibleError(
                "separability constraint is empty: the witness is negative on the whole box"
            )

    # -- search ------------------------------------------------------------

    def _bounds(self):
        low = 0.0 if self._quadratic else -1.0
        return [(low, 1.0)] * len(self.copies)

    def maximize_set(
        self,
        acc: AcceptanceSet,
        options: SearchOptions | None = None,
        seed_points: Sequence[Sequence[float]] = (),
    ) -> WorstCaseResult:
        """Worst-case probability of landing in the acceptance set."""
        weights = self.outcome_weights(acc)
        return self._maximize(weights, options, seed_points)

    def maximize_point(
        self,
        outcome: RationalLike,
        options: SearchOptions | None = None,
        seed_points: Sequence[Sequence[float]] = (),
    ) -> WorstCaseResult:
        """Worst-case probability of one exact outcome."""
        key = as_fraction(outcome)
        if key not in set(self.grid):
            raise DomainError(f"outcome {key} is not on the grid")
        weights = np.array([1.0 if o == key else 0.0 for o in self.grid])
        return self._maximize(weights, options, seed_points)

    def maximize_all_points(
        self, options: SearchOptions | None = None
    ) -> dict[Fraction, WorstCaseResult]:
        """Point-wise worst case for every grid outcome (each gets its own search)."""
        return {outcome: self.maximize_point(outcome, options) for outcome in self.grid}

    def _maximize(
        self,
        outcome_weights: np.ndarray,
        options: SearchOptions | None,
        seed_points: Sequence[Sequence[float]] = (),
    ) -> WorstCaseResult:
        opts = options or SearchOptions()
        self._check_feasible_region()
        objective = self._make_objective(outcome_weights)
        penalty = opts.penalty_weight

        def penalized_negative(t) -> float:
            return -objective(t) + penalty * self.violation(t) ** 2

        starts: list[np.ndarray] = []
        analytic_floor = -np.inf
        try:
            analytic = np.array(analytic_worst_case(self.witness), dtype=np.float64)
            starts.append(analytic)
            analytic_floor = objective(self.project(analytic))
        except DomainError:
            pass
        for point in seed_points:
            starts.append(self.project(point))
        seeds = np.random.SeedSequence(opts.seed).spawn(opts.restarts + 1)
        rng_pool = [np.random.default_rng(s) for s in seeds]
        while len(starts) < max(opts.restarts, len(starts)):
            starts.append(self.sample_feasible(rng_pool[len(starts) % opts.restarts]))

        candidates: list[tuple[float, tuple[float, ...]]] = []

        def record(point) -> float:
            projected = self.project(point)
            value = objective(projected)
            candidates.append((value, tuple(float(x) for x in projected)))
            return value

        nm_options = {
            "xatol": opts.xatol,
            "fatol": opts.fatol,
            "maxiter": opts.max_iterations,
            "maxfev": 4 * opts.max_iterations,
        }
        best_so_far = -np.inf
        last_improvement = 0
        restarts_used = 0
        for i, start in enumerate(starts):
            record(start)
            result = minimize(
                penalized_negative,
                start,
                method="Nelder-Mead",
                bounds=self._bounds(),
                options=nm_options,
            )
            restarts_used += 1
            value = record(result.x)
            if value > best_so_far + opts.stall_tolerance:
                best_so_far = value
                last_improvement = i

        stalled = (len(starts) - 1 - last_improvement) >= max(2, len(starts) // 2)
        if stalled and opts.anneal_steps > 0:
            best_point = np.array(max(candidates)[1])
            annealed = self._anneal(best_point, penalized_negative, rng_pool[-1], opts)
            record(annealed)
            polish = minimize(
                penalized_negative,
                annealed,
                method="Nelder-Mead",
                bounds=self._bounds(),
                options=nm_options,
            )
            record(polish.x)

        best_value = max(value for value, _ in candidates)
        # Tie-break deterministically, but never settle below the analytic
        # floor when one applies.
        floor = max(best_value - opts.tie_tolerance, analytic_floor)
        ties = sorted(point for value, point in candidates if value >= floor)
        chosen = ties[0]
        if self.violation(chosen) > FEASIBILITY_TOLERANCE:
            raise InfeasibleError("worst-case search returned an infeasible point")
        dist = self.pmf_at(chosen)
        achieved = float(np.dot(outcome_weights, np.array(dist.probabilities)))
        near_best = sum(1 for value, _ in candidates if value >= best_value - 1e-3)
        converged = near_best >= min(3, len(candidates))
        return WorstCaseResult(
            correlations=chosen,
            objective=achieved,
            dist=dist,
            restarts_used=restarts_used,
            converged=converged,
        )

    def _anneal(
        self,
        start: np.ndarray,
        penalized_negative,
        rng: np.random.Generator,
        opts: SearchOptions,
    ) -> np.ndarray:
        """Geometric-cooling Metropolis walk used to escape shallow basins."""
        low = 0.0 if self._quadratic else -1.0
        current = np.array(start, dtype=np.float64)
        current_value = penalized_negative(current)
        best, best_value = current, current_value
        temperature = opts.anneal_initial_temp
        step = opts.anneal_initial_step
        for _ in range(opts.anneal_steps):
            proposal = np.clip(current + rng.normal(0.0, step, len(current)), low, 1.0)
            value = penalized_negative(proposal)
            if value < current_value or rng.random() < math.exp(
                -(value - current_value) / max(temperature, 1e-12)
            ):
                current, current_value = proposal, value
                if value < best_value:
                    best, best_value = proposal, value
            temperature *= opts.anneal_factor
            step *= opts.anneal_factor
        return best


def analytic_worst_case(witness: Witness) -> tuple[float, ...]:
    """Known worst-case correlations for symmetric threshold problems.

    Quadratic witness: every correlation at 1/sqrt(M).  Linear witness with
    coefficients (1, -1, ..., -1) and unit constant: (-1/M, 1/M, ..., 1/M).
    Other shapes raise DomainError and must use the numeric search.
    """
    m = witness.num_settings
    if isinstance(witness, QuadraticWitness):
        return (1.0 / math.sqrt(m),) * m
    expected = (Fraction(1),) + (Fraction(-1),) * (m - 1)
    if witness.coefficients == expected and witness.constant == 1:
        return (-1.0 / m,) + (1.0 / m,) * (m - 1)
    raise DomainError("no analytic worst case for this witness shape")


def maximize_set_probability(
    witness: Witness,
    copies,
    acc: AcceptanceSet,
    options: SearchOptions | None = None,
) -> WorstCaseResult:
    """Convenience wrapper: worst-case acceptance-set probability."""
    return WorstCaseProblem(witness, copies).maximize_set(acc, options)


def maximize_point_probability(
    witness: Witness,
    copies,
    outcome: RationalLike,
    options: SearchOptions | None = None,
) -> WorstCaseResult:
    """Convenience wrapper: worst-case single-outcome probability."""
    return WorstCaseProblem(witness, copies).maximize_point(outcome, options)
