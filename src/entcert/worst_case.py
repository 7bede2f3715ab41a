"""Worst-case correlations compatible with separability.

Given a witness, copy counts, and an acceptance set (or a single outcome),
find the correlation vector that maximizes the acceptance probability while
staying inside the separability region: a nonnegative ideal value for linear
witnesses, a sum of squares at most 1 for the quadratic witness, and every
correlation inside [-1, 1].  Such correlations bound what any separable
state can do even when they correspond to no physical state.  The witness
class supplies its region's violation, projection and boundary points.

The objective is ``WitnessGrid.expectation``: the outcome weights carried
backwards through the grid engine's steps.  Acceptance-set searches are
multi-start Nelder-Mead with an exterior quadratic penalty, refined by a
short simulated-annealing pass when the restarts stall, and the final point
is projected back onto the feasible set.
Single-outcome searches share one deterministic scan of the feasible region
per problem: a capped lattice of the box plus each lattice point's projection
onto the separability boundary, evaluated in chunks with the batched grid
engine, keeps the two best distinct points of every outcome; a short
Nelder-Mead polish from those seeds, without random restarts or annealing,
gives the result.  Symmetric threshold problems additionally have known
analytic solutions that seed every search and floor the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .acceptance import AcceptanceSet
from .errors import DomainError, InfeasibleError
from .finite_stats import _DIRECT_BINOMIAL_LIMIT
from .pmf import OutcomePmf, RationalLike, as_fraction
from .witnesses import Witness, WitnessGrid

#: Tolerated constraint violation of a returned point.
FEASIBILITY_TOLERANCE = 1e-9

#: Lattice points of the pointwise scan, whatever the number of settings.
_SCAN_LATTICE_CAP = 32_768

#: Floats that one ``pmf_batch`` call of the scan may hold in its largest
#: step table, rows x ``WitnessGrid.table_size``.  Each lattice point adds at
#: most one boundary point (two rows), and a call takes at least 1 and at
#: most 128 lattice points.
_SCAN_FLOATS = 2**20

#: Scan points closer than this (Euclidean) count as one seed.
_SCAN_SEED_SEPARATION = 1e-6

#: Weight of the exterior quadratic penalty on constraint violations.
_PENALTY_WEIGHT = 1e4

#: Start temperature and step width of the annealing walk, and the factor
#: that shrinks both after every step.
_ANNEAL_INITIAL_TEMP = 0.05
_ANNEAL_INITIAL_STEP = 0.25
_ANNEAL_FACTOR = 0.95

#: A run improves on the best value so far only by more than this.
_STALL_TOLERANCE = 1e-6

#: Candidates within this of the best value tie; the smallest point wins.
_TIE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SearchOptions:
    """Tunable knobs of the worst-case search; defaults are reproducible.

    ``restarts`` random feasible starts, drawn from ``seed``, join the
    analytic point and any seed points.  Every start gets one Nelder-Mead
    run of at most ``max_iterations`` iterations with tolerances ``xatol``
    and ``fatol``; a stalled search gets an annealing walk of
    ``anneal_steps`` steps.
    """

    restarts: int = 32
    seed: int = 0
    max_iterations: int = 600
    xatol: float = 1e-6
    fatol: float = 1e-12
    anneal_steps: int = 200

    def __post_init__(self):
        for name in ("restarts", "seed", "max_iterations", "anneal_steps"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be nonnegative, got {getattr(self, name)}")
        for name in ("xatol", "fatol"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


#: One loose Nelder-Mead run from each seed point and from the analytic
#: start, without random restarts or annealing.  The planner's pointwise
#: searches and the feasibility probes of the acceptance-set search use it.
POLISH = SearchOptions(restarts=0, anneal_steps=0, max_iterations=300, xatol=1e-4, fatol=1e-10)


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
    """One witness + copy allocation and its worst-case searches.

    The outcome grid and its integer encoding come from ``WitnessGrid``.
    Every objective is that engine's ``expectation`` of the outcome
    weights, and the scan evaluates candidate points with its
    ``pmf_batch``.
    """

    def __init__(self, witness: Witness, copies: tuple[int, ...] | list[int]):
        grid = WitnessGrid(witness, copies)
        if max(grid.copies) > _DIRECT_BINOMIAL_LIMIT:
            raise DomainError(
                f"worst-case searches take at most {_DIRECT_BINOMIAL_LIMIT} copies per setting"
            )
        self.witness = witness
        self.copies = grid.copies
        self._engine = grid
        self.grid: tuple[Fraction, ...] = grid.outcomes

    # -- evaluation --------------------------------------------------------

    def pmf_at(self, correlations) -> OutcomePmf:
        """Exact-grid outcome pmf for the given correlations."""
        return self._engine.pmf(correlations)

    def outcome_weights(self, acc: AcceptanceSet) -> np.ndarray:
        acc.validate_on_grid(self.grid)
        return np.array([acc.weight(o) for o in self.grid], dtype=np.float64)

    # -- scan of the separable region -------------------------------------

    def _scan_lattice(self) -> tuple[range | np.ndarray, np.ndarray]:
        """Flat indices and axis values of the scan lattice of the feasible box.

        Every axis gets the same number of evenly spaced points, as many as
        the cap allows and at least 2.  Where even 2 per axis exceed the cap,
        a fixed pseudo-random subset of the box corners stands in.
        """
        m = len(self.copies)
        per_axis = max(2, round(_SCAN_LATTICE_CAP ** (1.0 / m)))
        while per_axis > 2 and per_axis**m > _SCAN_LATTICE_CAP:
            per_axis -= 1
        if per_axis**m <= _SCAN_LATTICE_CAP:
            cells = range(per_axis**m)
        else:
            corners = np.random.default_rng(0).choice(2**m, _SCAN_LATTICE_CAP, replace=False)
            cells = np.sort(corners)
        return cells, np.linspace(self.witness.low, 1.0, per_axis)

    def _scan_points(self, cells: range | np.ndarray, axis: np.ndarray) -> np.ndarray:
        """Feasible lattice points, each followed by its boundary point (see
        the witness's ``boundary``); a boundary point it does not keep is
        dropped."""
        digits = np.unravel_index(cells, (len(axis),) * len(self.copies))
        points = axis[np.stack(digits, axis=1)]
        feasible, boundary, on_boundary = self.witness.boundary(points)
        keep = np.stack([feasible, on_boundary], axis=1).ravel()
        return np.stack([points, boundary], axis=1).reshape(-1, points.shape[1])[keep]

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Best two distinct scan points of every outcome.

        Returns their masses (2, G), -inf where an outcome has no second
        distinct point, and the points themselves (2, G, M).  The scan runs
        in chunks of lattice points sized by ``_SCAN_FLOATS``; ties go to the
        earlier point in lattice order, so the result does not depend on the
        chunk size.
        """
        self.witness.check_separable_region()
        cells, axis = self._scan_lattice()
        per_call = max(1, min(128, _SCAN_FLOATS // (2 * self._engine.table_size)))
        columns = np.arange(len(self.grid))
        best = np.full((2, len(self.grid)), -np.inf)
        where = np.zeros((2, len(self.grid), len(self.copies)))

        def pick(rows, held, chunk):
            chosen = held[np.minimum(rows, 1), columns]
            new = rows >= 2
            chosen[new] = chunk[rows[new] - 2]
            return chosen

        for start in range(0, len(cells), per_call):
            points = self._scan_points(cells[start : start + per_call], axis)
            if not len(points):
                continue
            # Rows 0-1 of each column are the outcome's current two best,
            # the rest are this chunk's points.
            mass = np.vstack([best, self._engine.pmf_batch(points)])
            first = np.argmax(mass, axis=0)
            leader = pick(first, where, points)
            distance_sq = np.vstack(
                [
                    np.sum((where - leader) ** 2, axis=2),
                    np.sum(points * points, axis=1)[:, None]
                    + np.sum(leader * leader, axis=1)
                    - 2.0 * points @ leader.T,
                ]
            )
            apart = np.where(distance_sq > _SCAN_SEED_SEPARATION**2, mass, -np.inf)
            second = np.argmax(apart, axis=0)
            best = np.stack([mass[first, columns], apart[second, columns]])
            where = np.stack([leader, pick(second, where, points)])
        return best, where

    # -- search ------------------------------------------------------------

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
        """Worst-case probability of one exact outcome.

        The search polishes the outcome's two best scan points, the analytic
        worst case where one applies, and ``seed_points``, with one
        Nelder-Mead run each.  It uses no random restarts and no annealing,
        so ``options.seed``, ``restarts`` and ``anneal_steps`` have no
        effect; the iteration limit and the tolerances apply.
        """
        key = as_fraction(outcome)
        try:
            index = self.grid.index(key)
        except ValueError:
            raise DomainError(f"outcome {key} is not on the grid") from None
        weights = np.zeros(len(self.grid))
        weights[index] = 1.0
        mass, where = self._scan
        seeds = [where[r, index] for r in range(2) if mass[r, index] > -np.inf]
        polish = replace(options or SearchOptions(), restarts=0, anneal_steps=0)
        return self._maximize(weights, polish, seeds + list(seed_points))

    def maximize_all_points(
        self, options: SearchOptions | None = None
    ) -> dict[Fraction, WorstCaseResult]:
        """Point-wise worst case for every grid outcome.

        One scan of the feasible region seeds every outcome, and each then
        gets its own short polish (see ``maximize_point``).
        """
        return {outcome: self.maximize_point(outcome, options) for outcome in self.grid}

    def _maximize(
        self,
        outcome_weights: np.ndarray,
        options: SearchOptions | None,
        seed_points: Sequence[Sequence[float]] = (),
    ) -> WorstCaseResult:
        """Best of Nelder-Mead runs from the analytic point, the seeds and
        random feasible starts, annealed and polished once more if they stall.
        With no start at all (no analytic point, no seeds, no restarts) it
        raises DomainError.

        Every run starts from ``_reflected_simplex``, not from scipy's own
        first simplex, which clips a vertex below the lower bound: a start on
        the face t = -1 would get a flat simplex that cannot leave the face.
        """
        opts = options or SearchOptions()
        self.witness.check_separable_region()
        objective = self._engine.expectation(outcome_weights)

        def penalized_negative(t) -> float:
            return -objective(t) + _PENALTY_WEIGHT * self.witness.violation(t) ** 2

        starts: list[np.ndarray] = []
        analytic_floor = -np.inf
        try:
            analytic = np.array(self.witness.analytic_worst_case(), dtype=np.float64)
            starts.append(analytic)
            analytic_floor = objective(self.witness.project(analytic))
        except DomainError:
            pass
        for point in seed_points:
            starts.append(self.witness.project(point))
        seeds = np.random.SeedSequence(opts.seed).spawn(opts.restarts + 1)
        rng_pool = [np.random.default_rng(s) for s in seeds]
        while len(starts) < opts.restarts:
            starts.append(self.witness.sample_separable(rng_pool[len(starts) % opts.restarts]))
        if not starts:
            raise DomainError("the search has no start: this witness needs restarts >= 1")

        candidates: list[tuple[float, tuple[float, ...]]] = []

        def record(point) -> float:
            projected = self.witness.project(point)
            value = objective(projected)
            candidates.append((value, tuple(float(x) for x in projected)))
            return value

        def nelder_mead(start):
            options = {
                "xatol": opts.xatol,
                "fatol": opts.fatol,
                "maxiter": opts.max_iterations,
                "maxfev": 4 * opts.max_iterations,
                "initial_simplex": self._reflected_simplex(start),
            }
            return minimize(
                penalized_negative,
                start,
                method="Nelder-Mead",
                bounds=[(self.witness.low, 1.0)] * len(self.copies),
                options=options,
            )

        best_so_far = -np.inf
        last_improvement = 0
        restarts_used = 0
        for i, start in enumerate(starts):
            record(start)
            result = nelder_mead(start)
            restarts_used += 1
            value = record(result.x)
            if value > best_so_far + _STALL_TOLERANCE:
                best_so_far = value
                last_improvement = i

        stalled = (len(starts) - 1 - last_improvement) >= max(2, len(starts) // 2)
        if stalled and opts.anneal_steps > 0:
            best_point = np.array(max(candidates)[1])
            annealed = self._anneal(best_point, penalized_negative, rng_pool[-1], opts)
            record(annealed)
            record(nelder_mead(annealed).x)

        best_value = max(value for value, _ in candidates)
        # Tie-break deterministically, but never settle below the analytic
        # floor when one applies.
        floor = max(best_value - _TIE_TOLERANCE, analytic_floor)
        ties = sorted(point for value, point in candidates if value >= floor)
        chosen = ties[0]
        if self.witness.violation(chosen) > FEASIBILITY_TOLERANCE:
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

    def _reflected_simplex(self, start: np.ndarray) -> np.ndarray:
        """scipy's default first simplex, reflected into the box at both bounds."""
        low = self.witness.low
        simplex = np.tile(start, (len(start) + 1, 1))
        diagonal = np.arange(len(start))
        simplex[diagonal + 1, diagonal] = np.where(start != 0.0, 1.05 * start, 0.00025)
        simplex = np.where(simplex > 1.0, 2.0 - simplex, simplex)
        simplex = np.where(simplex < low, 2.0 * low - simplex, simplex)
        return np.clip(simplex, low, 1.0)

    def _anneal(
        self,
        start: np.ndarray,
        penalized_negative,
        rng: np.random.Generator,
        opts: SearchOptions,
    ) -> np.ndarray:
        """Geometric-cooling Metropolis walk used to escape shallow basins."""
        current = np.array(start, dtype=np.float64)
        current_value = penalized_negative(current)
        best, best_value = current, current_value
        temperature = _ANNEAL_INITIAL_TEMP
        step = _ANNEAL_INITIAL_STEP
        for _ in range(opts.anneal_steps):
            proposal = np.clip(current + rng.normal(0.0, step, len(current)), self.witness.low, 1.0)
            value = penalized_negative(proposal)
            if value < current_value or rng.random() < math.exp(
                -(value - current_value) / max(temperature, 1e-12)
            ):
                current, current_value = proposal, value
                if value < best_value:
                    best, best_value = proposal, value
            temperature *= _ANNEAL_FACTOR
            step *= _ANNEAL_FACTOR
        return best

