"""Worst-case correlations compatible with separability.

Given a witness, copy counts, and an acceptance set (or a single outcome),
find the correlation vector that maximizes the acceptance probability while
staying inside the separability region: a nonnegative ideal value for linear
witnesses, a sum of squares at most 1 for the quadratic witness, and every
correlation inside [-1, 1].  Such correlations bound what any separable
state can do even when they correspond to no physical state.  The witness
class supplies its region's violation and exact projection.

Every search takes one path: ``_search`` climbs groups of starts by one
batched projected-gradient ascent on the grid engine's exact gradients
(``WitnessGrid.value_and_grad``), one row per start, and ``_result`` checks
the point of the best candidate and re-evaluates it exactly.  The ascent
projects every start onto the region, so starts may lie outside it.
Acceptance-set searches climb the set's weighted mass from the analytic
point, any seed points and random points of the box, all drawn from one
generator, and, with restarts, from the projected box point of largest mass
among a screen of ``_SCREEN_POINTS`` more.  Single-outcome searches share
one deterministic scan of the feasible region per problem: a capped lattice
of the box, each point projected onto the region and evaluated in chunks
with the batched grid engine, keeps the best point of every outcome, and
every outcome climbs from that seed at once.  Symmetric threshold problems
additionally have known analytic solutions; as the first start of every
search, they floor its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .acceptance import AcceptanceSet
from .errors import DomainError, InfeasibleError
from .finite_stats import check_integer, check_real
from .pmf import OutcomePmf, RationalLike, as_fraction
from .witnesses import _DIRECT_BINOMIAL_LIMIT, Witness, WitnessGrid


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on call.  No search calls it;
    perfbench's tracer counts Nelder-Mead runs through this name."""
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


#: Tolerated constraint violation of a returned point.
FEASIBILITY_TOLERANCE = 1e-9

#: Lattice points of the pointwise scan, whatever the number of settings.
_SCAN_LATTICE_CAP = 32_768

#: Lattice points on each axis of the scan at most: as many as a 3-setting
#: lattice gets, so that problems of 1 and 2 settings scan 32 and 1,024
#: points instead of tens of thousands.
_SCAN_AXIS_CAP = round(_SCAN_LATTICE_CAP ** (1.0 / 3.0))

#: Lattice points that one engine call of the scan takes at most.  Fewer
#: calls cost less overhead; more points per call only add memory.
_SCAN_CALL_CAP = 1024

#: Floats that one engine call of the scan or the ascent may hold in its
#: largest step table, rows x ``WitnessGrid.table_size``.  Each lattice
#: point is one row, and a scan call takes at least 1 and at most
#: ``_SCAN_CALL_CAP`` lattice points.  An ascent row probes each setting
#: once when it looks flat (M rows), and an ascent call takes at least 1 row.
_SCAN_FLOATS = 2**20

#: Uniform box points that an acceptance-set search with restarts screens
#: by their projections' set mass; the best one climbs as its last start.
_SCREEN_POINTS = 64

#: Largest entry of the first step of the ascent, and of the
#: probe that projects its gradients (see ``_ascent_directions``).
_FIRST_STEP = 0.1

#: Cap on the largest entry of an ascent step before projection, far beyond
#: the box, so that a row sliding along a face cannot double its step until
#: the step overflows.
_MAX_STEP = 1e4

#: Share of the first-order gain that an accepted ascent step must reach,
#: over the lowest of the row's last ``_MEMORY`` values.
_ARMIJO = 1e-4
_MEMORY = 3


@dataclass(frozen=True)
class SearchOptions:
    """Tunable knobs of the worst-case search; defaults are reproducible.

    Every start gets one row of the gradient ascent (see
    ``WorstCaseProblem._ascend``), of at most ``max_iterations`` trial
    steps, stopping where no move of largest entry ``xatol`` gains more than
    ``fatol``.  Acceptance-set searches add random points of the box, drawn
    from one generator seeded with ``seed`` and projected by the ascent, to
    the analytic point and any seed points until there are ``restarts``
    starts, and one screened start from the same generator where
    ``restarts`` is above 0 (see ``maximize_set``).  Pointwise searches
    start from the analytic point and the best scan point, and use only
    ``max_iterations``, ``xatol`` and ``fatol``.
    """

    restarts: int = 32
    seed: int = 0
    max_iterations: int = 600
    xatol: float = 1e-6
    fatol: float = 1e-12

    def __post_init__(self):
        for name in ("restarts", "seed", "max_iterations"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name))
        for name in ("xatol", "fatol"):
            object.__setattr__(self, name, check_real(getattr(self, name), name, 0.0, ends="()"))


#: One loose ascent from each seed point and from the analytic start, without
#: random restarts or a screened start.  The planner's pointwise searches and
#: the feasibility probes of the acceptance-set search use it.
POLISH = SearchOptions(restarts=0, max_iterations=300, xatol=1e-4, fatol=1e-10)


@dataclass(frozen=True)
class WorstCaseResult:
    """Optimizer output: the correlations, the achieved probability, and the
    full outcome distribution at that point."""

    correlations: tuple[float, ...]
    objective: float
    dist: OutcomePmf
    restarts_used: int
    converged: bool


def _best(candidates: Sequence[tuple]) -> tuple:
    """The candidate (value, point, unfinished) of largest value; an exact
    tie goes to the first in start order."""
    return max(candidates, key=lambda candidate: candidate[0])


def _largest(rows: np.ndarray) -> np.ndarray:
    """Largest absolute entry of every row, 1 for a row of zeros."""
    largest = np.abs(rows).max(axis=1)
    return np.where(largest > 0.0, largest, 1.0)


class WorstCaseProblem:
    """One witness + copy allocation and its worst-case searches.

    The outcome grid and its integer encoding come from ``WitnessGrid``.
    The scans evaluate candidate points with that engine's ``pmf_batch``,
    and every search climbs with its ``value_and_grad``.
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
        the caps allow (``_SCAN_LATTICE_CAP`` in all, ``_SCAN_AXIS_CAP`` per
        axis) and at least 2.  Where even 2 per axis exceed the cap, a fixed
        pseudo-random subset of the box corners stands in.
        """
        m = len(self.copies)
        per_axis = max(2, min(_SCAN_AXIS_CAP, round(_SCAN_LATTICE_CAP ** (1.0 / m))))
        while per_axis > 2 and per_axis**m > _SCAN_LATTICE_CAP:
            per_axis -= 1
        if per_axis**m <= _SCAN_LATTICE_CAP:
            cells = range(per_axis**m)
        else:
            corners = np.random.default_rng(0).choice(2**m, _SCAN_LATTICE_CAP, replace=False)
            cells = np.sort(corners)
        return cells, np.linspace(self.witness.low, 1.0, per_axis)

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Best scan point of every outcome: its mass (G,) and the point
        itself (G, M).

        The scan points are the lattice points projected onto the region
        (``project_batch``): a feasible point stays, an infeasible one moves
        to its nearest feasible point.  The scan runs in chunks of at most
        ``_SCAN_CALL_CAP`` lattice points, fewer where ``_SCAN_FLOATS`` asks
        for it; ties go to the earlier point in lattice order (the first
        within a chunk, the held one across chunks), so the result does not
        depend on the chunk size.
        """
        self.witness.check_separable_region()
        cells, axis = self._scan_lattice()
        per_call = max(1, min(_SCAN_CALL_CAP, _SCAN_FLOATS // self._engine.table_size))
        best = np.full(len(self.grid), -np.inf)
        where = np.zeros((len(self.grid), len(self.copies)))
        shape = (len(axis),) * len(self.copies)
        for start in range(0, len(cells), per_call):
            digits = np.unravel_index(cells[start : start + per_call], shape)
            points = self.witness.project_batch(axis[np.stack(digits, axis=1)])
            mass = self._engine.pmf_batch(points)
            first, top = np.argmax(mass, axis=0), mass.max(axis=0)
            better = top > best
            best[better] = top[better]
            where[better] = points[first[better]]
        return best, where

    # -- search ------------------------------------------------------------

    def maximize_set(
        self,
        acc: AcceptanceSet,
        options: SearchOptions | None = None,
        seed_points: Sequence[Sequence[float]] = (),
    ) -> WorstCaseResult:
        """Worst-case probability of landing in the acceptance set.

        One group of starts climbs the set's weighted mass (``_search``):
        the analytic point, the seed points as given, and random points of
        the box until there are ``restarts`` starts, all drawn from one
        generator seeded with ``seed``; the ascent projects them onto the
        region.  With ``restarts`` above 0, the same generator then draws
        ``_SCREEN_POINTS`` box points, and the first of largest set mass
        once projected, evaluated in chunks sized by ``_SCAN_FLOATS``,
        climbs last; ``restarts_used`` does not count it.  A few restarts
        can all climb into one low basin, and the screened start lands in a
        higher one far more often.  The result is the best candidate
        (``_best``), the first in start order on an exact tie, so never
        below the analytic start's or the search's without the screened
        start.  It is ``converged`` when at least 3 candidates (every
        candidate, if fewer) lie within 1e-3 of the best.  With no start at
        all it raises DomainError.
        """
        weights = self.outcome_weights(acc)
        opts = options or SearchOptions()
        self.witness.check_separable_region()
        starts = self._analytic_start() + list(seed_points)
        rng = np.random.default_rng(opts.seed)
        shape = (max(0, opts.restarts - len(starts)), len(self.copies))
        starts += list(rng.uniform(self.witness.low, 1.0, shape))
        restarts_used = len(starts)
        if opts.restarts > 0:
            box = rng.uniform(self.witness.low, 1.0, (_SCREEN_POINTS, len(self.copies)))
            screen = self.witness.project_batch(box)
            per_call = max(1, _SCAN_FLOATS // self._engine.table_size)
            chunks = range(0, _SCREEN_POINTS, per_call)
            mass = [self._engine.pmf_batch(screen[i : i + per_call]) @ weights for i in chunks]
            starts.append(screen[np.argmax(np.concatenate(mass))])

        def rows(owner):
            return np.broadcast_to(weights, (len(owner), len(self.grid)))

        (candidates,) = self._search(rows, [starts], opts)
        best_value, chosen, _ = _best(candidates)
        near_best = sum(1 for value, _, _ in candidates if value >= best_value - 1e-3)
        return self._result(
            chosen,
            lambda dist: float(np.dot(weights, np.array(dist.probabilities))),
            restarts_used,
            near_best >= min(3, len(candidates)),
        )

    def maximize_point(
        self, outcome: RationalLike, options: SearchOptions | None = None
    ) -> WorstCaseResult:
        """Worst-case probability of one exact outcome (see ``_polish``)."""
        key = as_fraction(outcome)
        try:
            index = self.grid.index(key)
        except ValueError:
            raise DomainError(f"outcome {key} is not on the grid") from None
        return self._polish([index], options)[0]

    def maximize_all_points(
        self, options: SearchOptions | None = None
    ) -> dict[Fraction, WorstCaseResult]:
        """Point-wise worst case for every grid outcome (see ``_polish``)."""
        return dict(zip(self.grid, self._polish(range(len(self.grid)), options)))

    def _polish(
        self, indices: Sequence[int], options: SearchOptions | None
    ) -> list[WorstCaseResult]:
        """Worst cases of the outcomes at ``indices``, one result each.

        Every outcome is one group of ``_search``, whose starts are the
        analytic worst case where one applies and its best scan point, and
        every row is computed on its own, so an outcome's result does not
        depend on the others searched with it.  Only ``max_iterations``,
        ``xatol`` and ``fatol`` of the options apply.  An outcome's result is
        its best candidate (``_best``), and it is ``converged`` when the row
        that gave its point met its stopping test within ``max_iterations``.
        """
        opts = options or SearchOptions()
        _, where = self._scan
        analytic = self._analytic_start()
        groups = [analytic + [where[index]] for index in indices]
        owners = np.asarray(indices, dtype=np.int64)
        grid = np.arange(len(self.grid))
        found = self._search(
            lambda owner: (owners[owner][:, None] == grid).astype(np.float64), groups, opts
        )
        results = []
        for index, starts, candidates in zip(indices, groups, found):
            _, chosen, unfinished = _best(candidates)
            results.append(
                self._result(
                    chosen,
                    lambda dist: float(dist.probabilities[index]),
                    len(starts),
                    not unfinished,
                )
            )
        return results

    def _analytic_start(self) -> list[tuple[float, ...]]:
        """The witness's analytic worst case as the only start of a list,
        or no start where it has none."""
        try:
            return [self.witness.analytic_worst_case()]
        except DomainError:
            return []

    def _search(
        self, weights, groups: Sequence[Sequence], opts: SearchOptions
    ) -> list[list[tuple]]:
        """Candidates of every group of starts: each start of ``groups``
        gets one row of ``_ascend``, all rows in chunks sized by
        ``_SCAN_FLOATS``.  ``weights(owner)`` gives the outcome weights
        (len(owner), G) of the rows whose groups are ``owner``, so that no
        more than one chunk's weights are held at once.

        A group's candidates are (value, point, unfinished): every row's
        projected start, then every row's best point, in start order, where
        ``unfinished`` says that the row did not stop within
        ``max_iterations``.  A group without a start raises DomainError.
        """
        counts = [len(starts) for starts in groups]
        if not all(counts):
            raise DomainError(
                "the search has no start: no analytic worst case, scan point, seed point or restart"
            )
        owner = np.repeat(np.arange(len(groups)), counts)
        start = np.array([p for starts in groups for p in starts], dtype=np.float64)
        start = start.reshape(len(owner), len(self.copies))
        per_call = max(1, _SCAN_FLOATS // (len(self.copies) * self._engine.table_size))
        climbs = []
        for i in range(0, len(start), per_call):
            rows = slice(i, i + per_call)
            climbs.append(self._ascend(weights(owner[rows]), start[rows], opts))
        first, first_value, top, top_value, stopped = (np.concatenate(c) for c in zip(*climbs))
        ends = np.cumsum(counts)
        return [
            [
                (float(values[r]), tuple(float(x) for x in points[r]), not stopped[r])
                for values, points in ((first_value, first), (top_value, top))
                for r in range(end - count, end)
            ]
            for count, end in zip(counts, ends)
        ]

    def _result(self, point, objective, restarts_used: int, converged: bool) -> WorstCaseResult:
        """The result at ``point``, re-evaluated exactly with ``pmf_at``;
        ``objective(dist)`` gives its value from that outcome distribution.
        Raises InfeasibleError where the point lies outside the region."""
        if self.witness.violation(point) > FEASIBILITY_TOLERANCE:
            raise InfeasibleError("worst-case search returned an infeasible point")
        dist = self.pmf_at(point)
        return WorstCaseResult(point, objective(dist), dist, restarts_used, converged)

    def _ascend(self, weights: np.ndarray, start: np.ndarray, opts: SearchOptions):
        """Projected-gradient ascent of the expected weight ``weights[i]``
        (B, G) of the outcome distribution from ``start[i]`` (B, M), row by
        row.

        Each row searches along the projection arc P(t + a * h).  Its heading
        h is the gradient projected onto the directions that stay in the
        region (``_ascent_directions``), and a is first the Barzilai-Borwein
        length of the last step, measured on those projected gradients so
        that curvature along a curved boundary counts.  a halves until the
        value passes the Armijo test against the lowest of the row's last
        ``_MEMORY`` values (Bertsekas, *Nonlinear Programming*, section 2.3;
        Birgin, Martinez and Raydan, SIAM J. Optim. 10, 2000).  Where a point
        looks flat but ``_settled`` does not accept it, the next trial is the
        move that ``_settled`` proposes, once.  A row stops at a point that
        ``_settled`` accepts, or after a rejected gradient step that moves at
        most ``xatol`` (largest entry) and promises a gain between 0 and
        ``fatol`` to first order.  Returns the projected starts, their values, each row's
        best point and value, and whether each row stopped within
        ``max_iterations`` trials.
        """
        point = self.witness.project_batch(start)
        value, grad = self._engine.value_and_grad(weights, point)
        reach = np.full(len(point), _FIRST_STEP)
        direction = self._ascent_directions(point, grad, reach)
        step = _FIRST_STEP / _largest(direction)
        stopped, proposal = self._settled(weights, point, grad, opts)
        first, first_value = point.copy(), value.copy()
        best, best_value = point.copy(), value.copy()
        recent = np.tile(value[:, None], (1, _MEMORY))
        active = np.flatnonzero(~stopped)
        for _ in range(opts.max_iterations):
            if not len(active):
                break
            # A proposed move gets one trial as it stands.
            proposed = (proposal[active] != 0.0).any(axis=1)
            heading = np.where(proposed[:, None], proposal[active], direction[active])
            length = np.where(proposed, 1.0, np.minimum(step[active], _MAX_STEP / _largest(heading)))
            here, slope = point[active], grad[active]
            trial = self.witness.project_batch(here + length[:, None] * heading)
            trial_value, trial_grad = self._engine.value_and_grad(weights[active], trial)
            move = trial - here
            promise = (slope * move).sum(axis=1)
            accept = trial_value >= recent[active].min(axis=1) + _ARMIJO * promise
            # Short enough, the step stays on the segment to the probe and
            # promises a gain of at least 0; below fatol it has collapsed.
            small = (np.abs(move).max(axis=1) <= opts.xatol) & (promise <= opts.fatol)
            done = ~accept & ~proposed & small & (promise >= 0.0)
            step[active] = np.where(proposed, step[active], 0.5 * length)
            proposal[active] = 0.0

            taken, moved = active[accept], move[accept]
            size = np.abs(moved).max(axis=1)
            reach[taken] = np.clip(size, opts.xatol, _FIRST_STEP)
            turned = self._ascent_directions(trial[accept], trial_grad[accept], reach[taken])
            # Barzilai-Borwein length where the projected gradient turned
            # against the move, a move twice as long where it did not.
            curvature = -(moved * (turned - direction[taken])).sum(axis=1)
            spectral = (moved * moved).sum(axis=1) / np.where(curvature > 0.0, curvature, 1.0)
            step[taken] = np.where(curvature > 0.0, spectral, 2.0 * size / _largest(turned))
            settled, proposal[taken] = self._settled(
                weights[taken], trial[accept], trial_grad[accept], opts
            )
            # A step that did not move at all has collapsed.
            done[accept] = settled | (size == 0.0)
            point[taken], value[taken] = trial[accept], trial_value[accept]
            grad[taken], direction[taken] = trial_grad[accept], turned
            recent[taken] = np.hstack([recent[taken, 1:], value[taken, None]])
            better = taken[value[taken] > best_value[taken]]
            best[better], best_value[better] = point[better], value[better]
            stopped[active[done]] = True
            active = active[~done]
        return first, first_value, best, best_value, stopped

    def _settled(self, weights, points, grads, opts: SearchOptions):
        """Whether each row (B,) may stop, and a move (B, M) for the rows
        that look flat but may not (zeros elsewhere).

        A row looks flat where no move of largest entry ``xatol`` gains more
        than ``fatol`` to first order, with bounds within ``xatol`` counted
        as active.  It may stop where, in addition, a quadratic model along
        each setting, from a probe ``xatol`` away along that setting's
        projected gradient, gains at most ``fatol`` in all.  Along a shallow
        ridge the gradient is led by the steep settings, so the first test
        alone stops a row well short of the top of the shallow ones; the
        proposed move is the sum of every setting's model step.
        """
        reduced = self._ascent_directions(points, grads, np.full(len(points), opts.xatol))
        settled = opts.xatol * np.abs(reduced).sum(axis=1) <= opts.fatol
        proposal = np.zeros_like(points)
        near = np.flatnonzero(settled)
        if not len(near):
            return settled, proposal
        rows, m = len(near), points.shape[1]
        base = points[near][:, None, :]
        moves = opts.xatol * np.sign(reduced[near])[:, :, None] * np.eye(m)
        probes = self.witness.project_batch((base + moves).reshape(-1, m))
        offset = probes.reshape(rows, m, m) - base
        _, probe_grad = self._engine.value_and_grad(np.repeat(weights[near], m, axis=0), probes)
        slope = grads[near][:, None, :]
        rise = (slope * offset).sum(axis=2)
        bend = -((probe_grad.reshape(rows, m, m) - slope) * offset).sum(axis=2)
        # Along each offset that rises, the model peaks rise / bend offsets
        # away and gains rise**2 / (2 bend) there; one that rises without
        # bending down has no peak.
        climbs = (rise > 0.0) & (bend > 0.0)
        peak = np.divide(rise, bend, out=np.zeros_like(rise), where=climbs)
        gain = np.where(climbs, 0.5 * rise * peak, np.where(rise > 0.0, np.inf, 0.0))
        flat = gain.sum(axis=1) <= opts.fatol
        settled[near] = flat
        proposal[near[~flat]] = (peak[:, :, None] * offset).sum(axis=1)[~flat]
        return settled, proposal

    def _ascent_directions(
        self, points: np.ndarray, grads: np.ndarray, reach: np.ndarray
    ) -> np.ndarray:
        """Gradients (B, M) projected onto the directions that stay in the
        region near points (B, M): a probe step of length ``reach`` (largest
        entry) along each gradient, projected, and scaled back.  Bounds
        within that reach count as active, so that a row near an edge
        follows it instead of bouncing between its two faces."""
        scale = _largest(grads) / reach
        probe = self.witness.project_batch(points + grads / scale[:, None])
        return (probe - points) * scale[:, None]

    def _anneal(self, *args, **kwargs):
        """No search calls it; it stays while perfbench's tracer wraps it."""
        raise NotImplementedError("the annealing walk is retired")
