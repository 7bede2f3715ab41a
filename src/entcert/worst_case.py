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
(``WitnessGrid.value_and_grad``), one row per start, and ``_exact`` checks
the points of the best candidates and re-evaluates them exactly, all in one
engine call where they fit.  The ascent projects every start onto the
region, so starts may lie outside it.
Acceptance-set searches climb the set's weighted mass from the analytic
point, any seed points and random points of the box, all drawn from one
generator, and, with restarts, from the projected box point of largest mass
among a screen of ``_SCREEN_POINTS`` more.  Single-outcome searches share
one deterministic scan of the feasible region per problem: a capped lattice
of the box, one cell for each orbit of swaps of exchangeable settings, each
point projected onto the region and evaluated in chunks with the batched
grid engine, keeps the best point of every outcome, and every outcome
climbs from that seed alone, all outcomes at once, so the seed's mass floors
its result.  Symmetric threshold problems additionally have known analytic
solutions; as the first start of every acceptance-set search, they floor its
result.

A setting whose grid values are all equal has an outcome law that does not
depend on its correlation: a 1-copy setting of the quadratic witness or a
zero-coefficient setting of a linear one.  Every search pins it at the
witness's ``low``, which loses no maximum (``WorstCaseProblem._pinned``): the
scan takes one lattice value on its axis, every start sets it to ``low``,
and the ascent never moves it, so every reported point has ``low`` there.
"""

from __future__ import annotations

import itertools
import math
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
    perfbench's tracer counts Nelder-Mead runs through this name.  scipy
    is no runtime dependency: calling this needs the ``test`` extra."""
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
    start from the outcome's best scan point alone, and use only
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


#: One loose ascent from each start, without random restarts or a screened
#: start: from each outcome's scan point in the planner's pointwise searches,
#: and from the analytic start and the seed points in the feasibility probes
#: of the acceptance-set search.
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
    largest = np.maximum.reduce(np.abs(rows), axis=1)
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
        #: Settings whose grid values are all equal, so that their outcome
        #: law is constant: a 1-copy setting of the quadratic witness, a
        #: zero-coefficient setting of a linear one.  Every search fixes
        #: them at ``witness.low``, which changes no law and, as ``low``
        #: never shrinks the region, loses no maximum.
        self._pinned = [j for j, values in enumerate(grid.values) if np.all(values == values[0])]

    # -- evaluation --------------------------------------------------------

    def pmf_at(self, correlations) -> OutcomePmf:
        """Exact-grid outcome pmf for the given correlations."""
        return self._engine.pmf(correlations)

    def outcome_weights(self, acc: AcceptanceSet) -> np.ndarray:
        acc.validate_on_grid(self.grid)
        return np.array([acc.weight(o) for o in self.grid], dtype=np.float64)

    # -- scan of the separable region -------------------------------------

    def _exchangeable(self) -> list[list[int]]:
        """Classes of exchangeable settings, each class in setting order.

        Settings are exchangeable where their grid values are equal arrays:
        equal copies and, for a linear witness, an equal coefficient.
        Swapping two of them changes neither the outcome law nor the
        separable region.
        """
        classes: list[list[int]] = []
        for j, values in enumerate(self._engine.values):
            for members in classes:
                if np.array_equal(self._engine.values[members[0]], values):
                    members.append(j)
                    break
            else:
                classes.append([j])
        return classes

    def _lattice_shape(self, per_axis: int) -> tuple[int, ...]:
        """Shape of a scan lattice with ``per_axis`` points on every free
        axis: a pinned setting (``_pinned``) has one point, its ``low``."""
        return tuple(1 if j in self._pinned else per_axis for j in range(len(self.copies)))

    def _scan_lattice(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices, in lattice order, and axis values of the cells of
        the lattice of the feasible box that the scan evaluates.

        Every free axis gets the same number of evenly spaced points, as
        many as the caps allow over the free settings (``_SCAN_LATTICE_CAP``
        in all, ``_SCAN_AXIS_CAP`` per axis) and at least 2; a pinned
        setting (``_pinned``) has one point, its ``low``, so the indices
        are flat in ``_lattice_shape``.  Where even 2 per free axis exceed
        the cap, a fixed pseudo-random subset of the corners of the free
        settings' box stands in.  Each cell is replaced by its canonical
        cell, its digits sorted ascending within every class of
        exchangeable settings (``_exchangeable``), and kept once: swapping
        such settings moves no mass, and the canonical cell is the first of
        its orbit in lattice order.  The full lattice's canonical cells are
        built directly, one sorted digit tuple per class, without a digit
        array of the whole lattice.
        """
        free = [j for j in range(len(self.copies)) if j not in self._pinned]
        root = round(_SCAN_LATTICE_CAP ** (1.0 / max(len(free), 1)))
        per_axis = max(2, min(_SCAN_AXIS_CAP, root))
        while per_axis > 2 and per_axis ** len(free) > _SCAN_LATTICE_CAP:
            per_axis -= 1
        # Exchangeable settings have equal values, so a class is pinned whole.
        classes = [c for c in self._exchangeable() if c[0] not in self._pinned]
        shape = self._lattice_shape(per_axis)
        if per_axis ** len(free) <= _SCAN_LATTICE_CAP:
            strides = np.array([math.prod(shape[j + 1 :]) for j in range(len(shape))])
            cells = np.zeros(1, dtype=np.int64)
            for members in classes:
                digits = itertools.combinations_with_replacement(range(per_axis), len(members))
                cells = np.add.outer(cells, np.array(list(digits)) @ strides[members]).ravel()
            cells = np.sort(cells)
        else:
            rng = np.random.default_rng(0)
            corners = rng.choice(2 ** len(free), _SCAN_LATTICE_CAP, replace=False)
            digits = np.zeros((len(corners), len(shape)), dtype=np.int64)
            digits[:, free] = np.stack(np.unravel_index(corners, (2,) * len(free)), axis=1)
            for members in classes:
                digits[:, members] = np.sort(digits[:, members], axis=1)
            cells = np.unique(np.ravel_multi_index(tuple(digits.T), shape))
        return cells, np.linspace(self.witness.low, 1.0, per_axis)

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        """Best scan point of every outcome: its mass (G,) and the point
        itself (G, M).

        The scan points are the cells of ``_scan_lattice``, one for each
        orbit of exchangeable settings, projected onto the region
        (``project_batch``): a feasible point stays, an infeasible one moves
        to its nearest feasible point.  Every point of an orbit has the same
        masses, up to float rounding, and its canonical cell comes first in
        lattice order, so each outcome's best mass is the one over all the
        cells, and on the full lattice its point is too.  The scan runs in chunks of at most
        ``_SCAN_CALL_CAP`` lattice points, fewer where ``_SCAN_FLOATS`` asks
        for it.  ``project_batch`` and ``pmf_batch`` round each row as if
        it were alone, and ties go to the earlier point in lattice order
        (the first within a chunk, the held one across chunks), so the
        result does not depend on the chunk size, bit for bit.
        """
        self.witness.check_separable_region()
        cells, axis = self._scan_lattice()
        per_call = max(1, min(_SCAN_CALL_CAP, _SCAN_FLOATS // self._engine.table_size))
        best = np.full(len(self.grid), -np.inf)
        where = np.zeros((len(self.grid), len(self.copies)))
        shape = self._lattice_shape(len(axis))
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
        ``_SCREEN_POINTS`` box points, their pinned settings (``_pinned``)
        then set to ``low``, and the first of largest set mass once
        projected, evaluated in chunks sized by ``_SCAN_FLOATS``,
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
            box[:, self._pinned] = self.witness.low
            screen = self.witness.project_batch(box)
            per_call = max(1, _SCAN_FLOATS // self._engine.table_size)
            chunks = range(0, _SCREEN_POINTS, per_call)
            mass = [
                np.add.reduce(self._engine.pmf_batch(screen[i : i + per_call]) * weights, axis=-1)
                for i in chunks
            ]
            starts.append(screen[np.argmax(np.concatenate(mass))])

        def rows(owner):
            return np.broadcast_to(weights, (len(owner), len(self.grid)))

        (candidates,) = self._search(rows, [starts], opts)
        best_value, chosen, _ = _best(candidates)
        near_best = sum(1 for value, _, _ in candidates if value >= best_value - 1e-3)
        (dist,) = self._exact([chosen])
        return WorstCaseResult(
            chosen,
            float(np.dot(weights, np.array(dist.probabilities))),
            dist,
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

        Every outcome is one group of ``_search`` with one start, its best
        scan point (``_scan``), so the scan point's mass is its result's
        floor and ``restarts_used`` is 1.  Every row is computed on its own,
        so an outcome's result does not depend on the others searched with
        it.  Only ``max_iterations``, ``xatol`` and ``fatol`` of the options
        apply.  An outcome's result is its best candidate (``_best``), and
        it is ``converged`` when the row that gave its point met its
        stopping test within ``max_iterations``.  The chosen points are
        re-evaluated exactly together (``_exact``).
        """
        opts = options or SearchOptions()
        _, where = self._scan
        owners = np.asarray(indices, dtype=np.int64)
        grid = np.arange(len(self.grid))
        found = self._search(
            lambda owner: (owners[owner][:, None] == grid).astype(np.float64),
            [[where[index]] for index in indices],
            opts,
        )
        chosen = [_best(candidates) for candidates in found]
        dists = self._exact([point for _, point, _ in chosen])
        return [
            WorstCaseResult(point, float(dist.probabilities[index]), dist, 1, not unfinished)
            for index, (_, point, unfinished), dist in zip(indices, chosen, dists)
        ]

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

    def _exact(self, points: Sequence[tuple[float, ...]]) -> list[OutcomePmf]:
        """Exact outcome pmfs at ``points``: ``pmf_batch`` calls of at most
        ``_SCAN_FLOATS`` table floats each, one call for most problems.
        ``pmf_batch`` rounds each row as if it were alone, so every pmf is
        ``pmf_at``'s, bit for bit.  Raises InfeasibleError where a point
        lies outside the region."""
        if any(self.witness.violation(point) > FEASIBILITY_TOLERANCE for point in points):
            raise InfeasibleError("worst-case search returned an infeasible point")
        per_call = max(1, _SCAN_FLOATS // self._engine.table_size)
        rows = np.array(points, dtype=np.float64).reshape(len(points), len(self.copies))
        return [
            self._engine.as_pmf(mass.tolist())
            for i in range(0, len(rows), per_call)
            for mass in self._engine.pmf_batch(rows[i : i + per_call])
        ]

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
        ``max_iterations`` trials.  Every start has its pinned settings
        (``_pinned``) set to ``low`` first, and no step moves them.
        """
        start = np.array(start, dtype=np.float64)
        start[:, self._pinned] = self.witness.low
        point = self.witness.project_batch(start)
        value, grad = self._engine.value_and_grad(weights, point)
        reach = np.full(len(point), _FIRST_STEP)
        direction, reduced = self._ascent_directions(point, grad, reach, opts.xatol)
        step = _FIRST_STEP / _largest(direction)
        stopped, proposal = self._settled(weights, point, grad, reduced, opts)
        first, first_value = point.copy(), value.copy()
        best, best_value = point.copy(), value.copy()
        recent = np.tile(value[:, None], (1, _MEMORY))
        active = np.flatnonzero(~stopped)
        for _ in range(opts.max_iterations):
            if not len(active):
                break
            # A proposed move gets one trial as it stands.
            proposed_move, last_step = proposal[active], step[active]
            proposed = np.logical_or.reduce(proposed_move != 0.0, axis=1)
            heading = np.where(proposed[:, None], proposed_move, direction[active])
            length = np.where(proposed, 1.0, np.minimum(last_step, _MAX_STEP / _largest(heading)))
            here, slope = point[active], grad[active]
            trial = self.witness.project_batch(here + length[:, None] * heading)
            trial_value, trial_grad = self._engine.value_and_grad(weights[active], trial)
            move = trial - here
            promise = np.add.reduce(slope * move, axis=1)
            accept = trial_value >= np.minimum.reduce(recent[active], axis=1) + _ARMIJO * promise
            # Short enough, the step stays on the segment to the probe and
            # promises a gain of at least 0; below fatol it has collapsed.
            small = (np.maximum.reduce(np.abs(move), axis=1) <= opts.xatol) & (promise <= opts.fatol)
            done = ~accept & ~proposed & small & (promise >= 0.0)
            step[active] = np.where(proposed, last_step, 0.5 * length)
            proposal[active] = 0.0

            taken, moved = active[accept], move[accept]
            there, there_grad = trial[accept], trial_grad[accept]
            size = np.maximum.reduce(np.abs(moved), axis=1)
            reach[taken] = np.minimum(np.maximum(size, opts.xatol), _FIRST_STEP)
            turned, reduced = self._ascent_directions(there, there_grad, reach[taken], opts.xatol)
            # Barzilai-Borwein length where the projected gradient turned
            # against the move, a move twice as long where it did not.
            curvature = -np.add.reduce(moved * (turned - direction[taken]), axis=1)
            spectral = np.add.reduce(moved * moved, axis=1) / np.where(curvature > 0.0, curvature, 1.0)
            step[taken] = np.where(curvature > 0.0, spectral, 2.0 * size / _largest(turned))
            settled, proposal[taken] = self._settled(
                weights[taken], there, there_grad, reduced, opts
            )
            # A step that did not move at all has collapsed.
            done[accept] = settled | (size == 0.0)
            point[taken], value[taken] = there, trial_value[accept]
            grad[taken], direction[taken] = there_grad, turned
            # The row's last _MEMORY values, oldest first.
            recent[taken, :-1] = recent[taken, 1:]
            recent[taken, -1] = value[taken]
            better = taken[value[taken] > best_value[taken]]
            best[better], best_value[better] = point[better], value[better]
            stopped[active[done]] = True
            active = active[~done]
        return first, first_value, best, best_value, stopped

    def _settled(self, weights, points, grads, reduced, opts: SearchOptions):
        """Whether each row (B,) may stop, and a move (B, M) for the rows
        that look flat but may not (zeros elsewhere).

        ``reduced`` holds the rows' gradients projected at reach ``xatol``
        (``_ascent_directions``), which ``_ascend`` makes in the same call
        as its heading.  A row looks flat where no move of largest entry
        ``xatol`` gains more than ``fatol`` to first order, with bounds
        within ``xatol`` counted as active.  It may stop where, in addition,
        a quadratic model along each setting, from a probe ``xatol`` away
        along that setting's projected gradient, gains at most ``fatol`` in
        all.  Along a shallow ridge the gradient is led by the steep
        settings, so the first test alone stops a row well short of the top
        of the shallow ones; the proposed move is the sum of every setting's
        model step.
        """
        settled = opts.xatol * np.add.reduce(np.abs(reduced), axis=1) <= opts.fatol
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
        rise = np.add.reduce(slope * offset, axis=2)
        bend = -np.add.reduce((probe_grad.reshape(rows, m, m) - slope) * offset, axis=2)
        # Along each offset that rises, the model peaks rise / bend offsets
        # away and gains rise**2 / (2 bend) there; one that rises without
        # bending down has no peak.
        climbs = (rise > 0.0) & (bend > 0.0)
        peak = np.divide(rise, bend, out=np.zeros_like(rise), where=climbs)
        gain = np.where(climbs, 0.5 * rise * peak, np.where(rise > 0.0, np.inf, 0.0))
        flat = np.add.reduce(gain, axis=1) <= opts.fatol
        settled[near] = flat
        proposal[near[~flat]] = np.add.reduce(peak[:, :, None] * offset, axis=1)[~flat]
        return settled, proposal

    def _ascent_directions(
        self, points: np.ndarray, grads: np.ndarray, reach: np.ndarray, xatol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradients (B, M) projected onto the directions that stay in the
        region near points (B, M), at two reaches: ``reach`` (B,) for the
        heading and ``xatol`` for ``_settled``.  Each is a probe step of that
        length (largest entry) along each gradient, projected, and scaled
        back.  Bounds within a reach count as active, so that a row near an
        edge follows it instead of bouncing between its two faces.  Both
        probes go through one ``project_batch`` call."""
        largest = _largest(grads)
        scale = np.concatenate([(largest / reach)[:, None], (largest / xatol)[:, None]])
        base = np.concatenate([points, points])
        probe = self.witness.project_batch(base + np.concatenate([grads, grads]) / scale)
        both = (probe - base) * scale
        return both[: len(points)], both[len(points) :]

    def _anneal(self, *args, **kwargs):
        """No search calls it; it stays while perfbench's tracer wraps it."""
        raise NotImplementedError("the annealing walk is retired")
