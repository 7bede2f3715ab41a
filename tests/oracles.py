"""Exact per-setting laws for the brute-force oracles, built without the
grid engine they check: each weight is ``scipy.stats.binom.pmf``.  Also
reference formulations of the engine's gradient pass and of the Monte Carlo
tally, which the package must match bit for bit, of the planner's power
ceiling, which it must match to float noise, and of the two-start pointwise
search, which the one-start search must not fall below by more than search
noise."""

from fractions import Fraction

import numpy as np
from scipy.stats import binom

from entcert.inference import neyman_pearson_test, power
from entcert.pmf import OutcomePmf
from entcert.simulate import CHUNK_TRIALS, _guide, _thresholds
from entcert.witnesses import WitnessGrid
from entcert.worst_case import WorstCaseResult, _best


def setting_grid(setting, scale=1, shift=0, square=False) -> dict[Fraction, float]:
    """Probability of every value of ``scale * T + shift``, or of ``T**2``
    when ``square``, for one setting's estimate T = (2k - n) / n.  Counts
    that give the same value (k and n - k when squared, every k at scale 0)
    add their masses."""
    n = setting.copies
    weights = binom.pmf(np.arange(n + 1), n, (1.0 + setting.correlation) / 2.0)
    grid: dict[Fraction, float] = {}
    for k, p in enumerate(weights.tolist()):
        t = Fraction(2 * k - n, n)
        value = t * t if square else Fraction(scale) * t + Fraction(shift)
        grid[value] = grid.get(value, 0.0) + p
    return grid


def reference_value_and_grad(grid, weights, correlations) -> tuple[np.ndarray, np.ndarray]:
    """``WitnessGrid.value_and_grad`` in its plain formulation: the binomial
    table from ``grid._binomials``, every power and derivative exponent
    computed where it is used, and a fresh bincount index for every forward
    step.  The engine shares powers and keeps its indices, with the same
    operations in the same order, so the two agree bit for bit."""
    t = np.asarray(correlations, dtype=np.float64)
    table = grid._binomials(t)
    q = (1.0 + t[:, :, None]) / 2.0
    rise = grid.k_table * q ** np.maximum(grid.k_table - 1.0, 0.0) * (1.0 - q) ** grid.nk_table
    fall = grid.nk_table * q**grid.k_table * (1.0 - q) ** np.maximum(grid.nk_table - 1.0, 0.0)
    slope = 0.5 * grid.comb_table * (rise - fall)
    rows = len(t)
    masses = [np.ones((rows, 1))]
    for j, (inverse, size) in enumerate(grid._steps[:-1]):
        combos = masses[-1][:, :, None] * table[:, j, None, : inverse.shape[1]]
        index = inverse + size * np.arange(rows)[:, None, None]
        masses.append(np.bincount(index.ravel(), combos.ravel(), rows * size).reshape(rows, size))
    adjoint = np.asarray(weights, dtype=np.float64)
    grad = np.empty(t.shape)
    for j in range(len(grid.copies) - 1, -1, -1):
        inverse = grid._steps[j][0]
        gathered = adjoint[:, inverse]
        per_count = (masses[j][:, :, None] * gathered).sum(axis=1)
        grad[:, j] = (per_count * slope[:, j, : inverse.shape[1]]).sum(axis=1)
        adjoint = (gathered * table[:, j, None, : inverse.shape[1]]).sum(axis=2)
    return adjoint[:, 0], grad


def reference_tally(witness, copies, trials, seed, correlations, weights) -> OutcomePmf:
    """``simulate._tally`` in its plain formulation: each draw's count k
    from the guide table or a binary search of the thresholds, then the
    setting's value ``value[k]`` added to the trial's total.  The package
    maps a guide bin straight to the value, from the same Philox stream in
    the same order, so the two agree bit for bit."""
    grid = WitnessGrid(witness, copies)
    table = _thresholds(np.cumsum(grid._binomials(correlations), axis=2))
    settings = []
    for j, n in enumerate(copies):
        bits = max(min(n.bit_length() + 7, 16 - (len(weights) - 1).bit_length()), 0)
        rows = table[:, j, :n]
        settings.append((rows, [_guide(row, bits) for row in rows]))
    counts = np.zeros(len(grid.integers), dtype=np.int64)
    base = np.random.Philox(key=seed)
    chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    for i in range(chunks):
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.Generator(base.jumped(i))
        edges = [] if len(weights) == 1 else np.cumsum(rng.multinomial(size, weights))[:-1]
        total = np.full(size, grid.shift, dtype=np.int64)
        parts = np.split(total, edges)
        for (rows, guides), value in zip(settings, grid.values):
            draws = rng.bit_generator.random_raw(size)
            draws >>= 11
            draws = draws.view(np.int64)
            for row, guide, row_draws, part in zip(rows, guides, np.split(draws, edges), parts):
                bits = len(guide).bit_length() - 1
                k = guide[row_draws >> (53 - bits)]
                slow = k < 0
                k[slow] = np.searchsorted(row, row_draws[slow], side="right")
                part += value[k]
        values, tallies = np.unique(total, return_counts=True)
        counts[np.searchsorted(grid.integers, values)] += tallies
    return grid.as_pmf((counts / trials).tolist())


def reference_power_bound(ent_pmf, pointwise, budget) -> float:
    """``inference.power_ceiling`` in its single-point formulation: the
    least power, at 1 at most, of the randomized Neyman-Pearson test at
    level ``budget`` against each distinct point of ``pointwise``, each
    test built as a Fraction-keyed acceptance set.  The package bounds
    every point at once with the fractional knapsack at the cap ``budget +
    TIE_TOLERANCE``, so the two agree to float noise, not bit for bit."""
    bound, seen = 1.0, set()
    for result in pointwise.values():
        if result.correlations not in seen:
            seen.add(result.correlations)
            bound = min(bound, power(neyman_pearson_test(budget, result.dist, ent_pmf), ent_pmf))
    return bound


def reference_two_start_polish(problem, options) -> dict[Fraction, WorstCaseResult]:
    """``WorstCaseProblem.maximize_all_points`` with two starts per outcome:
    the witness's analytic worst case, where it has one, then the outcome's
    best scan point, one ``_search`` group each.  Every chosen point is
    re-evaluated with ``pmf_at``, and ``restarts_used`` counts the starts."""
    _, where = problem._scan
    analytic = problem._analytic_start()
    groups = [analytic + [where[index]] for index in range(len(problem.grid))]
    grid = np.arange(len(problem.grid))
    found = problem._search(
        lambda owner: (owner[:, None] == grid).astype(np.float64), groups, options
    )
    results = {}
    for index, (outcome, starts, candidates) in enumerate(zip(problem.grid, groups, found)):
        _, point, unfinished = _best(candidates)
        dist = problem.pmf_at(point)
        objective = float(dist.probabilities[index])
        results[outcome] = WorstCaseResult(point, objective, dist, len(starts), not unfinished)
    return results
