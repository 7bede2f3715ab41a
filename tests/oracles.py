"""Exact per-setting laws for the brute-force oracles, built without the
grid engine they check: each weight is ``scipy.stats.binom.pmf``.  Also a
reference formulation of the engine's gradient pass, which the engine must
match bit for bit."""

from fractions import Fraction

import numpy as np
from scipy.stats import binom


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
