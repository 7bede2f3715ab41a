"""Exact per-setting laws for the brute-force oracles, built without the
grid engine they check: each weight is ``scipy.stats.binom.pmf``."""

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
