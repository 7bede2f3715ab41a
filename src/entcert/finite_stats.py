"""Exact finite-sample model of a single correlation measurement.

A correlation is estimated from ``n`` copies as the normalized difference of
+1 and -1 product counts, so the estimate lives on the grid
``{-1, -1 + 2/n, ..., 1}`` and the +1 count is binomial with success
probability ``(1 + T) / 2``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .pmf import OutcomePmf

#: Above this copy count binomial weights are assembled in log space.
_DIRECT_BINOMIAL_LIMIT = 1000


@dataclass(frozen=True)
class CorrelationSetting:
    """One measurement setting: ideal correlation and copies spent on it."""

    correlation: float
    copies: int

    def __post_init__(self):
        if isinstance(self.copies, bool) or not isinstance(self.copies, numbers.Integral):
            raise DomainError(f"copies must be an integer, got {self.copies!r}")
        if self.copies < 1:
            raise DomainError(f"copies must be >= 1, got {self.copies}")
        object.__setattr__(self, "copies", int(self.copies))
        correlation = float(self.correlation)
        if not (-1.0 <= correlation <= 1.0):
            raise DomainError(f"correlation must lie in [-1, 1], got {self.correlation}")
        object.__setattr__(self, "correlation", correlation)


def _binomial_weights(n: int, success: float) -> list[float]:
    """P(k successes in n trials) for k = 0..n."""
    if n <= _DIRECT_BINOMIAL_LIMIT:
        return [math.comb(n, k) * success**k * (1.0 - success) ** (n - k) for k in range(n + 1)]
    if success == 0.0:
        return [1.0] + [0.0] * n
    if success == 1.0:
        return [0.0] * n + [1.0]
    log_s, log_f = math.log(success), math.log1p(-success)
    out = []
    for k in range(n + 1):
        log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        out.append(math.exp(log_comb + k * log_s + (n - k) * log_f))
    # lgamma's rounding leaves the raw weights a few 1e-12 off unit mass.
    total = math.fsum(out)
    return [w / total for w in out]


def correlation_pmf(setting: CorrelationSetting) -> OutcomePmf:
    """Exact pmf of the estimated correlation on its discrete grid.

    Zero-probability grid points are kept so acceptance sets can always be
    defined over the full grid.
    """
    n = setting.copies
    success = (1.0 + setting.correlation) / 2.0
    weights = _binomial_weights(n, success)
    outcomes = tuple(Fraction(2 * k - n, n) for k in range(n + 1))
    return OutcomePmf(outcomes, tuple(weights))


def correlation_moments(setting: CorrelationSetting) -> tuple[float, float]:
    """Mean T and variance (1 - T^2) / n of the estimated correlation."""
    t = setting.correlation
    return t, (1.0 - t * t) / setting.copies


def squared_correlation_pmf(setting: CorrelationSetting) -> OutcomePmf:
    """Exact pmf of the squared estimate; +v and -v fold onto v^2."""
    return correlation_pmf(setting).fold_square()


def squared_correlation_moments(setting: CorrelationSetting) -> tuple[float, float]:
    """Closed-form mean and variance of the squared estimate.

    The mean exceeds T^2 by exactly the variance of the estimate itself; the
    squared value is biased upward because negative fluctuations fold over.
    """
    t, n = setting.correlation, setting.copies
    t2 = t * t
    mean = t2 + (1.0 - t2) / n
    variance = 2.0 * (n - 1) * (1.0 - t2) * ((2 * n - 3) * t2 + 1.0) / n**3
    return mean, variance
