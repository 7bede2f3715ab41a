"""One correlation measurement: its setting and the closed-form moments of
its estimate.

A correlation is estimated from ``n`` copies as the normalized difference of
+1 and -1 product counts, so the estimate lives on the grid
``{-1, -1 + 2/n, ..., 1}`` and the +1 count is binomial with success
probability ``(1 + T) / 2``.  The exact pmfs of the estimate and of its
square come from the grid engine (``witnesses.correlation_pmf`` and
``witnesses.squared_correlation_pmf``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class CorrelationSetting:
    """One measurement setting: ideal correlation and copies spent on it."""

    correlation: float
    copies: int

    def __post_init__(self):
        object.__setattr__(self, "copies", check_copies(self.copies))
        object.__setattr__(self, "correlation", check_correlation(self.correlation))


def check_copies(value, name: str = "copies") -> int:
    """A copy count as an int: an integer (numpy's included, bools not) >= 1.
    ``name`` is the quantity the error messages name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_correlation(value) -> float:
    """A correlation as a float: a real number (numpy's included, bools and
    strings not) in [-1, 1]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"correlation must be a real number, got {value!r}")
    if not (-1.0 <= value <= 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {value}")
    return float(value)


def correlation_moments(setting: CorrelationSetting) -> tuple[float, float]:
    """Mean T and variance (1 - T^2) / n of the estimated correlation."""
    t = setting.correlation
    return t, (1.0 - t * t) / setting.copies


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
