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

import math
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


def check_integer(value, name: str, low: int = 0) -> int:
    """An integer as an int: numpy's accepted, bools refused, at least
    ``low``.  ``name`` is the quantity the error messages name."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(
    value, name: str, low: float = -math.inf, high: float = math.inf, ends: str = "[]"
) -> float:
    """A real number as a float: finite (numpy's accepted, bools and strings
    refused) and between ``low`` and ``high``, each end closed or open as
    ``ends`` says: "[]", "()", "(]" or "[)"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value!r}")
    above = value > low if ends[0] == "(" else value >= low
    below = value < high if ends[1] == ")" else value <= high
    if not (above and below):
        raise DomainError(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {value}")
    return number


def check_copies(value, name: str = "copies") -> int:
    """A copy count as an int: an integer >= 1 (see ``check_integer``)."""
    return check_integer(value, name, 1)


def check_correlation(value) -> float:
    """A correlation as a float: a real number in [-1, 1] (see ``check_real``)."""
    return check_real(value, "correlation", -1.0, 1.0)


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
