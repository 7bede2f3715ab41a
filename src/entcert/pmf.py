"""Exact discrete probability mass functions over rational outcome values.

Outcomes are kept as reduced ``fractions.Fraction`` objects so that grid
points coming from different settings (e.g. 9/25 + 1 + 1 = 59/25) group
exactly; probabilities are double-precision floats.  Zero-probability grid
points are retained: acceptance sets are defined over the full grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from .errors import DomainError

#: Absolute tolerance on the total mass of a distribution.
MASS_TOLERANCE = 1e-12

#: Number, exactly convertible to a Fraction.
RationalLike = Fraction | int | float | str


def as_fraction(value: RationalLike) -> Fraction:
    """Convert a number to an exact Fraction.

    Floats convert via their exact binary expansion, strings via decimal or
    "p/q" notation, so no rounding is ever introduced silently.  Bools and
    non-finite floats are refused.
    """
    if isinstance(value, bool):
        raise DomainError(f"not a rational value: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise DomainError(f"not a rational value: {value!r}") from exc


def round_fraction(value: Fraction, digits: int) -> Fraction:
    """Round a fraction to ``digits`` decimal places (exact, half-to-even)."""
    scale = 10**digits
    return Fraction(round(value * scale), scale)


def format_fraction(value: Fraction) -> str:
    """Serialize a fraction losslessly, e.g. ``59/25`` or ``3``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class OutcomePmf:
    """Probability mass function on a strictly increasing rational grid."""

    outcomes: tuple[Fraction, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.outcomes) != len(self.probabilities):
            raise DomainError("outcomes and probabilities must have equal length")
        if not self.outcomes:
            raise DomainError("a pmf needs at least one outcome")
        for left, right in zip(self.outcomes, self.outcomes[1:]):
            if not left < right:
                raise DomainError("outcomes must be strictly increasing")
        total = 0.0
        for p in self.probabilities:
            if not (p >= 0.0):
                raise DomainError(f"negative probability {p}")
            total += p
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise DomainError(f"total mass {total} deviates from 1 by more than {MASS_TOLERANCE}")

    @classmethod
    def from_entries(cls, entries: Mapping[Fraction, float]) -> "OutcomePmf":
        outcomes = tuple(sorted(entries))
        return cls(outcomes, tuple(entries[o] for o in outcomes))

    def items(self) -> Iterator[tuple[Fraction, float]]:
        return zip(self.outcomes, self.probabilities)

    def probability(self, outcome: RationalLike) -> float:
        """Mass at an exact grid point (0.0 if the point is off the grid)."""
        key = as_fraction(outcome)
        i = bisect_left(self.outcomes, key)
        if i < len(self.outcomes) and self.outcomes[i] == key:
            return self.probabilities[i]
        return 0.0

    def total_mass(self) -> float:
        return math.fsum(self.probabilities)

    def mean(self) -> float:
        return math.fsum(float(o) * p for o, p in self.items())

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((float(o) - mu) ** 2 * p for o, p in self.items())

    def mass_below(self, bound: RationalLike, inclusive: bool = True) -> float:
        """Mass at outcomes ``<= bound`` (``< bound`` if not ``inclusive``)."""
        split = bisect_right if inclusive else bisect_left
        return math.fsum(self.probabilities[: split(self.outcomes, as_fraction(bound))])

    def mass_above(self, bound: RationalLike, inclusive: bool = True) -> float:
        """Mass at outcomes ``>= bound`` (``> bound`` if not ``inclusive``)."""
        split = bisect_left if inclusive else bisect_right
        return math.fsum(self.probabilities[split(self.outcomes, as_fraction(bound)) :])

    def convolve(self, other: "OutcomePmf") -> "OutcomePmf":
        """Pmf of the sum of two independent variables (exact key merging)."""
        acc: dict[Fraction, float] = {}
        for x, px in self.items():
            for y, py in other.items():
                key = x + y
                acc[key] = acc.get(key, 0.0) + px * py
        return OutcomePmf.from_entries(acc)


def mix_pmfs(pmfs: list[OutcomePmf], weights: list[float]) -> OutcomePmf:
    """Weighted mixture on the union grid; summation order is fixed."""
    if len(pmfs) != len(weights) or not pmfs:
        raise DomainError("mixture needs matching, nonempty pmfs and weights")
    acc: dict[Fraction, float] = {}
    for pmf, w in zip(pmfs, weights):
        if w < 0:
            raise DomainError(f"negative mixture weight {w}")
        for o, p in pmf.items():
            acc[o] = acc.get(o, 0.0) + w * p
    return OutcomePmf.from_entries(acc)
