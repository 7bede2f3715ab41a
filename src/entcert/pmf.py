"""Exact discrete probability mass functions over rational outcome values.

Outcomes are reduced ``fractions.Fraction`` objects, so that grid points
coming from different settings (e.g. 9/25 + 1 + 1 = 59/25) group exactly;
probabilities are double-precision floats.  A pmf of the grid engine
(``WitnessGrid.as_pmf``) shares its grid's one outcome tuple, which the grid
builds on its first read, and takes its float outcome values from the
grid's integers, so a pmf whose outcomes are never read builds no Fraction.
Zero-probability grid points are retained: acceptance sets are defined over
the full grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

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


def _check_mass(size: int, probabilities: Sequence[float]) -> None:
    """Refuse probabilities that are not ``size`` nonnegative floats of unit total mass."""
    if size != len(probabilities):
        raise DomainError("outcomes and probabilities must have equal length")
    if not size:
        raise DomainError("a pmf needs at least one outcome")
    total = 0.0
    for p in probabilities:
        if not (p >= 0.0):
            raise DomainError(f"negative probability {p}")
        total += p
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise DomainError(f"total mass {total} deviates from 1 by more than {MASS_TOLERANCE}")


class OutcomePmf:
    """Probability mass function on a strictly increasing rational grid.

    Immutable; two pmfs are equal when their outcomes and probabilities are.
    """

    probabilities: tuple[float, ...]

    def __init__(self, outcomes: tuple[Fraction, ...], probabilities: tuple[float, ...]):
        for left, right in zip(outcomes, outcomes[1:]):
            if not left < right:
                raise DomainError("outcomes must be strictly increasing")
        _check_mass(len(outcomes), probabilities)
        vars(self).update(_outcomes=outcomes, _grid=None, probabilities=probabilities)

    @classmethod
    def on_grid(cls, grid, probabilities: tuple[float, ...]) -> "OutcomePmf":
        """A pmf on an outcome grid (a ``WitnessGrid``) that it shares.

        Its ``outcomes`` are the grid's ``outcomes`` tuple, read when first
        needed, and its float outcome values the grid's ``integers`` over
        its ``denominator``.  Those integers increase strictly, so only the
        probabilities are checked.
        """
        _check_mass(len(grid.integers), probabilities)
        pmf = cls.__new__(cls)
        vars(pmf).update(_outcomes=None, _grid=grid, probabilities=probabilities)
        return pmf

    @property
    def outcomes(self) -> tuple[Fraction, ...]:
        return self._grid.outcomes if self._grid is not None else self._outcomes

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: an OutcomePmf is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.outcomes, self.probabilities) == (other.outcomes, other.probabilities)

    def __hash__(self):
        return hash((self.outcomes, self.probabilities))

    def __repr__(self):
        return f"OutcomePmf(outcomes={self.outcomes!r}, probabilities={self.probabilities!r})"

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

    def _values(self) -> list[float]:
        """Every outcome as the float nearest to it.  On a grid, int true
        division is correctly rounded, as ``float(Fraction)`` is, so the
        values are the same without building a Fraction."""
        if self._grid is None:
            return [float(o) for o in self.outcomes]
        denominator = self._grid.denominator
        return [v / denominator for v in self._grid.integers.tolist()]

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self._values(), self.probabilities))

    def variance(self) -> float:
        mu = self.mean()
        return math.fsum((v - mu) ** 2 * p for v, p in zip(self._values(), self.probabilities))

    def mass_below(self, bound: RationalLike, inclusive: bool = True) -> float:
        """Mass at outcomes ``<= bound`` (``< bound`` if not ``inclusive``)."""
        split = bisect_right if inclusive else bisect_left
        return math.fsum(self.probabilities[: split(self.outcomes, as_fraction(bound))])

    def mass_above(self, bound: RationalLike, inclusive: bool = True) -> float:
        """Mass at outcomes ``>= bound`` (``> bound`` if not ``inclusive``)."""
        split = bisect_left if inclusive else bisect_right
        return math.fsum(self.probabilities[split(self.outcomes, as_fraction(bound)) :])

    def tail_masses(self) -> tuple[list[float], list[float]]:
        """(below, above) for every split of the grid: ``below[k]`` is the
        mass of the first k grid points and ``above[k]`` that of the rest,
        k = 0..G.  Each is the exact sum rounded once, the value ``math.fsum``
        gives for that slice, and all of them take O(G) additions."""
        # Every double is a whole multiple of 2**-1074, so the scaled prefix
        # sums are exact ints, and int true division rounds correctly.
        scale = 1 << 1074
        prefix = [0]
        for p in self.probabilities:
            numerator, denominator = p.as_integer_ratio()
            prefix.append(prefix[-1] + numerator * (scale // denominator))
        total = prefix[-1]
        return [s / scale for s in prefix], [(total - s) / scale for s in prefix]

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
