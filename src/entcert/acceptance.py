"""Acceptance sets: which witness outcomes certify entanglement.

A set is either a threshold rule (accept at or below / at or above a bound;
the boundary is always included) or an explicit subset of the outcome grid.
Either kind may randomize the decision on one designated boundary outcome,
accepting it with probability gamma.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from .errors import DomainError
from .finite_stats import check_real
from .pmf import OutcomePmf, RationalLike, as_fraction, format_fraction, round_fraction

Direction = Literal["accept_low", "accept_high"]


@dataclass(frozen=True)
class AcceptanceSet:
    kind: Literal["threshold", "explicit"]
    bound: Fraction | None = None
    direction: Direction | None = None
    outcomes: frozenset[Fraction] = field(default_factory=frozenset)
    gamma: float = 0.0
    boundary: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "gamma", check_real(self.gamma, "gamma", 0.0, 1.0))
        if self.gamma > 0.0 and self.boundary is None:
            raise DomainError("randomization requires a designated boundary outcome")
        if self.kind == "threshold":
            if self.bound is None or self.direction not in ("accept_low", "accept_high"):
                raise DomainError(
                    "a threshold takes a bound and a direction, accept_low or accept_high; "
                    f"got bound {self.bound} and direction {self.direction!r}"
                )
        elif self.kind == "explicit":
            if self.bound is not None or self.direction is not None:
                raise DomainError("explicit sets take outcomes, not a bound")
            if self.boundary is not None and self.boundary in self.outcomes:
                raise DomainError("the boundary outcome must not also be fully accepted")
        else:
            raise DomainError(f"unknown acceptance kind {self.kind!r}")

    @classmethod
    def threshold(
        cls,
        bound: RationalLike,
        direction: Direction,
        gamma: float = 0.0,
    ) -> "AcceptanceSet":
        """Accept outcomes at or beyond ``bound``; gamma randomizes the bound itself."""
        b = as_fraction(bound)
        return cls(
            kind="threshold",
            bound=b,
            direction=direction,
            gamma=gamma,
            # Not gamma > 0: a gamma that is not a number must reach __post_init__'s check.
            boundary=b if gamma else None,
        )

    @classmethod
    def explicit(
        cls,
        outcomes: Iterable[RationalLike],
        gamma: float = 0.0,
        boundary: RationalLike | None = None,
    ) -> "AcceptanceSet":
        return cls(
            kind="explicit",
            outcomes=frozenset(as_fraction(o) for o in outcomes),
            gamma=gamma,
            boundary=None if boundary is None else as_fraction(boundary),
        )

    def accepts(self, outcome: Fraction) -> bool:
        """Full (non-randomized) membership."""
        if self.kind == "threshold":
            if self.gamma > 0.0 and outcome == self.boundary:
                return False
            if self.direction == "accept_low":
                return outcome <= self.bound
            return outcome >= self.bound
        return outcome in self.outcomes

    def weight(self, outcome: Fraction) -> float:
        """Probability of accepting the given outcome (1, gamma, or 0)."""
        if self.boundary is not None and outcome == self.boundary:
            return self.gamma
        return 1.0 if self.accepts(outcome) else 0.0

    def weighted_mass(self, pmf: OutcomePmf) -> float:
        """Acceptance probability under ``pmf``, gamma-weighted on the boundary."""
        return sum(self.weight(o) * p for o, p in pmf.items())

    def validate_on_grid(self, grid: Sequence[Fraction]) -> None:
        """Explicit outcomes (and any boundary) must be actual grid points."""
        points = set(grid)
        if self.kind == "explicit" and not self.outcomes <= points:
            stray = sorted(self.outcomes - points)
            raise DomainError(f"acceptance outcomes not on the grid: {stray}")
        if self.boundary is not None and self.boundary not in points:
            raise DomainError(f"boundary outcome {self.boundary} not on the grid")

    def describe(self) -> dict:
        """JSON-friendly representation with exact fraction strings."""
        doc: dict = {"kind": self.kind, "gamma": self.gamma}
        if self.kind == "threshold":
            doc["bound"] = format_fraction(self.bound)
            doc["direction"] = self.direction
        else:
            doc["outcomes"] = [format_fraction(o) for o in sorted(self.outcomes)]
        if self.boundary is not None:
            doc["boundary"] = format_fraction(self.boundary)
        return doc


def snap_to_grid(value: RationalLike, grid: Sequence[Fraction]) -> Fraction:
    """Resolve a user-facing outcome value to an exact grid point.

    Exact matches win.  A decimal string like "2.36" otherwise matches the
    unique grid point that rounds to it at the displayed precision (the
    convention used when grids are printed with rounded outcomes).
    """
    exact = as_fraction(value)
    points = set(grid)
    if exact in points:
        return exact
    if isinstance(value, str) and "." in value and "/" not in value:
        digits = len(value.split(".")[1])
        matches = [g for g in grid if round_fraction(g, digits) == exact]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise DomainError(f"value {value!r} is ambiguous on this grid: {matches}")
    raise DomainError(f"value {value!r} is not a grid outcome")
