"""Witness functionals of correlations and their exact outcome distributions.

Two shapes are supported: a linear combination of correlations plus a
constant, and the sum of squared full correlations.  Each shape's class
also carries its grid values, moments, separable region and analytic worst
case, so the grid engine, the worst-case search and the CLI never ask which
class they hold.  Outcome distributions
of independent settings come from one integer encoding of the outcome grid,
``WitnessGrid``, shared with the worst-case search and the simulator: its
partial-sum steps aggregate probabilities forwards in ``pmf_batch`` and
carry outcome weights backwards in ``expectation``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError
from .finite_stats import (
    _DIRECT_BINOMIAL_LIMIT,
    CorrelationSetting,
    _binomial_weights,
    correlation_moments,
    squared_correlation_moments,
)
from .pmf import OutcomePmf, RationalLike, as_fraction


@dataclass(frozen=True)
class LinearWitness:
    """Witness value  sum_j coefficients[j] * correlation_j + constant.

    The convention is that separable states give a nonnegative value in the
    infinite-statistics limit, so negative observed values indicate
    entanglement.  The separable region is the box [-1, 1]^M cut by the
    half-space where that ideal value is nonnegative.
    """

    kind: ClassVar[str] = "linear"
    #: Lower end of every correlation in the separable region.
    low: ClassVar[float] = -1.0

    coefficients: tuple[Fraction, ...]
    constant: Fraction

    def __init__(self, coefficients: Sequence[RationalLike], constant: RationalLike = 0):
        if len(coefficients) < 1:
            raise DomainError("a linear witness needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(as_fraction(c) for c in coefficients))
        object.__setattr__(self, "constant", as_fraction(constant))

    @property
    def num_settings(self) -> int:
        return len(self.coefficients)

    def grid_values(self, copies: Sequence[int]) -> tuple[int, int, list[np.ndarray]]:
        """Denominator, shift and per-setting integer values of c_j * (2k - n) / n."""
        denom = math.lcm(
            self.constant.denominator,
            *(a.denominator * n for a, n in zip(self.coefficients, copies)),
        )
        values = [
            _count_differences(n) * (a.numerator * (denom // (a.denominator * n)))
            for a, n in zip(self.coefficients, copies)
        ]
        return denom, self.constant.numerator * (denom // self.constant.denominator), values

    def moments(self, settings: Sequence[CorrelationSetting]) -> tuple[float, float]:
        """Mean: the ideal witness value; variance: the coefficient-weighted
        sum of the estimate variances."""
        mean = float(self.constant)
        variance = 0.0
        for s, c in zip(settings, self.coefficients):
            m, v = correlation_moments(s)
            cf = float(c)
            mean += cf * m
            variance += cf * cf * v
        return mean, variance

    # -- separable region --------------------------------------------------

    def violation(self, correlations) -> float:
        """How far a point lies outside the separable region (0 inside)."""
        worst = 0.0
        ideal = float(self.constant)
        for t, c in zip(correlations, self.coefficients):
            worst = max(worst, abs(t) - 1.0)
            ideal += float(c) * t
        return max(worst, -ideal, 0.0)

    def project(self, correlations) -> np.ndarray:
        """Map a point into the separable region.

        Clipping to the box alternates with a shift along the coefficients
        onto the plane.  Where that stalls, in a thin region, bisection on
        the multiplier gives the exact projection clip(t + lam * c, -1, 1).
        """
        t = start = np.asarray(correlations, dtype=np.float64)
        coeffs = np.array([float(c) for c in self.coefficients])
        const = float(self.constant)
        weight = float(np.dot(coeffs, coeffs))
        for _ in range(100):
            t = np.clip(t, -1.0, 1.0)
            ideal = float(np.dot(coeffs, t)) + const
            if ideal >= -1e-15:
                return t
            t = t + coeffs * (-ideal / weight) * (1.0 + 1e-12)
        self.check_separable_region()
        # At ``high`` every setting with a coefficient sits at its best corner.
        moved = coeffs != 0.0
        low, high = 0.0, float(np.max((1.0 + np.abs(start[moved])) / np.abs(coeffs[moved])))
        for _ in range(100):
            middle = 0.5 * (low + high)
            if float(np.dot(coeffs, np.clip(start + middle * coeffs, -1.0, 1.0))) + const >= 0.0:
                high = middle
            else:
                low = middle
        return np.clip(start + high * coeffs, -1.0, 1.0)

    def sample_separable(self, rng: np.random.Generator) -> np.ndarray:
        """A random point of the separable region."""
        for _ in range(64):
            t = rng.uniform(-1.0, 1.0, self.num_settings)
            if self.violation(t) == 0.0:
                return t
        return self.project(rng.uniform(-1.0, 1.0, self.num_settings))

    def boundary(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible mask, boundary points and kept mask of box points (B, M):
        the shift along the coefficients onto the plane, kept inside the box."""
        coeffs = np.array([float(c) for c in self.coefficients])
        ideal = points @ coeffs + float(self.constant)
        # Without coefficients there is no plane; the shift is then 0.
        weight = float(coeffs @ coeffs) or math.inf
        boundary = points - (ideal / weight)[:, None] * coeffs
        return ideal >= 0.0, boundary, np.all(np.abs(boundary) <= 1.0, axis=1)

    def check_separable_region(self) -> None:
        """Raise InfeasibleError when the witness is negative on the whole box."""
        if self.constant + sum(abs(c) for c in self.coefficients) < 0:
            raise InfeasibleError(
                "separability constraint is empty: the witness is negative on the whole box"
            )

    def analytic_worst_case(self) -> tuple[float, ...]:
        """Known worst case of coefficients (1, -1, ..., -1) and unit
        constant: (-1/M, 1/M, ..., 1/M).  Other shapes raise DomainError and
        must use the numeric search."""
        m = self.num_settings
        if self.coefficients == (Fraction(1),) + (Fraction(-1),) * (m - 1) and self.constant == 1:
            return (-1.0 / m,) + (1.0 / m,) * (m - 1)
        raise DomainError("no analytic worst case for this witness shape")


@dataclass(frozen=True)
class QuadraticWitness:
    """Witness value  sum_j correlation_j^2 over ``num_settings`` settings.

    Values above 1 are impossible for separable states with infinite
    statistics.  The separable region is the part of the unit ball in the
    box [0, 1]^M; negative correlations mirror positive ones.
    """

    kind: ClassVar[str] = "quadratic"
    #: Lower end of every correlation in the separable region.
    low: ClassVar[float] = 0.0

    num_settings: int

    def __post_init__(self):
        if (
            isinstance(self.num_settings, bool)
            or not isinstance(self.num_settings, numbers.Integral)
            or self.num_settings < 1
        ):
            raise DomainError(f"num_settings must be a positive integer, got {self.num_settings!r}")
        object.__setattr__(self, "num_settings", int(self.num_settings))

    def grid_values(self, copies: Sequence[int]) -> tuple[int, int, list[np.ndarray]]:
        """Denominator, shift 0 and per-setting integer values of ((2k - n) / n)^2."""
        denom = math.lcm(*(n * n for n in copies))
        return denom, 0, [_count_differences(n) ** 2 * (denom // (n * n)) for n in copies]

    def moments(self, settings: Sequence[CorrelationSetting]) -> tuple[float, float]:
        """Per-setting squared-estimate moments add; for equal copy counts n
        the mean is ((n - 1) * S_ideal + M) / n."""
        mean = 0.0
        variance = 0.0
        for s in settings:
            m, v = squared_correlation_moments(s)
            mean += m
            variance += v
        return mean, variance

    # -- separable region --------------------------------------------------

    def violation(self, correlations) -> float:
        """How far a point lies outside the separable region (0 inside)."""
        worst = 0.0
        total = 0.0
        for t in correlations:
            worst = max(worst, -t, abs(t) - 1.0)
            total += t * t
        return max(worst, total - 1.0, 0.0)

    def project(self, correlations) -> np.ndarray:
        """Map a point into the separable region: clip, then scale radially."""
        t = np.clip(np.asarray(correlations, dtype=np.float64), 0.0, 1.0)
        norm_sq = float(np.sum(t * t))
        if norm_sq > 1.0:
            t = t / math.sqrt(norm_sq) * (1.0 - 1e-12)
        return t

    def sample_separable(self, rng: np.random.Generator) -> np.ndarray:
        """A random point of the separable region."""
        m = self.num_settings
        for _ in range(64):
            t = rng.uniform(0.0, 1.0, m)
            if float(np.sum(t * t)) <= 1.0:
                return t
        t = rng.uniform(0.0, 1.0, m)
        return t / math.sqrt(float(np.sum(t * t))) * rng.uniform(0.0, 1.0) ** (1.0 / m)

    def boundary(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Feasible mask, boundary points and kept mask of box points (B, M):
        the radial scaling onto the unit sphere, which the origin lacks."""
        square = np.sum(points * points, axis=1)
        # Below the smallest normal float the squared norm has lost its
        # precision, and so would the scaled point.
        on_boundary = square >= np.finfo(np.float64).tiny
        norm = np.sqrt(square)
        return norm <= 1.0, points / np.where(on_boundary, norm, 1.0)[:, None], on_boundary

    def check_separable_region(self) -> None:
        """The region always holds the origin."""

    def analytic_worst_case(self) -> tuple[float, ...]:
        """Known worst case of symmetric thresholds: every correlation at 1/sqrt(M)."""
        return (1.0 / math.sqrt(self.num_settings),) * self.num_settings


Witness = LinearWitness | QuadraticWitness


def _count_differences(n: int) -> np.ndarray:
    """Agreeing minus disagreeing products, 2k - n, for k = 0..n."""
    return 2 * np.arange(n + 1, dtype=np.int64) - n


def _check_settings(settings: Sequence[CorrelationSetting], witness: Witness) -> None:
    if len(settings) != witness.num_settings:
        raise DomainError(
            f"witness expects {witness.num_settings} settings, got {len(settings)}"
        )


class WitnessGrid:
    """Exact outcome grid of one witness at fixed copy counts.

    Outcomes are integers over one common ``denominator``, so grid points
    from different settings (9/25 + 1 + 1 = 59/25) group exactly: setting j
    with k agreeing products adds ``values[j][k]`` to ``shift``, with
    binomial weight ``comb * q**k * (1 - q)**(n - k)`` from the padded
    tables.  One step per setting maps every (partial sum, count k) pair to
    its place among the next partial sums.  ``pmf_batch`` runs the steps
    first to last, and ``expectation`` runs them last to first, so neither
    ever enumerates the full combination space.
    """

    def __init__(self, witness: Witness, copies: Sequence[int]):
        copies = tuple(int(n) for n in copies)
        if len(copies) != witness.num_settings:
            raise DomainError(f"witness expects {witness.num_settings} settings, got {len(copies)}")
        if any(n < 1 for n in copies):
            raise DomainError("copies must all be >= 1")
        self.copies = copies
        denom, self.shift, self.values = witness.grid_values(copies)
        self.denominator = denom

        m, width = len(copies), max(copies) + 1
        self.k_table = np.zeros((m, width))
        self.nk_table = np.zeros((m, width))
        self.comb_table = np.zeros((m, width))
        for j, n in enumerate(copies):
            ks = np.arange(n + 1)
            self.k_table[j, : n + 1] = ks
            self.nk_table[j, : n + 1] = n - ks
            if n <= _DIRECT_BINOMIAL_LIMIT:
                self.comb_table[j, : n + 1] = [math.comb(n, int(k)) for k in ks]
        self._log_space = [(j, n) for j, n in enumerate(copies) if n > _DIRECT_BINOMIAL_LIMIT]

        # Step j: the place among the next partial sums of every (partial
        # sum, count k) pair, as a (partial sums, n + 1) table.
        sums = np.array([self.shift], dtype=np.int64)
        self._steps = []
        for n, value in zip(copies, self.values):
            sums, inverse = np.unique(np.add.outer(sums, value).ravel(), return_inverse=True)
            self._steps.append((inverse.reshape(-1, n + 1), len(sums)))
        #: Entries of the largest step table; ``pmf_batch`` holds this many
        #: floats per row.
        self.table_size = max(inverse.size for inverse, _ in self._steps)
        self.integers = sums
        self.outcomes: tuple[Fraction, ...] = tuple(Fraction(int(v), denom) for v in sums)

    def _binomials(self, t: np.ndarray) -> np.ndarray:
        """Binomial weights (B, M, width) of every setting at correlations (B, M).

        Row j holds setting j's n_j + 1 weights, then zeros.
        """
        q = (1.0 + t[:, :, None]) / 2.0
        table = self.comb_table * q**self.k_table * (1.0 - q) ** self.nk_table
        for j, n in self._log_space:
            table[:, j, : n + 1] = [_binomial_weights(n, s) for s in q[:, j, 0]]
        return table

    def pmf_batch(self, correlations) -> np.ndarray:
        """Grid probabilities (B, G) at a batch of correlation vectors (B, M)."""
        t = np.asarray(correlations, dtype=np.float64)
        rows = len(t)
        table = self._binomials(t)
        mass = np.ones((rows, 1))
        for j, (n, (inverse, size)) in enumerate(zip(self.copies, self._steps)):
            combos = mass[:, :, None] * table[:, j, None, : n + 1]
            index = inverse + size * np.arange(rows)[:, None, None]
            mass = np.bincount(index.ravel(), combos.ravel(), rows * size).reshape(rows, size)
        return mass

    def expectation(self, weights) -> Callable[[Sequence[float]], float]:
        """The map  t -> pmf_batch([t])[0] @ weights, as the transpose of ``pmf_batch``.

        From the last setting to the first, each step gathers the current
        weights through its inverse map and contracts them with that
        setting's binomial weights; the outcome probabilities are never
        formed.
        """
        inverses = [inverse for inverse, _ in self._steps]
        tail = np.asarray(weights, dtype=np.float64)[inverses[-1]]

        def expectation(correlations) -> float:
            table = self._binomials(np.asarray(correlations, dtype=np.float64)[None])[0]
            value = tail.dot(table[-1, : tail.shape[1]])
            for j in range(len(inverses) - 2, -1, -1):
                value = value[inverses[j]].dot(table[j, : inverses[j].shape[1]])
            return float(value[0])

        return expectation

    def pmf(self, correlations: Sequence[float]) -> OutcomePmf:
        """Exact outcome pmf at one correlation vector."""
        return OutcomePmf(self.outcomes, tuple(self.pmf_batch([correlations])[0].tolist()))


def witness_pmf(settings: Sequence[CorrelationSetting], witness: Witness) -> OutcomePmf:
    """Exact outcome pmf of a witness over independent settings."""
    grid = WitnessGrid(witness, [s.copies for s in settings])
    return grid.pmf([s.correlation for s in settings])


def witness_moments(settings: Sequence[CorrelationSetting], witness: Witness) -> tuple[float, float]:
    """Closed-form mean and variance of the witness outcome (``witness.moments``)."""
    _check_settings(settings, witness)
    return witness.moments(settings)


def witness_grid(copies: Sequence[int], witness: Witness) -> tuple[Fraction, ...]:
    """Full outcome grid of a witness for the given copy counts.

    The grid does not depend on the correlations because zero-probability
    points are retained throughout.
    """
    return WitnessGrid(witness, copies).outcomes
