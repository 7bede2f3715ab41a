"""Witness functionals of correlations and their exact outcome distributions.

Two shapes are supported: a linear combination of correlations plus a
constant, and the sum of squared full correlations.  Outcome distributions
of independent settings come from one integer encoding of the outcome grid,
``WitnessGrid``, shared with the worst-case search and the simulator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

import numpy as np

from .errors import DomainError
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
    entanglement.
    """

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

    def ideal_value(self, correlations: Sequence[float]) -> float:
        return float(self.constant) + sum(
            float(c) * t for c, t in zip(self.coefficients, correlations)
        )


@dataclass(frozen=True)
class QuadraticWitness:
    """Witness value  sum_j correlation_j^2 over ``num_settings`` settings.

    Values above 1 are impossible for separable states with infinite
    statistics.
    """

    num_settings: int

    def __post_init__(self):
        if (
            isinstance(self.num_settings, bool)
            or not isinstance(self.num_settings, numbers.Integral)
            or self.num_settings < 1
        ):
            raise DomainError(f"num_settings must be a positive integer, got {self.num_settings!r}")
        object.__setattr__(self, "num_settings", int(self.num_settings))

    def ideal_value(self, correlations: Sequence[float]) -> float:
        return sum(t * t for t in correlations)


Witness = LinearWitness | QuadraticWitness


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
    tables.  Probabilities are aggregated setting by setting, never over the
    full combination space.
    """

    def __init__(self, witness: Witness, copies: Sequence[int]):
        copies = tuple(int(n) for n in copies)
        if len(copies) != witness.num_settings:
            raise DomainError(f"witness expects {witness.num_settings} settings, got {len(copies)}")
        if any(n < 1 for n in copies):
            raise DomainError("copies must all be >= 1")
        self.copies = copies
        counts = [2 * np.arange(n + 1, dtype=np.int64) - n for n in copies]
        if isinstance(witness, QuadraticWitness):
            denom = math.lcm(*(n * n for n in copies))
            self.shift = 0
            self.values = [c * c * (denom // (n * n)) for c, n in zip(counts, copies)]
        else:
            constant = witness.constant
            denom = math.lcm(
                constant.denominator,
                *(a.denominator * n for a, n in zip(witness.coefficients, copies)),
            )
            self.shift = constant.numerator * (denom // constant.denominator)
            self.values = [
                c * (a.numerator * (denom // (a.denominator * n)))
                for c, a, n in zip(counts, witness.coefficients, copies)
            ]
        self.denominator = denom
        self.supports = [np.unique(v) for v in self.values]

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
        starts = np.cumsum([0] + [len(s) for s in self.supports])
        self.slices = [slice(int(a), int(b)) for a, b in zip(starts, starts[1:])]

        # Partial sums setting by setting: step j maps every (partial sum,
        # count k) pair to its place among the next partial sums.
        sums = np.array([self.shift], dtype=np.int64)
        self._steps = []
        for value in self.values:
            sums, inverse = np.unique(np.add.outer(sums, value).ravel(), return_inverse=True)
            self._steps.append((inverse.ravel(), len(sums)))
        self.integers = sums
        self.outcomes: tuple[Fraction, ...] = tuple(Fraction(int(v), denom) for v in sums)

    @cached_property
    def block(self) -> np.ndarray:
        """0/1 map from the padded count cells (j, k) onto the concatenated supports."""
        width = self.k_table.shape[1]
        block = np.zeros((self.slices[-1].stop, len(self.copies) * width))
        for j, (n, value, support) in enumerate(zip(self.copies, self.values, self.supports)):
            rows = self.slices[j].start + np.searchsorted(support, value)
            block[rows, j * width + np.arange(n + 1)] = 1.0
        return block

    def combination_index(self) -> np.ndarray:
        """Grid position of every combination of support values (C order)."""
        total = reduce(np.add.outer, self.supports).ravel() + self.shift
        return np.searchsorted(self.integers, total)

    def pmf_batch(self, correlations) -> np.ndarray:
        """Grid probabilities (B, G) at a batch of correlation vectors (B, M)."""
        t = np.asarray(correlations, dtype=np.float64)
        rows = len(t)
        mass = np.ones((rows, 1))
        for j, (n, (inverse, size)) in enumerate(zip(self.copies, self._steps)):
            q = (1.0 + t[:, j, None]) / 2.0
            if n > _DIRECT_BINOMIAL_LIMIT:
                weights = np.array([_binomial_weights(n, s) for s in q[:, 0]])
            else:
                k, nk = self.k_table[j, : n + 1], self.nk_table[j, : n + 1]
                weights = self.comb_table[j, : n + 1] * q**k * (1.0 - q) ** nk
            combos = mass[:, :, None] * weights[:, None, :]
            index = inverse + size * np.arange(rows)[:, None]
            mass = np.bincount(index.ravel(), combos.ravel(), rows * size).reshape(rows, size)
        return mass

    def pmf(self, correlations: Sequence[float]) -> OutcomePmf:
        """Exact outcome pmf at one correlation vector."""
        return OutcomePmf(self.outcomes, tuple(self.pmf_batch([correlations])[0].tolist()))


def witness_pmf(settings: Sequence[CorrelationSetting], witness: Witness) -> OutcomePmf:
    """Exact outcome pmf of a witness over independent settings."""
    grid = WitnessGrid(witness, [s.copies for s in settings])
    return grid.pmf([s.correlation for s in settings])


def witness_moments(settings: Sequence[CorrelationSetting], witness: Witness) -> tuple[float, float]:
    """Closed-form mean and variance of the witness outcome.

    Linear: mean is the ideal witness value, variance the coefficient-weighted
    sum of estimate variances.  Quadratic: per-setting squared-estimate
    moments add, which for equal copy counts n reduces to
    ((n - 1) * S_ideal + M) / n for the mean.
    """
    _check_settings(settings, witness)
    if isinstance(witness, LinearWitness):
        mean = float(witness.constant)
        variance = 0.0
        for s, c in zip(settings, witness.coefficients):
            m, v = correlation_moments(s)
            cf = float(c)
            mean += cf * m
            variance += cf * cf * v
        return mean, variance
    mean = 0.0
    variance = 0.0
    for s in settings:
        m, v = squared_correlation_moments(s)
        mean += m
        variance += v
    return mean, variance


def witness_grid(copies: Sequence[int], witness: Witness) -> tuple[Fraction, ...]:
    """Full outcome grid of a witness for the given copy counts.

    The grid does not depend on the correlations because zero-probability
    points are retained throughout.
    """
    return WitnessGrid(witness, copies).outcomes
