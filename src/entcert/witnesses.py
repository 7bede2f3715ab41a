"""Witness functionals of correlations and their exact outcome distributions.

Two shapes are supported: a linear combination of correlations plus a
constant, and the sum of squared full correlations.  Outcome distributions
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
from typing import Callable, Sequence

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
