"""Witness functionals of correlations and their exact outcome distributions.

Two shapes are supported: a linear combination of correlations plus a
constant, and the sum of squared full correlations.  Each shape's class
also carries its grid values, moments, separable region and analytic worst
case, so the grid engine, the worst-case search and the CLI never ask which
class they hold.  Every outcome distribution the package computes, the
one-setting ``correlation_pmf`` and ``squared_correlation_pmf`` included,
comes from one integer encoding of the outcome grid, ``WitnessGrid``,
shared with the worst-case search and the simulator: its partial-sum steps
aggregate probabilities forwards in ``pmf_batch`` and carry outcome weights
backwards in ``value_and_grad``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

import numpy as np

from .errors import DomainError, InfeasibleError
from .finite_stats import (
    CorrelationSetting,
    check_copies,
    check_integer,
    correlation_moments,
    squared_correlation_moments,
)
from .pmf import OutcomePmf, RationalLike, as_fraction

#: Above this copy count binomial weights are assembled in log space.
_DIRECT_BINOMIAL_LIMIT = 1000


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

    def project_batch(self, points) -> np.ndarray:
        """Euclidean projections (B, M) of points (B, M) onto the separable
        region: clip(t + lam * c, -1, 1) with the smallest lam >= 0 that
        reaches the half-space.

        Along that path the witness value is piecewise linear and
        nondecreasing in lam, with a kink wherever a setting reaches -1 or
        1, so lam is found on the first piece whose end reaches 0.
        """
        t = np.asarray(points, dtype=np.float64)
        coeffs = np.array([float(c) for c in self.coefficients])
        const = float(self.constant)
        projected = np.clip(t, -1.0, 1.0)
        short = projected @ coeffs + const < 0.0
        if not short.any():
            return projected
        self.check_separable_region()
        start = t[short]
        steered = coeffs != 0.0
        ends = (np.array([[-1.0], [1.0]]) - start[:, None, steered]) / coeffs[steered]
        kinks = np.hstack([np.zeros((len(start), 1)), ends.reshape(len(start), -1)])
        kinks = np.sort(np.maximum(kinks, 0.0), axis=1)
        value = np.clip(start[:, None, :] + kinks[:, :, None] * coeffs, -1.0, 1.0) @ coeffs + const
        # Rounding may leave a single-point region below 0 at every kink;
        # the last kink, every setting at its best end, is then the answer.
        end = np.minimum((value < 0.0).sum(axis=1), kinks.shape[1] - 1)
        rows = np.arange(len(start))
        low, high = value[rows, end - 1], value[rows, end]
        share = np.ones(len(start))
        np.divide(-low, high - low, out=share, where=high >= 0.0)
        lam = kinks[rows, end - 1] + share * (kinks[rows, end] - kinks[rows, end - 1])
        projected[short] = np.clip(start + lam[:, None] * coeffs, -1.0, 1.0)
        return projected

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
        object.__setattr__(self, "num_settings", check_integer(self.num_settings, "num_settings", 1))

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

    def project_batch(self, points) -> np.ndarray:
        """Euclidean projections (B, M) of points (B, M) onto the separable
        region: negative correlations to 0, then radially into the unit ball."""
        t = np.maximum(np.asarray(points, dtype=np.float64), 0.0)
        norm = np.sqrt((t * t).sum(axis=1))
        return t / np.maximum(norm, 1.0)[:, None]

    def check_separable_region(self) -> None:
        """The region always holds the origin."""

    def analytic_worst_case(self) -> tuple[float, ...]:
        """Known worst case of symmetric thresholds: every correlation at 1/sqrt(M)."""
        return (1.0 / math.sqrt(self.num_settings),) * self.num_settings


Witness = LinearWitness | QuadraticWitness


def _count_differences(n: int) -> np.ndarray:
    """Agreeing minus disagreeing products, 2k - n, for k = 0..n."""
    return 2 * np.arange(n + 1, dtype=np.int64) - n


def _binomial_weights(n: int, success: float) -> list[float]:
    """P(k successes in n trials) for k = 0..n, assembled in log space."""
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
    first to last, and ``value_and_grad`` runs them back again, so neither
    ever enumerates the full combination space.
    """

    def __init__(self, witness: Witness, copies: Sequence[int]):
        copies = tuple(check_copies(n) for n in copies)
        if len(copies) != witness.num_settings:
            raise DomainError(f"witness expects {witness.num_settings} settings, got {len(copies)}")
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
                # The exact recurrence C(n, k + 1) = C(n, k) (n - k) // (k + 1) gives
                # math.comb's values some 40 times faster at 1,000 copies.
                combs = itertools.accumulate(range(n), lambda c, k: c * (n - k) // (k + 1), initial=1)
                self.comb_table[j, : n + 1] = [float(c) for c in combs]
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

    def _advance(self, mass: np.ndarray, table: np.ndarray, j: int) -> np.ndarray:
        """Partial-sum masses (B, S_j+1) after step j, from those before it
        (B, S_j) and the binomial weights (B, M, width)."""
        inverse, size = self._steps[j]
        rows = len(mass)
        combos = mass[:, :, None] * table[:, j, None, : inverse.shape[1]]
        index = inverse + size * np.arange(rows)[:, None, None]
        return np.bincount(index.ravel(), combos.ravel(), rows * size).reshape(rows, size)

    def pmf_batch(self, correlations) -> np.ndarray:
        """Grid probabilities (B, G) at a batch of correlation vectors (B, M)."""
        t = np.asarray(correlations, dtype=np.float64)
        table = self._binomials(t)
        mass = np.ones((len(t), 1))
        for j in range(len(self.copies)):
            mass = self._advance(mass, table, j)
        return mass

    def value_and_grad(self, weights, correlations) -> tuple[np.ndarray, np.ndarray]:
        """Values (B,) of ``pmf_batch(T) @ w`` row by row, for weights W (B, G)
        and correlations T (B, M), and their gradients (B, M) in T.

        The forward pass keeps the partial-sum masses before every step; the
        backward pass gathers the weights through each step's inverse map,
        from the last setting to the first, and contracts them with that
        setting's binomial weights.  Setting j's gradient pairs the masses
        before its step with the weights gathered after it and with the
        derivatives of its binomial weights.  Only the direct binomial
        tables are differentiated, which covers every ``WorstCaseProblem``.
        """
        if self._log_space:
            raise DomainError(f"gradients take at most {_DIRECT_BINOMIAL_LIMIT} copies per setting")
        t = np.asarray(correlations, dtype=np.float64)
        table = self._binomials(t)
        q = (1.0 + t[:, :, None]) / 2.0
        # k q^(k-1) and (n-k) (1-q)^(n-k-1) vanish at k = 0 and k = n, where
        # the powers alone would be 1/0 at q = 0 or 1.
        rise = self.k_table * q ** np.maximum(self.k_table - 1.0, 0.0) * (1.0 - q) ** self.nk_table
        fall = self.nk_table * q**self.k_table * (1.0 - q) ** np.maximum(self.nk_table - 1.0, 0.0)
        slope = 0.5 * self.comb_table * (rise - fall)
        masses = [np.ones((len(t), 1))]
        for j in range(len(self.copies) - 1):
            masses.append(self._advance(masses[-1], table, j))
        adjoint = np.asarray(weights, dtype=np.float64)
        grad = np.empty(t.shape)
        for j in range(len(self.copies) - 1, -1, -1):
            inverse = self._steps[j][0]
            gathered = adjoint[:, inverse]
            per_count = (masses[j][:, :, None] * gathered).sum(axis=1)
            grad[:, j] = (per_count * slope[:, j, : inverse.shape[1]]).sum(axis=1)
            adjoint = (gathered * table[:, j, None, : inverse.shape[1]]).sum(axis=2)
        return adjoint[:, 0], grad

    def pmf(self, correlations: Sequence[float]) -> OutcomePmf:
        """Exact outcome pmf at one correlation vector."""
        return OutcomePmf(self.outcomes, tuple(self.pmf_batch([correlations])[0].tolist()))


def witness_pmf(settings: Sequence[CorrelationSetting], witness: Witness) -> OutcomePmf:
    """Exact outcome pmf of a witness over independent settings."""
    grid = WitnessGrid(witness, [s.copies for s in settings])
    return grid.pmf([s.correlation for s in settings])


def correlation_pmf(setting: CorrelationSetting) -> OutcomePmf:
    """Exact pmf of one estimated correlation on its grid {-1, -1 + 2/n, ..., 1}."""
    return witness_pmf([setting], LinearWitness([1]))


def squared_correlation_pmf(setting: CorrelationSetting) -> OutcomePmf:
    """Exact pmf of one squared estimate; +v and -v fold onto v^2."""
    return witness_pmf([setting], QuadraticWitness(1))


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
