"""Monte Carlo oracle: simulate finite-copy experiments trial by trial.

Used to validate the exact distributions independently: products of local
outcomes are drawn as Bernoulli variables, correlations are formed from the
counts, and the witness value of every trial is tallied on the exact
rational grid.  The generator is Philox (counter-based, portable), and
trials are consumed in fixed-size chunks so results do not depend on how the
work is partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import chi2

from .errors import DomainError
from .pmf import OutcomePmf
from .states import TruncatedGaussianPrior
from .witnesses import Witness, WitnessGrid

#: Trials are drawn in fixed chunks; changing worker counts must not change results.
CHUNK_TRIALS = 1 << 16


@dataclass(frozen=True)
class SimulationConfig:
    correlations: tuple[float, ...]
    copies: tuple[int, ...]
    trials: int
    seed: int

    def __init__(self, correlations: Sequence[float], copies: Sequence[int], trials: int, seed: int):
        if len(correlations) != len(copies):
            raise DomainError("correlations and copies must have equal length")
        if trials < 1:
            raise DomainError(f"trials must be >= 1, got {trials}")
        if not (0 <= seed < 2**64):
            raise DomainError("seed must be an unsigned 64-bit integer")
        if any(not (-1.0 <= t <= 1.0) for t in correlations):
            raise DomainError("correlations must lie in [-1, 1]")
        if any(n < 1 for n in copies):
            raise DomainError("copies must all be >= 1")
        object.__setattr__(self, "correlations", tuple(float(t) for t in correlations))
        object.__setattr__(self, "copies", tuple(int(n) for n in copies))
        object.__setattr__(self, "trials", int(trials))
        object.__setattr__(self, "seed", int(seed))


def _tally(
    witness: Witness,
    copies: tuple[int, ...],
    trials: int,
    seed: int,
    success_for_chunk,
) -> OutcomePmf:
    grid = WitnessGrid(witness, copies)
    counts = np.zeros(len(grid.outcomes), dtype=np.int64)
    base = np.random.Philox(key=seed)
    chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    for i in range(chunks):
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.Generator(base.jumped(i))
        success = success_for_chunk(rng, size)
        total = np.full(size, grid.shift, dtype=np.int64)
        for j, n in enumerate(copies):
            agree = rng.binomial(n, success[j], size)
            total += grid.values[j][agree]
        values, tallies = np.unique(total, return_counts=True)
        counts[np.searchsorted(grid.integers, values)] += tallies
    return OutcomePmf(grid.outcomes, tuple((counts / trials).tolist()))


def simulate_witness(config: SimulationConfig, witness: Witness) -> OutcomePmf:
    """Empirical witness distribution over the exact outcome grid."""
    if len(config.copies) != witness.num_settings:
        raise DomainError(
            f"witness expects {witness.num_settings} settings, got {len(config.copies)}"
        )
    success = [(1.0 + t) / 2.0 for t in config.correlations]

    def chunk_success(rng, size):
        return [np.full(size, s) for s in success]

    return _tally(witness, config.copies, config.trials, config.seed, chunk_success)


def simulate_mixture_witness(
    prior: TruncatedGaussianPrior,
    signs: Sequence[int],
    copies: Sequence[int],
    witness: Witness,
    trials: int,
    seed: int,
    grid_step: float = 0.01,
) -> OutcomePmf:
    """Empirical distribution with the purity drawn per trial from the prior.

    The purity grid and weights match the discretization used by the exact
    mixture, so this validates the mixture computation rather than the
    discretization itself.
    """
    copies = tuple(int(n) for n in copies)
    points, weights = prior.discretize(grid_step)
    points_arr = np.array(points)
    weights_arr = np.array(weights)
    weights_arr = weights_arr / weights_arr.sum()
    signs = tuple(int(s) for s in signs)

    def chunk_success(rng, size):
        purity = points_arr[rng.choice(len(points_arr), size=size, p=weights_arr)]
        return [(1.0 + s * purity) / 2.0 for s in signs]

    return _tally(witness, copies, trials, seed, chunk_success)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    bins: int
    degenerate: bool


def chi_square_compare(
    empirical: OutcomePmf, exact: OutcomePmf, trials: int, min_expected: float = 5.0
) -> ChiSquareResult:
    """Goodness-of-fit test of simulated frequencies against an exact pmf.

    Adjacent bins are merged until each group expects at least
    ``min_expected`` counts; a leftover light tail joins the final group.
    A single surviving group makes the comparison vacuous and is flagged.
    """
    if empirical.outcomes != exact.outcomes:
        raise DomainError("empirical and exact pmfs must share one grid")
    observed_groups: list[float] = []
    expected_groups: list[float] = []
    observed_acc = expected_acc = 0.0
    for obs_p, exp_p in zip(empirical.probabilities, exact.probabilities):
        observed_acc += obs_p * trials
        expected_acc += exp_p * trials
        if expected_acc >= min_expected:
            observed_groups.append(observed_acc)
            expected_groups.append(expected_acc)
            observed_acc = expected_acc = 0.0
    if expected_acc > 0.0 or observed_acc > 0.0:
        if expected_groups:
            observed_groups[-1] += observed_acc
            expected_groups[-1] += expected_acc
        else:
            observed_groups.append(observed_acc)
            expected_groups.append(expected_acc)
    if len(expected_groups) < 2:
        return ChiSquareResult(0.0, 1.0, len(expected_groups), True)
    statistic = sum(
        (obs - exp) ** 2 / exp for obs, exp in zip(observed_groups, expected_groups)
    )
    dof = len(expected_groups) - 1
    return ChiSquareResult(statistic, float(chi2.sf(statistic, dof)), len(expected_groups), False)
