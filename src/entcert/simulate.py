"""Monte Carlo oracle: simulate finite-copy experiments trial by trial.

Used to validate the exact distributions independently.  Each trial draws
every setting's agreeing-product count by inversion: one uniform is looked
up in that setting's binomial CDF, built once per call from the binomial
weights of the outcome grid (``WitnessGrid``).  The lookup is exact integer
arithmetic.  Philox's uniform is u = m 2^-53 with m the raw 64-bit draw
shifted right by 11, so u reaches a partial sum c exactly when m reaches
the integer threshold ceil(c 2^53).  A guide table over the top bits of m
(indexed search: Chen and Asau 1974; Devroye 1986, section III.2.4) gives
the count directly for every bin that holds no threshold; a draw in a bin
that holds one falls back to a binary search of the integer thresholds, so
the result is the same for any number of copies, log-space weights
included.  A prior mixture first splits each chunk's trials among the
prior's purity cells with one multinomial draw, then draws every cell's
trials from that cell's CDFs; trials are i.i.d. and only the histogram is
kept, so this is the exact mixture law.  The witness value of every trial
is tallied on the exact rational grid.  The generator is Philox
(counter-based, portable), and trials are consumed in fixed-size chunks so
results do not depend on how the work is partitioned.  Seeded results are
bit-reproducible.  They are the same as those of the floating-point CDF
search that the integer lookup replaced, but differ from versions that
drew the counts with ``Generator.binomial``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .finite_stats import check_copies, check_correlation, check_integer
from .pmf import OutcomePmf
from .states import TruncatedGaussianPrior, check_signs
from .witnesses import Witness, WitnessGrid

#: Trials are drawn in fixed chunks; changing worker counts must not change results.
CHUNK_TRIALS = 1 << 16

#: Most trials of one simulation.  10^7 trials of 5 settings of 4 copies
#: take 0.8-1.0 s on a 2-vCPU machine, so the cap is under two minutes of
#: drawing; more is refused before any draw instead of running for hours.
MAX_TRIALS = 10**9


def _run_size(trials, seed) -> tuple[int, int]:
    """Validated ``(trials, seed)`` of one simulation: 1 to ``MAX_TRIALS``
    trials and an unsigned 64-bit seed."""
    trials, seed = check_integer(trials, "trials", 1), check_integer(seed, "seed")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must lie in [1, {MAX_TRIALS}], got {trials}")
    if seed >= 2**64:
        raise DomainError("seed must be an unsigned 64-bit integer")
    return trials, seed


@dataclass(frozen=True)
class SimulationConfig:
    correlations: tuple[float, ...]
    copies: tuple[int, ...]
    trials: int
    seed: int

    def __init__(self, correlations: Sequence[float], copies: Sequence[int], trials: int, seed: int):
        try:
            correlations = tuple(check_correlation(t) for t in correlations)
            copies = tuple(check_copies(n) for n in copies)
        except TypeError:
            raise DomainError("correlations and copies must be sequences") from None
        if len(correlations) != len(copies):
            raise DomainError("correlations and copies must have equal length")
        trials, seed = _run_size(trials, seed)
        object.__setattr__(self, "correlations", correlations)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)


def _thresholds(cdf: np.ndarray) -> np.ndarray:
    """Partial sums c as the integers ceil(c 2^53).  Philox's uniform is
    u = m 2^-53 for a 53-bit m, so u >= c exactly when m >= ceil(c 2^53);
    the scaling by 2^53 is exact, subnormals included."""
    return np.ceil(np.ldexp(cdf, 53)).astype(np.int64)


def _guide(thresholds: np.ndarray, bits: int) -> np.ndarray:
    """Guide table of one sorted threshold row: for each of the 2^bits bins
    of a 53-bit draw m by its top ``bits`` bits, the count of thresholds at
    or below m when it is the same for every m in the bin, else -1."""
    width = 1 << (53 - bits)
    lows = np.arange(1 << bits, dtype=np.int64) * width
    first = np.searchsorted(thresholds, lows, side="right")
    last = np.searchsorted(thresholds, lows + (width - 1), side="right")
    return np.where(first == last, first, -1)


def _counts(thresholds: np.ndarray, guide: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The count of ``thresholds`` at or below each 53-bit draw: its bin's
    entry in ``guide`` (2^bits entries), else a binary search."""
    bits = len(guide).bit_length() - 1
    k = guide[draws >> (53 - bits)]
    slow = k < 0
    k[slow] = np.searchsorted(thresholds, draws[slow], side="right")
    return k


def _tally(
    witness: Witness,
    copies: tuple[int, ...],
    trials: int,
    seed: int,
    correlations: np.ndarray,
    weights: np.ndarray,
) -> OutcomePmf:
    """Empirical pmf of trials at ideal correlations ``correlations`` (P, M),
    row r drawn with probability ``weights[r]``."""
    if not np.all(np.abs(correlations) <= 1.0):
        raise DomainError("correlations must lie in [-1, 1] (success probabilities in [0, 1])")
    grid = WitnessGrid(witness, copies)
    # Setting j's CDF rows (P, n_j) as thresholds, without their last entry,
    # so that a draw at or above the n-th partial sum, which rounding may
    # leave below 1, maps to n.  Each row's guide has 128 n_j to 256 n_j
    # bins, so that few draws fall back to the binary search, but the P
    # guides of a setting hold at most max(2^16, P) entries in all.
    table = _thresholds(np.cumsum(grid._binomials(correlations), axis=2))
    settings = []
    for j, n in enumerate(copies):
        bits = max(min(n.bit_length() + 7, 16 - (len(weights) - 1).bit_length()), 0)
        rows = table[:, j, :n]
        settings.append((rows, [_guide(row, bits) for row in rows]))
    counts = np.zeros(len(grid.outcomes), dtype=np.int64)
    base = np.random.Philox(key=seed)
    chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    for i in range(chunks):
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.Generator(base.jumped(i))
        # Row r's trials are the r-th slice of the chunk.
        edges = [] if len(weights) == 1 else np.cumsum(rng.multinomial(size, weights))[:-1]
        total = np.full(size, grid.shift, dtype=np.int64)
        parts = np.split(total, edges)
        for (rows, guides), value in zip(settings, grid.values):
            # The 53-bit integers behind ``rng.random(size)``, from the same state.
            draws = rng.bit_generator.random_raw(size)
            draws >>= 11
            draws = draws.view(np.int64)
            for row, guide, row_draws, part in zip(rows, guides, np.split(draws, edges), parts):
                part += value[_counts(row, guide, row_draws)]
        values, tallies = np.unique(total, return_counts=True)
        counts[np.searchsorted(grid.integers, values)] += tallies
    return OutcomePmf(grid.outcomes, tuple((counts / trials).tolist()))


def simulate_witness(config: SimulationConfig, witness: Witness) -> OutcomePmf:
    """Empirical witness distribution over the exact outcome grid."""
    correlations = np.array([config.correlations])
    return _tally(witness, config.copies, config.trials, config.seed, correlations, np.ones(1))


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
    copies = tuple(check_copies(n) for n in copies)
    signs = check_signs(signs, len(copies))
    trials, seed = _run_size(trials, seed)
    points, weights = prior.discretize(grid_step)
    correlations = np.outer(points, np.asarray(signs, dtype=np.float64))
    weights_arr = np.array(weights)
    return _tally(witness, copies, trials, seed, correlations, weights_arr / weights_arr.sum())


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
    # The chi-square survival function itself (what ``scipy.stats.chi2.sf``
    # evaluates), without loading ``scipy.stats``.
    from scipy.special import chdtrc

    return ChiSquareResult(statistic, float(chdtrc(dof, statistic)), len(expected_groups), False)
