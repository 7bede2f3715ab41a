"""Monte Carlo oracle: simulate finite-copy experiments trial by trial.

Used to validate the exact distributions independently.  Each trial draws
every setting's agreeing-product count by inversion: one uniform is looked
up in that setting's binomial CDF, built once per call from the binomial
weights of the outcome grid (``WitnessGrid``).  The lookup is exact integer
arithmetic.  Philox's uniform is u = m 2^-53 with m the raw 64-bit draw
shifted right by 11, so u reaches a partial sum c exactly when m reaches
the integer threshold ceil(c 2^53).  A guide table over the top bits of m
(indexed search: Chen and Asau 1974; Devroye 1986, section III.2.4) gives
the setting's witness value for the draw's count directly, for every bin
that holds no threshold.  A sentinel that no grid value equals marks each
bin that holds one, and a draw there falls back to a binary search of the
integer thresholds for its count, so the result is the same for any number
of copies, log-space weights included.  A prior mixture first splits each
chunk's trials among the prior's purity cells with one multinomial draw,
then draws every cell's trials from that cell's CDFs (the cells' guides of
a setting lie end to end, so one lookup serves them all); trials are
i.i.d. and only the histogram is kept, so this is the exact mixture law.
Every
trial's total is tallied on the exact rational grid.  The generator is
Philox (counter-based, portable), and trials are consumed in fixed-size
chunks, each from its own jump of the seeded stream.  Seeded results are
bit-reproducible.  They are the same as those of the floating-point CDF
search that the integer lookup replaced, but differ from versions that
drew the counts with ``Generator.binomial``.  ``chi_square_compare`` tests
a simulated histogram against an exact pmf, with the chi-square tail in
closed form (``chi_square_sf``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .finite_stats import check_copies, check_correlation, check_integer
from .pmf import OutcomePmf
from .states import PRIOR_GRID_STEP, TruncatedGaussianPrior, check_signs
from .witnesses import Witness, WitnessGrid

#: Trials are drawn in fixed chunks, chunk i from the i-th jump of the
#: seeded Philox stream, so a chunk's draws depend only on the seed and its
#: index, not on the number of trials (``test_chunk_stable``).
CHUNK_TRIALS = 1 << 16

#: Most trials of one simulation.  10^7 trials of 5 settings of 4 copies
#: take 0.32-0.36 s on a 2-vCPU Intel Xeon, so the cap is under a minute of
#: drawing; more is refused before any draw instead of running for hours.
MAX_TRIALS = 10**9

#: Value-guide entry of a bin that holds a threshold.  No value looked up
#: equals it: ``witnesses._check_int64`` keeps every setting's value, the
#: shift added to the first setting's, above -2^63.
_FALLBACK = np.iinfo(np.int64).min

#: Least count that each group of a chi-square comparison expects, bar a
#: lone group; being positive, it leaves no group to divide by zero.
MIN_EXPECTED = 5.0


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


def _value_guides(rows: np.ndarray, value: np.ndarray, bits: int) -> np.ndarray:
    """Value guides (P, 2^bits) of a setting's threshold rows (P, n): entry
    (r, b) is ``value[k]`` where row r's ``_guide`` gives bin b the count k,
    or ``_FALLBACK`` where the bin holds a threshold."""
    guides = np.array([_guide(row, bits) for row in rows])
    return np.where(guides >= 0, value[guides], _FALLBACK)


def _look_up(
    rows: np.ndarray,
    value: np.ndarray,
    guides: np.ndarray,
    raw: np.ndarray,
    out: np.ndarray,
    index: np.ndarray,
    row_of: np.ndarray | None,
    ends: list[int],
) -> None:
    """Write to ``out`` the witness value of each raw 64-bit draw, whose
    53-bit m is ``raw >> 11``.  Draws ``ends[r - 1]`` to ``ends[r]`` are row
    r's, as ``row_of`` lists (``None`` for one row).  A draw's value is its
    row's ``guides`` entry for its bin, or where that is ``_FALLBACK``,
    ``value`` at the count of the row's thresholds at or below m.
    ``index`` is scratch space of the draws' length."""
    bits = guides.shape[1].bit_length() - 1
    np.right_shift(raw, 64 - bits, out=index)
    if row_of is not None:
        index += row_of << bits
    # ``take`` reads the guides flattened, row after row.  Every index is
    # below their size, so "clip" changes none; "raise" would make numpy
    # buffer a copy of the output.
    np.take(guides, index, out=out, mode="clip")
    slow = np.flatnonzero(out == _FALLBACK)
    if len(slow):
        draws = (raw[slow] >> 11).view(np.int64)
        # Row r's slow draws are draws[cuts[r - 1]:cuts[r]].
        cuts = np.searchsorted(slow, ends).tolist()
        for row, start, end in zip(rows, [0] + cuts[:-1], cuts):
            if start < end:
                draws[start:end] = np.searchsorted(row, draws[start:end], side="right")
        out[slow] = value[draws]


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
    for j, (n, value) in enumerate(zip(copies, grid.values)):
        bits = max(min(n.bit_length() + 7, 16 - (len(weights) - 1).bit_length()), 0)
        rows = table[:, j, :n]
        # The first setting's values carry the shift, so that its lookup
        # starts every trial's total.
        value = value + grid.shift if j == 0 else value
        settings.append((rows, value, _value_guides(rows, value, bits)))
    counts = np.zeros(len(grid.integers), dtype=np.int64)
    # Scratch space of one chunk, reused by every chunk and setting.
    index = np.empty(CHUNK_TRIALS, dtype=np.intp)
    drawn = np.empty(CHUNK_TRIALS, dtype=np.int64)
    totals = np.empty(CHUNK_TRIALS, dtype=np.int64)
    base = np.random.Philox(key=seed)
    chunks = (trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS
    for i in range(chunks):
        size = min(CHUNK_TRIALS, trials - i * CHUNK_TRIALS)
        rng = np.random.Generator(base.jumped(i))
        # Row r's trials are the r-th slice of the chunk.
        if len(weights) == 1:
            row_of, ends = None, [size]
        else:
            split = rng.multinomial(size, weights)
            row_of, ends = np.repeat(np.arange(len(weights)), split), np.cumsum(split).tolist()
        total = totals[:size]
        for j, (rows, value, guides) in enumerate(settings):
            # The raw draws behind ``rng.random(size)``, from the same state.
            raw = rng.bit_generator.random_raw(size)
            out = total if j == 0 else drawn[:size]
            _look_up(rows, value, guides, raw, out, index[:size], row_of, ends)
            if j:
                np.add(total, out, out=total)
        # Sorted in place, the totals fall into runs, one per grid point.
        total.sort()
        starts = np.concatenate(([0], np.flatnonzero(total[1:] != total[:-1]) + 1))
        counts[np.searchsorted(grid.integers, total[starts])] += np.diff(starts, append=size)
    return grid.as_pmf((counts / trials).tolist())


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
    grid_step: float = PRIOR_GRID_STEP,
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


def chi_square_compare(empirical: OutcomePmf, exact: OutcomePmf, trials: int) -> ChiSquareResult:
    """Goodness-of-fit test of simulated frequencies against an exact pmf,
    over the groups of ``chi_square_groups``.  A single surviving group
    makes the comparison vacuous and is flagged."""
    observed_groups, expected_groups = chi_square_groups(empirical, exact, trials)
    if len(expected_groups) < 2:
        return ChiSquareResult(0.0, 1.0, len(expected_groups), True)
    statistic = sum(
        (obs - exp) ** 2 / exp for obs, exp in zip(observed_groups, expected_groups)
    )
    # One degree of freedom fewer than groups: the observed counts sum to the
    # trials.  The tail is summed in closed form (``chi_square_sf``).
    p_value = chi_square_sf(statistic, len(expected_groups) - 1)
    return ChiSquareResult(statistic, p_value, len(expected_groups), False)


def chi_square_groups(
    empirical: OutcomePmf, exact: OutcomePmf, trials: int
) -> tuple[list[float], list[float]]:
    """Observed and expected counts of adjacent bins, merged until each
    group expects at least ``MIN_EXPECTED``; a leftover light tail joins
    the final group, so only a lone group may expect less."""
    if empirical.outcomes != exact.outcomes:
        raise DomainError("empirical and exact pmfs must share one grid")
    observed_groups: list[float] = []
    expected_groups: list[float] = []
    observed_acc = expected_acc = 0.0
    for obs_p, exp_p in zip(empirical.probabilities, exact.probabilities):
        observed_acc += obs_p * trials
        expected_acc += exp_p * trials
        if expected_acc >= MIN_EXPECTED:
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
    return observed_groups, expected_groups


def chi_square_sf(statistic: float, dof: int) -> float:
    """P(X >= statistic) for X chi-square with an integer ``dof`` >= 1.

    This is Q(dof/2, y) at y = statistic/2 in closed form (Abramowitz and
    Stegun, section 26.4): the sum of the Poisson-like terms
    e^-y y^s / Gamma(s + 1) at s = dof/2 - 1, dof/2 - 2, ... down to 0 or
    1/2, plus erfc(sqrt(y)) when ``dof`` is odd.  Every term is positive.
    The term nearest the peak s = y is computed directly (``_poisson_term``)
    and the others from it by the ratios s/y and y/(s + 1), which shrink the
    terms on either side of the peak, so no term overflows and the underflow
    of a term ends its side.  Rounding may leave the sum an ulp above 1,
    which is cut off.
    """
    dof = check_integer(dof, "dof", 1)
    if math.isnan(statistic):
        raise DomainError("the chi-square statistic must not be NaN")
    y = statistic / 2.0
    if y <= 0.0:
        return 1.0
    if y == math.inf:
        return 0.0
    low, top = (dof % 2) / 2.0, dof / 2.0 - 1.0
    head = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    if top < low:
        return head
    s = min(top, low + max(math.floor(y - low), 0))
    peak = _poisson_term(s, y)
    terms = [peak]
    term, below = peak, s
    while below >= low + 1.0 and term > 0.0:
        term *= below / y
        below -= 1.0
        terms.append(term)
    term, above = peak, s
    while above + 1.0 <= top and term > 0.0:
        above += 1.0
        term *= y / above
        terms.append(term)
    return min(head + math.fsum(terms), 1.0)


def _poisson_term(s: float, y: float) -> float:
    """e^-y y^s / Gamma(s + 1) for s >= 0 and y > 0.

    Below s = 15 it is that product, or its logarithm where e^-y would leave
    the normal floats.  From s = 15 on, the exponent is taken apart as in
    Loader's Poisson density (C. Loader, "Fast and accurate computation of
    binomial probabilities", 2000): Stirling's error term of Gamma(s + 1)
    and the deviance s log(s/y) + y - s, the latter by its series in
    v = (s - y)/(s + y) near s = y, so that no large logarithms cancel.
    """
    if s < 15.0:
        if y < 700.0:
            return math.exp(-y) * y**s / math.gamma(s + 1.0)
        return math.exp(s * math.log(y) - y - math.lgamma(s + 1.0))
    inv = 1.0 / (s * s)
    stirling = (1 / 12 - inv * (1 / 360 - inv * (1 / 1260 - inv * (1 / 1680 - inv / 1188)))) / s
    if abs(s - y) < 0.1 * (s + y):
        v = (s - y) / (s + y)  # |v| < 0.1, so the series stops past v^17
        deviance = (s - y) * v + 2.0 * s * sum(v**j / j for j in range(3, 19, 2))
    else:
        deviance = s * math.log(s / y) + y - s
    return math.exp(-stirling - deviance) / math.sqrt(2.0 * math.pi * s)
