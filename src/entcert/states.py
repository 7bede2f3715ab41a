"""Models of the entangled-state hypothesis.

The tested states are mixtures of a perfectly correlating pure state with
unbiased noise, so every full correlation is the ideal sign scaled by the
pure-state weight p.  The hypothesis is either a fixed member of this family
or an average over a truncated Gaussian prior on p.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .finite_stats import CorrelationSetting, check_copies, check_integer, check_real
from .pmf import OutcomePmf
from .witnesses import Witness, WitnessGrid, witness_pmf


#: Most cells a purity prior may be discretized into: a mixture evaluates
#: every cell's pmf at once, as a cells x grid-points array of floats.
MAX_PRIOR_CELLS = 10_000

#: Default width of a prior cell: the exact mixture, the Monte Carlo
#: mixture and the ``entangled`` config section all discretize with it.
PRIOR_GRID_STEP = 0.01


def check_signs(signs: Sequence[int], settings: int | None = None) -> tuple[int, ...]:
    """Ideal correlation signs as ints: each +1 or -1 (bools refused), one
    per setting when ``settings`` is given."""
    try:
        signs = tuple(signs)
    except TypeError:
        raise DomainError(f"signs must be a sequence, got {signs!r}") from None
    if settings is not None and len(signs) != settings:
        raise DomainError(f"expected {settings} signs, one per setting, got {len(signs)}")
    for s in signs:
        if isinstance(s, bool) or not isinstance(s, numbers.Real) or s not in (-1, 1):
            raise DomainError(f"signs must be +1 or -1, got {s!r}")
    return tuple(int(s) for s in signs)


def check_purity(value) -> float:
    """A purity as a float: a real number in [0, 1] (see ``check_real``)."""
    return check_real(value, "purity", 0.0, 1.0)


def entanglement_threshold(num_qubits: int) -> float:
    """Pure-state weight above which the noisy family is entangled."""
    num_qubits = check_integer(num_qubits, "num_qubits", 2)
    return 1.0 / (2 ** (num_qubits - 1) + 1)


@dataclass(frozen=True)
class TruncatedGaussianPrior:
    """Gaussian prior over the pure-state weight, truncated to [p_min, 1]."""

    mean: float
    std: float
    p_min: float

    def __post_init__(self):
        object.__setattr__(self, "mean", check_real(self.mean, "mean"))
        object.__setattr__(self, "std", check_real(self.std, "std", 0.0, ends="()"))
        object.__setattr__(self, "p_min", check_real(self.p_min, "p_min", 0.0, 1.0))

    def density(self, p: float) -> float:
        """Unnormalized density; zero outside [p_min, 1]."""
        if not (self.p_min <= p <= 1.0):
            return 0.0
        z = (p - self.mean) / self.std
        return math.exp(-0.5 * z * z)

    def discretize(self, grid_step: float) -> tuple[list[float], list[float]]:
        """Cell-midpoint grid on [p_min, 1] with renormalized weights."""
        grid_step = check_real(grid_step, "grid_step", 0.0, ends="()")
        span = (1.0 - self.p_min) / grid_step
        # Checked before rounding: a tiny step makes the span inf, which round() rejects.
        if span > MAX_PRIOR_CELLS + 0.5:
            raise DomainError(
                f"grid_step {grid_step} gives {span:.6g} prior cells, more than {MAX_PRIOR_CELLS}"
            )
        cells = max(1, round(span))
        width = (1.0 - self.p_min) / cells
        points = [self.p_min + (i + 0.5) * width for i in range(cells)]
        weights = [self.density(p) for p in points]
        total = math.fsum(weights)
        if total <= 0.0:
            raise DomainError("prior has no mass on [p_min, 1]")
        return points, [w / total for w in weights]


def mixture_witness_pmf(
    prior: TruncatedGaussianPrior,
    signs: Sequence[int],
    copies: Sequence[int],
    witness: Witness,
    grid_step: float = PRIOR_GRID_STEP,
) -> OutcomePmf:
    """Outcome distribution averaged over the purity prior.

    The prior is discretized on a midpoint grid of the given step; the
    per-purity exact pmfs, one batch on a shared grid, are mixed with the
    renormalized weights.
    """
    signs = check_signs(signs, len(copies))
    points, weights = prior.discretize(grid_step)
    grid = WitnessGrid(witness, copies)
    masses = np.array(weights) @ grid.pmf_batch(np.outer(points, signs))
    return grid.as_pmf(masses.tolist())


#: Exponents past this leave a power of a float in [0, 1] unchanged.
_EXPONENT_CAP = 2**64


def white_noise_success_probability(purity: float, copies: int, num_settings: int) -> float:
    """Probability that every squared correlation estimate is exactly 1.

    Equals [((1+p)/2)^n + ((1-p)/2)^n]^M: each setting needs all n products
    to agree in sign.  This is the chance of observing the maximal value of
    the sum-of-squares witness for the white-noise family.
    """
    purity = check_purity(purity)
    # Python raises a float to an integer past the float range by first
    # converting the integer, which overflows.  Bases here lie in [0, 1],
    # whose powers past 2^64 are those at 2^64: 0, or 1 for a base of 1.
    copies = min(check_copies(copies), _EXPONENT_CAP)
    num_settings = min(check_copies(num_settings, "num_settings"), _EXPONENT_CAP)
    agree = ((1.0 + purity) / 2.0) ** copies + ((1.0 - purity) / 2.0) ** copies
    return min(agree, 1.0) ** num_settings


def natural_prior(num_qubits: int) -> tuple[float, float]:
    """(P_ent, P_sep) for a uniformly distributed pure-state weight.

    The family is entangled above the threshold 1 / (2^(N-1) + 1), so the
    entangled fraction is 2^(N-1) / (2^(N-1) + 1).
    """
    threshold = entanglement_threshold(num_qubits)
    return 1.0 - threshold, threshold


@dataclass(frozen=True)
class EntangledStateModel:
    """Entangled hypothesis: a fixed family member or a purity prior.

    Exactly one of ``purity`` (fixed p) and ``prior`` (averaged over the
    truncated Gaussian) must be given.
    """

    purity: float | None = None
    prior: TruncatedGaussianPrior | None = None
    grid_step: float = PRIOR_GRID_STEP

    def __post_init__(self):
        if (self.purity is None) == (self.prior is None):
            raise DomainError("give exactly one of purity and prior")
        if self.purity is not None:
            object.__setattr__(self, "purity", check_purity(self.purity))
        step = check_real(self.grid_step, "grid_step", 0.0, ends="()")
        object.__setattr__(self, "grid_step", step)
        if self.prior is not None:
            self.prior.discretize(self.grid_step)  # reject an oversized prior grid up front

    def outcome_pmf(
        self,
        witness: Witness,
        copies: Sequence[int],
        signs: Sequence[int],
    ) -> OutcomePmf:
        signs = check_signs(signs, len(copies))
        if self.purity is not None:
            settings = [
                CorrelationSetting(s * self.purity, n) for s, n in zip(signs, copies)
            ]
            return witness_pmf(settings, witness)
        return mixture_witness_pmf(self.prior, signs, copies, witness, self.grid_step)
