"""One check per input value, made by the object that owns it.

Every owner of a count or a real number refuses each malformed kind of
value that applies to it with DomainError, and stores or uses a valid
numpy value as the plain int or float it equals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from entcert.acceptance import AcceptanceSet
from entcert.errors import DomainError
from entcert.finite_stats import CorrelationSetting, check_integer, check_real
from entcert.inference import PriorPair, bayes_acceptance_set, check_q_bayes, expected_loss_bound
from entcert.planner import MAX_SWEEP_BUDGET, PlanSpec, equal_split_sweep, family_signs, witness_for
from entcert.pmf import OutcomePmf, as_fraction
from entcert.simulate import MAX_TRIALS, SimulationConfig, simulate_mixture_witness
from entcert.states import (
    EntangledStateModel,
    TruncatedGaussianPrior,
    entanglement_threshold,
    white_noise_success_probability,
)
from entcert.witnesses import LinearWitness, QuadraticWitness
from entcert.worst_case import SearchOptions

F = Fraction
PRIOR = TruncatedGaussianPrior(0.8, 0.1, 0.2)
PMF = OutcomePmf((F(0), F(1)), (0.25, 0.75))
ACCEPT_ZERO = AcceptanceSet.explicit([0])


def plan_spec(**changes):
    args = {"budget": 6, "max_settings": 2, "min_validity": 0.7, "framework": "frequentist"}
    return PlanSpec(**{**args, **changes})


def noisy_pure_member(purity, num_qubits):
    """A fixed member of the noisy pure family as the package models it:
    ``EntangledStateModel(purity=p)``, entangled when p exceeds
    ``entanglement_threshold(N)``.  Gives back the purity and threshold."""
    return EntangledStateModel(purity=purity).purity, entanglement_threshold(num_qubits)


#: Owners of integers: how each takes a value and gives back what it made
#: of it, the least value it accepts and the largest (None: no cap).
INTEGERS = {
    "SearchOptions.restarts": (lambda v: SearchOptions(restarts=v).restarts, 0, None),
    "SearchOptions.seed": (lambda v: SearchOptions(seed=v).seed, 0, None),
    "SearchOptions.max_iterations": (lambda v: SearchOptions(max_iterations=v).max_iterations, 0, None),
    "PlanSpec.budget": (lambda v: plan_spec(budget=v).budget, 1, None),
    "PlanSpec.max_settings": (lambda v: plan_spec(max_settings=v).max_settings, 1, None),
    "witness_for": (lambda v: witness_for("linear", v).num_settings, 1, None),
    "family_signs": (lambda v: len(family_signs("linear", v)), 1, None),
    "equal_split_sweep": (
        lambda v: max(e.num_settings for e in equal_split_sweep(v, "linear", 0.8)), 1, MAX_SWEEP_BUDGET
    ),
    "NoisyPureFamily.num_qubits": (lambda v: noisy_pure_member(0.8, v), 2, None),
    "entanglement_threshold": (entanglement_threshold, 2, None),
    "QuadraticWitness": (lambda v: QuadraticWitness(v).num_settings, 1, None),
    "CorrelationSetting.copies": (lambda v: CorrelationSetting(0.5, v).copies, 1, None),
    "white_noise_success_probability.num_settings": (
        lambda v: white_noise_success_probability(0.5, 2, v), 1, None
    ),
    "SimulationConfig.trials": (lambda v: SimulationConfig([0.5], [2], v, 0).trials, 1, MAX_TRIALS),
    "SimulationConfig.seed": (lambda v: SimulationConfig([0.5], [2], 1, v).seed, 0, 2**64 - 1),
    "simulate_mixture_witness.trials": (
        lambda v: simulate_mixture_witness(PRIOR, (1,), (2,), QuadraticWitness(1), v, 0, 0.1), 1, MAX_TRIALS
    ),
}

#: Owners of real numbers: how each takes a value and gives back what it
#: made of it, its interval with the kind of each end, and a valid value.
REALS = {
    "SearchOptions.xatol": (lambda v: SearchOptions(xatol=v).xatol, 0.0, math.inf, "()", 1e-3),
    "SearchOptions.fatol": (lambda v: SearchOptions(fatol=v).fatol, 0.0, math.inf, "()", 1e-9),
    "PlanSpec.min_validity": (lambda v: plan_spec(min_validity=v).min_validity, 0.0, 1.0, "()", 0.7),
    "PriorPair": (lambda v: PriorPair(v).p_ent, 0.0, 1.0, "[]", 0.5),
    "check_q_bayes": (check_q_bayes, 0.0, 1.0, "[]", 0.5),
    "bayes_acceptance_set": (
        lambda v: bayes_acceptance_set(v, {F(0): 0.4, F(1): 0.9}).outcomes, 0.0, 1.0, "[]", 0.5
    ),
    "expected_loss_bound": (
        lambda v: expected_loss_bound(ACCEPT_ZERO, v, PriorPair(0.5), 0.1, PMF), 0.0, 1.0, "[]", 0.5
    ),
    "AcceptanceSet.threshold.gamma": (
        lambda v: AcceptanceSet.threshold(0, "accept_low", gamma=v).gamma, 0.0, 1.0, "[]", 0.5
    ),
    "AcceptanceSet.explicit.gamma": (
        lambda v: AcceptanceSet.explicit([0], gamma=v, boundary=1).gamma, 0.0, 1.0, "[]", 0.5
    ),
    "TruncatedGaussianPrior.mean": (
        lambda v: TruncatedGaussianPrior(v, 0.1, 0.2).mean, -math.inf, math.inf, "()", 0.8
    ),
    "TruncatedGaussianPrior.std": (
        lambda v: TruncatedGaussianPrior(0.8, v, 0.2).std, 0.0, math.inf, "()", 0.1
    ),
    "TruncatedGaussianPrior.p_min": (
        lambda v: TruncatedGaussianPrior(0.8, 0.1, v).p_min, 0.0, 1.0, "[]", 0.2
    ),
    "TruncatedGaussianPrior.discretize": (lambda v: PRIOR.discretize(v), 0.0, math.inf, "()", 0.1),
    "EntangledStateModel.grid_step": (
        lambda v: EntangledStateModel(purity=0.8, grid_step=v).grid_step, 0.0, math.inf, "()", 0.1
    ),
    "EntangledStateModel.purity": (lambda v: EntangledStateModel(purity=v).purity, 0.0, 1.0, "[]", 0.8),
    "NoisyPureFamily.purity": (lambda v: noisy_pure_member(v, 2), 0.0, 1.0, "[]", 0.8),
    "CorrelationSetting.correlation": (
        lambda v: CorrelationSetting(v, 2).correlation, -1.0, 1.0, "[]", -0.25
    ),
    "white_noise_success_probability.purity": (
        lambda v: white_noise_success_probability(v, 2, 2), 0.0, 1.0, "[]", 0.5
    ),
}

#: Refused by every owner: not numbers, and numbers that are not finite.
NOT_FINITE_NUMBERS = [True, False, None, "1", float("nan"), float("inf"), -float("inf")]


def integer_cases():
    for name, (make, low, high) in INTEGERS.items():
        # A fraction, and a float of integer value, where an integer is due.
        bad = [*NOT_FINITE_NUMBERS, low + 0.5, float(low), np.float64(low), low - 1]
        if high is not None:
            bad.append(high + 1)
        for value in bad:
            yield pytest.param(make, value, id=f"{name}-{value!r}")


def real_cases():
    for name, (make, low, high, ends, _) in REALS.items():
        bad = list(NOT_FINITE_NUMBERS)
        if math.isfinite(low):
            bad.append(low if ends[0] == "(" else low - 0.5)
        if math.isfinite(high):
            bad.append(high if ends[1] == ")" else high + 0.5)
        for value in bad:
            yield pytest.param(make, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("make,value", [*integer_cases(), *real_cases()])
def test_malformed_value_raises_domain_error(make, value):
    with pytest.raises(DomainError):
        make(value)


@pytest.mark.parametrize("name", sorted(INTEGERS))
def test_numpy_integer_accepted_and_converted(name):
    make, low, _ = INTEGERS[name]
    plain = make(low)
    converted = make(np.int64(low))
    assert converted == plain and type(converted) is type(plain)


@pytest.mark.parametrize("name", sorted(REALS))
def test_numpy_real_accepted_and_converted(name):
    make, _, _, _, valid = REALS[name]
    plain = make(valid)
    converted = make(np.float64(valid))
    assert converted == plain and type(converted) is type(plain)


class TestSharedChecks:
    def test_integer_returns_int(self):
        assert type(check_integer(np.int32(3), "n", 1)) is int
        assert check_integer(10**30, "n") == 10**30

    @pytest.mark.parametrize("ends,accepted", [("[]", [0, 1]), ("()", []), ("(]", [1]), ("[)", [0])])
    def test_real_interval_ends(self, ends, accepted):
        for value in (0, 1):
            if value in accepted:
                assert check_real(value, "x", 0.0, 1.0, ends) == float(value)
            else:
                with pytest.raises(DomainError):
                    check_real(value, "x", 0.0, 1.0, ends)

    @pytest.mark.parametrize("value", [10**400, -(10**400)])
    def test_integer_past_the_float_range_is_not_finite(self, value):
        with pytest.raises(DomainError):
            check_real(value, "mean")

    def test_messages_name_the_quantity(self):
        with pytest.raises(DomainError, match=r"^restarts must be an integer, got 2\.5$"):
            SearchOptions(restarts=2.5)
        with pytest.raises(DomainError, match=r"^min_validity must lie in \(0, 1\), got 1\.0$"):
            plan_spec(min_validity=1.0)
        with pytest.raises(DomainError, match=r"^num_qubits must be >= 2, got 1$"):
            entanglement_threshold(1)


class TestNonNumericOwners:
    @pytest.mark.parametrize("key", ["allow_unused_copies", "equal_allocation_only"])
    @pytest.mark.parametrize("value", ["no", "true", 0, 1, None, np.True_])
    def test_plan_flags_must_be_bools(self, key, value):
        with pytest.raises(DomainError):
            plan_spec(**{key: value})

    @pytest.mark.parametrize("value", [True, False, float("inf"), float("nan")])
    def test_as_fraction_refuses_bools_and_non_finite_floats(self, value):
        with pytest.raises(DomainError):
            as_fraction(value)

    def test_linear_witness_refuses_bool_coefficients(self):
        with pytest.raises(DomainError):
            LinearWitness([True], 1)
        with pytest.raises(DomainError):
            LinearWitness([1], False)
