"""State models: noisy family, purity priors, noise curve, natural priors."""

import numpy as np
import pytest

from entcert.config import parse_entangled
from entcert.errors import DomainError, SchemaError
from entcert.finite_stats import CorrelationSetting
from entcert.simulate import simulate_mixture_witness
from entcert.states import (
    MAX_PRIOR_CELLS,
    EntangledStateModel,
    NoisyPureFamily,
    TruncatedGaussianPrior,
    check_purity,
    check_signs,
    entanglement_threshold,
    family_correlations,
    mixture_witness_pmf,
    natural_prior,
    white_noise_success_probability,
)
from entcert.witnesses import QuadraticWitness, witness_pmf


class TestNoisyFamily:
    def test_correlations_scale_with_purity(self):
        family = NoisyPureFamily(0.75, 3, (-1, 1))
        assert family_correlations(family) == pytest.approx((-0.75, 0.75))

    def test_pure_and_fully_mixed_limits(self):
        assert family_correlations(NoisyPureFamily(1.0, 3, (1, -1, 1))) == (1.0, -1.0, 1.0)
        assert family_correlations(NoisyPureFamily(0.0, 3, (1, -1, 1))) == (0.0, 0.0, 0.0)

    def test_entanglement_threshold(self):
        assert entanglement_threshold(3) == pytest.approx(0.2)
        assert NoisyPureFamily(0.21, 3, (1,)).is_entangled
        assert not NoisyPureFamily(0.2, 3, (1,)).is_entangled

    def test_validation(self):
        with pytest.raises(DomainError):
            NoisyPureFamily(1.5, 3, (1,))
        with pytest.raises(DomainError):
            NoisyPureFamily(0.5, 3, (2,))
        with pytest.raises(DomainError):
            NoisyPureFamily(0.5, 1, (1,))


_PURITY_ENTRY_POINTS = {
    "NoisyPureFamily": lambda p: NoisyPureFamily(p, 3, (1,)).purity,
    "EntangledStateModel": lambda p: EntangledStateModel(purity=p).purity,
    "white_noise_success_probability": lambda p: white_noise_success_probability(p, 4, 5),
}


class TestPurityCheck:
    # A bool would run as purity 0 or 1, and a string would fail inside
    # the comparison with a TypeError.
    @pytest.mark.parametrize("entry", sorted(_PURITY_ENTRY_POINTS))
    @pytest.mark.parametrize("purity", [True, False, np.True_, "0.5", None, 1.5, -0.1, float("nan")])
    def test_every_entry_point_rejects_bad_purity(self, entry, purity):
        with pytest.raises(DomainError):
            _PURITY_ENTRY_POINTS[entry](purity)

    @pytest.mark.parametrize("entry", sorted(_PURITY_ENTRY_POINTS))
    @pytest.mark.parametrize("purity", [0, 1, np.float64(0.5), np.int64(1)])
    def test_every_entry_point_takes_real_purity(self, entry, purity):
        _PURITY_ENTRY_POINTS[entry](purity)

    def test_purity_becomes_a_float(self):
        assert type(check_purity(np.float32(0.5))) is float
        assert type(NoisyPureFamily(1, 3, (1,)).purity) is float
        assert type(EntangledStateModel(purity=np.int64(0)).purity) is float


class TestTruncatedPrior:
    def test_density_support(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        assert prior.density(0.1) == 0.0
        assert prior.density(0.8) == pytest.approx(1.0)
        assert prior.density(0.7) == pytest.approx(np.exp(-0.5))

    def test_discretize_midpoints_and_normalization(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        points, weights = prior.discretize(0.01)
        assert len(points) == 80
        assert points[0] == pytest.approx(0.205)
        assert points[-1] == pytest.approx(0.995)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(0.8, 0.0, 0.2)
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(0.8, 0.1, 1.5)
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(0.8, 0.1, 0.2).discretize(0.0)

    @pytest.mark.parametrize(
        "mean, std",
        [
            (float("nan"), 0.1),
            (float("inf"), 0.1),
            (-float("inf"), 0.1),
            (0.8, float("nan")),
            (0.8, float("inf")),
        ],
    )
    def test_rejects_non_finite_mean_and_std(self, mean, std):
        # A NaN mean used to give all-NaN cell weights.
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(mean, std, 0.2)

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(0.8, 0.1, 0.2).discretize(step)

    def test_cell_count_is_bounded(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.0)
        points, _ = prior.discretize(1.0 / MAX_PRIOR_CELLS)
        assert len(points) == MAX_PRIOR_CELLS
        with pytest.raises(DomainError):
            prior.discretize(1e-7)
        with pytest.raises(DomainError):
            EntangledStateModel(prior=prior, grid_step=1e-7)

    @pytest.mark.parametrize("step", [1e-320, 5e-324])
    def test_subnormal_step_is_too_many_cells(self, step):
        # (1 - p_min) / step overflows to inf; it must not reach round().
        with pytest.raises(DomainError):
            TruncatedGaussianPrior(0.8, 0.1, 0.2).discretize(step)


class TestMixturePmf:
    def test_total_mass(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        pmf = mixture_witness_pmf(prior, (1, 1, 1), (4, 4, 4), QuadraticWitness(3))
        assert pmf.total_mass() == pytest.approx(1.0, abs=1e-10)

    def test_delta_prior_limit(self):
        # A midpoint grid with 0.75 as an exact cell midpoint plus a tiny
        # width concentrates all weight on that single purity.
        prior = TruncatedGaussianPrior(0.75, 1e-12, 0.5)
        pmf = mixture_witness_pmf(prior, (1, 1), (10, 10), QuadraticWitness(2), grid_step=0.1)
        direct = witness_pmf(
            [CorrelationSetting(0.75, 10), CorrelationSetting(0.75, 10)], QuadraticWitness(2)
        )
        assert pmf.outcomes == direct.outcomes
        assert pmf.probabilities == pytest.approx(direct.probabilities, abs=1e-9)

    def test_two_point_prior_is_hand_weighted_sum(self):
        prior = TruncatedGaussianPrior(0.7, 0.2, 0.6)
        points, weights = prior.discretize(0.2)
        assert points == pytest.approx([0.7, 0.9])
        pmf = mixture_witness_pmf(prior, (1,), (6,), QuadraticWitness(1), grid_step=0.2)
        parts = [
            witness_pmf([CorrelationSetting(p, 6)], QuadraticWitness(1)) for p in points
        ]
        for outcome in pmf.outcomes:
            expected = sum(w * part.probability(outcome) for w, part in zip(weights, parts))
            assert pmf.probability(outcome) == pytest.approx(expected, abs=1e-15)

    def test_signs_do_not_matter_for_squares(self):
        prior = TruncatedGaussianPrior(0.8, 0.1, 0.2)
        a = mixture_witness_pmf(prior, (1, 1), (4, 4), QuadraticWitness(2))
        b = mixture_witness_pmf(prior, (1, -1), (4, 4), QuadraticWitness(2))
        assert a.probabilities == pytest.approx(b.probabilities, abs=1e-15)


class TestWhiteNoiseCurve:
    def test_edge_values(self):
        assert white_noise_success_probability(1.0, 4, 5) == pytest.approx(1.0)
        assert white_noise_success_probability(0.0, 4, 5) == pytest.approx((1 / 8) ** 5)

    def test_reference_point(self):
        expected = ((1 + 6 * 0.64 + 0.8**4) / 8) ** 5
        assert white_noise_success_probability(0.8, 4, 5) == pytest.approx(expected, abs=1e-15)
        assert white_noise_success_probability(0.8, 4, 5) == pytest.approx(0.121669, abs=1e-6)

    def test_quartic_form_agrees(self):
        for p in np.arange(0.0, 1.0001, 0.1):
            general = white_noise_success_probability(p, 4, 5)
            quartic = ((1 + 6 * p**2 + p**4) / 8) ** 5
            assert general == pytest.approx(quartic, abs=1e-14)

    def test_monotone_in_purity(self):
        for copies, settings in [(1, 1), (4, 5), (10, 2), (3, 7)]:
            values = [
                white_noise_success_probability(p, copies, settings)
                for p in np.arange(0.0, 1.0001, 0.01)
            ]
            assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "copies,settings", [(2.5, 1), (4, 2.0), (True, 5), (4, True), (0, 5), (4, 0), ("4", 5)]
    )
    def test_rejects_bad_counts(self, copies, settings):
        # (0.5, 2.5, 1) once gave 0.518, a law at 2.5 copies, and bools ran
        # as 1 copy of 1 setting.
        with pytest.raises(DomainError):
            white_noise_success_probability(0.5, copies, settings)

    def test_numpy_integer_counts(self):
        assert white_noise_success_probability(0.8, np.int64(4), np.int8(5)) == (
            white_noise_success_probability(0.8, 4, 5)
        )

    def test_matches_quadratic_pmf_mass(self):
        # P(S = M) computed from the exact distribution must agree.
        pmf = witness_pmf([CorrelationSetting(0.8, 4) for _ in range(5)], QuadraticWitness(5))
        assert pmf.probability(5) == pytest.approx(
            white_noise_success_probability(0.8, 4, 5), abs=1e-12
        )


class TestNaturalPrior:
    @pytest.mark.parametrize(
        "qubits,expected",
        [(4, (8 / 9, 1 / 9)), (5, (16 / 17, 1 / 17)), (2, (2 / 3, 1 / 3))],
    )
    def test_values(self, qubits, expected):
        assert natural_prior(qubits) == pytest.approx(expected, abs=1e-15)

    def test_rejects_single_qubit(self):
        with pytest.raises(DomainError):
            natural_prior(1)


class TestEntangledModel:
    def test_exactly_one_source(self):
        with pytest.raises(DomainError):
            EntangledStateModel()
        with pytest.raises(DomainError):
            EntangledStateModel(purity=0.5, prior=TruncatedGaussianPrior(0.8, 0.1, 0.2))

    @pytest.mark.parametrize("step", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_bad_grid_step_on_both_branches(self, step):
        with pytest.raises(DomainError):
            EntangledStateModel(purity=0.8, grid_step=step)
        with pytest.raises(DomainError):
            EntangledStateModel(prior=TruncatedGaussianPrior(0.8, 0.1, 0.2), grid_step=step)
        # The config reader turns away non-finite numbers itself, as SchemaError.
        with pytest.raises((DomainError, SchemaError)):
            parse_entangled({"purity": 0.8, "grid_step": step})

    def test_fixed_purity_pmf(self):
        model = EntangledStateModel(purity=0.75)
        pmf = model.outcome_pmf(QuadraticWitness(2), (10, 10), (1, -1))
        direct = witness_pmf(
            [CorrelationSetting(0.75, 10), CorrelationSetting(-0.75, 10)], QuadraticWitness(2)
        )
        assert pmf.probabilities == direct.probabilities


#: Each takes the signs of three settings of four copies.
_PRIOR = TruncatedGaussianPrior(0.8, 0.1, 0.2)
_SIGNED_ENTRY_POINTS = {
    "simulate_mixture_witness": lambda signs: simulate_mixture_witness(
        _PRIOR, signs, (4, 4, 4), QuadraticWitness(3), 1000, 0
    ),
    "mixture_witness_pmf": lambda signs: mixture_witness_pmf(
        _PRIOR, signs, (4, 4, 4), QuadraticWitness(3)
    ),
    "outcome_pmf at a fixed purity": lambda signs: EntangledStateModel(purity=0.4).outcome_pmf(
        QuadraticWitness(3), (4, 4, 4), signs
    ),
    "outcome_pmf over a prior": lambda signs: EntangledStateModel(prior=_PRIOR).outcome_pmf(
        QuadraticWitness(3), (4, 4, 4), signs
    ),
}


class TestSignCheck:
    # Any sign but +1 or -1 would rescale a correlation: sign 2 at purity
    # 0.4 would run as correlation 0.8.
    @pytest.mark.parametrize("entry", sorted(_SIGNED_ENTRY_POINTS))
    @pytest.mark.parametrize(
        "signs", [(0.5, 1, 1), (True, 1, 1), ("a", 1, 1), (1, 2, 1), (1, 1), (1, 1, 1, 1), None]
    )
    def test_every_entry_point_rejects_bad_signs(self, entry, signs):
        with pytest.raises(DomainError):
            _SIGNED_ENTRY_POINTS[entry](signs)

    @pytest.mark.parametrize("sign", [0.5, True, "a", 2, np.True_])
    def test_family_rejects_bad_signs(self, sign):
        with pytest.raises(DomainError):
            NoisyPureFamily(0.5, 3, (1, sign))

    def test_numpy_and_float_signs_become_ints(self):
        signs = check_signs((np.int64(1), -1.0, np.float64(1.0)), 3)
        assert signs == (1, -1, 1)
        assert all(type(s) is int for s in signs)
        assert NoisyPureFamily(0.5, 3, (np.int8(-1),)).signs == (-1,)

