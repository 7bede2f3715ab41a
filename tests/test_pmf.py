"""Exact-pmf container: invariants, convolution, folding."""

import functools
import itertools
import math
import operator
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from entcert.errors import DomainError
from entcert.pmf import (
    OutcomePmf,
    as_fraction,
    format_fraction,
    mix_pmfs,
    round_fraction,
)
from entcert.witnesses import LinearWitness, WitnessGrid

F = Fraction


def random_pmf(rng, max_points=6):
    count = rng.integers(1, max_points + 1)
    numerators = rng.choice(np.arange(-12, 13), size=count, replace=False)
    denominator = int(rng.integers(1, 9))
    outcomes = sorted(F(int(v), denominator) for v in numerators)
    raw = rng.random(count) + 0.05
    probs = raw / raw.sum()
    return OutcomePmf(tuple(outcomes), tuple(probs))


def brute_convolution(pmfs):
    """Independent oracle: enumerate all outcome tuples."""
    acc = {}
    for combo in itertools.product(*[list(p.items()) for p in pmfs]):
        total = sum((o for o, _ in combo), F(0))
        prob = 1.0
        for _, p in combo:
            prob *= p
        acc[total] = acc.get(total, 0.0) + prob
    return acc


class TestInvariants:
    def test_rejects_negative_probability(self):
        with pytest.raises(DomainError):
            OutcomePmf((F(0), F(1)), (-0.1, 1.1))

    def test_rejects_unsorted_outcomes(self):
        with pytest.raises(DomainError):
            OutcomePmf((F(1), F(0)), (0.5, 0.5))

    def test_rejects_duplicate_outcomes(self):
        with pytest.raises(DomainError):
            OutcomePmf((F(1, 2), F(1, 2)), (0.5, 0.5))

    def test_rejects_bad_total_mass(self):
        with pytest.raises(DomainError):
            OutcomePmf((F(0), F(1)), (0.5, 0.6))

    def test_mass_tolerance_is_tight(self):
        OutcomePmf((F(0),), (1.0 + 9e-13,))
        with pytest.raises(DomainError):
            OutcomePmf((F(0),), (1.0 + 2e-12,))

    def test_zero_probabilities_are_kept(self):
        pmf = OutcomePmf((F(-1), F(0), F(1)), (0.0, 1.0, 0.0))
        assert pmf.outcomes == (F(-1), F(0), F(1))
        assert pmf.probability(F(-1)) == 0.0

    @pytest.mark.parametrize(
        "pmf",
        [
            OutcomePmf((F(-1), F(0), F(1)), (0.25, 0.5, 0.25)),
            WitnessGrid(LinearWitness([F(1, 3), -1], F(1, 2)), (2, 3)).pmf([0.2, -0.4]),
        ],
        ids=["public", "engine"],
    )
    def test_immutable_hashable_and_picklable(self, pmf):
        with pytest.raises(AttributeError):
            pmf.probabilities = (1.0,)
        with pytest.raises(AttributeError):
            pmf.outcomes = (F(0),)
        copy = pickle.loads(pickle.dumps(pmf))
        assert copy == pmf and hash(copy) == hash(pmf)
        assert copy.mean() == pmf.mean() and copy.variance() == pmf.variance()
        assert len({pmf, copy}) == 1
        assert repr(pmf) == f"OutcomePmf(outcomes={pmf.outcomes!r}, probabilities={pmf.probabilities!r})"


class TestQueries:
    def test_probability_lookup(self):
        pmf = OutcomePmf((F(-1), F(0), F(1)), (0.25, 0.5, 0.25))
        assert pmf.probability(0) == 0.5
        assert pmf.probability(F(1, 3)) == 0.0

    def test_tail_masses(self):
        pmf = OutcomePmf((F(-1), F(0), F(1)), (0.25, 0.5, 0.25))
        assert pmf.mass_below(0) == pytest.approx(0.75)
        assert pmf.mass_below(0, inclusive=False) == pytest.approx(0.25)
        assert pmf.mass_above(0) == pytest.approx(0.75)
        assert pmf.mass_above(0, inclusive=False) == pytest.approx(0.25)

    @hypothesis_settings(max_examples=200, deadline=None)
    @given(
        numerators=st.sets(st.integers(-40, 40), min_size=1, max_size=15),
        denominator=st.integers(1, 12),
        weights=st.data(),
        bounds=st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=24), max_size=6
        ),
    )
    def test_reads_match_brute_force_scans(self, numerators, denominator, weights, bounds):
        outcomes = tuple(sorted(F(v, denominator) for v in numerators))
        raw = weights.draw(
            st.lists(st.integers(0, 1000), min_size=len(outcomes), max_size=len(outcomes))
            .filter(any)
        )
        total = sum(raw)
        pmf = OutcomePmf(outcomes, tuple(w / total for w in raw))
        # Every grid point, its neighbours off the grid, and random bounds.
        keys = [*outcomes, *bounds, outcomes[0] - 1, outcomes[-1] + 1]
        keys += [(a + b) / 2 for a, b in zip(outcomes, outcomes[1:])]
        for key in keys:
            scan = dict(pmf.items()).get(key, 0.0)
            assert pmf.probability(key) == scan
            for inclusive in (True, False):
                below = operator.le if inclusive else operator.lt
                above = operator.ge if inclusive else operator.gt
                assert pmf.mass_below(key, inclusive) == math.fsum(
                    p for o, p in pmf.items() if below(o, key)
                )
                assert pmf.mass_above(key, inclusive) == math.fsum(
                    p for o, p in pmf.items() if above(o, key)
                )
        below, above = pmf.tail_masses()
        for k in range(len(outcomes) + 1):
            assert below[k] == math.fsum(pmf.probabilities[:k])
            assert above[k] == math.fsum(pmf.probabilities[k:])

    def test_moments(self):
        pmf = OutcomePmf((F(-1), F(1)), (0.5, 0.5))
        assert pmf.mean() == pytest.approx(0.0)
        assert pmf.variance() == pytest.approx(1.0)


class TestTransforms:
    def test_convolution_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            pmfs = [random_pmf(rng) for _ in range(int(rng.integers(2, 4)))]
            result = functools.reduce(OutcomePmf.convolve, pmfs)
            oracle = brute_convolution(pmfs)
            assert set(result.outcomes) == set(oracle)
            for outcome, expected in oracle.items():
                assert result.probability(outcome) == pytest.approx(expected, abs=1e-14)

    def test_convolution_grid_keys_are_exact(self):
        a = OutcomePmf((F(9, 25), F(1)), (0.5, 0.5))
        b = OutcomePmf((F(1), F(2)), (0.5, 0.5))
        conv = a.convolve(b)
        assert F(59, 25) in conv.outcomes  # 9/25 + 2 groups exactly

    def test_mixture(self):
        a = OutcomePmf((F(0), F(1)), (0.5, 0.5))
        b = OutcomePmf((F(1), F(2)), (0.25, 0.75))
        mixed = mix_pmfs([a, b], [0.4, 0.6])
        assert mixed.probability(1) == pytest.approx(0.4 * 0.5 + 0.6 * 0.25)
        assert mixed.total_mass() == pytest.approx(1.0, abs=1e-14)


class TestHelpers:
    def test_as_fraction_exact_forms(self):
        assert as_fraction("2.36") == F(59, 25)
        assert as_fraction("59/25") == F(59, 25)
        assert as_fraction(3) == F(3)
        with pytest.raises(DomainError):
            as_fraction("not-a-number")

    def test_round_fraction(self):
        assert round_fraction(F(131, 225), 2) == F(29, 50)  # 0.5822 -> 0.58
        assert round_fraction(F(59, 25), 2) == F(59, 25)

    def test_format_fraction(self):
        assert format_fraction(F(59, 25)) == "59/25"
        assert format_fraction(F(3)) == "3"
        assert format_fraction(F(-4, 5)) == "-4/5"
