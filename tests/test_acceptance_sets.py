"""AcceptanceSet semantics: thresholds, explicit sets, randomization, snapping."""

from fractions import Fraction

import pytest

from entcert.acceptance import AcceptanceSet, snap_to_grid
from entcert.errors import DomainError
from entcert.pmf import OutcomePmf

F = Fraction
GRID = (F(59, 225), F(131, 225), F(259, 225), F(11, 9), F(331, 225), F(51, 25), F(19, 9), F(59, 25), F(3))


class TestThreshold:
    def test_accept_low_includes_boundary(self):
        acc = AcceptanceSet.threshold(F(-4, 5), "accept_low")
        assert acc.accepts(F(-4, 5))
        assert acc.accepts(F(-1))
        assert not acc.accepts(F(-3, 5))

    def test_accept_high_includes_boundary(self):
        acc = AcceptanceSet.threshold(2, "accept_high")
        assert acc.accepts(F(2))
        assert not acc.accepts(F(9, 5))

    def test_randomized_boundary_weight(self):
        acc = AcceptanceSet.threshold(2, "accept_high", gamma=0.25)
        assert acc.weight(F(2)) == 0.25
        assert acc.weight(F(3)) == 1.0
        assert acc.weight(F(1)) == 0.0

    def test_weighted_mass(self):
        pmf = OutcomePmf((F(0), F(1), F(2)), (0.2, 0.3, 0.5))
        acc = AcceptanceSet.threshold(1, "accept_high", gamma=0.5)
        assert acc.weighted_mass(pmf) == pytest.approx(0.5 + 0.5 * 0.3)


class TestExplicit:
    def test_membership(self):
        acc = AcceptanceSet.explicit([F(59, 25), F(3)])
        assert acc.accepts(F(59, 25))
        assert [o for o in GRID if acc.accepts(o)] == [F(59, 25), F(3)]

    def test_boundary_must_not_be_fully_accepted(self):
        with pytest.raises(DomainError):
            AcceptanceSet.explicit([F(1)], gamma=0.3, boundary=F(1))

    def test_gamma_requires_boundary(self):
        with pytest.raises(DomainError):
            AcceptanceSet(kind="explicit", outcomes=frozenset({F(1)}), gamma=0.3)

    def test_grid_validation(self):
        acc = AcceptanceSet.explicit([F(1, 7)])
        with pytest.raises(DomainError):
            acc.validate_on_grid(GRID)


class TestSnapping:
    def test_exact_fraction_passes_through(self):
        assert snap_to_grid("59/25", GRID) == F(59, 25)
        assert snap_to_grid(3, GRID) == F(3)

    def test_display_rounding_match(self):
        assert snap_to_grid("2.36", GRID) == F(59, 25)
        assert snap_to_grid("0.58", GRID) == F(131, 225)
        assert snap_to_grid("1.22", GRID) == F(11, 9)

    def test_unmatched_value_rejected(self):
        with pytest.raises(DomainError):
            snap_to_grid("0.99", GRID)

    def test_ambiguous_rounding_rejected(self):
        grid = (F(101, 100), F(102, 100))
        with pytest.raises(DomainError):
            snap_to_grid("1.0", grid)
