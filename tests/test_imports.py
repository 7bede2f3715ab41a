"""Import cost: ``import entcert`` loads numpy and no scipy subpackage.

``scipy.special`` is imported inside the one function that needs it, at the
chi-square tail of ``chi_square_compare``.  No command loads
``scipy.optimize``: the acceptance-set search solves its knapsacks itself.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from entcert.pmf import OutcomePmf
from entcert.simulate import chi_square_compare
from entcert.witnesses import LinearWitness, witness_grid

SRC = Path(__file__).resolve().parents[1] / "src"
DEFERRED = ("scipy.optimize", "scipy.stats", "scipy.special")


def loaded_after(code: str) -> str:
    """The deferred subpackages in ``sys.modules`` after ``code`` runs in a
    fresh interpreter, as printed there."""
    code += f"\nimport sys; print([m for m in {DEFERRED!r} if m in sys.modules])"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return run.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["entcert", "entcert.cli"])
def test_import_loads_no_deferred_scipy_subpackage(module):
    assert loaded_after(f"import {module}") == "[]"


def test_acceptance_set_search_loads_no_scipy_optimize():
    code = """
from entcert.finite_stats import CorrelationSetting
from entcert.inference import max_power_acceptance_set
from entcert.witnesses import QuadraticWitness, witness_pmf
from entcert.worst_case import SearchOptions
witness = QuadraticWitness(2)
ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
found = max_power_acceptance_set(witness, (4, 4), ent, 0.2, SearchOptions(restarts=2, seed=3))
assert found is not None
"""
    assert loaded_after(code) == "[]"


#: Bins of the 20-copy linear report's grid, (4,)*5 copies: the most groups
#: a comparison of the report20 scenario can keep.
REPORT20_BINS = len(witness_grid((4,) * 5, LinearWitness([1, -1, -1, -1, -1], 1)))


@pytest.mark.parametrize("bins", [2, 3, 5, 8, 13, REPORT20_BINS])
@pytest.mark.parametrize("skew", [0.0, 0.01, 0.2])
def test_p_value_is_scipy_stats_chi2_sf(bins, skew):
    grid = tuple(Fraction(k) for k in range(bins))
    exact = OutcomePmf(grid, (1.0 / bins,) * bins)
    rng = np.random.default_rng(bins)
    tilted = np.full(bins, 1.0 / bins) * (1.0 + skew * rng.standard_normal(bins)).clip(0.1)
    empirical = OutcomePmf(grid, tuple((tilted / tilted.sum()).tolist()))
    result = chi_square_compare(empirical, exact, trials=10_000)
    assert result.bins == bins
    assert result.p_value == float(chi2.sf(result.statistic, bins - 1))
