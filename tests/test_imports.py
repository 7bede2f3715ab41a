"""Import cost: ``import entcert`` loads numpy and no scipy module, and no
command loads one either, nor needs one to be installed.

The acceptance-set search solves its knapsacks itself, and
``chi_square_compare`` takes its chi-square tail from the package's own
``chi_square_sf``.  The only scipy name left in the package is the unused
``worst_case.minimize``, which imports ``scipy.optimize`` on call; scipy is
a dependency of the ``test`` extra only, for the oracles of these tests.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from entcert.pmf import OutcomePmf
from entcert.simulate import chi_square_compare, chi_square_sf
from entcert.witnesses import LinearWitness, witness_grid

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> str:
    """The scipy modules (``scipy`` and ``scipy.*``) in ``sys.modules`` after
    ``code`` runs in a fresh interpreter, as printed there."""
    code += (
        "\nimport sys"
        "\nprint(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
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
from entcert.worst_case import SearchOptions, WorstCaseProblem
witness = QuadraticWitness(2)
ent = witness_pmf([CorrelationSetting(0.8, 4)] * 2, witness)
found = max_power_acceptance_set(
    WorstCaseProblem(witness, (4, 4)), ent, 0.2, SearchOptions(restarts=2, seed=3)
)
assert found is not None
"""
    assert loaded_after(code) == "[]"


#: A small config of every command; ``plan`` optimizes, ``simulate`` compares.
COMMAND_CONFIGS = {
    "dist": {
        "witness": {"kind": "linear", "coefficients": ["1/3", "-2/7"], "constant": "1/5"},
        "correlations": [0.3, -0.6],
        "copies": [3, 4],
    },
    "worst-case": {
        "witness": {"kind": "linear", "coefficients": [1, -1], "constant": 1},
        "copies": [4, 4],
        "acceptance": {"kind": "threshold", "bound": "-1/2", "direction": "accept_low"},
        "optimizer": {"restarts": 2, "seed": 3},
    },
    "test": {
        "witness": {"kind": "quadratic", "settings": 2},
        "copies": [3, 3],
        "acceptance": {"kind": "threshold", "bound": 2, "direction": "accept_high"},
        "entangled": {"purity": 0.8},
        "priors": {"entangled": 0.5},
        "q_bayes": 0.975,
        "optimizer": {"restarts": 2, "seed": 5},
    },
    "plan": {
        "witness_kind": "quadratic",
        "budget": 4,
        "max_settings": 2,
        "min_validity": 0.7,
        "framework": "frequentist",
        "entangled": {"purity": 0.8},
        "priors": {"entangled": 0.6667},
        "optimizer": {"restarts": 2, "seed": 11},
    },
    "noise-curve": {"copies_per_setting": 4, "settings": 2, "step": 0.5},
    "simulate": {
        "witness": {"kind": "quadratic", "settings": 2},
        "correlations": [0.75, -0.75],
        "copies": [10, 10],
        "trials": 10_000,
    },
}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_command_loads_no_scipy_module(command, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(COMMAND_CONFIGS[command]))
    code = f"""
import contextlib, io
from entcert import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main([{command!r}, "--config", {str(config)!r}, "--seed", "7"]) == 0
"""
    assert loaded_after(code) == "[]"


#: Run first in a fresh interpreter, this makes every scipy import fail, as
#: where scipy is not installed.
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
"""

SWEEP_CONFIG = {"witness_kind": "linear", "budget": 6, "mode": "sweep", "entangled": {"purity": 0.8}}


@pytest.mark.parametrize(
    "command,doc",
    [*((command, COMMAND_CONFIGS[command]) for command in sorted(COMMAND_CONFIGS)), ("plan", SWEEP_CONFIG)],
)
def test_command_runs_without_scipy(command, doc, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = BLOCK_SCIPY + f"""
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    raise AssertionError("scipy imported past the blocker")
from entcert import cli
sys.exit(cli.main([{command!r}, "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}, "--seed", "7"]))
"""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "out").read_text())["command"] == command


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
    assert result.p_value == chi_square_sf(result.statistic, bins - 1)
    assert result.p_value == pytest.approx(float(chi2.sf(result.statistic, bins - 1)), rel=1e-12)


#: Degrees of freedom of the tail checks: every one to 40, then a spread
#: to 20,000.
TAIL_DOFS = [*range(1, 41), 50, 64, 99, 128, 200, 255, 333, 500, 512, 677, 859, 999, 1000]
TAIL_DOFS += [1001, 2000, 4999, 10_000, 15_001, 20_000]
#: Tail probabilities whose quantiles are checked, from 1 - 1e-12 to 1e-300.
TAILS = [1 - 1e-12, 0.999, 0.9, 0.5, 0.1, 1e-3, 1e-10, 1e-30, 1e-100, 1e-200, 1e-300]


def tail_points(dof):
    """Statistics at the quantiles of ``TAILS`` and at a few fixed points,
    those whose tail is at least 1e-300."""
    points = [float(chi2.isf(p, dof)) for p in TAILS] + [1e-8, 0.5, float(dof), 2.0 * dof]
    return [x for x in points if chi2.sf(x, dof) >= 1e-300]


@pytest.mark.parametrize("dof", TAIL_DOFS)
def test_tail_matches_scipy_stats_chi2_sf(dof):
    bound = 1e-12 if dof <= 1000 else 1e-10
    for x in tail_points(dof):
        expected = float(chi2.sf(x, dof))
        assert chi_square_sf(x, dof) == pytest.approx(expected, rel=bound, abs=0.0), x


@pytest.mark.parametrize("dof", TAIL_DOFS)
def test_tail_matches_thirty_digit_reference(dof):
    # scipy's own tail is off by up to 1.1e-12 near 900 degrees of freedom,
    # so a 30-digit incomplete gamma function checks the rest of the margin.
    mpmath = pytest.importorskip("mpmath")
    bound = 5e-13 if dof <= 1000 else 5e-12
    with mpmath.workdps(30):
        for x in tail_points(dof):
            a, y = mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2
            expected = mpmath.gammainc(a, y, mpmath.inf, regularized=True)
            got = chi_square_sf(x, dof)
            assert abs(got - expected) <= bound * expected, (x, got, expected)
