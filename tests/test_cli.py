"""End-to-end CLI runs: schemas, outputs, exit codes, determinism."""

import dataclasses
import json
import os
import tempfile
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from entcert import cli
from entcert.acceptance import AcceptanceSet, snap_to_grid
from entcert.cli import MAX_CURVE_POINTS, main, validate_report
from entcert.config import (
    parse_acceptance,
    parse_entangled,
    parse_optimizer,
    parse_priors,
    parse_simulation,
    parse_witness,
)
from entcert.errors import DomainError, SchemaError
from entcert.inference import PriorPair
from entcert.planner import PlanEvaluator, PlanSpec
from entcert.pmf import format_fraction, round_fraction
from entcert.simulate import MAX_TRIALS
from entcert.states import (
    MAX_PRIOR_CELLS,
    EntangledStateModel,
    TruncatedGaussianPrior,
    white_noise_success_probability,
)
from entcert.witnesses import LinearWitness, QuadraticWitness, witness_grid
from entcert.worst_case import SearchOptions, WorstCaseProblem

pytestmark = pytest.mark.usefixtures("tmp_path")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, command, doc, *extra):
    config = write_config(tmp_path, doc)
    out = tmp_path / "out.txt"
    code = main([command, "--config", config, "--out", str(out), *extra])
    return code, out.read_text()


class TestDist:
    def test_quadratic_reference_row(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "correlations": [0.75, -0.75],
            "copies": [10, 10],
        }
        code, text = run(tmp_path, "dist", doc)
        assert code == 0
        report = json.loads(text)
        validate_report("dist", report)
        row = next(r for r in report["dist"] if r["outcome"] == "2")
        assert row["probability"] == pytest.approx(0.069, abs=1.5e-3)

    def test_large_samples_concentrate_near_ideal(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "correlations": [0.75, -0.75],
            "copies": [100, 100],
        }
        code, text = run(tmp_path, "dist", doc)
        report = json.loads(text)
        near = sum(
            r["probability"] for r in report["dist"] if abs(r["decimal"] - 9 / 8) < 0.25
        )
        assert code == 0 and near > 0.9

    def test_deterministic_single_point(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 1},
            "correlations": [1.0],
            "copies": [1],
        }
        code, text = run(tmp_path, "dist", doc, "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines == ["outcome,decimal,probability", "1,1.0,1.0"]

    def test_csv_is_byte_stable(self, tmp_path):
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1], "constant": 1},
            "correlations": [-0.5, 0.5],
            "copies": [10, 10],
        }
        _, first = run(tmp_path, "dist", doc, "--format", "csv")
        _, second = run(tmp_path, "dist", doc, "--format", "csv")
        assert first == second

    def test_five_thousand_copies(self, tmp_path):
        # Beyond 1,000 copies the binomial weights come from log space.
        doc = {
            "witness": {"kind": "linear", "coefficients": [1]},
            "correlations": [0.3],
            "copies": [5000],
        }
        code, text = run(tmp_path, "dist", doc)
        assert code == 0
        assert json.loads(text)["mean"] == pytest.approx(0.3, abs=1e-12)


    def test_grid_past_int64_exits_2(self, tmp_path, capsys):
        # Six coefficients 3/p: a 71-bit common denominator (test_witnesses.py).
        coefficients = [f"3/{p}" for p in [997, 991, 983, 977, 967, 953]]
        doc = {
            "witness": {"kind": "linear", "coefficients": coefficients, "constant": "1/971"},
            "correlations": [0.3] * 6,
            "copies": [2] * 6,
        }
        assert main(["dist", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "63 bits" in err and "Traceback" not in err


class TestWorstCase:
    def test_linear_threshold(self, tmp_path):
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1], "constant": 1},
            "copies": [10, 10],
            "acceptance": {"kind": "threshold", "bound": "-4/5", "direction": "accept_low"},
            "optimizer": {"restarts": 8, "seed": 3},
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        validate_report("worst-case", report)
        assert code == 0
        assert report["correlations"] == pytest.approx([-0.5, 0.5], abs=1e-2)
        assert report["objective"] == pytest.approx(0.0243, abs=1e-3)

    def test_quadratic_five_settings_threshold(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 5},
            "copies": [4, 4, 4, 4, 4],
            "acceptance": {"kind": "threshold", "bound": 4, "direction": "accept_high"},
            "optimizer": {"restarts": 8, "seed": 3},
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        squares = [t * t for t in report["correlations"]]
        assert code == 0
        assert squares == pytest.approx([0.2] * 5, abs=5e-3)

    def test_pointwise_display_value_snapping(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 3},
            "copies": [5, 3, 3],
            "outcome": "2.36",
            "optimizer": {"restarts": 6, "seed": 3},
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        assert code == 0
        assert report["outcome"] == "59/25"

    def test_a_single_point_region_gives_its_point(self, tmp_path):
        # The region is the point (1, -1, -1); the half-space test and the
        # kink values once rounded differently, and the projection divided
        # 0 by 0.
        doc = {
            "witness": {"kind": "linear", "coefficients": ["1/3", "-2/3", -1], "constant": -2},
            "copies": [1, 3, 1],
            "outcome": "-2/3",
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        assert code == 0
        assert report["objective"] == 0.0
        assert report["correlations"] == [1.0, -1.0, -1.0]

    def test_infeasible_constraint_exit_code(self, tmp_path):
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1], "constant": -10},
            "copies": [4, 4],
            "acceptance": {"kind": "threshold", "bound": -12, "direction": "accept_low"},
        }
        config = write_config(tmp_path, doc)
        assert main(["worst-case", "--config", config]) == 3

    def test_non_convergence_exit_code_with_output(self, tmp_path):
        # One restart from a far-off seed cannot certify convergence; the
        # best-found result must still be written.
        doc = {
            "witness": {"kind": "quadratic", "settings": 3},
            "copies": [4, 4, 4],
            "acceptance": {"kind": "explicit", "outcomes": [0, 1]},
            "optimizer": {"restarts": 1, "seed": 0},
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        assert code == 4
        assert report["converged"] is False
        assert report["objective"] > 0.0


    @pytest.mark.parametrize(
        "target",
        [{}, {"outcome": "1", "acceptance": {"kind": "explicit", "outcomes": ["1"]}}],
    )
    def test_config_checked_before_the_grid_is_built(self, tmp_path, monkeypatch, capsys, target):
        # This grid has about a million outcomes and takes seconds to build.
        def build(*args, **kwargs):
            raise AssertionError("the config must be checked before the grid is built")

        monkeypatch.setattr(cli, "WorstCaseProblem", build)
        doc = {
            "witness": {"kind": "linear", "coefficients": ["1", "1/101", "1/10201"]},
            "copies": [100, 100, 100],
            **target,
        }
        assert main(["worst-case", "--config", write_config(tmp_path, doc)]) == 2
        assert "give exactly one of acceptance and outcome" in capsys.readouterr().err


class TestTest:
    def test_linear_twenty_copy_bound(self, tmp_path):
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1, -1, -1, -1], "constant": 1},
            "copies": [4, 4, 4, 4, 4],
            "acceptance": {"kind": "threshold", "bound": -3, "direction": "accept_low"},
            "entangled": {"purity": 0.75},
            "priors": {"entangled": 0.5},
            "q_bayes": 0.975,
            "optimizer": {"restarts": 8, "seed": 5},
        }
        code, text = run(tmp_path, "test", doc)
        report = json.loads(text)
        validate_report("test", report)
        assert code == 0
        assert report["frequentist"]["confidence"] == pytest.approx(0.9964, abs=1.5e-3)
        assert report["frequentist"]["power"] == pytest.approx(0.535, abs=1.5e-3)
        assert report["bayesian"]["expected_loss"] == pytest.approx(0.007, abs=2e-3)

    def test_outcome_without_posterior_exits_2(self, tmp_path, capsys):
        # Purity 1 leaves every outcome but the ideal one without entangled
        # mass, and P(ent) = 1 leaves none separable either.
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1], "constant": 1},
            "copies": [2, 2],
            "acceptance": {"kind": "threshold", "bound": -1, "direction": "accept_low"},
            "entangled": {"purity": 1},
            "priors": {"entangled": 1},
            "q_bayes": 0.9,
            "optimizer": {"restarts": 2, "seed": 5},
        }
        assert main(["test", "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outcome ") and err.count("\n") == 1


    @pytest.mark.parametrize("q_bayes", [1.5, -0.1])
    def test_q_bayes_outside_unit_interval_rejected(self, tmp_path, q_bayes):
        doc = {
            "witness": {"kind": "quadratic", "settings": 1},
            "copies": [4],
            "acceptance": {"kind": "threshold", "bound": 1, "direction": "accept_high"},
            "entangled": {"purity": 0.75},
            "priors": {"entangled": 0.5},
            "q_bayes": q_bayes,
            "optimizer": {"restarts": 2, "seed": 5},
        }
        config = write_config(tmp_path, doc)
        assert main(["test", "--config", config]) == 2

    def test_q_bayes_checked_before_any_search(self, tmp_path, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("q_bayes must be checked before the worst-case search")

        monkeypatch.setattr(WorstCaseProblem, "maximize_set", search)
        doc = {
            "witness": {"kind": "linear", "coefficients": [1, -1, -1, -1, -1], "constant": 1},
            "copies": [4, 4, 4, 4, 4],
            "acceptance": {"kind": "threshold", "bound": -3, "direction": "accept_low"},
            "entangled": {"purity": 0.75},
            "priors": {"entangled": 0.5},
            "q_bayes": 1.5,
            "optimizer": {"restarts": 8, "seed": 5},
        }
        config = write_config(tmp_path, doc)
        assert main(["test", "--config", config]) == 2


class TestPlan:
    def test_sweep_mode(self, tmp_path):
        doc = {
            "witness_kind": "quadratic",
            "budget": 20,
            "mode": "sweep",
            "entangled": {"purity": 0.75},
        }
        code, text = run(tmp_path, "plan", doc)
        report = json.loads(text)
        validate_report("plan", report)
        assert code == 0
        assert report["best"] == {"num_settings": 5, "copies_per_setting": 4}

    def test_optimize_mode_small(self, tmp_path):
        doc = {
            "witness_kind": "quadratic",
            "budget": 6,
            "max_settings": 2,
            "min_validity": 0.7,
            "framework": "frequentist",
            "entangled": {"purity": 0.8},
            "priors": {"entangled": 0.6667},
            "optimizer": {"restarts": 6, "seed": 11},
        }
        code, text = run(tmp_path, "plan", doc)
        report = json.loads(text)
        assert code == 0
        assert report["optimum"]["confidence"] >= 0.7
        assert report["ranked"][0] == report["optimum"]

    def test_optimize_mode_to_stdout_is_pure_json(self, tmp_path, capfd):
        doc = {
            "witness_kind": "quadratic",
            "budget": 6,
            "max_settings": 2,
            "min_validity": 0.7,
            "framework": "frequentist",
            "entangled": {"purity": 0.8},
            "priors": {"entangled": 0.6667},
            "optimizer": {"restarts": 6, "seed": 11},
        }
        capfd.readouterr()
        assert main(["plan", "--config", write_config(tmp_path, doc)]) == 0
        report = json.loads(capfd.readouterr().out)
        assert report["optimum"]["search_path"] == "exhaustive"

    def test_infeasible_exit_code(self, tmp_path):
        doc = {
            "witness_kind": "linear",
            "budget": 1,
            "max_settings": 1,
            "min_validity": 0.999,
            "framework": "frequentist",
            "entangled": {"purity": 0.9},
            "priors": {"entangled": 0.5},
            "optimizer": {"restarts": 4, "seed": 1},
        }
        config = write_config(tmp_path, doc)
        assert main(["plan", "--config", config]) == 3

    def test_infeasible_plan_ranks_once(self, tmp_path, capsys):
        doc = {
            "witness_kind": "quadratic",
            "budget": 2,
            "max_settings": 2,
            "min_validity": 0.999,
            "framework": "frequentist",
            "entangled": {"purity": 0.9},
            "priors": {"entangled": 0.5},
            "optimizer": {"restarts": 4, "seed": 1},
        }
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return rank(*args, **kwargs)

        rank = cli.rank_allocations
        with mock.patch("entcert.cli.rank_allocations", counted), mock.patch(
            "entcert.planner.rank_allocations", counted
        ):
            assert main(["plan", "--config", write_config(tmp_path, doc)]) == 3
        assert len(calls) == 1
        assert capsys.readouterr().err == (
            "infeasible: no allocation reaches validity 0.999; "
            "best achievable is 0.500000 with copies (2,)\n"
        )

    def test_budget_with_too_many_allocations_exits_2(self, tmp_path, capsys):
        doc = {
            "witness_kind": "quadratic",
            "budget": 100_000,
            "max_settings": 4,
            "min_validity": 0.7,
            "framework": "frequentist",
            "entangled": {"purity": 0.8},
            "priors": {"entangled": 0.6667},
        }
        assert main(["plan", "--config", write_config(tmp_path, doc)]) == 2
        assert "allocations" in capsys.readouterr().err

    def test_sweep_budget_past_the_cap_exits_2(self, tmp_path, capsys):
        doc = {**SWEEP_DOC, "budget": 1_000_003}
        start = time.perf_counter()
        assert main(["plan", "--config", write_config(tmp_path, doc)]) == 2
        assert time.perf_counter() - start < 5.0
        assert "budget" in capsys.readouterr().err


class TestNoiseCurve:
    def test_edges_and_format(self, tmp_path):
        doc = {"copies_per_setting": 4, "settings": 5, "step": 0.5}
        code, text = run(tmp_path, "noise-curve", doc, "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "purity,success_probability"
        assert lines[-1] == "1.0,1.0"

    @pytest.mark.parametrize("step", [1e-320, 1e-9, 1e-4])
    def test_too_fine_step_exits_2(self, tmp_path, step):
        # 1e-320 overflows 1 / step, 1e-9 would build 10^9 points, and
        # 1e-4 gives 10,001, one over the cap.
        doc = {"copies_per_setting": 4, "settings": 2, "step": step}
        config = write_config(tmp_path, doc)
        assert main(["noise-curve", "--config", config]) == 2

    def test_finest_step_within_the_cap(self, tmp_path):
        doc = {"copies_per_setting": 4, "settings": 2, "step": 1 / (MAX_CURVE_POINTS - 1)}
        code, text = run(tmp_path, "noise-curve", doc, "--format", "csv")
        assert code == 0
        assert len(text.strip().splitlines()) == 1 + MAX_CURVE_POINTS

    @pytest.mark.parametrize("key", ["copies_per_setting", "settings"])
    def test_integers_past_the_float_range(self, tmp_path, key):
        doc = {"copies_per_setting": 4, "settings": 2, "step": 0.5, key: 10**400}
        code, text = run(tmp_path, "noise-curve", doc)
        assert code == 0
        curve = [point["success_probability"] for point in json.loads(text)["curve"]]
        # Every power past 2^64 of a number below 1 is 0 in floats.
        assert curve == [0.0, 0.0, 1.0]


class TestSimulate:
    def test_report_and_chi_square(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "correlations": [0.75, -0.75],
            "copies": [10, 10],
            "trials": 200000,
            "seed": 42,
        }
        code, text = run(tmp_path, "simulate", doc)
        report = json.loads(text)
        validate_report("simulate", report)
        assert code == 0
        assert report["chi_square"]["p_value"] > 1e-3

    def test_seed_flag_overrides_config(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 1},
            "correlations": [0.5],
            "copies": [4],
            "trials": 50000,
            "seed": 1,
        }
        _, with_config_seed = run(tmp_path, "simulate", doc)
        _, with_flag = run(tmp_path, "simulate", doc, "--seed", "2")
        assert json.loads(with_config_seed)["seed"] == 1
        assert json.loads(with_flag)["seed"] == 2
        assert with_config_seed != with_flag

    def test_csv_probabilities_are_plain_floats(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 1},
            "correlations": [0.5],
            "copies": [2],
            "trials": 100,
        }
        code, text = run(tmp_path, "simulate", doc, "--format", "csv")
        assert code == 0
        for line in text.strip().splitlines()[1:]:
            float(line.split(",")[2])

    def test_trials_beyond_the_cap_exit_2_at_once(self, tmp_path):
        # 10^12 trials would draw some 15 million chunks.
        doc = {
            "witness": {"kind": "quadratic", "settings": 5},
            "correlations": [0.75] * 5,
            "copies": [4] * 5,
            "trials": 1_000_000_000_000,
        }
        start = time.perf_counter()
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
        assert time.perf_counter() - start < 5.0


class TestSchemaErrors:
    def test_unknown_key(self, tmp_path):
        config = write_config(tmp_path, {"bogus": 1})
        assert main(["dist", "--config", config]) == 2

    def test_missing_key(self, tmp_path):
        config = write_config(tmp_path, {"witness": {"kind": "quadratic", "settings": 1}})
        assert main(["dist", "--config", config]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["dist", "--config", str(path)]) == 2

    def test_float_outcomes_rejected(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "copies": [4, 4],
            "acceptance": {"kind": "explicit", "outcomes": [2.25]},
        }
        config = write_config(tmp_path, doc)
        assert main(["worst-case", "--config", config]) == 2

    def test_off_grid_outcome_rejected(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "copies": [4, 4],
            "outcome": "7/13",
        }
        config = write_config(tmp_path, doc)
        assert main(["worst-case", "--config", config]) == 2

    def test_non_finite_number_rejected(self, tmp_path):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "copies": [4, 4],
            "acceptance": {"kind": "threshold", "bound": "2", "direction": "accept_high"},
            "entangled": {"purity": 0.75},
            "priors": {"entangled": 0.5},
            "q_bayes": float("inf"),
        }
        config = write_config(tmp_path, doc)
        assert main(["test", "--config", config]) == 2


class TestArrayKeys:
    """Every array key takes a JSON array and nothing else: a string is not
    read as its characters, and a number or null ends in exit 2, not in a
    traceback."""

    DIST = {"witness": {"kind": "linear", "coefficients": [1, -1]}, "correlations": [0.5, 0.5], "copies": [2, 2]}
    WORST_CASE = {
        "witness": {"kind": "quadratic", "settings": 2},
        "copies": [2, 2],
        "acceptance": {"kind": "explicit", "outcomes": ["0", "1"]},
        "optimizer": {"restarts": 2},
    }

    @pytest.mark.parametrize(
        "command,doc",
        [
            ("dist", {**DIST, "witness": {"kind": "linear", "coefficients": "12"}}),
            ("dist", {**DIST, "witness": {"kind": "linear", "coefficients": 5}}),
            ("worst-case", {**WORST_CASE, "acceptance": {"kind": "explicit", "outcomes": "01"}}),
            ("worst-case", {**WORST_CASE, "acceptance": {"kind": "explicit", "outcomes": 5}}),
            ("worst-case", {**WORST_CASE, "acceptance": {"kind": "explicit", "outcomes": None}}),
            ("worst-case", {**WORST_CASE, "optimizer": {"restarts": 2.5}}),
        ],
    )
    def test_malformed_exits_2_without_traceback(self, tmp_path, capsys, command, doc):
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_empty_outcomes_still_run(self, tmp_path):
        doc = {**self.WORST_CASE, "acceptance": {"kind": "explicit", "outcomes": []}}
        code, text = run(tmp_path, "worst-case", doc)
        assert code == 0
        assert json.loads(text)["objective"] == 0.0

    @pytest.mark.parametrize("signs", [[1.0, -1.0], [1, -1]])
    def test_signs_of_plus_or_minus_one_as_floats_are_accepted(self, tmp_path, signs):
        doc = {
            "witness": {"kind": "quadratic", "settings": 2},
            "copies": [2, 2],
            "acceptance": {"kind": "threshold", "bound": "2", "direction": "accept_high"},
            "entangled": {"purity": 0.75},
            "priors": {"entangled": 0.5},
            "q_bayes": 0.5,
            "optimizer": {"restarts": 2},
            "signs": signs,
        }
        code, text = run(tmp_path, "test", doc)
        assert code == 0
        assert json.loads(text)["frequentist"]["power"] == pytest.approx((0.875**2 + 0.125**2) ** 2)


class TestPriorGridLimits:
    def plan_doc(self, grid_step):
        return {
            "witness_kind": "quadratic",
            "budget": 6,
            "max_settings": 2,
            "min_validity": 0.7,
            "framework": "frequentist",
            "entangled": {"prior": {"mean": 0.8, "std": 0.1, "p_min": 0.2}, "grid_step": grid_step},
            "priors": {"entangled": 0.6667},
        }

    def test_nan_grid_step_rejected(self, tmp_path):
        config = write_config(tmp_path, self.plan_doc(float("nan")))
        assert main(["plan", "--config", config]) == 2

    def test_oversized_prior_grid_rejected(self, tmp_path):
        config = write_config(tmp_path, self.plan_doc(1e-7))
        assert main(["plan", "--config", config]) == 2

    def test_subnormal_grid_step_rejected(self, tmp_path):
        # The cell count overflows to inf, which must not reach round().
        config = write_config(tmp_path, self.plan_doc(1e-320))
        assert main(["plan", "--config", config]) == 2

    @pytest.mark.parametrize("grid_step", [-1.0, 0.0])
    def test_bad_grid_step_next_to_fixed_purity_rejected(self, tmp_path, grid_step):
        doc = self.plan_doc(grid_step)
        doc["entangled"] = {"purity": 0.8, "grid_step": grid_step}
        config = write_config(tmp_path, doc)
        assert main(["plan", "--config", config]) == 2


class TestPlanBooleans:
    @pytest.mark.parametrize("key", ["allow_unused_copies", "equal_allocation_only"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_rejected(self, tmp_path, key, value):
        doc = {
            "witness_kind": "quadratic",
            "budget": 6,
            "max_settings": 2,
            "min_validity": 0.7,
            "framework": "frequentist",
            "entangled": {"purity": 0.8},
            "priors": {"entangled": 0.6667},
            key: value,
        }
        config = write_config(tmp_path, doc)
        assert main(["plan", "--config", config]) == 2


class TestWorkers:
    """``--workers`` is checked when the arguments are parsed, before any pool starts."""

    @pytest.mark.parametrize("workers", ["0", "-1", "two", str((os.cpu_count() or 1) + 1)])
    def test_out_of_range_rejected(self, tmp_path, workers):
        doc = {
            "witness": {"kind": "quadratic", "settings": 1},
            "correlations": [0.5],
            "copies": [2],
        }
        config = write_config(tmp_path, doc)
        with pytest.raises(SystemExit) as exc:
            main(["dist", "--config", config, "--workers", workers])
        assert exc.value.code == 2


class TestOptimizerSchema:
    """The ``optimizer`` object takes exactly the ``SearchOptions`` fields."""

    FIELDS = {"restarts", "seed", "max_iterations", "xatol", "fatol"}

    def worst_case_doc(self, optimizer, coefficients=(1, -1)):
        return {
            "witness": {"kind": "linear", "coefficients": list(coefficients), "constant": 1},
            "copies": [4, 4],
            "acceptance": {"kind": "threshold", "bound": 0, "direction": "accept_low"},
            "optimizer": optimizer,
        }

    def test_keys_are_the_search_option_fields(self):
        assert {f.name for f in dataclasses.fields(SearchOptions)} == self.FIELDS
        doc = {
            "restarts": 3,
            "seed": 4,
            "max_iterations": 5,
            "xatol": 1e-3,
            "fatol": 1e-9,
        }
        assert parse_optimizer(doc, None) == SearchOptions(**doc)
        assert parse_optimizer({"xatol": 1}, None).xatol == 1.0
        with pytest.raises(DomainError):
            parse_optimizer({"restarts": 2.0}, None)

    @pytest.mark.parametrize(
        "key",
        [
            "penalty_weight",
            "anneal_factor",
            "anneal_initial_temp",
            "anneal_initial_step",
            "stall_tolerance",
            "tie_tolerance",
            "anneal_steps",
        ],
    )
    def test_removed_keys_are_unknown(self, tmp_path, key):
        config = write_config(tmp_path, self.worst_case_doc({"restarts": 2, key: 0.5}))
        assert main(["worst-case", "--config", config]) == 2

    def test_no_start_exits_2(self, tmp_path):
        # No analytic worst case for (2, -1), no seeds and no restarts.
        config = write_config(tmp_path, self.worst_case_doc({"restarts": 0}, (2, -1)))
        assert main(["worst-case", "--config", config]) == 2

    def test_negative_restarts_exit_2(self, tmp_path):
        config = write_config(tmp_path, self.worst_case_doc({"restarts": -5}))
        assert main(["worst-case", "--config", config]) == 2

    def test_negative_seed_exits_2(self, tmp_path):
        config = write_config(tmp_path, self.worst_case_doc({"restarts": 2, "seed": -1}))
        assert main(["worst-case", "--config", config]) == 2

    def test_negative_seed_flag_exits_2(self, tmp_path):
        config = write_config(tmp_path, self.worst_case_doc({"restarts": 2}))
        assert main(["worst-case", "--config", config, "--seed", "-1"]) == 2

    @pytest.mark.parametrize("section", [0, [], "", False])
    def test_falsy_non_object_exits_2(self, tmp_path, section):
        config = write_config(tmp_path, self.worst_case_doc(section))
        assert main(["worst-case", "--config", config]) == 2

    def test_omitted_section_gives_the_defaults(self, tmp_path):
        omitted = self.worst_case_doc(None)
        del omitted["optimizer"]
        defaults = self.worst_case_doc(dataclasses.asdict(SearchOptions()))
        code, text = run(tmp_path, "worst-case", omitted)
        assert code == 0
        assert (code, text) == run(tmp_path, "worst-case", defaults)


@st.composite
def witness_grids(draw):
    """A random small witness as its JSON document, its copies and its grid."""
    m = draw(st.integers(1, 3))
    copies = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    if draw(st.booleans()):
        witness = QuadraticWitness(m)
        doc = {"kind": "quadratic", "settings": m}
    else:
        rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
        witness = LinearWitness(draw(st.lists(rationals, min_size=m, max_size=m)), draw(rationals))
        doc = {
            "kind": "linear",
            "coefficients": [format_fraction(c) for c in witness.coefficients],
            "constant": format_fraction(witness.constant),
        }
    return doc, copies, witness_grid(copies, witness)


def display_decimal(value: Fraction, digits: int) -> str:
    """``value`` rounded to ``digits`` places, written out as a decimal string."""
    scaled = int(round_fraction(value, digits) * 10**digits)
    sign = "-" if scaled < 0 else ""
    whole, part = divmod(abs(scaled), 10**digits)
    return f"{sign}{whole}.{part:0{digits}d}"


class TestOutcomeParsing:
    """Outcome values round-trip through ``snap_to_grid`` on random witness grids."""

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(witness_grids(), st.integers(1, 4))
    def test_round_trip(self, case, digits):
        doc, copies, grid = case
        # Off the grid: above its largest outcome, as a fraction and as a decimal.
        rejected = [
            format_fraction(grid[-1] + Fraction(1, 3)),
            display_decimal(grid[-1] + 2, digits),
        ]
        for outcome in grid:
            assert snap_to_grid(format_fraction(outcome), grid) == outcome
            text = display_decimal(outcome, digits)
            shown = round_fraction(outcome, digits)
            matches = [g for g in grid if round_fraction(g, digits) == shown]
            if Fraction(text) in grid:
                assert snap_to_grid(text, grid) == Fraction(text)
            elif len(matches) == 1:
                assert snap_to_grid(text, grid) == outcome
            else:
                rejected.append(text)
        for text in rejected:
            with pytest.raises(DomainError):
                snap_to_grid(text, grid)
        with tempfile.TemporaryDirectory() as folder:
            for text in rejected[:3]:
                path = os.path.join(folder, "config.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"witness": doc, "copies": copies, "outcome": text}, handle)
                assert main(["worst-case", "--config", path]) == 2


def snapped(text: str, grid, digits: int) -> Fraction:
    """Reference for a display decimal ``text`` of ``digits`` places: the
    grid point it names exactly, else the one grid point that rounds to it;
    DomainError where several do."""
    value = Fraction(text)
    if value in grid:
        return value
    matches = [g for g in grid if round_fraction(g, digits) == value]
    if len(matches) != 1:
        raise DomainError(f"{text} is ambiguous")
    return matches[0]


def outcome_of(build):
    """What ``build()`` returns, or DomainError where it raises one."""
    try:
        return build()
    except DomainError:
        return DomainError


def config_file(folder, doc) -> str:
    path = os.path.join(folder, "config.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def exit_code(doc, command="worst-case") -> int:
    with tempfile.TemporaryDirectory() as folder:
        return main([command, "--config", config_file(folder, doc)])


class TestConfigRoundTrip:
    """Acceptance sets and witness coefficients round-trip through the config parsers."""

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(witness_grids(), st.integers(1, 4), st.data())
    def test_acceptance(self, case, digits, data):
        doc, copies, grid = case
        bound = data.draw(st.sampled_from(grid))
        direction = data.draw(st.sampled_from(["accept_low", "accept_high"]))
        outcomes = data.draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        rest = [g for g in grid if g not in outcomes]
        boundary = data.draw(st.sampled_from(rest)) if rest else None
        gamma = 0.5 if boundary is not None else 0.0
        sets = [
            AcceptanceSet.threshold(bound, direction),
            AcceptanceSet.threshold(bound, direction, gamma=0.25),
            AcceptanceSet.explicit(outcomes, gamma, boundary),
        ]
        # Fractions: the exact strings that ``describe`` writes.
        for acc in sets:
            assert parse_acceptance(acc.describe(), grid) == acc

        # Display decimals snap to the grid point they name, or are ambiguous.
        def shown(value):
            return display_decimal(value, digits)

        threshold = {"kind": "threshold", "bound": shown(bound), "direction": direction}
        assert outcome_of(lambda: parse_acceptance(threshold, grid)) == outcome_of(
            lambda: AcceptanceSet.threshold(snapped(shown(bound), grid, digits), direction)
        )
        explicit = {"kind": "explicit", "outcomes": [shown(o) for o in outcomes]}
        if boundary is not None:
            explicit.update(boundary=shown(boundary), gamma=gamma)
        expected = outcome_of(
            lambda: AcceptanceSet.explicit(
                [snapped(shown(o), grid, digits) for o in outcomes],
                gamma,
                None if boundary is None else snapped(shown(boundary), grid, digits),
            )
        )
        assert outcome_of(lambda: parse_acceptance(explicit, grid)) == expected

        # Off the grid, ambiguous, or a float: the command exits 2 before searching.
        rejected = [
            {"kind": "threshold", "bound": format_fraction(grid[-1] + Fraction(1, 3)),
             "direction": direction},
            {"kind": "explicit", "outcomes": [shown(grid[-1] + 2)]},
            {"kind": "explicit", "outcomes": [float(bound)]},
        ]
        if expected is DomainError:
            rejected.append(explicit)
        for g in grid:
            if outcome_of(lambda: snapped(shown(g), grid, digits)) is DomainError:
                rejected.append({"kind": "threshold", "bound": shown(g), "direction": direction})
                break
        for acceptance in rejected:
            assert exit_code({"witness": doc, "copies": copies, "acceptance": acceptance}) == 2

    def test_ambiguous_decimals_exit_2(self):
        doc = {"kind": "linear", "coefficients": ["1/7"]}
        grid = witness_grid((5,), LinearWitness([Fraction(1, 7)]))
        # "0.1" rounds both 3/35 and 1/7, "-0.1" both -3/35 and -1/7.
        for acceptance in (
            {"kind": "threshold", "bound": "0.1", "direction": "accept_high"},
            {"kind": "explicit", "outcomes": ["0.1"]},
            {"kind": "explicit", "outcomes": ["1/7"], "boundary": "-0.1", "gamma": 0.5},
        ):
            with pytest.raises(DomainError):
                parse_acceptance(acceptance, grid)
            assert exit_code({"witness": doc, "copies": [5], "acceptance": acceptance}) == 2
        # One more place tells them apart.
        two_places = {"kind": "explicit", "outcomes": ["0.09", "0.14"]}
        assert parse_acceptance(two_places, grid) == AcceptanceSet.explicit(
            [Fraction(3, 35), Fraction(1, 7)]
        )

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.fractions(-3, 3, max_denominator=60), min_size=1, max_size=4),
        st.fractions(-3, 3, max_denominator=60),
        st.integers(1, 4),
    )
    def test_witness_coefficients(self, coefficients, constant, digits):
        witness = LinearWitness(coefficients, constant)
        exact = {
            "kind": "linear",
            "coefficients": [format_fraction(c) for c in coefficients],
            "constant": format_fraction(constant),
        }
        assert parse_witness(exact) == witness
        # Display decimals and floats are read at their exact value, never snapped.
        decimals = [display_decimal(c, digits) for c in coefficients]
        shown = display_decimal(constant, digits)
        assert parse_witness(
            {"kind": "linear", "coefficients": decimals, "constant": shown}
        ) == LinearWitness([Fraction(t) for t in decimals], Fraction(shown))
        floats = {"kind": "linear", "coefficients": [float(c) for c in coefficients]}
        assert parse_witness(floats) == LinearWitness([Fraction(float(c)) for c in coefficients])
        for bad in ("1/0", "one", True, None, [1]):
            malformed = {"kind": "linear", "coefficients": [*decimals[:-1], bad]}
            with pytest.raises(DomainError):
                parse_witness(malformed)
            config = {"witness": malformed, "copies": [2] * len(coefficients), "outcome": "0"}
            assert exit_code(config) == 2


#: What a section that must be a JSON object may wrongly be; ``null`` means
#: the defaults for ``optimizer`` only.
NOT_OBJECTS = st.sampled_from([0, 1.5, [], [{"purity": 0.5}], "", "purity", False, True])
NOT_NUMBERS = st.sampled_from(["0.5", "1/2", True, False, None, [0.5], {"value": 0.5}])
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
#: What an array key may wrongly hold; a string must not be read as its characters.
NOT_ARRAYS = st.sampled_from(["01", "", "12", 5, 0, 1.5, None, True, {"0": 1}])
OUTSIDE_UNIT = st.floats(max_value=0.0, exclude_max=True, allow_infinity=False) | st.floats(
    min_value=1.0, exclude_min=True, allow_infinity=False
)
NONPOSITIVE = st.floats(max_value=0.0, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
PRIOR = {"mean": 0.8, "std": 0.1, "p_min": 0.2}


def json_copy(doc):
    return json.loads(json.dumps(doc))


def unknown_key(*known):
    return st.text(min_size=1, max_size=8).filter(lambda key: key not in known)


@st.composite
def entangled_sections(draw):
    """A valid ``entangled`` section and the model it describes."""
    doc, step = {}, 0.01
    if draw(st.booleans()):
        step = doc["grid_step"] = draw(st.floats(1e-3, 1.0))
    if draw(st.booleans()):
        doc["purity"] = draw(UNIT)
        return doc, EntangledStateModel(purity=doc["purity"], grid_step=step)
    prior = {"mean": draw(UNIT), "std": draw(st.floats(0.05, 10.0)), "p_min": draw(UNIT)}
    doc["prior"] = prior
    return doc, EntangledStateModel(prior=TruncatedGaussianPrior(**prior), grid_step=step)


#: A cell step too fine for ``PRIOR`` (more than MAX_PRIOR_CELLS cells on
#: [0.2, 1]), subnormal steps included.
TOO_FINE = st.floats(min_value=0.0, max_value=0.8 / (MAX_PRIOR_CELLS + 1), exclude_min=True)

MALFORMED_PRIORS = st.one_of(
    NOT_OBJECTS,
    st.just(None),
    st.sampled_from(sorted(PRIOR)).map(lambda key: {k: v for k, v in PRIOR.items() if k != key}),
    unknown_key(*PRIOR).map(lambda key: {**PRIOR, key: 0.5}),
    st.builds(lambda key, value: {**PRIOR, key: value}, st.sampled_from(sorted(PRIOR)),
              NOT_NUMBERS | NON_FINITE),
    NONPOSITIVE.map(lambda std: {**PRIOR, "std": std}),
    OUTSIDE_UNIT.map(lambda p_min: {**PRIOR, "p_min": p_min}),
)

MALFORMED_ENTANGLED = st.one_of(
    NOT_OBJECTS,
    st.just(None),
    st.just({}),
    st.just({"grid_step": 0.01}),
    st.just({"purity": 0.8, "prior": PRIOR}),
    unknown_key("purity", "prior", "grid_step").map(lambda key: {"purity": 0.8, key: 0.01}),
    (OUTSIDE_UNIT | NOT_NUMBERS | NON_FINITE).map(lambda purity: {"purity": purity}),
    st.builds(lambda source, step: {**source, "grid_step": step},
              st.sampled_from([{"purity": 0.8}, {"prior": PRIOR}]),
              NONPOSITIVE | NOT_NUMBERS | NON_FINITE),
    TOO_FINE.map(lambda step: {"prior": PRIOR, "grid_step": step}),
    MALFORMED_PRIORS.map(lambda prior: {"prior": prior}),
)

MALFORMED_PRIOR_PAIRS = st.one_of(
    NOT_OBJECTS,
    st.just(None),
    st.just({}),
    unknown_key("entangled").map(lambda key: {"entangled": 0.5, key: 0.5}),
    (OUTSIDE_UNIT | NOT_NUMBERS | NON_FINITE).map(lambda p: {"entangled": p}),
)

INTEGER_OPTIONS = ("restarts", "seed", "max_iterations")
NUMBER_OPTIONS = ("xatol", "fatol")


@st.composite
def optimizer_sections(draw):
    """A valid ``optimizer`` section: some of the ``SearchOptions`` fields."""
    values = {
        **{key: st.integers(0, 2**32) for key in INTEGER_OPTIONS},
        **{key: st.floats(1e-15, 1.0) | st.integers(1, 3) for key in NUMBER_OPTIONS},
    }
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True))
    return {key: draw(values[key]) for key in keys}


MALFORMED_OPTIMIZERS = st.one_of(
    NOT_OBJECTS,
    unknown_key(*INTEGER_OPTIONS, *NUMBER_OPTIONS).map(lambda key: {key: 1}),
    st.builds(lambda key, value: {key: value}, st.sampled_from(INTEGER_OPTIONS),
              st.integers(max_value=-1) | st.floats(allow_nan=False) | NOT_NUMBERS),
    st.builds(lambda key, value: {key: value}, st.sampled_from(NUMBER_OPTIONS),
              NONPOSITIVE | NOT_NUMBERS | NON_FINITE),
)


@st.composite
def simulate_configs(draw):
    """A valid ``simulate`` config: a witness of 1 to 3 settings, its
    correlations and copies, the trials and perhaps a seed."""
    m = draw(st.integers(1, 3))
    witness = draw(
        st.sampled_from(
            [
                {"kind": "quadratic", "settings": m},
                {"kind": "linear", "coefficients": ["1/2"] * m, "constant": "-1/4"},
            ]
        )
    )
    doc = {
        "witness": witness,
        "correlations": draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)),
        "copies": draw(st.lists(st.integers(1, 1000), min_size=m, max_size=m)),
        "trials": draw(st.integers(1, MAX_TRIALS)),
    }
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**64 - 1))
    return doc


SIMULATE_DOC = {
    "witness": {"kind": "quadratic", "settings": 2},
    "correlations": [0.75, -0.75],
    "copies": [10, 10],
    "trials": 1000,
}

MALFORMED_SIMULATIONS = st.one_of(
    NOT_OBJECTS,
    st.sampled_from(sorted(SIMULATE_DOC)).map(
        lambda key: {k: v for k, v in SIMULATE_DOC.items() if k != key}
    ),
    unknown_key(*SIMULATE_DOC, "seed").map(lambda key: {**SIMULATE_DOC, key: 1}),
    (st.integers(max_value=0) | st.integers(min_value=MAX_TRIALS + 1) | NOT_NUMBERS
     | st.floats(allow_nan=False)).map(lambda trials: {**SIMULATE_DOC, "trials": trials}),
    (st.integers(max_value=-1) | st.integers(min_value=2**64) | NOT_NUMBERS).map(
        lambda seed: {**SIMULATE_DOC, "seed": seed}
    ),
    st.sampled_from([[], [0.75], [0.75, 1.5], ["0.75", 0.75]]).map(
        lambda correlations: {**SIMULATE_DOC, "correlations": correlations}
    ),
    st.sampled_from([[], [10], [10, 0], [10, 2.5]]).map(
        lambda copies: {**SIMULATE_DOC, "copies": copies}
    ),
    st.builds(lambda key, value: {**SIMULATE_DOC, key: value},
              st.sampled_from(["correlations", "copies"]), NOT_ARRAYS),
    NOT_ARRAYS.map(
        lambda value: {**SIMULATE_DOC, "witness": {"kind": "linear", "coefficients": value}}
    ),
)


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def not_one_of(*allowed):
    return st.text(max_size=12).filter(lambda value: value not in allowed) | NOT_NUMBERS


#: Any JSON value that a key of another variant may hold, valid there or not.
ANY_VALUES = st.sampled_from(
    [0, 2, 1.5, "nonsense", "1", "", None, True, [], [1, -1], ["1"], {}, {"restarts": 2.5}]
)


def with_keys_of(doc, keys):
    """``doc`` with one or more of ``keys``, which belong to another variant."""
    return st.dictionaries(st.sampled_from(sorted(keys)), ANY_VALUES, min_size=1).map(
        lambda extra: {**doc, **extra}
    )


#: One section of each witness and acceptance kind; the sets are on the
#: {0, 1, 2} grid of two quadratic settings of two copies.
LINEAR = {"kind": "linear", "coefficients": [1, -1], "constant": 1}
QUADRATIC = {"kind": "quadratic", "settings": 2}
THRESHOLD = {"kind": "threshold", "bound": "1", "direction": "accept_high"}
EXPLICIT = {"kind": "explicit", "outcomes": ["0", "1"]}

MALFORMED_WITNESSES = st.one_of(
    with_keys_of(LINEAR, {"settings"}),
    with_keys_of(QUADRATIC, {"coefficients", "constant"}),
    not_one_of("linear", "quadratic").map(lambda kind: {**QUADRATIC, "kind": kind}),
    st.sampled_from([without(LINEAR, "coefficients"), without(QUADRATIC, "settings"),
                     without(LINEAR, "kind"), without(QUADRATIC, "kind")]),
)

MALFORMED_ACCEPTANCES = st.one_of(
    with_keys_of(THRESHOLD, {"outcomes"}),
    with_keys_of(EXPLICIT, {"bound", "direction"}),
    not_one_of("threshold", "explicit").map(lambda kind: {**THRESHOLD, "kind": kind}),
    st.sampled_from([without(THRESHOLD, "bound"), without(THRESHOLD, "direction"),
                     without(THRESHOLD, "kind"), without(EXPLICIT, "outcomes")]),
    not_one_of("accept_low", "accept_high").map(lambda direction: {**THRESHOLD, "direction": direction}),
    # A threshold's boundary is its bound.
    st.sampled_from(["0", "2", "0.0", "2/1"]).map(
        lambda boundary: {**THRESHOLD, "gamma": 0.5, "boundary": boundary}
    ),
)

#: A small ``entcert test`` run that reads all three sections.
TEST_DOC = {
    "witness": {"kind": "quadratic", "settings": 1},
    "copies": [2],
    "acceptance": {"kind": "threshold", "bound": "1", "direction": "accept_high"},
    "entangled": {"purity": 0.75},
    "priors": {"entangled": 0.5},
    "q_bayes": 0.5,
}


class TestSectionRoundTrip:
    """The ``entangled``, ``priors`` and ``optimizer`` sections: valid ones parse
    to the objects they describe, malformed ones exit 2 through the CLI."""

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(entangled_sections())
    def test_entangled(self, case):
        doc, model = case
        assert parse_entangled(json_copy(doc)) == model

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(UNIT)
    def test_priors(self, p_ent):
        assert parse_priors(json_copy({"entangled": p_ent})) == PriorPair(p_ent)

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(optimizer_sections(), st.none() | st.integers(0, 2**32))
    def test_optimizer(self, doc, seed):
        expected = doc if seed is None else {**doc, "seed": seed}
        assert parse_optimizer(json_copy(doc), seed) == SearchOptions(**expected)

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            MALFORMED_ENTANGLED.map(lambda section: ("entangled", section)),
            MALFORMED_PRIOR_PAIRS.map(lambda section: ("priors", section)),
            MALFORMED_OPTIMIZERS.map(lambda section: ("optimizer", section)),
            st.builds(lambda key, value: (key, value), st.sampled_from(["copies", "signs"]), NOT_ARRAYS),
            NOT_ARRAYS.map(lambda value: ("acceptance", {"kind": "explicit", "outcomes": value})),
            MALFORMED_WITNESSES.map(lambda section: ("witness", section)),
            MALFORMED_ACCEPTANCES.map(lambda section: ("acceptance", section)),
        )
    )
    def test_malformed_exits_2(self, case):
        key, section = case
        assert exit_code({**TEST_DOC, key: section}, "test") == 2


class TestSimulateRoundTrip:
    """The top-level keys of a ``simulate`` config: a valid config parses to
    the run it describes, up to ``MAX_TRIALS`` trials; a malformed one, one
    trial more included, exits 2 before any draw."""

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(simulate_configs(), st.none() | st.integers(0, 2**64 - 1))
    @example({**SIMULATE_DOC, "trials": MAX_TRIALS}, None)
    def test_valid(self, doc, seed_flag):
        witness, sim = parse_simulation(json_copy(doc), seed_flag)
        assert witness == parse_witness(doc["witness"])
        seed = seed_flag if seed_flag is not None else doc.get("seed", 0)
        assert (sim.correlations, sim.copies, sim.trials, sim.seed) == (
            tuple(doc["correlations"]),
            tuple(doc["copies"]),
            doc["trials"],
            seed,
        )

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(MALFORMED_SIMULATIONS)
    @example({**SIMULATE_DOC, "trials": MAX_TRIALS + 1})
    def test_malformed_exits_2(self, doc):
        assert exit_code(doc, "simulate") == 2


class Parsed(Exception):
    """Raised by a stand-in for the planner with the arguments it was given,
    so that a round trip parses a config without running the plan."""


def parsed_call(target, doc, command, *flags):
    """The arguments with which ``command`` calls ``target`` for config ``doc``."""

    def stand_in(*args, **kwargs):
        raise Parsed(args, kwargs)

    with tempfile.TemporaryDirectory() as folder, mock.patch(target, stand_in):
        with pytest.raises(Parsed) as caught:
            main([command, "--config", config_file(folder, doc), *flags])
    return caught.value.args


@st.composite
def plan_configs(draw):
    """A valid optimize-mode ``plan`` config, with the entangled model, the
    priors and the ``optimizer`` section it holds."""
    entangled, model = draw(entangled_sections())
    p_ent = draw(UNIT)
    doc = {
        "witness_kind": draw(st.sampled_from(["linear", "quadratic"])),
        "budget": draw(st.integers(1, 10**6)),
        "max_settings": draw(st.integers(1, 10**6)),
        "min_validity": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        "framework": draw(st.sampled_from(["frequentist", "bayesian"])),
        "entangled": entangled,
        "priors": {"entangled": p_ent},
    }
    for key in ("allow_unused_copies", "equal_allocation_only"):
        if draw(st.booleans()):
            doc[key] = draw(st.booleans())
    if draw(st.booleans()):
        doc["mode"] = "optimize"
    optimizer = {}
    if draw(st.booleans()):
        optimizer = doc["optimizer"] = draw(optimizer_sections())
    return doc, model, PriorPair(p_ent), optimizer


PLAN_DOC = {
    "witness_kind": "quadratic",
    "budget": 6,
    "max_settings": 2,
    "min_validity": 0.7,
    "framework": "frequentist",
    "entangled": {"purity": 0.8},
    "priors": {"entangled": 0.6667},
}
SWEEP_DOC = {"witness_kind": "quadratic", "budget": 20, "mode": "sweep", "entangled": {"purity": 0.75}}
PLAN_KEYS = (*PLAN_DOC, "allow_unused_copies", "equal_allocation_only", "optimizer", "mode")
#: Anything but a positive integer.
NOT_INTEGERS = st.integers(max_value=0) | st.floats() | NOT_NUMBERS


MALFORMED_PLANS = st.one_of(
    NOT_OBJECTS,
    st.sampled_from(sorted(PLAN_DOC)).map(lambda key: without(PLAN_DOC, key)),
    st.sampled_from(["witness_kind", "budget", "entangled"]).map(lambda key: without(SWEEP_DOC, key)),
    unknown_key(*PLAN_KEYS).map(lambda key: {**PLAN_DOC, key: 1}),
    not_one_of("linear", "quadratic").map(lambda kind: {**PLAN_DOC, "witness_kind": kind}),
    st.builds(lambda key, value: {**PLAN_DOC, key: value},
              st.sampled_from(["budget", "max_settings"]), NOT_INTEGERS),
    st.integers(max_value=0).map(lambda budget: {**SWEEP_DOC, "budget": budget}),
    (OUTSIDE_UNIT | st.sampled_from([0.0, 1.0]) | NOT_NUMBERS | NON_FINITE).map(
        lambda level: {**PLAN_DOC, "min_validity": level}
    ),
    not_one_of("frequentist", "bayesian").map(lambda framework: {**PLAN_DOC, "framework": framework}),
    st.builds(lambda key, value: {**PLAN_DOC, key: value},
              st.sampled_from(["allow_unused_copies", "equal_allocation_only"]),
              st.sampled_from([0, 1, "true", None, [], 0.5])),
    not_one_of("optimize", "sweep").map(lambda mode: {**PLAN_DOC, "mode": mode}),
    st.just({**SWEEP_DOC, "entangled": {"prior": PRIOR}}),
    MALFORMED_ENTANGLED.map(lambda section: {**PLAN_DOC, "entangled": section}),
    MALFORMED_ENTANGLED.map(lambda section: {**SWEEP_DOC, "entangled": section}),
    MALFORMED_PRIOR_PAIRS.map(lambda section: {**PLAN_DOC, "priors": section}),
    MALFORMED_OPTIMIZERS.map(lambda section: {**PLAN_DOC, "optimizer": section}),
    # A sweep takes no key of optimize mode, and optimize mode none of a sweep.
    with_keys_of(SWEEP_DOC, set(PLAN_KEYS) - set(SWEEP_DOC)),
    st.just({**PLAN_DOC, "mode": "sweep"}),
    not_one_of("linear", "quadratic").map(lambda kind: {**SWEEP_DOC, "witness_kind": kind}),
)

NOISE_DOC = {"copies_per_setting": 4, "settings": 5}
#: Positive steps that give more than MAX_CURVE_POINTS purities, subnormals included.
TOO_FINE_STEPS = st.floats(min_value=0.0, max_value=1.0 / MAX_CURVE_POINTS, exclude_min=True)

MALFORMED_NOISE_CURVES = st.one_of(
    NOT_OBJECTS,
    st.sampled_from(sorted(NOISE_DOC)).map(lambda key: without(NOISE_DOC, key)),
    unknown_key(*NOISE_DOC, "step").map(lambda key: {**NOISE_DOC, key: 1}),
    st.builds(lambda key, value: {**NOISE_DOC, key: value}, st.sampled_from(sorted(NOISE_DOC)), NOT_INTEGERS),
    (NONPOSITIVE | st.floats(min_value=1.0, exclude_min=True) | NOT_NUMBERS | NON_FINITE
     | TOO_FINE_STEPS).map(lambda step: {**NOISE_DOC, "step": step}),
)


class TestPlanRoundTrip:
    """The top-level keys of a ``plan`` config: a valid config reaches the
    planner as the spec, evaluator or sweep it describes; a malformed one
    exits 2 before any search."""

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(plan_configs(), st.none() | st.integers(0, 2**32))
    def test_valid_optimize(self, case, seed):
        doc, model, priors, optimizer = case
        (spec, evaluator), kwargs = parsed_call(
            "entcert.cli.rank_allocations", doc, "plan", *([] if seed is None else ["--seed", str(seed)])
        )
        assert spec == PlanSpec(
            doc["budget"],
            doc["max_settings"],
            doc["min_validity"],
            doc["framework"],
            doc.get("allow_unused_copies", True),
            doc.get("equal_allocation_only", False),
        )
        options = optimizer if seed is None else {**optimizer, "seed": seed}
        assert (evaluator.witness_kind, evaluator.ent_model, evaluator.priors) == (
            doc["witness_kind"],
            model,
            priors,
        )
        assert (evaluator.min_validity, evaluator.options) == (doc["min_validity"], SearchOptions(**options))
        assert kwargs == {"prune": True, "workers": 1}

    def test_one_default_search_effort_for_config_and_library(self):
        # A config without an ``optimizer`` section and a library
        # PlanEvaluator given no options both plan with SearchOptions():
        # 32 restarts at seed 0.
        (_, evaluator), _ = parsed_call("entcert.cli.rank_allocations", PLAN_DOC, "plan")
        library = PlanEvaluator("quadratic", EntangledStateModel(purity=0.8), PriorPair(0.6667), 0.7)
        assert evaluator.options == library.options == SearchOptions()
        assert library.options.restarts == 32 and library.options.seed == 0

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["linear", "quadratic"]), st.integers(1, 10**6), UNIT,
           st.none() | st.floats(1e-3, 1.0))
    def test_valid_sweep(self, kind, budget, purity, step):
        entangled = {"purity": purity} if step is None else {"purity": purity, "grid_step": step}
        doc = {"witness_kind": kind, "budget": budget, "mode": "sweep", "entangled": entangled}
        args, _ = parsed_call("entcert.cli.equal_split_sweep", doc, "plan")
        assert args == (budget, kind, purity)

    @hypothesis_settings(max_examples=100, deadline=None)
    @given(MALFORMED_PLANS)
    def test_malformed_exits_2(self, doc):
        def no_search(*args, **kwargs):
            raise AssertionError(f"a malformed config reached the planner: {doc!r}")

        with mock.patch("entcert.cli.rank_allocations", no_search):
            assert exit_code(doc, "plan") == 2


class TestNoiseCurveRoundTrip:
    """The top-level keys of a ``noise-curve`` config: a valid config gives
    the curve of its copies, settings and step; a malformed one exits 2."""

    @hypothesis_settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 100),
           st.none() | st.floats(1.0 / (MAX_CURVE_POINTS - 1), 1.0))
    def test_valid(self, copies, settings, step):
        doc = {"copies_per_setting": copies, "settings": settings}
        if step is not None:
            doc["step"] = step
        with tempfile.TemporaryDirectory() as folder:
            out = os.path.join(folder, "out.json")
            assert main(["noise-curve", "--config", config_file(folder, doc), "--out", out]) == 0
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
        step = 0.01 if step is None else step
        purities = [min(1.0, i * step) for i in range(round(1.0 / step) + 1)]
        assert (report["copies_per_setting"], report["settings"]) == (copies, settings)
        assert [point["purity"] for point in report["curve"]] == purities
        assert [point["success_probability"] for point in report["curve"]] == [
            white_noise_success_probability(p, copies, settings) for p in purities
        ]

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(MALFORMED_NOISE_CURVES)
    def test_malformed_exits_2(self, doc):
        assert exit_code(doc, "noise-curve") == 2


#: Configs whose keys belong to another variant, or whose variant field names
#: none; each exits 2 with a one-line error.
DIST_DOC = {"witness": QUADRATIC, "correlations": [0.5, 0.5], "copies": [2, 2]}
WORST_CASE_DOC = {"witness": QUADRATIC, "copies": [2, 2], "acceptance": THRESHOLD}
WRONG_VARIANT_CONFIGS = [
    ("dist", {**DIST_DOC, "witness": {**LINEAR, "settings": "nonsense"}}),
    ("dist", {**DIST_DOC, "witness": {**QUADRATIC, "coefficients": "junk", "constant": [1]}}),
    ("dist", {**DIST_DOC, "witness": {**LINEAR, "kind": ["linear"]}}),
    ("worst-case", {**WORST_CASE_DOC, "acceptance": {**THRESHOLD, "outcomes": "junk", "boundary": 3.5}}),
    ("worst-case", {**WORST_CASE_DOC, "acceptance": {**EXPLICIT, "bound": [], "direction": 7}}),
    ("plan", {**SWEEP_DOC, "optimizer": {"restarts": 2.5}, "priors": "garbage", "max_settings": "x",
              "framework": "nonsense", "min_validity": 7, "allow_unused_copies": "maybe"}),
    ("plan", {**PLAN_DOC, "witness_kind": "cubic"}),
    ("plan", {**SWEEP_DOC, "witness_kind": "cubic"}),
]


def no_search(*args, **kwargs):
    raise AssertionError("a malformed config reached a search")


class TestVariantKeys:
    """Each witness kind, acceptance kind and plan mode takes exactly its
    own keys: a key of another variant, whatever its value, exits 2 before
    any search, as does a variant field that names no variant."""

    @pytest.mark.parametrize("command,doc", WRONG_VARIANT_CONFIGS)
    def test_wrong_variant_exits_2(self, tmp_path, capsys, command, doc):
        with mock.patch("entcert.cli.witness_pmf", no_search), mock.patch(
            "entcert.cli.rank_allocations", no_search
        ), mock.patch.object(WorstCaseProblem, "maximize_set", no_search):
            assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(MALFORMED_WITNESSES)
    def test_malformed_witness_exits_2(self, witness):
        with mock.patch("entcert.cli.witness_pmf", no_search):
            assert exit_code({**DIST_DOC, "witness": witness}, "dist") == 2

    @hypothesis_settings(max_examples=80, deadline=None)
    @given(MALFORMED_ACCEPTANCES)
    def test_malformed_acceptance_exits_2(self, acceptance):
        with mock.patch.object(WorstCaseProblem, "maximize_set", no_search):
            assert exit_code({**WORST_CASE_DOC, "acceptance": acceptance}) == 2

    @hypothesis_settings(max_examples=40, deadline=None)
    @given(witness_grids(), st.data())
    def test_randomized_threshold_round_trip(self, case, data):
        doc, copies, grid = case
        bound = data.draw(st.sampled_from(grid))
        direction = data.draw(st.sampled_from(["accept_low", "accept_high"]))
        gamma = data.draw(st.floats(0.0, 1.0, exclude_min=True))
        acc = AcceptanceSet.threshold(bound, direction, gamma=gamma)
        written = json_copy(acc.describe())
        assert written["boundary"] == written["bound"]
        assert parse_acceptance(written, grid) == acc
        others = [g for g in grid if g != bound]
        if others:
            moved = {**written, "boundary": format_fraction(data.draw(st.sampled_from(others)))}
            with pytest.raises(SchemaError, match="boundary"):
                parse_acceptance(moved, grid)
            assert exit_code({"witness": doc, "copies": copies, "acceptance": moved}) == 2
