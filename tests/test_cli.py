"""End-to-end CLI runs: schemas, outputs, exit codes, determinism."""

import dataclasses
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from entcert.acceptance import snap_to_grid
from entcert.cli import main, validate_report
from entcert.config import parse_optimizer
from entcert.errors import DomainError, SchemaError
from entcert.pmf import format_fraction, round_fraction
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
            "optimizer": {"restarts": 1, "anneal_steps": 0, "seed": 0},
        }
        code, text = run(tmp_path, "worst-case", doc)
        report = json.loads(text)
        assert code == 4
        assert report["converged"] is False
        assert report["objective"] > 0.0


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


class TestNoiseCurve:
    def test_edges_and_format(self, tmp_path):
        doc = {"copies_per_setting": 4, "settings": 5, "step": 0.5}
        code, text = run(tmp_path, "noise-curve", doc, "--format", "csv")
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "purity,success_probability"
        assert lines[-1] == "1.0,1.0"


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

    FIELDS = {"restarts", "seed", "max_iterations", "xatol", "fatol", "anneal_steps"}

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
            "anneal_steps": 6,
        }
        assert parse_optimizer(doc, None) == SearchOptions(**doc)
        assert parse_optimizer({"xatol": 1}, None).xatol == 1.0
        with pytest.raises(SchemaError):
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
