"""The two-phase fitting loop, model serialization, and prediction."""

import json
import math

import numpy as np
import pytest

from catreg import (
    CatregConfig,
    Dataset,
    NumericalError,
    StepwiseConfig,
    UnseenCategoryError,
    ValidationError,
    Variable,
    compare_baseline,
    load_model,
    predict,
    run_pipeline,
    save_model,
)
from catreg.pipeline import MODEL_SCHEMA_VERSION, ModelVariable, SerializedModel
from helpers import PLANTED_SET, assert_raises_exactly, dataset_of_rows, planted_pipeline_dataset

TIGHT = StepwiseConfig(alpha_enter=0.001, alpha_remove=0.10)


class TestRunPipeline:
    def test_planted_structure_recovered(self):
        ds = planted_pipeline_dataset(0)
        result = run_pipeline(ds, stepwise_config=TIGHT)
        assert result.converged
        assert set(result.model.coefficients) == PLANTED_SET

    def test_converges_in_two_rounds_when_round_one_is_stable(self):
        ds = planted_pipeline_dataset(1)
        result = run_pipeline(ds, stepwise_config=TIGHT)
        assert result.converged
        assert len(result.rounds) == 2
        assert set(result.rounds[0].selected) == set(result.rounds[1].selected)

    def test_noise_predictors_absent(self):
        for seed in (2, 3, 4):
            result = run_pipeline(planted_pipeline_dataset(seed), stepwise_config=TIGHT)
            assert "ord2" not in result.model.coefficients
            assert "num2" not in result.model.coefficients

    def test_max_rounds_one(self):
        ds = planted_pipeline_dataset(5)
        result = run_pipeline(ds, stepwise_config=TIGHT, max_rounds=1)
        assert len(result.rounds) == 1
        assert not result.converged

    def test_empty_selection_halts_flagged(self):
        rng = np.random.default_rng(0)
        variables = (
            Variable("x1", "numeric"),
            Variable("x2", "numeric"),
            Variable("y", "numeric", role="dependent"),
        )
        rows = [(float(a), float(b), float(c)) for a, b, c in rng.normal(size=(60, 3))]
        result = run_pipeline(dataset_of_rows(variables, rows))
        assert result.empty_model
        assert not result.converged
        assert result.model is None

    def test_determinism(self):
        ds = planted_pipeline_dataset(8)
        a = run_pipeline(ds, stepwise_config=TIGHT)
        b = run_pipeline(ds, stepwise_config=TIGHT)
        assert len(a.rounds) == len(b.rounds)
        assert a.model.coefficients == b.model.coefficients
        assert a.model.intercept == b.model.intercept

    def test_final_pvalues_below_alpha_remove(self):
        for seed in (0, 9, 12):
            result = run_pipeline(planted_pipeline_dataset(seed), stepwise_config=TIGHT)
            assert result.converged
            trace = result.rounds[-1].trace
            assert all(p < TIGHT.alpha_remove for p in trace.fit.pvalue)

    def test_round_records_carry_catreg_summaries(self):
        result = run_pipeline(planted_pipeline_dataset(10), stepwise_config=TIGHT)
        for i, rec in enumerate(result.rounds, start=1):
            assert rec.index == i
            assert 0.0 <= rec.catreg_r2 <= 1.0
            assert rec.predictors


class TestSerialization:
    def test_round_trip_predictions_exact(self, tmp_path):
        ds = planted_pipeline_dataset(0)
        result = run_pipeline(ds, stepwise_config=TIGHT)
        model = result.model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)

        inputs = {}
        for var in model.variables:
            if var.level == "numeric":
                inputs[var.input_field] = 2.5
            else:
                inputs[var.name] = var.categories[1]
        a = predict(model, inputs)
        b = predict(loaded, inputs)
        assert abs(a["ln_estimate"] - b["ln_estimate"]) <= 1e-12
        assert abs(a["defect_estimate"] - b["defect_estimate"]) <= 1e-12

    def test_unknown_document_field_rejected(self, tmp_path):
        ds = planted_pipeline_dataset(0)
        save_model(run_pipeline(ds, stepwise_config=TIGHT).model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["comment"] = "hello"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="comment"):
            load_model(tmp_path / "bad.json")

    def test_wrong_schema_version_rejected(self, tmp_path):
        ds = planted_pipeline_dataset(0)
        save_model(run_pipeline(ds, stepwise_config=TIGHT).model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["schema_version"] = "2"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="schema"):
            load_model(tmp_path / "bad.json")

    def test_non_finite_model_raises_and_writes_no_file(self, tmp_path):
        model = SerializedModel(
            variables=(ModelVariable("x", "numeric", input_field="x", transform="identity"),),
            quantifications={},
            coefficients={"x": 1.0},
            intercept=math.nan,
        )
        with pytest.raises(NumericalError, match="^cannot write JSON: "):
            save_model(model, tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    def test_coefficient_variable_bijection_enforced(self):
        with pytest.raises(ValidationError):
            SerializedModel(
                variables=(),
                quantifications={},
                coefficients={"ghost": 1.0},
                intercept=0.0,
            )


def _reference_model() -> SerializedModel:
    return load_model("data/reference_model.json")


def _zero_inputs() -> dict:
    inputs = {}
    for var in _reference_model().variables:
        if var.level == "numeric":
            inputs[var.input_field] = 1.0  # ln(1) = 0
        else:
            inputs[var.name] = 0.0
    return inputs


class TestReferenceModelPredict:
    def test_all_zero_point_returns_intercept(self):
        model = _reference_model()
        out = predict(model, _zero_inputs())
        assert out["ln_estimate"] == pytest.approx(-2.676, abs=1e-12)
        assert out["defect_estimate"] == pytest.approx(math.exp(-2.676), abs=1e-12)

    def test_hand_arithmetic_point(self):
        model = _reference_model()
        inputs = _zero_inputs()
        inputs["FP"] = math.exp(5.0)
        inputs["Duration"] = math.exp(2.0)
        out = predict(model, inputs)
        assert out["ln_estimate"] == pytest.approx(0.516, abs=1e-10)
        assert out["defect_estimate"] == pytest.approx(math.exp(0.516), abs=1e-8)
        assert out["defect_estimate"] == pytest.approx(1.675, abs=2e-3)

    def test_sign_structure(self):
        model = _reference_model()
        coef = model.coefficients
        assert coef["Q3"] < 0
        for name in ("Ln(FP)", "Ln(Duration)", "Q2", "Q9", "Q10", "Q11", "Q17", "Q18"):
            assert coef[name] > 0, name

    def test_raising_q3_lowers_estimate(self):
        model = _reference_model()
        low = _zero_inputs()
        high = dict(low)
        high["Q3"] = 1.0
        assert (
            predict(model, high)["ln_estimate"]
            < predict(model, low)["ln_estimate"]
        )

    def test_monotone_in_positive_numeric_inputs(self):
        model = _reference_model()
        base = predict(model, _zero_inputs())["ln_estimate"]
        for field in ("FP", "Duration"):
            bumped = _zero_inputs()
            bumped[field] = 10.0
            assert predict(model, bumped)["ln_estimate"] > base

    def test_missing_input_rejected(self):
        model = _reference_model()
        inputs = _zero_inputs()
        inputs.pop("Q2")
        with pytest.raises(ValidationError, match="Q2"):
            predict(model, inputs)

    def test_extra_input_rejected(self):
        model = _reference_model()
        inputs = _zero_inputs()
        inputs["Q99"] = 0.0
        with pytest.raises(ValidationError, match="Q99"):
            predict(model, inputs)

    def test_nonpositive_fp_rejected(self):
        model = _reference_model()
        inputs = _zero_inputs()
        inputs["FP"] = 0.0
        with pytest.raises(ValidationError, match="FP"):
            predict(model, inputs)


class TestNonFiniteEstimate:
    def test_minus_infinite_log_estimate_is_a_numerical_error(self):
        model = SerializedModel(
            variables=(ModelVariable("x", "numeric", input_field="FP", transform="identity"),),
            quantifications={},
            coefficients={"x": -1e308},
            intercept=0.0,
        )
        with pytest.raises(NumericalError, match=r"^log-scale value -1e\+308 underflows to a count of 0\.0$"):
            predict(model, {"FP": 1.0})
        with pytest.raises(NumericalError, match="^log-scale value -inf has no finite count$"):
            predict(model, {"FP": 1e308})

    def test_underflowing_count_is_a_numerical_error_and_a_subnormal_one_is_kept(self):
        model = SerializedModel(
            variables=(ModelVariable("x", "numeric", input_field="FP", transform="identity"),),
            quantifications={},
            coefficients={"x": -1.0},
            intercept=0.0,
        )
        with pytest.raises(NumericalError, match=r"^log-scale value -800\.0 underflows to a count of 0\.0$"):
            predict(model, {"FP": 800})
        out = predict(model, {"FP": 740})
        assert out == {"ln_estimate": -740.0, "defect_estimate": math.exp(-740.0)}
        assert 0.0 < out["defect_estimate"] < 2.2250738585072014e-308  # subnormal


class TestFittedModelPredict:
    def test_unseen_category_rejected(self):
        ds = planted_pipeline_dataset(0)
        model = run_pipeline(ds, stepwise_config=TIGHT).model
        cat_var = next(v for v in model.variables if v.level != "numeric")
        inputs = {}
        for var in model.variables:
            if var.level == "numeric":
                inputs[var.input_field] = 2.0
            else:
                inputs[var.name] = var.categories[0]
        inputs[cat_var.name] = "never-seen"
        with pytest.raises(UnseenCategoryError):
            predict(model, inputs)

    def test_fitted_prediction_is_finite_and_positive(self):
        ds = planted_pipeline_dataset(3)
        model = run_pipeline(ds, stepwise_config=TIGHT).model
        inputs = {}
        for var in model.variables:
            if var.level == "numeric":
                inputs[var.input_field] = 3.0
            else:
                inputs[var.name] = var.categories[0]
        out = predict(model, inputs)
        assert math.isfinite(out["ln_estimate"])
        assert out["defect_estimate"] > 0


class TestCompareBaseline:
    def _dataset(self):
        return planted_pipeline_dataset(4, n=90)

    def test_shared_fold_plan_and_improvement_arithmetic(self):
        report = compare_baseline(self._dataset(), k=4, seed=11)
        assert len(report.baseline) == 4
        for b, c, d in zip(report.baseline, report.contender, report.improvement):
            assert d == pytest.approx(b - c, abs=1e-15)
        assert report.baseline_avg == pytest.approx(
            sum(report.baseline) / 4, abs=1e-12
        )
        assert report.improvement_avg == pytest.approx(
            report.baseline_avg - report.contender_avg, abs=1e-12
        )

    def test_repeat_runs_identical(self):
        ds = self._dataset()
        a = compare_baseline(ds, k=4, seed=11)
        b = compare_baseline(ds, k=4, seed=11)
        assert json.dumps(a.as_dict(), sort_keys=True) == json.dumps(
            b.as_dict(), sort_keys=True
        )


def _identity_model():
    variable = ModelVariable("x", "numeric", input_field="size", transform="identity")
    return SerializedModel((variable,), {}, {"x": 1.0}, 0.0)


# each validation raise that no other test reaches, with its full message
PIPELINE_VALIDATION_CASES = {
    "empty model variable name": (
        lambda: ModelVariable("", "numeric"),
        "model variable name must be a non-empty string",
    ),
    "missing linear value": (
        lambda: _identity_model().linear_estimate({}),
        "missing value for model variable 'x'",
    ),
    "non-numeric linear value": (
        lambda: _identity_model().linear_estimate({"x": "big"}),
        "variable 'x' expects a finite number, got 'big'",
    ),
    "quantifications not an object": (
        lambda: SerializedModel.from_dict({
            "schema_version": MODEL_SCHEMA_VERSION, "variables": [],
            "quantifications": [], "coefficients": {}, "intercept": 0.0,
        }),
        "quantifications must be an object",
    ),
    "unknown model variable level": (
        lambda: SerializedModel.from_dict({
            "schema_version": MODEL_SCHEMA_VERSION, "variables": [{"name": "x", "level": "bogus"}],
            "quantifications": {}, "coefficients": {}, "intercept": 0.0,
        }),
        "model variable 'x': unknown level 'bogus'",
    ),
    "coefficients not an object": (
        lambda: SerializedModel.from_dict({
            "schema_version": MODEL_SCHEMA_VERSION, "variables": [],
            "quantifications": {}, "coefficients": [], "intercept": 0.0,
        }),
        "coefficients must be an object",
    ),
    "zero max_rounds": (
        lambda: run_pipeline(planted_pipeline_dataset(0), max_rounds=0),
        "max_rounds must be >= 1",
    ),
    "no predictors": (
        lambda: run_pipeline(
            Dataset((Variable("y", "numeric", role="dependent"),), columns=[[1.0, 2.0]], ids=["a", "b"])
        ),
        "the dataset declares no predictors",
    ),
    "inputs not a mapping": (
        lambda: predict(_identity_model(), [("size", 1.0)]),
        "inputs must be a mapping",
    ),
}


@pytest.mark.parametrize("case", list(PIPELINE_VALIDATION_CASES))
def test_validation_raises(case):
    call, message = PIPELINE_VALIDATION_CASES[case]
    assert_raises_exactly(call, ValidationError, message)
