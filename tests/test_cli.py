"""End-to-end command-line behavior: payloads, files, exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from catreg import Variable, load_model, save_dataset
from catreg.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main
from helpers import dataset_of_rows, planted_pipeline_dataset


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    save_dataset(planted_pipeline_dataset(0), root / "planted.json")
    save_dataset(planted_pipeline_dataset(4, n=90), root / "small.json")

    # every category's response mean is identical, so quantification collapses
    degenerate = dataset_of_rows(
        (
            Variable("c1", "nominal", ("A", "B")),
            Variable("y", "numeric", role="dependent"),
        ),
        [("A", 1.0), ("A", 3.0), ("B", 0.0), ("B", 4.0)] * 2,
    )
    save_dataset(degenerate, root / "degenerate.json")

    # four rows, each of categories A-D seen once: n = 4 <= df + 1, so the
    # adjusted R^2 is undefined
    save_dataset(
        dataset_of_rows(
            (
                Variable("c", "nominal", ("A", "B", "C", "D")),
                Variable("y", "numeric", role="dependent"),
            ),
            [("A", 1.0), ("B", 2.5), ("C", 2.0), ("D", 4.0)],
        ),
        root / "four_categories.json",
    )

    # c1's categories share one mean of x and one mean of y, so c1's
    # quantification collapses while x stays: c1's p-value is undefined
    save_dataset(
        dataset_of_rows(
            (
                Variable("c1", "nominal", ("A", "B")),
                Variable("x", "numeric"),
                Variable("y", "numeric", role="dependent"),
            ),
            [("A", 1.0, 2.3), ("A", 3.0, 5.9), ("A", 2.0, 3.8),
             ("B", 0.0, 0.2), ("B", 4.0, 7.8), ("B", 2.0, 4.0)],
        ),
        root / "one_collapsed.json",
    )

    (root / "config.json").write_text(
        json.dumps({"stepwise": {"alpha_enter": 0.001, "alpha_remove": 0.1}})
    )
    (root / "gearing.json").write_text(json.dumps({"factors": {"L": 53.0}}))
    return root


DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLE_RESPONSES = DATA / "responses.sample.csv"
REFERENCE_MODEL = str(DATA / "reference_model.json")
REFERENCE_INPUTS = {
    "FP": 100, "Duration": 10, "Q2": 0.1, "Q3": 0.1, "Q9": 0.1,
    "Q10": 0.1, "Q11": 0.1, "Q17": 0.1, "Q18": 0.1,
}


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestIngestCommand:
    def test_sample_corpus_to_dataset_file(self, work, capsys):
        out_path = work / "ingested.json"
        rc, out, _ = _run(
            capsys,
            [
                "ingest",
                "--responses", "data/responses.sample.csv",
                "--gearing", "data/gearing.sample.json",
                "--data-out", str(out_path),
            ],
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["rows_kept"] == 197
        assert payload["rows_removed"] == 3
        assert out_path.exists()

    def test_inline_dataset_when_no_data_out(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "ingest",
                "--responses", "data/responses.sample.csv",
                "--gearing", "data/gearing.sample.json",
            ],
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["dataset"]["schema_version"] == "1"

    def _ingest(self, capsys, responses, out_path):
        return _run(capsys, [
            "ingest", "--responses", str(responses),
            "--gearing", str(DATA / "gearing.sample.json"), "--data-out", str(out_path),
        ])

    @pytest.mark.parametrize(
        "prefix, suffix", [("\ufeff", ""), ("", "\n"), ("\ufeff", "\n\r\n\n")],
        ids=["byte-order mark", "blank line at the end", "both"])
    def test_byte_order_mark_and_blank_lines_at_the_end_change_nothing(
            self, tmp_path, capsys, prefix, suffix):
        edited = tmp_path / "responses.csv"
        edited.write_bytes((prefix + SAMPLE_RESPONSES.read_text(encoding="utf-8") + suffix)
                           .encode("utf-8"))
        assert self._ingest(capsys, SAMPLE_RESPONSES, tmp_path / "plain.json")[0] == EXIT_OK
        assert self._ingest(capsys, edited, tmp_path / "edited.json")[0] == EXIT_OK
        assert (tmp_path / "edited.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    def test_blank_line_inside_the_file_is_a_ragged_row(self, tmp_path, capsys):
        lines = SAMPLE_RESPONSES.read_text(encoding="utf-8").splitlines()
        lines.insert(5, "")
        edited = tmp_path / "responses.csv"
        edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc, _, err = self._ingest(capsys, edited, tmp_path / "out.json")
        assert rc == EXIT_VALIDATION
        assert "row 5: expected 29 cells, got 0 (malformed CSV)" in err
        assert not (tmp_path / "out.json").exists()

    def test_table_format_indents_nested_objects(self, capsys, tmp_path):
        rc, out, _ = _run(capsys, [
            "ingest", "--responses", str(SAMPLE_RESPONSES),
            "--gearing", str(DATA / "gearing.sample.json"),
            "--data-out", str(tmp_path / "table.json"), "--format", "table",
        ])
        assert rc == EXIT_OK
        assert out.splitlines() == [
            "seed: 42",
            "rows_kept: 197",
            "rows_removed: 3",
            "removals:",
            "  141: missing duration",
            "  31: missing answer for Q5",
            "  78: missing defects",
            f"data_out: {tmp_path / 'table.json'}",
        ]

    def test_unknown_schema_level_is_a_validation_error(self, capsys, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps({"levels": {"Q7": "numeric"}}))
        rc, out, err = _run(capsys, [
            "ingest", "--responses", str(SAMPLE_RESPONSES),
            "--gearing", str(DATA / "gearing.sample.json"), "--schema", str(schema),
        ])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err == "validation error: schema item Q7: level must be ordinal or nominal\n"


class TestFitCommand:
    def test_json_payload(self, work, capsys):
        rc, out, _ = _run(
            capsys, ["fit", "--data", str(work / "planted.json"), "--seed", "7"]
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["seed"] == 7
        assert 0.0 <= payload["r2"] <= 1.0
        assert set(payload["coefficients"]) == {
            "ord1", "ord2", "nom1", "num1", "num2",
        }

    def test_table_format(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            ["fit", "--data", str(work / "planted.json"), "--format", "table"],
        )
        assert rc == EXIT_OK
        assert "R^2" in out
        assert "predictor" in out

    def test_predictor_subset(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "fit",
                "--data", str(work / "planted.json"),
                "--predictors", "num1,ord1",
            ],
        )
        assert rc == EXIT_OK
        assert set(json.loads(out)["coefficients"]) == {"num1", "ord1"}


class TestPipelineCommand:
    def test_writes_model_file(self, work, capsys):
        model_path = work / "model.json"
        rc, out, _ = _run(
            capsys,
            [
                "pipeline",
                "--data", str(work / "planted.json"),
                "--config", str(work / "config.json"),
                "--model-out", str(model_path),
            ],
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["converged"] is True
        assert payload["rounds"][0]["round"] == 1
        model = load_model(model_path)
        assert set(model.coefficients) == {"ord1", "nom1", "num1"}

    def test_table_format_prints_lists_as_json(self, work, capsys):
        argv = ["pipeline", "--data", str(work / "planted.json")]
        rc, out, _ = _run(capsys, argv)
        assert rc == EXIT_OK
        rounds = json.loads(out)["rounds"]
        rc, out, _ = _run(capsys, argv + ["--format", "table"])
        assert rc == EXIT_OK
        lines = out.splitlines()
        assert lines[:4] == ["seed: 42", "converged: True", "empty_model: False",
                             f"rounds: {json.dumps(rounds)}"]
        assert lines[4] == "model:"
        assert lines[5].startswith("  schema_version: ")

    def test_empty_selection_writes_no_model(self, capsys, tmp_path):
        # the response is noise, unrelated to x: stepwise selection enters nothing
        rng = np.random.default_rng(0)
        noise = dataset_of_rows(
            (Variable("x", "numeric"), Variable("y", "numeric", role="dependent")),
            [(float(a), float(b)) for a, b in rng.normal(size=(40, 2))],
        )
        save_dataset(noise, tmp_path / "noise.json")
        model_path = tmp_path / "model.json"
        rc, out, err = _run(capsys, [
            "pipeline", "--data", str(tmp_path / "noise.json"), "--model-out", str(model_path),
        ])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err == "validation error: selection came up empty; there is no model to write\n"
        assert not model_path.exists()

    def test_predict_against_written_model(self, work, capsys):
        model = load_model(work / "model.json")
        inputs = {}
        for var in model.variables:
            if var.level == "numeric":
                inputs[var.input_field] = 2.0
            else:
                inputs[var.name] = var.categories[0]
        rc, out, _ = _run(
            capsys,
            [
                "predict",
                "--model", str(work / "model.json"),
                "--inputs", json.dumps(inputs),
            ],
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert "ln_estimate" in payload
        assert payload["defect_estimate"] > 0


def _duplicate_variable(doc):
    doc["variables"].append(doc["variables"][2])


def _drop_q2_quantification(doc):
    del doc["quantifications"]["Q2"]


def _partial_q17_quantification(doc):
    doc["quantifications"]["Q17"] = {"A": 0.1}


def _drop_ln_fp_input_field(doc):
    del doc["variables"][0]["input_field"]


class TestPredictCommand:
    def test_inputs_from_a_file(self, capsys, tmp_path):
        inline = _run(capsys, ["predict", "--model", REFERENCE_MODEL,
                               "--inputs", json.dumps(REFERENCE_INPUTS)])
        path = tmp_path / "inputs.json"
        path.write_text(json.dumps(REFERENCE_INPUTS))
        from_file = _run(capsys, ["predict", "--model", REFERENCE_MODEL, "--inputs", str(path)])
        assert inline[0] == from_file[0] == EXIT_OK
        assert from_file[1] == inline[1]
        assert json.loads(from_file[1])["defect_estimate"] > 0

    def test_label_for_a_placeholder_quantification_is_a_validation_error(self, capsys):
        inputs = json.dumps(dict(REFERENCE_INPUTS, Q2="A"))
        rc, out, err = _run(capsys, ["predict", "--model", REFERENCE_MODEL, "--inputs", inputs])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err == (
            "validation error: variable 'Q2' has a placeholder quantification; "
            "supply a numeric quantified value instead of a label\n"
        )

    @pytest.mark.parametrize("edit, message", [
        (_duplicate_variable, "model variables must be unique"),
        (_drop_q2_quantification, "categorical variable 'Q2' needs a quantification entry"),
        (_partial_q17_quantification, "variable 'Q17': categories without quantification: ['B']"),
        (_drop_ln_fp_input_field, "numeric variable 'Ln(FP)' needs an input_field"),
    ], ids=["duplicate variable", "no Q2 entry", "partial Q17", "no input_field"])
    def test_malformed_model_is_a_validation_error(self, capsys, tmp_path, edit, message):
        doc = json.loads(Path(REFERENCE_MODEL).read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc, out, err = _run(capsys, ["predict", "--model", str(path),
                                     "--inputs", json.dumps(REFERENCE_INPUTS)])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err == f"validation error: {message}\n"


class TestEvaluationCommands:
    def test_crossval_payload(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "crossval",
                "--data", str(work / "small.json"),
                "--k", "3",
                "--method", "dummy-ols",
            ],
        )
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["k"] == 3
        assert len(payload["folds"]) == 3
        assert payload["average_mmre"] >= 0.0

    def test_crossval_table(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "crossval",
                "--data", str(work / "small.json"),
                "--k", "3",
                "--method", "dummy-ols",
                "--format", "table",
            ],
        )
        assert rc == EXIT_OK
        assert "average" in out
        assert "fold" in out

    def test_compare_runs_are_byte_identical(self, work, capsys):
        args = [
            "compare",
            "--data", str(work / "small.json"),
            "--config", str(work / "config.json"),
            "--k", "3",
            "--seed", "11",
        ]
        first = work / "cmp1.json"
        second = work / "cmp2.json"
        assert main(args + ["--output", str(first)]) == EXIT_OK
        assert main(args + ["--output", str(second)]) == EXIT_OK
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["seed"] == 11
        assert "improvement" in payload["average"]

    def test_compare_table_format(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "compare",
                "--data", str(work / "small.json"),
                "--config", str(work / "config.json"),
                "--k", "3",
                "--format", "table",
            ],
        )
        assert rc == EXIT_OK
        assert "improvement" in out
        assert "average" in out


class TestBackfireCommand:
    def test_inline_sloc(self, work, capsys):
        rc, out, _ = _run(
            capsys,
            [
                "backfire",
                "--sloc", json.dumps({"L": 5300}),
                "--gearing", str(work / "gearing.json"),
            ],
        )
        assert rc == EXIT_OK
        assert json.loads(out)["function_points"] == pytest.approx(100.0)

    def test_table_format(self, capsys):
        rc, out, _ = _run(capsys, [
            "backfire", "--sloc", json.dumps({"Java": 12400, "Python": 3100}),
            "--gearing", str(DATA / "gearing.sample.json"), "--format", "table",
        ])
        assert rc == EXIT_OK
        assert out == "seed: 42\nfunction_points: 325.5\n"


class TestUndefinedStatistics:
    """The two statistics that may be undefined are written as null, with exit 0."""

    def test_fit_adjusted_r2_is_null(self, work, capsys):
        rc, out, _ = _run(capsys, ["fit", "--data", str(work / "four_categories.json")])
        assert rc == EXIT_OK
        assert '"adjusted_r2": null' in out
        assert json.loads(out)["adjusted_r2"] is None

    def test_pipeline_round_adjusted_r2_is_null(self, work, capsys):
        rc, out, _ = _run(capsys, ["pipeline", "--data", str(work / "four_categories.json")])
        assert rc == EXIT_OK
        assert '"catreg_adjusted_r2": null' in out
        assert json.loads(out)["rounds"][0]["catreg_adjusted_r2"] is None

    def test_collapsed_predictor_p_value_is_null(self, work, capsys):
        rc, out, _ = _run(capsys, ["fit", "--data", str(work / "one_collapsed.json")])
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["degenerate"] == ["c1"]
        assert payload["p_values"]["c1"] is None
        assert 0.0 <= payload["p_values"]["x"] < 0.05
        assert payload["adjusted_r2"] is not None

    def test_table_prints_n_a_for_both(self, work, capsys):
        rc, out, _ = _run(capsys, ["fit", "--data", str(work / "four_categories.json"),
                                   "--format", "table"])
        assert rc == EXIT_OK
        assert out.splitlines()[1] == (
            "n = 4, R^2 = 1.0000, adjusted R^2 = n/a, iterations = 2, converged = True")
        rc, out, _ = _run(capsys, ["fit", "--data", str(work / "one_collapsed.json"),
                                   "--format", "table"])
        assert rc == EXIT_OK
        assert "c1                    0.0000    n/a" in out.splitlines()


class TestStrictPayloads:
    """Any other non-finite number in a payload exits 2, in either format."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_planted_non_finite_value_exits_two(self, capsys, monkeypatch, tmp_path, fmt, value):
        monkeypatch.setattr("catreg.cli.backfire", lambda sloc, gearing: value)
        out_path = tmp_path / "payload.txt"
        argv = ["backfire", "--sloc", '{"Java": 100}', "--gearing",
                str(DATA / "gearing.sample.json"), "--format", fmt]
        for extra in ([], ["--output", str(out_path)]):
            rc, out, err = _run(capsys, argv + extra)
            assert rc == EXIT_NUMERICAL
            assert out == ""
            assert err.startswith("numerical error: cannot write JSON: ")
            assert "Traceback" not in err
        assert not out_path.exists()

    def test_minus_infinite_estimate_exits_two(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "schema_version": "1",
            "variables": [{"name": "FP", "level": "numeric", "input_field": "FP",
                           "transform": "identity"}],
            "quantifications": {},
            "coefficients": {"FP": -1e308},
            "intercept": 0.0,
        }))
        rc, out, err = _run(capsys, ["predict", "--model", str(model),
                                     "--inputs", '{"FP": 1e308}'])
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert err == "numerical error: log-scale value -inf has no finite count\n"

    def test_underflowing_estimate_exits_two(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "schema_version": "1",
            "variables": [{"name": "FP", "level": "numeric", "input_field": "FP",
                           "transform": "identity"}],
            "quantifications": {},
            "coefficients": {"FP": -1.0},
            "intercept": 0.0,
        }))
        rc, out, err = _run(capsys, ["predict", "--model", str(model), "--inputs", '{"FP": 800}'])
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert err == "numerical error: log-scale value -800.0 underflows to a count of 0.0\n"


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        rc, _, err = _run(capsys, [])
        assert rc == EXIT_VALIDATION
        assert "usage error" in err

    def test_unknown_flag_is_one(self, capsys):
        rc, _, _ = _run(capsys, ["backfire", "--nope", "x"])
        assert rc == EXIT_VALIDATION

    def test_validation_error_is_one(self, work, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,Q1\n1,A\n")
        rc, _, err = _run(
            capsys,
            ["ingest", "--responses", str(bad), "--gearing", str(work / "gearing.json")],
        )
        assert rc == EXIT_VALIDATION
        assert "validation error" in err

    def test_numerical_error_is_two(self, work, capsys):
        rc, _, err = _run(capsys, ["fit", "--data", str(work / "degenerate.json")])
        assert rc == EXIT_NUMERICAL
        assert "numerical error" in err

    @pytest.mark.parametrize("command", [["fit"], ["crossval", "--method", "dummy-ols", "--k", "2"]])
    def test_overflowing_spread_exits_two(self, capsys, tmp_path, command):
        # the seed-42 folds train on rows 0 and 2 and on rows 1 and 3: each
        # sees x = +-1e200, whose squared deviations overflow
        path = tmp_path / "huge.json"
        save_dataset(
            dataset_of_rows(
                (Variable("x", "numeric"), Variable("y", "numeric", role="dependent")),
                [(1e200, 1.0), (1e200, 2.0), (-1e200, 4.0), (-1e200, 3.0)],
            ),
            path,
        )
        rc, out, err = _run(capsys, [*command, "--data", str(path)])
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert err == (
            "numerical error: cannot standardize a column whose spread overflows the float range\n"
        )

    def test_missing_file_is_three(self, capsys):
        rc, _, err = _run(capsys, ["fit", "--data", "/nonexistent/ds.json"])
        assert rc == EXIT_IO
        assert "i/o error" in err

    def test_malformed_json_is_three(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, _ = _run(capsys, ["fit", "--data", str(path)])
        assert rc == EXIT_IO

    def test_negative_seed_rejected(self, work, capsys):
        rc, _, _ = _run(
            capsys,
            ["fit", "--data", str(work / "planted.json"), "--seed", "-1"],
        )
        assert rc == EXIT_VALIDATION

    def test_unknown_config_section_rejected(self, work, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"banana": {}}))
        rc, _, _ = _run(
            capsys,
            ["fit", "--data", str(work / "planted.json"), "--config", str(cfg)],
        )
        assert rc == EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ["ingest", "--responses", str(SAMPLE_RESPONSES),
         "--gearing", str(DATA / "gearing.sample.json")],
        ["predict", "--model", REFERENCE_MODEL, "--inputs", json.dumps(REFERENCE_INPUTS)],
        ["backfire", "--sloc", '{"Java": 100}', "--gearing", str(DATA / "gearing.sample.json")],
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_loads_the_config(self, capsys, tmp_path, argv):
        rc, out, err = _run(capsys, argv + ["--config", str(tmp_path / "missing.json")])
        assert rc == EXIT_IO
        assert out == "" and err.startswith("i/o error:")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"banana": {}}))
        rc, out, err = _run(capsys, argv + ["--config", str(cfg)])
        assert rc == EXIT_VALIDATION
        assert out == "" and err.startswith("validation error:")
        assert _run(capsys, argv)[0] == EXIT_OK

    def test_unknown_config_key_rejected(self, work, capsys, tmp_path):
        # random_restarts and seed were CatregConfig fields once; the section
        # accepts exactly the fields of its config class
        cfg = tmp_path / "cfg.json"
        for section, key in [
            ("stepwise", "alpha_banana"), ("catreg", "random_restarts"), ("catreg", "seed"),
        ]:
            cfg.write_text(json.dumps({section: {key: 3}}))
            rc, out, err = _run(
                capsys,
                ["fit", "--data", str(work / "planted.json"), "--config", str(cfg)],
            )
            assert rc == EXIT_VALIDATION and out == ""
            assert err == (
                f"validation error: configuration section '{section}' "
                f"has unknown fields: ['{key}']\n"
            )

    @pytest.mark.parametrize(
        "config",
        [
            {"pipeline": {"max_rounds": "3"}},
            {"catreg": {"epsilon": "x"}},
            {"catreg": {"max_iterations": 1.5}},
        ],
    )
    def test_mistyped_config_value_is_a_validation_error(self, work, capsys, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc, _, err = _run(
            capsys,
            ["pipeline", "--data", str(work / "planted.json"), "--config", str(cfg)],
        )
        assert rc == EXIT_VALIDATION
        assert err.startswith("validation error:")

    def test_predict_with_infinite_input_is_a_validation_error(self, capsys):
        inputs = json.dumps(REFERENCE_INPUTS).replace('"FP": 100', '"FP": 1e309')
        rc, out, err = _run(capsys, ["predict", "--model", REFERENCE_MODEL, "--inputs", inputs])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error:")

    def test_predict_overflowing_estimate_is_a_numerical_error(self, capsys):
        inputs = json.dumps(dict(REFERENCE_INPUTS, Q2=1e6))
        rc, out, err = _run(capsys, ["predict", "--model", REFERENCE_MODEL, "--inputs", inputs])
        assert rc == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("numerical error:")

    def test_bracketed_inline_json_is_a_validation_error(self, work, capsys):
        for argv in (
            ["predict", "--model", REFERENCE_MODEL, "--inputs", "[1]"],
            ["backfire", "--sloc", "[1]", "--gearing", str(work / "gearing.json")],
        ):
            rc, out, err = _run(capsys, argv)
            assert rc == EXIT_VALIDATION, argv
            assert out == "" and err.startswith("validation error:")

    def test_infinite_sloc_is_not_finite(self, work, capsys):
        rc, _, err = _run(
            capsys,
            ["backfire", "--sloc", '{"L": 1e309}', "--gearing", str(work / "gearing.json")],
        )
        assert rc == EXIT_VALIDATION
        assert "sloc for 'L' must be finite" in err

    def test_overflowing_function_points_is_a_numerical_error(self, capsys, tmp_path):
        gearing = tmp_path / "gearing.json"
        gearing.write_text(json.dumps({"factors": {"C": 1e-300, "Java": 50, "Python": 40}}))
        lines = Path("data/responses.sample.csv").read_text().splitlines()
        header, first = lines[0].split(","), lines[1].split(",")
        first[header.index("sloc:C")] = "1e300"
        responses = tmp_path / "responses.csv"
        responses.write_text("\n".join([lines[0], ",".join(first), *lines[2:]]) + "\n")
        for argv in (
            ["backfire", "--sloc", '{"C": 1e300}', "--gearing", str(gearing)],
            ["ingest", "--responses", str(responses), "--gearing", str(gearing)],
        ):
            rc, out, err = _run(capsys, argv)
            assert rc == EXIT_NUMERICAL, argv
            assert out == ""
            assert err.startswith("numerical error:") and "overflows" in err

    def test_huge_integer_cell_is_a_validation_error(self, work, capsys, tmp_path):
        doc = json.loads((work / "small.json").read_text())
        doc["rows"][0]["values"][-1] = "HUGE"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', str(10**400)))  # a 401-digit literal
        rc, _, err = _run(capsys, ["fit", "--data", str(path)])
        assert rc == EXIT_VALIDATION
        assert "numeric cell must be a finite number" in err

    def test_repeated_sample_ids_are_a_validation_error(self, work, capsys, tmp_path):
        rc, out, _ = _run(
            capsys,
            ["ingest", "--responses", "data/responses.sample.csv",
             "--gearing", "data/gearing.sample.json"],
        )
        assert rc == EXIT_OK
        doc = json.loads(out)["dataset"]
        assert len({row["id"] for row in doc["rows"]}) == 197
        doc["rows"] = doc["rows"] * 2
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        rc, _, err = _run(capsys, ["crossval", "--data", str(path), "--k", "6",
                                   "--method", "dummy-ols"])
        assert rc == EXIT_VALIDATION
        assert "row ids must be unique" in err

    def test_overlong_csv_field_is_a_validation_error(self, capsys, tmp_path):
        lines = Path("data/responses.sample.csv").read_text().splitlines()
        header, third = lines[0].split(","), lines[3].split(",")
        third[header.index("id")] = "x" * 131_073  # past the csv module's field limit
        responses = tmp_path / "responses.csv"
        responses.write_text("\n".join([*lines[:3], ",".join(third), *lines[4:]]) + "\n")
        rc, out, err = _run(capsys, ["ingest", "--responses", str(responses),
                                     "--gearing", "data/gearing.sample.json"])
        assert rc == EXIT_VALIDATION
        assert out == ""
        assert err.startswith("validation error: responses CSV, line 4: field larger than")
