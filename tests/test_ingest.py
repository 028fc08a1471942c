"""CSV intake: questionnaire validation, backfiring, logs, filtering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catreg import (
    GearingTable,
    QuestionnaireSchema,
    ValidationError,
    apply_backfire,
    backfire,
    dataset_to_json,
    filter_rows,
    ingest_dataset,
    load_responses,
    log_transform,
)
from helpers import assert_raises_exactly

# Expected per-question choice counts, restated independently of the module.
CHOICE_COUNTS = {
    "Q1": 3, "Q2": 6, "Q3": 4, "Q4": 5, "Q5": 3, "Q6": 3, "Q7": 3,
    "Q8": 4, "Q9": 5, "Q10": 5, "Q11": 5, "Q12": 3, "Q13": 3, "Q14": 2,
    "Q15": 5, "Q16": 2, "Q17": 2, "Q18": 5, "Q19": 5, "Q20": 5,
    "Q21": 3, "Q22": 4,
}

QUESTIONS = [f"Q{i}" for i in range(1, 23)]
HEADER = "id," + ",".join(QUESTIONS) + ",sloc:L,duration,developers,defects"


def _row(row_id: str, overrides: dict | None = None) -> str:
    cells = {q: "A" for q in QUESTIONS}
    cells.update({"sloc:L": "530", "duration": "2.0", "developers": "3", "defects": "7"})
    if overrides:
        cells.update(overrides)
    return ",".join([row_id] + [cells[q] for q in QUESTIONS]
                    + [cells["sloc:L"], cells["duration"], cells["developers"], cells["defects"]])


def _write_csv(tmp_path, lines, name="r.csv"):
    path = tmp_path / name
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    return path


GEARING = GearingTable({"L": 53.0})


class TestSchema:
    def test_default_choice_counts(self):
        schema = QuestionnaireSchema()
        got = {item.name: len(item.categories) for item in schema.items}
        assert got == CHOICE_COUNTS

    def test_choices_are_letter_prefixes(self):
        for item in QuestionnaireSchema().items:
            assert item.categories == tuple("ABCDEF"[: len(item.categories)])

    def test_default_level_is_ordinal(self):
        assert all(item.level == "ordinal" for item in QuestionnaireSchema().items)

    def test_levels_overridable(self):
        schema = QuestionnaireSchema.from_json({"levels": {"Q5": "nominal"}})
        by_id = {item.name: item for item in schema.items}
        assert by_id["Q5"].level == "nominal"
        assert by_id["Q6"].level == "ordinal"

    def test_unknown_question_in_override_rejected(self):
        with pytest.raises(ValidationError):
            QuestionnaireSchema.from_json({"levels": {"Q99": "nominal"}})

    def test_first_bad_level_in_questionnaire_order_is_named(self):
        assert_raises_exactly(
            lambda: QuestionnaireSchema.from_json({"levels": {"Q7": "x", "Q5": "y"}}),
            ValidationError, "schema item Q5: level must be ordinal or nominal",
        )

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            QuestionnaireSchema.from_json({"choices": {}})


class TestGearingDocument:
    @pytest.mark.parametrize("doc, message", [
        (["factors"], "gearing document must be a JSON object"),
        ({"factors": {"L": 1.0}, "unit": "sloc", "_note": "x"},
         "gearing document has unknown fields: ['unit']"),
        ({"_factors": {"L": 1.0}}, "gearing document needs a 'factors' object"),
    ])
    def test_messages(self, doc, message):
        with pytest.raises(ValidationError) as exc:
            GearingTable.from_json(doc)
        assert str(exc.value) == message

    def test_underscore_keys_are_comments(self):
        doc = {"_source": "calibration", "factors": {"L": 53}}
        assert GearingTable.from_json(doc) == GearingTable({"L": 53})


class TestLoadResponses:
    def test_valid_choice_accepted(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"Q6": "C"})])
        table = load_responses(path)
        assert table.answers["Q6"][0] == "C"
        assert 0 not in table.flags

    def test_out_of_schema_choice_rejected(self, tmp_path):
        # Q6 offers only A-C
        path = _write_csv(tmp_path, [_row("1", {"Q6": "F"})])
        with pytest.raises(ValidationError, match="Q6"):
            load_responses(path)

    def test_empty_metric_cell_flags_row(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"defects": ""}), _row("2")])
        table = load_responses(path)
        assert table.flags[0]
        assert 1 not in table.flags

    def test_empty_answer_cell_flags_row(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"Q3": ""})])
        table = load_responses(path)
        assert table.flags[0]

    def test_non_numeric_metric_rejected(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"duration": "fast"})])
        with pytest.raises(ValidationError, match="duration"):
            load_responses(path)

    def test_blank_sloc_reads_as_zero(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"sloc:L": ""}), _row("2")])
        table = load_responses(path)
        assert table.sloc["L"][0] == 0.0
        assert 0 not in table.flags

    def test_missing_question_column_rejected(self, tmp_path):
        bad_header = HEADER.replace("Q7,", "")
        path = tmp_path / "r.csv"
        path.write_text(bad_header + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="Q7"):
            load_responses(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(HEADER + ",color\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="color"):
            load_responses(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        path = _write_csv(tmp_path, [_row("7"), _row("7")])
        with pytest.raises(ValidationError, match="duplicate"):
            load_responses(path)


class TestBackfire:
    def test_single_language(self):
        assert backfire({"L": 5300.0}, GearingTable({"L": 53.0})) == pytest.approx(100.0)

    def test_two_languages_sum(self):
        gearing = GearingTable({"L1": 50.0, "L2": 100.0})
        assert backfire({"L1": 100.0, "L2": 200.0}, gearing) == pytest.approx(4.0)

    def test_unknown_language_rejected(self):
        with pytest.raises(ValidationError, match="L"):
            backfire({"L": 100.0}, GearingTable({"M": 10.0}))

    def test_zero_total_rejected(self):
        with pytest.raises(ValidationError):
            backfire({"L": 0.0}, GearingTable({"L": 53.0}))

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(ValidationError):
            GearingTable({"L": 0.0})

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(1.0, 1e6),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_additive_over_disjoint_languages(self, sloc):
        gearing = GearingTable({lang: 25.0 + 10.0 * i for i, lang in enumerate("abcd")})
        keys = sorted(sloc)
        left = {keys[0]: sloc[keys[0]]}
        right = {k: sloc[k] for k in keys[1:]}
        total = backfire(sloc, gearing)
        assert total == pytest.approx(
            backfire(left, gearing) + backfire(right, gearing), rel=1e-12
        )

    def test_apply_backfire_flags_zero_rows(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1", {"sloc:L": "0"}), _row("2")])
        table = apply_backfire(load_responses(path), GEARING)
        assert any("sloc" in f for f in table.flags[0])
        assert table.fields["FP"][1] == pytest.approx(10.0)

    def test_apply_backfire_unknown_language_is_config_error(self, tmp_path):
        path = _write_csv(tmp_path, [_row("1")])
        with pytest.raises(ValidationError, match="gearing"):
            apply_backfire(load_responses(path), GearingTable({"M": 10.0}))


class TestLogTransform:
    def _table(self, tmp_path, rows):
        return apply_backfire(load_responses(_write_csv(tmp_path, rows)), GEARING)

    def test_ln_of_one_is_zero(self, tmp_path):
        table = self._table(tmp_path, [_row("1", {"sloc:L": "53"}), _row("2")])
        out = log_transform(table)
        assert out.fields["Ln(FP)"][0] == pytest.approx(0.0, abs=1e-15)

    def test_ln_of_e_squared_is_two(self, tmp_path):
        table = self._table(
            tmp_path, [_row("1", {"defects": repr(math.e**2)}), _row("2")]
        )
        out = log_transform(table)
        assert out.fields["Ln(Defect)"][0] == pytest.approx(2.0, abs=1e-12)

    def test_fields_renamed_not_duplicated(self, tmp_path):
        out = log_transform(self._table(tmp_path, [_row("1"), _row("2")]))
        fields = out.fields
        assert "FP" not in fields and math.isfinite(fields["Ln(FP)"][0])
        assert "Duration" not in fields and math.isfinite(fields["Ln(Duration)"][0])

    def test_zero_duration_flagged_with_row_named(self, tmp_path):
        table = self._table(tmp_path, [_row("9", {"duration": "0"}), _row("2")])
        out = log_transform(table)
        assert any("Duration" in f for f in out.flags[out.ids.index("9")])


class TestFilterRows:
    def _prepared(self, tmp_path, rows):
        table = apply_backfire(load_responses(_write_csv(tmp_path, rows)), GEARING)
        return log_transform(table)

    def test_flagged_rows_removed(self, tmp_path):
        # vary defects so the dependent is not constant
        rows = [
            _row(str(i), {"defects": str(5 + i)}) if i != 3 else _row("3", {"defects": ""})
            for i in range(1, 6)
        ]
        dataset, removal = filter_rows(self._prepared(tmp_path, rows))
        assert dataset.n == 4
        assert list(removal) == ["3"]

    def test_no_outlier_screen_by_default(self, tmp_path):
        rows = [
            _row(str(i), {"sloc:L": str(53 * (i + 1)), "defects": str(5 + i)})
            for i in range(1, 11)
        ]
        _, removal = filter_rows(self._prepared(tmp_path, rows))
        assert removal == {}

    def test_z_score_boundary(self, tmp_path):
        # 25 rows share one FP value, one sits apart: its z-score on Ln(FP)
        # is exactly sqrt(25) = 5 under the population convention
        rows = [
            _row(str(i), {"sloc:L": "53", "defects": str(5 + (i % 7))})
            for i in range(25)
        ]
        rows.append(_row("out", {"sloc:L": repr(53 * math.e**2), "defects": "9"}))
        prepared = self._prepared(tmp_path, rows)

        _, removal = filter_rows(prepared, outlier_zmax=4.99)
        assert "out" in removal and "outlier" in removal["out"]

        _, removal = filter_rows(prepared, outlier_zmax=5.01)
        assert removal == {}

    def test_surviving_cells_unchanged(self, tmp_path):
        rows = [
            _row(str(i), {"sloc:L": str(53 + 7 * i), "defects": str(4 + i)})
            for i in range(1, 8)
        ]
        prepared = self._prepared(tmp_path, rows)
        dataset, _ = filter_rows(prepared)
        by_id = {rid: i for i, rid in enumerate(prepared.ids)}
        for i, entry in enumerate(dataset_to_json(dataset)["rows"]):
            row = by_id[entry["id"]]
            assert dataset.value(i, "Ln(FP)") == prepared.fields["Ln(FP)"][row]
            assert dataset.value(i, "Q4") == prepared.answers["Q4"][row]

    def test_too_few_survivors_rejected(self, tmp_path):
        rows = [_row("1"), _row("2", {"defects": ""}), _row("3", {"defects": ""})]
        with pytest.raises(ValidationError, match="survive"):
            filter_rows(self._prepared(tmp_path, rows))

    def test_dataset_shape(self, tmp_path):
        rows = [_row(str(i), {"defects": str(3 + i)}) for i in range(1, 6)]
        dataset, _ = filter_rows(self._prepared(tmp_path, rows))
        names = [v.name for v in dataset.variables]
        assert names[:22] == QUESTIONS
        assert names[22:] == ["Ln(FP)", "Ln(Developer)", "Ln(Duration)", "Ln(Defect)"]
        assert dataset.dependent.name == "Ln(Defect)"


class TestEndToEnd:
    def test_determinism(self, tmp_path):
        rows = [_row(str(i), {"defects": str(3 + i)}) for i in range(1, 8)]
        path = _write_csv(tmp_path, rows)
        a, rem_a = ingest_dataset(path, GEARING)
        b, rem_b = ingest_dataset(path, GEARING)
        assert a == b
        assert rem_a == rem_b

    def test_sample_corpus(self):
        from catreg import load_gearing

        gearing = load_gearing("data/gearing.sample.json")
        dataset, removal = ingest_dataset("data/responses.sample.csv", gearing)
        assert dataset.n == 197
        assert set(removal) == {"31", "78", "141"}
        assert dataset.dependent.name == "Ln(Defect)"

    def test_the_schema_items_are_the_dataset_variables(self):
        from catreg import load_gearing

        schema = QuestionnaireSchema.from_json({"levels": {"Q7": "nominal"}})
        gearing = load_gearing("data/gearing.sample.json")
        dataset, _ = ingest_dataset("data/responses.sample.csv", gearing, schema)
        assert dataset.variables[:22] == schema.items


def _csv(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_text(text, encoding="utf-8")
    return path


# each validation raise that no other test reaches, with its full message;
# every call takes a directory for the CSV it may write
INGEST_VALIDATION_CASES = {
    "schema levels not an object": (
        lambda tmp: QuestionnaireSchema.from_json({"levels": []}),
        "schema 'levels' must be an object",
    ),
    "empty gearing": (
        lambda tmp: GearingTable({}),
        "gearing table must list at least one language",
    ),
    "empty gearing language": (
        lambda tmp: GearingTable({"": 50.0}),
        "gearing languages must be non-empty strings",
    ),
    "empty CSV": (
        lambda tmp: load_responses(_csv(tmp, "\n\n")),
        "responses CSV is empty",
    ),
    "duplicate column": (
        lambda tmp: load_responses(_csv(tmp, HEADER + ",Q1\n")),
        "responses CSV has duplicate column names",
    ),
    "empty sloc language": (
        lambda tmp: load_responses(_csv(tmp, HEADER + ",sloc:\n")),
        "sloc column with an empty language name",
    ),
    "no sloc column": (
        lambda tmp: load_responses(_csv(tmp, HEADER.replace(",sloc:L", "") + "\n")),
        "responses CSV needs at least one sloc:<Language> column",
    ),
    "filter before the logs": (
        lambda tmp: filter_rows(load_responses(_write_csv(tmp, [_row("r1"), _row("r2")]))),
        "row r1 lacks Ln(FP); run backfiring and the log transform before filtering",
    ),
}


@pytest.mark.parametrize("case", list(INGEST_VALIDATION_CASES))
def test_validation_raises(case, tmp_path):
    call, message = INGEST_VALIDATION_CASES[case]
    assert_raises_exactly(lambda: call(tmp_path), ValidationError, message)
