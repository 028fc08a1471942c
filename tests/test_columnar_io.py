"""The columnar ingest and dataset writer against the row-at-a-time code they replaced.

`oracle_ingest` and `oracle_save_text` (tests/helpers.py) are the previous
implementations. The new ones must give equal datasets, the same removal
reasons in the same order, the same exception with the same message, and
the same file bytes.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catreg import (
    DEPENDENT,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    CatregError,
    Dataset,
    GearingTable,
    Observation,
    QuestionnaireSchema,
    ValidationError,
    Variable,
    dataset_from_json,
    dataset_to_json,
    ingest_dataset,
    load_dataset,
    load_responses,
    save_dataset,
)
from helpers import _oracle_load_responses, oracle_ingest, oracle_save_text

# --- the dataset writer ------------------------------------------------------

TRICKY_TEXT = st.text(
    alphabet=st.sampled_from(list('"\\/<>&\'\x00\x1f\x7f é中\U0001f600 aZ09')),
    min_size=1,
    max_size=6,
) | st.sampled_from(["</script>", '"', "\\", "\n", "\t", "été", "A"])
NUMBERS = st.sampled_from([
    -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e16, 1e-7, 0.1, 1 / 3, 3, -7, 10**15, 2**53 + 1,
]) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-10**6, 10**6)


@st.composite
def datasets(draw):
    n_cat = draw(st.integers(0, 3))
    variables = []
    for j in range(n_cat):
        categories = draw(st.lists(TRICKY_TEXT, min_size=2, max_size=4, unique=True))
        variables.append(Variable(f"c{j}", draw(st.sampled_from((NOMINAL, ORDINAL))), categories))
    n_num = draw(st.integers(0, 2))
    variables += [Variable(f"x{j}é\"", NUMERIC) for j in range(n_num)]
    variables.append(Variable("y", NUMERIC, role=DEPENDENT))
    n = draw(st.integers(2, 12))
    ids = draw(st.one_of(
        st.none(), st.lists(TRICKY_TEXT, min_size=n, max_size=n, unique=True)))
    rows = []
    for i in range(n):
        values = [draw(st.sampled_from(v.categories)) if v.categories else draw(NUMBERS)
                  for v in variables]
        rows.append(Observation(tuple(values), row_id=None if ids is None else ids[i]))
    return Dataset(variables, rows)


@given(datasets())
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_writer_bytes_match_the_json_dump(tmp_path, dataset):
    path = tmp_path / "ds.json"
    save_dataset(dataset, str(path))
    assert path.read_bytes() == oracle_save_text(dataset).encode("utf-8")
    assert load_dataset(str(path)) == dataset


@pytest.mark.parametrize("n", [2047, 2048, 2049, 4096, 4097, 5000])  # around 2,048-row writes
def test_writer_spans_chunks(tmp_path, n):
    variables = (Variable("c", NOMINAL, ("A", "</", "é")), Variable("y", NUMERIC, role=DEPENDENT))
    rows = [Observation((("A", "</", "é")[i % 3], i * 0.1 - 7), row_id=f"r{i}") for i in range(n)]
    dataset = Dataset(variables, rows)
    path = tmp_path / "ds.json"
    save_dataset(dataset, str(path))
    assert path.read_bytes() == oracle_save_text(dataset).encode("utf-8")
    assert load_dataset(str(path)) == dataset


def test_reader_names_a_ragged_row_after_the_variables(tmp_path):
    doc = {
        "schema_version": "1",
        "variables": [{"name": "y", "level": "numeric", "role": "dependent"}] * 2,
        "rows": [{"id": "a", "values": [1.0]}, {"id": "b", "values": [2.0, 3.0]}],
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatregError, match="variable names must be unique"):
        load_dataset(str(path))
    doc["variables"] = [doc["variables"][0], {"name": "x", "level": "numeric"}]
    path.write_text(json.dumps(doc))
    with pytest.raises(CatregError, match="row a: expected 2 values, got 1"):
        load_dataset(str(path))


READER_ROWS = 5000
# fault -> (the bad entry made from a good one, the reader's message)
ROW_FAULTS = {
    "a list entry": (lambda e: [e["id"], e["values"]], "row entry must be a JSON object"),
    "a string entry": (lambda e: "row", "row entry must be a JSON object"),
    "a null entry": (lambda e: None, "row entry must be a JSON object"),
    "unknown fields": (lambda e: {**e, "weight": 1, "extra": None},
                       "row entry has unknown fields: ['extra', 'weight']"),
    "object values": (lambda e: {**e, "values": {"c": "A"}}, "row values must be a JSON list"),
    "null values": (lambda e: {**e, "values": None}, "row values must be a JSON list"),
    "string values": (lambda e: {**e, "values": "A"}, "row values must be a JSON list"),
    "integer id": (lambda e: {**e, "id": 7}, "row_id must be a string when present"),
    "boolean id": (lambda e: {**e, "id": False}, "row_id must be a string when present"),
    "list id": (lambda e: {**e, "id": ["r"]}, "row_id must be a string when present"),
}


def _reader_document(n=READER_ROWS) -> dict:
    return {
        "schema_version": "1",
        "variables": [{"name": "c", "level": "nominal", "categories": ["A", "B"]},
                      {"name": "y", "level": "numeric", "role": "dependent"}],
        "rows": [{"id": f"r{i}", "values": ["AB"[i % 2], i * 0.5]} for i in range(n)],
    }


def _reader_message(doc) -> str:
    with pytest.raises(ValidationError) as info:
        dataset_from_json(doc)
    return str(info.value)


@pytest.mark.parametrize("row", [0, READER_ROWS // 2, READER_ROWS - 1])
@pytest.mark.parametrize("fault", list(ROW_FAULTS))
def test_reader_names_a_bad_row_entry_wherever_it_is(row, fault):
    doc = _reader_document()
    plant, message = ROW_FAULTS[fault]
    doc["rows"][row] = plant(doc["rows"][row])
    assert _reader_message(doc) == message


@pytest.mark.parametrize("first, second", [
    ("integer id", "a list entry"), ("a list entry", "integer id"),
    ("object values", "unknown fields"), ("unknown fields", "null values"),
    ("null values", "boolean id"), ("boolean id", "a null entry"),
])
@pytest.mark.parametrize("rows", [(0, READER_ROWS - 1), (1, 2), (2500, 2501)])
def test_reader_reports_the_earlier_of_two_bad_rows(first, second, rows):
    doc = _reader_document()
    for fault, row in zip((first, second), rows):
        doc["rows"][row] = ROW_FAULTS[fault][0](doc["rows"][row])
    assert _reader_message(doc) == ROW_FAULTS[first][1]


def test_reader_checks_a_row_entry_in_a_fixed_order():
    doc = _reader_document()
    doc["rows"][9] = {"id": 7, "values": None, "extra": 1}
    assert _reader_message(doc) == "row entry has unknown fields: ['extra']"
    doc["rows"][9] = {"id": 7, "values": None}
    assert _reader_message(doc) == "row values must be a JSON list"


@pytest.mark.parametrize("ragged, bad", [(READER_ROWS - 1, 10), (10, READER_ROWS - 1), (0, 1)])
def test_reader_reports_a_bad_id_before_a_ragged_row(ragged, bad):
    doc = _reader_document()
    doc["rows"][ragged]["values"].append(1.0)
    doc["rows"][bad]["id"] = 3
    assert _reader_message(doc) == "row_id must be a string when present"
    doc["rows"][bad]["id"] = None
    assert _reader_message(doc) == f"row r{ragged}: expected 2 values, got 3"


def test_reader_fills_missing_row_fields():
    doc = _reader_document()
    del doc["rows"][7]["id"]
    doc["rows"][8]["id"] = None
    loaded = dataset_from_json(doc)
    assert [row["id"] for row in dataset_to_json(loaded)["rows"][6:10]] == ["r6", "7", "8", "r9"]
    del doc["rows"][READER_ROWS - 1]["values"]
    assert _reader_message(doc) == f"row r{READER_ROWS - 1}: expected 2 values, got 0"


class _Entry(dict):
    pass


class _Id(str):
    pass


def test_reader_takes_subclassed_objects_and_ids():
    doc = _reader_document()
    want = dataset_from_json(doc)
    doc["rows"] = [_Entry(e, id=_Id(e["id"])) for e in doc["rows"]]
    assert dataset_from_json(doc) == want


def test_column_constructor_checks_its_shape_and_ids():
    variables = (Variable("x", NUMERIC), Variable("y", NUMERIC, role=DEPENDENT))
    built = Dataset(variables, columns=[(1, 2.0), [3.0, 4]], ids=["a", None])
    assert built == Dataset(variables, [Observation((1.0, 3.0), "a"), Observation((2.0, 4.0))])
    with pytest.raises(CatregError, match="one cell per row id"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0,)], ids=["a", "b"])
    with pytest.raises(CatregError, match="row_id must be a string"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0, 4.0)], ids=["a", 7])
    with pytest.raises(CatregError, match="row b, variable 'y'"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0, None)], ids=["a", "b"])


# --- the ingest stages -------------------------------------------------------

CHOICES = {item.name: item.categories for item in QuestionnaireSchema().items}
METRICS = ("duration", "developers", "defects")
PADDING = st.sampled_from(["{}", "{}", "{}", " {} ", "\t{}", "{}  "])
# cells that flag their row (blank of every kind, zero or nonpositive values)
BLANK = st.sampled_from(["", " ", "\t", "  "])
FLAWS = {
    "answer": BLANK,
    "sloc": BLANK | st.sampled_from(["0", "-0", "0.0"]),
    "metric": BLANK | st.sampled_from(["0", "-0", "-2", "-1e-300"]),
    "id": BLANK,
}
# cells that fail validation, planted into an otherwise valid file
ERRORS = {
    "answer": st.sampled_from(["Z", "a", "AB", "-", "1"]),
    "sloc": st.sampled_from(["x", "-3", "nan", "inf", "1e400", "-1e-9", "1,5"]),
    "metric": st.sampled_from(["fast", "nan", "-inf", "1e400", "1..0"]),
    "id": st.sampled_from(["0", "1", "2"]),  # likely a duplicate
}


def _kind(column: str) -> str:
    if column.startswith("sloc:"):
        return "sloc"
    return "metric" if column in METRICS else "id" if column == "id" else "answer"


def _valid_cell(rnd, column: str, i: int) -> str:
    kind = _kind(column)
    if kind == "answer":
        text = rnd.choice(CHOICES[column])
    elif kind == "sloc":
        text = rnd.choice(["530", "7.5", "1e3", "1_000", "40", str(rnd.randint(1, 10**5))])
    elif kind == "metric":
        text = rnd.choice(["1e-300", "1_000", "3", repr(rnd.uniform(0.5, 500))])
    else:
        text = str(i)
    return rnd.choice(["{}", "{}", "{}", " {} ", "\t{}", "{}  "]).format(text)


@st.composite
def response_csvs(draw):
    """(CSV text, gearing, schema, outlier_zmax) for one generated responses file.

    Most files are valid with some flagged rows; some carry one or two invalid
    cells or ragged rows, so the first error in row-major order must win.
    """
    languages = draw(st.lists(st.sampled_from(["C", "Java", "Py"]), min_size=1, max_size=3,
                              unique=True))
    columns = list(CHOICES) + [f"sloc:{lang}" for lang in languages] + list(METRICS)
    if draw(st.booleans()):
        columns.append("id")
    columns = draw(st.permutations(columns))
    n = draw(st.integers(4, 14) | st.integers(0, 3))
    rnd = draw(st.randoms(use_true_random=False))  # the many valid cells, drawn cheaply
    rows = [[_valid_cell(rnd, c, i) for c in columns] for i in range(n)]
    cell = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, len(columns) - 1))
    for i, j in draw(st.lists(cell, max_size=n)) if n else ():
        rows[i][j] = draw(FLAWS[_kind(columns[j])])
    if n and draw(st.integers(0, 5)) == 3:  # a row with no source lines at all
        i = draw(st.integers(0, n - 1))
        for j, c in enumerate(columns):
            if c.startswith("sloc:"):
                rows[i][j] = draw(FLAWS["sloc"])
    i = draw(st.integers(0, max(n - 1, 0)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))) if n else ():
        # a second error lands in the same row half of the time: the column order decides
        i = draw(st.sampled_from([i, draw(st.integers(0, n - 1))]))
        kind = draw(st.sampled_from(sorted(ERRORS) + ["ragged"]))
        if kind == "ragged":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1"]
            continue
        j = draw(st.sampled_from([j for j, c in enumerate(columns) if _kind(c) == kind] or [0]))
        if j < len(rows[i]):
            rows[i][j] = draw(PADDING).format(draw(ERRORS[_kind(columns[j])]))
    header = ",".join(draw(PADDING).format(c) for c in columns)
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    factors = {lang: draw(st.sampled_from([1.0, 40.0, 53.0, 128.0])) for lang in languages}
    if draw(st.integers(0, 9)) == 3:
        factors[languages[0]] = draw(st.sampled_from([1e-305, 1e-300]))  # FP may overflow
    if draw(st.integers(0, 19)) == 7:
        factors = {"Other": 10.0}  # a language with no gearing factor
    levels = {qid: "nominal" for qid in CHOICES if draw(st.integers(0, 5)) == 0}
    zmax = draw(st.sampled_from([None, 1.5, 0.5, None, 1.0, 0.0, 2.5, -1.0, None]))
    schema = QuestionnaireSchema.from_json({"levels": levels})
    return text, GearingTable(factors), schema, zmax


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except CatregError as exc:
        return type(exc), str(exc)


@given(response_csvs())
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_ingest_matches_the_row_at_a_time_oracle(tmp_path, case):
    text, gearing, schema, zmax = case
    path = tmp_path / "responses.csv"
    path.write_text(text, encoding="utf-8")
    got = _outcome(ingest_dataset, str(path), gearing, schema, zmax)
    want = _outcome(oracle_ingest, str(path), gearing, schema, zmax)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    (dataset, removal), (oracle_dataset, oracle_removal) = got[1], want[1]
    assert dataset == oracle_dataset
    assert list(removal.items()) == list(oracle_removal.items())


@given(response_csvs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loaded_columns_match_the_oracle_rows(tmp_path, case):
    text, _, schema, _ = case
    path = tmp_path / "responses.csv"
    path.write_text(text, encoding="utf-8")
    _assert_loads_like_the_oracle(path, schema)


def _assert_loads_like_the_oracle(path, schema):
    """load_responses raises what the oracle raises, or gives the table of its rows."""
    got = _outcome(load_responses, str(path), schema)
    want = _outcome(_oracle_load_responses, str(path), schema)
    if want[0] != "ok":
        assert got == want
        return
    assert got[0] == "ok", got
    table, (languages, rows) = got[1], want[1]
    assert table.languages == languages
    assert table.ids == [r.row_id for r in rows]
    assert table.answers == {
        item.name: [r.answers.get(item.name, "") for r in rows] for item in schema.items}
    assert {lang: col.tolist() for lang, col in table.sloc.items()} == {
        lang: [r.sloc[lang] for r in rows] for lang in languages}
    assert list(table.fields) == ["Duration", "Developer", "Defect"]
    for name, col in table.fields.items():
        assert col.dtype == float
        np.testing.assert_array_equal(col, [r.fields.get(name, math.nan) for r in rows])
    assert table.flags == {i: r.flags for i, r in enumerate(rows) if r.flags}


SAMPLE_LINES = (Path(__file__).resolve().parent.parent / "data" / "responses.sample.csv").read_text(
    encoding="utf-8").splitlines()


def _edited_sample(tmp_path, rows, edit) -> Path:
    """The sample corpus with `edit(cells, header)` applied to each of `rows` (1 = first)."""
    lines = [line.split(",") for line in SAMPLE_LINES]
    for row in rows:
        edit(lines[row], lines[0])
    path = tmp_path / "responses.csv"
    path.write_text("\n".join(map(",".join, lines)) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("text", ["{}", "{}\n", "{}\r\n"])
def test_header_only_csv_loads_like_the_oracle(tmp_path, text):
    path = tmp_path / "responses.csv"
    path.write_text(text.format(SAMPLE_LINES[0]), encoding="utf-8", newline="")
    _assert_loads_like_the_oracle(path, QuestionnaireSchema())
    assert load_responses(str(path)).n == 0


@pytest.mark.parametrize("rows", [(1,), (-1,), (1, -1), (1, 2), (-2, -1)])
@pytest.mark.parametrize("change", [list.pop, lambda cells: cells.append("1")])
def test_ragged_edge_rows_load_like_the_oracle(tmp_path, rows, change):
    path = _edited_sample(tmp_path, rows, lambda cells, header: change(cells))
    _assert_loads_like_the_oracle(path, QuestionnaireSchema())


@pytest.mark.parametrize("rows", [(1,), (-1,), (1, -1)])
@pytest.mark.parametrize("column", ["Q1", "Q22", "sloc:C", "sloc:Python", "duration",
                                    "defects"])
@pytest.mark.parametrize("blank", ["", " ", "\t"])
def test_blank_edge_cells_load_like_the_oracle(tmp_path, rows, column, blank):
    def clear(cells, header):
        cells[header.index(column)] = blank
    path = _edited_sample(tmp_path, rows, clear)
    _assert_loads_like_the_oracle(path, QuestionnaireSchema())
    assert load_responses(str(path)).flags or column.startswith("sloc:")


@pytest.mark.parametrize("planted", [
    # (row, column, cell); a column of None cuts the row one cell short
    [(5, "defects", "x"), (5, "sloc:Java", "-1")],  # a sloc cell is checked before any metric
    [(5, "duration", "nan"), (5, "sloc:Python", "y"), (5, "Q22", "Z")],  # answers come first
    [(5, "defects", "inf"), (5, "developers", "z")],  # metrics in their fixed order
    [(5, "sloc:C", ""), (5, "sloc:Java", ""), (5, "sloc:Python", ""), (5, "duration", "fast")],
    # a later column on an earlier row beats an earlier column on a later row
    [(9, "Q1", "Z"), (5, "defects", "x")],
    [(5, "sloc:Python", "-2"), (9, "sloc:C", "w"), (3, "duration", "1e999")],
    [(7, "Q2", "a"), (4, "Q21", "D")],
    # a ragged row after a bad cell, before one, and in the same row
    [(5, "Q3", "Z"), (9, None, None)],
    [(9, "Q3", "Z"), (5, None, None)],
    [(5, "developers", "n/a"), (5, None, None)],
])
def test_first_error_in_a_row_follows_the_old_cell_order(tmp_path, planted):
    header = SAMPLE_LINES[0].split(",")
    # columns moved around, so the header order is not the checking order
    order = [header.index(c) for c in reversed(header)]
    lines = []
    for number, line in enumerate(SAMPLE_LINES):
        cells = line.split(",")
        for row, column, value in planted:
            if number == row and column:
                cells[header.index(column)] = value
        cells = [cells[j] for j in order]
        if (number, None, None) in planted:
            cells.pop()
        lines.append(",".join(cells))
    path = tmp_path / "responses.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    gearing = GearingTable({"C": 100.0, "Java": 50.0, "Python": 40.0})
    got = _outcome(ingest_dataset, str(path), gearing)
    assert got[0] != "ok"
    assert got == _outcome(oracle_ingest, str(path), gearing)
