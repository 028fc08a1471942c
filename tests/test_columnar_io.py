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
    Variable,
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


def test_writer_spans_chunks(tmp_path):
    n = 5000  # more rows than one write holds
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

CHOICES = {item.qid: item.choices for item in QuestionnaireSchema.default().items}
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
        item.qid: [r.answers.get(item.qid, "") for r in rows] for item in schema.items}
    assert {lang: col.tolist() for lang, col in table.sloc.items()} == {
        lang: [r.sloc[lang] for r in rows] for lang in languages}
    assert list(table.fields) == ["Duration", "Developer", "Defect"]
    for name, col in table.fields.items():
        assert col.dtype == float
        np.testing.assert_array_equal(col, [r.fields.get(name, math.nan) for r in rows])
    assert table.flags == {i: r.flags for i, r in enumerate(rows) if r.flags}


SAMPLE_LINES = (Path(__file__).resolve().parent.parent / "data" / "responses.sample.csv").read_text(
    encoding="utf-8").splitlines()


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
