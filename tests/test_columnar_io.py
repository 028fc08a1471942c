"""The columnar ingest and dataset writer against the row-at-a-time code they replaced.

`oracle_ingest` and `oracle_save_text` (tests/helpers.py) are the previous
implementations. The new ones must give equal datasets, the same removal
reasons in the same order, the same exception with the same message, and
the same file bytes.
"""

import csv
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import catreg.data
import catreg.ingest
import test_golden
from catreg import (
    DEPENDENT,
    NOMINAL,
    NUMERIC,
    ORDINAL,
    CatregError,
    Dataset,
    GearingTable,
    QuestionnaireSchema,
    ValidationError,
    Variable,
    apply_backfire,
    dataset_from_json,
    dataset_to_json,
    filter_rows,
    ingest_dataset,
    load_dataset,
    load_gearing,
    load_responses,
    log_transform,
    save_dataset,
)
from catreg.errors import read_json
from helpers import _oracle_load_responses, dataset_of_rows, oracle_ingest, oracle_save_text

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
    rows = [[draw(st.sampled_from(v.categories)) if v.categories else draw(NUMBERS)
             for v in variables] for _ in range(n)]
    return dataset_of_rows(variables, rows, ids)


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
    rows = [(("A", "</", "é")[i % 3], i * 0.1 - 7) for i in range(n)]
    dataset = dataset_of_rows(variables, rows, [f"r{i}" for i in range(n)])
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


@pytest.mark.parametrize("rows, message", [
    # a ragged row is named before a repeated id
    ([{"id": "a", "values": ["A", 1.0]}, {"id": "a", "values": ["B", 2.0]},
      {"id": "c", "values": ["A"]}], "row c: expected 2 values, got 1"),
    # too few rows is found before the ragged one
    ([{"id": "a", "values": ["A"]}], "dataset needs at least two rows"),
    # no cell after a ragged row is checked
    ([{"values": ["A", 1.0, 2.0]}, {"values": ["Z", 2.0]}], "row 0: expected 2 values, got 3"),
])
def test_reader_orders_a_ragged_row_among_the_dataset_checks(rows, message):
    doc = _reader_document(0)
    doc["rows"] = rows
    assert _reader_message(doc) == message


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
    assert built == dataset_of_rows(variables, [(1.0, 3.0), (2.0, 4.0)], ["a", None])
    with pytest.raises(CatregError, match="one cell per row id"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0,)], ids=["a", "b"])
    with pytest.raises(CatregError, match="row_id must be a string"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0, 4.0)], ids=["a", 7])
    with pytest.raises(CatregError, match="row b, variable 'y'"):
        Dataset(variables, columns=[(1.0, 2.0), (3.0, None)], ids=["a", "b"])


# --- the block reader ----------------------------------------------------------

ROWS_OPEN, ROWS_CLOSE = '\n  "rows": [\n', "\n  ]\n}\n"  # the writer's layout around the rows
BAD_CELLS = st.sampled_from([None, True, "", "Z", "1", 1, 0.5, [], {}, 10**400])
BAD_IDS = st.sampled_from([7, False, None, "", ["r"], {}])
MUTATIONS = ("canonical", "byte deleted", "byte inserted", "byte replaced", "bad cell",
             "bad id", "repeated id", "bad row entry", "ragged row", "CRLF", "BOM",
             "trailing text", "rows key before the rows", "rows key after the rows",
             "reordered keys", "indented dump without a final newline", "compact dump")


@st.composite
def dataset_files(draw, tmp_path):
    """A file written by save_dataset, or one such file mutated, and the mutation."""
    dataset = draw(datasets())
    path = tmp_path / "ds.json"
    save_dataset(dataset, str(path))
    text, doc = path.read_text(encoding="utf-8"), dataset_to_json(dataset)
    rows = doc["rows"]
    i = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "bad cell":
        rows[i]["values"][draw(st.integers(0, len(rows[i]["values"]) - 1))] = draw(BAD_CELLS)
    elif kind == "bad id":
        rows[i]["id"] = draw(BAD_IDS)
    elif kind == "repeated id":
        rows[i]["id"] = rows[i - 1]["id"]
    elif kind == "bad row entry":
        rows[i] = ROW_FAULTS[draw(st.sampled_from(list(ROW_FAULTS)))][0](rows[i])
    elif kind == "ragged row":
        rows[i]["values"] = rows[i]["values"][:-1] if draw(st.booleans()) else [
            *rows[i]["values"], 1.0]
    if kind in ("bad cell", "bad id", "repeated id", "bad row entry", "ragged row"):
        text = json.dumps(doc, indent=2) + "\n"  # still the writer's layout
    elif kind == "CRLF":
        text = text.replace("\n", "\r\n")
    elif kind == "BOM":
        text = "\ufeff" + text
    elif kind == "trailing text":
        text += draw(st.sampled_from(["x", "\n", " ", "{}", "]", ROWS_CLOSE]))
    elif kind == "rows key before the rows":
        text = text.replace(ROWS_OPEN, '\n  "rows": [],' + ROWS_OPEN, 1)
    elif kind == "rows key after the rows":
        body = text[text.index(ROWS_OPEN) + len(ROWS_OPEN): -len(ROWS_CLOSE)]
        first = body[: body.index("\n    }") + len("\n    }")]
        text = text[: -len(ROWS_CLOSE)] + "\n  ]," + ROWS_OPEN + first + ROWS_CLOSE
    elif kind == "reordered keys":
        text = json.dumps({k: doc[k] for k in draw(st.permutations(list(doc)))}, indent=2) + "\n"
    elif kind == "indented dump without a final newline":
        text = json.dumps(doc, indent=2)
    elif kind == "compact dump":
        text = json.dumps(doc)
    data = text.encode("utf-8")
    if kind.startswith("byte"):
        at = draw(st.integers(0, len(data) - 1))
        byte = bytes([draw(st.sampled_from(b'\n ,{}[]"\\0') | st.integers(0, 255))])
        data = data[:at] + (b"" if kind == "byte deleted" else byte) + data[
            at + (kind != "byte inserted"):]
    path.write_bytes(data)
    return kind, str(path)


def _read_outcome(read, path):
    try:
        return "ok", read(path)
    except (CatregError, ValueError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        return type(exc), str(exc)


@given(st.data(), st.sampled_from([1, 40, 300, 1 << 18]))
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_load_dataset_matches_the_whole_document_reader(tmp_path, monkeypatch, data, block):
    """A file loads to the dataset, or fails with the exception and message, of
    `dataset_from_json(read_json(path))`; small blocks put rows in many blocks."""
    kind, path = data.draw(dataset_files(tmp_path), label="mutation, file")
    monkeypatch.setattr(catreg.data, "_READ_BLOCK", block)
    got = _read_outcome(load_dataset, path)
    want = _read_outcome(lambda p: dataset_from_json(read_json(p)), path)
    assert got == want
    if got[0] == "ok":
        assert [(c.dtype, c.tobytes()) for c in got[1]._columns] == [
            (c.dtype, c.tobytes()) for c in want[1]._columns]


def _survey(n: int) -> Dataset:
    """n rows of twelve questionnaire items answered in words, two numbers and y."""
    rng = np.random.default_rng(7)
    labels = ("never", "rarely", "sometimes", "often", "always")
    variables = [Variable(f"q{j}", ORDINAL, labels) for j in range(12)]
    variables += [Variable("x0", NUMERIC), Variable("x1", NUMERIC),
                  Variable("y", NUMERIC, role=DEPENDENT)]
    columns = [[labels[c] for c in rng.integers(0, 5, n)] for _ in range(12)]
    columns += [rng.normal(size=n).tolist() for _ in range(3)]
    return Dataset(variables, columns, [f"p{i}" for i in range(n)])


def _traced_load(path) -> tuple:
    """(the dataset, the bytes it holds, the traced peak) of one load_dataset."""
    tracemalloc.start()
    try:
        loaded = load_dataset(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return loaded, held, peak


def test_a_load_holds_the_files_bytes_the_dataset_and_one_block(tmp_path):
    """Beyond the file's bytes a load holds at most twice the dataset it returns
    and what decoding one block of rows takes, measured on a one-block file."""
    dataset, big, one = _survey(6000), tmp_path / "big.json", tmp_path / "one.json"
    save_dataset(dataset, big)
    size = big.stat().st_size
    assert size > 8 * catreg.data._READ_BLOCK
    save_dataset(dataset.subset(np.arange(catreg.data._READ_BLOCK * dataset.n // size)), one)
    load_dataset(str(one))  # first calls allocate what later ones reuse
    _, _, one_peak = _traced_load(one)
    block = one_peak - one.stat().st_size
    loaded, held, peak = _traced_load(big)
    assert loaded == dataset
    assert peak - size <= 2 * held + block


def test_only_a_file_outside_the_writers_layout_is_parsed_whole(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(catreg.data, "read_json", lambda path: calls.append(path) or read_json(path))
    data = Path(__file__).resolve().parents[1] / "data"
    sample, _ = ingest_dataset(str(data / "responses.sample.csv"),
                               load_gearing(str(data / "gearing.sample.json")))
    path = tmp_path / "ds.json"
    for dataset in (sample, _survey(3000)):  # one block; several
        save_dataset(dataset, str(path))
        assert load_dataset(str(path)) == dataset
    assert calls == []
    path.write_text(json.dumps(dataset_to_json(sample)))
    assert load_dataset(str(path)) == sample
    assert calls == [str(path)]


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


DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLE_LINES = (DATA / "responses.sample.csv").read_text(encoding="utf-8").splitlines()


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


# --- how the CSV's rows are read: row order, blank lines and csv errors --------

SAMPLE_HEADER = SAMPLE_LINES[0].split(",")
HUGE = "9" * (csv.field_size_limit() + 1)


@pytest.fixture(params=[None, 1, 3], ids=["default", "read_rows=1", "read_rows=3"])
def read_rows(request, monkeypatch):
    """Rows read from the CSV at a time: the default, or a block size that
    puts block boundaries between most rows of the sample corpus."""
    if request.param is not None:
        monkeypatch.setattr(catreg.ingest, "_READ_ROWS", request.param)
    return request.param


def _set_cell(lines, row, column, value):
    cells = lines[row].split(",")
    cells[SAMPLE_HEADER.index(column)] = value
    lines[row] = ",".join(cells)


def _cut_cell(lines, row):
    lines[row] = lines[row].rsplit(",", 1)[0]


def _write_lines(tmp_path, lines, tail="") -> str:
    path = tmp_path / "responses.csv"
    path.write_text("\n".join(lines) + "\n" + tail, encoding="utf-8", newline="")
    return str(path)


def _load_error(path) -> str:
    with pytest.raises(ValidationError) as info:
        load_responses(path)
    return str(info.value)


def _table_state(table) -> tuple:
    return (table.languages, table.ids, table.answers,
            {lang: col.tolist() for lang, col in table.sloc.items()},
            {name: col.tobytes() for name, col in table.fields.items()}, table.flags)


MISSING_ALL = str([item.name for item in QuestionnaireSchema().items] + list(METRICS))
EARLIER_FAULTS = {  # an edit of the sample corpus's lines, and the error it raises alone
    "bad cell": (lambda lines: _set_cell(lines, 5, "Q3", "Z"),
                 "row 5, column Q3: 'Z' is not one of ABCD"),
    "ragged row": (lambda lines: _cut_cell(lines, 5),
                   "row 5: expected 29 cells, got 28 (malformed CSV)"),
    "blank line": (lambda lines: lines.insert(5, ""),
                   "row 5: expected 29 cells, got 0 (malformed CSV)"),
    "duplicate ids": (lambda lines: _set_cell(lines, 2, "id", "190"),
                      "responses CSV has duplicate row identifiers"),
    "unknown column": (lambda lines: lines.__setitem__(0, lines[0] + "x"),
                       "responses CSV has unknown columns: ['defectsx']"),
    "blank first line": (lambda lines: lines.insert(0, ""),
                         f"responses CSV is missing columns: {MISSING_ALL}"),
}


@pytest.mark.parametrize("fault", sorted(EARLIER_FAULTS))
def test_a_later_csv_error_wins_over_an_earlier_fault(tmp_path, read_rows, fault):
    edit, message = EARLIER_FAULTS[fault]
    lines = list(SAMPLE_LINES)
    edit(lines)
    assert _load_error(_write_lines(tmp_path, lines)) == message
    _set_cell(lines, 150, "defects", HUGE)  # line 151 of the file
    assert _load_error(_write_lines(tmp_path, lines)) == (
        f"responses CSV, line 151: field larger than field limit "
        f"({csv.field_size_limit()})")


@pytest.mark.parametrize("edits, message", [
    # the earliest row wins, with its row number in the file
    ([(5, "Q3", "Z"), (9, None, None)], "row 5, column Q3: 'Z' is not one of ABCD"),
    ([(9, None, None), (12, "duration", "x")],
     "row 9: expected 29 cells, got 28 (malformed CSV)"),
    ([(150, "sloc:Java", "-1"), (151, None, None)],
     "row 150, column sloc:Java: source line counts must be >= 0"),
    ([(199, "developers", "inf")], "row 199, column developers: value must be finite"),
    ([(200, None, None)], "row 200: expected 29 cells, got 28 (malformed CSV)"),
    # ids far apart, checked after every cell
    ([(1, "id", "200")], "responses CSV has duplicate row identifiers"),
    ([(1, "id", "200"), (180, "Q22", "E")], "row 180, column Q22: 'E' is not one of ABCD"),
    ([(1, "id", "200"), (180, None, None)], "row 180: expected 29 cells, got 28 (malformed CSV)"),
])
def test_the_earliest_faulty_row_is_named(tmp_path, read_rows, edits, message):
    lines = list(SAMPLE_LINES)
    for row, column, value in edits:
        if column:
            _set_cell(lines, row, column, value)
        else:
            _cut_cell(lines, row)
    assert _load_error(_write_lines(tmp_path, lines)) == message


@pytest.mark.parametrize("row", [1, 4, 100, 199])
def test_a_blank_line_before_the_last_row_is_a_ragged_row(tmp_path, read_rows, row):
    lines = list(SAMPLE_LINES)
    lines.insert(row, "")
    assert _load_error(_write_lines(tmp_path, lines, "\n")) == (
        f"row {row}: expected 29 cells, got 0 (malformed CSV)")


@pytest.mark.parametrize("tail", ["\n", "\n\n", "\r\n\n\r\n", "\n" * 7])
def test_blank_lines_at_the_end_are_ignored(tmp_path, read_rows, tail):
    want = _table_state(load_responses(str(DATA / "responses.sample.csv")))
    assert _table_state(load_responses(_write_lines(tmp_path, SAMPLE_LINES, tail))) == want
    lines = [",".join(c for c, h in zip(line.split(","), SAMPLE_HEADER) if h != "id")
             for line in SAMPLE_LINES]
    table = load_responses(_write_lines(tmp_path, lines, tail))  # ids are row positions
    assert table.ids == [str(i) for i in range(200)]
    assert _table_state(table)[2:] == want[2:]


@pytest.mark.parametrize("tail", ["", "\n", "\n\n\n", "\r\n\r\n"])
def test_a_header_only_file_has_no_rows(tmp_path, read_rows, tail):
    path = _write_lines(tmp_path, SAMPLE_LINES[:1], tail)
    assert load_responses(path).n == 0
    with pytest.raises(ValidationError,
                       match="^only 0 rows survive filtering; at least 2 are required$"):
        ingest_dataset(path, load_gearing(str(DATA / "gearing.sample.json")))


@pytest.mark.parametrize("text", ["", "\n", "\n\n\r\n"])
def test_a_file_of_blank_lines_is_empty(tmp_path, read_rows, text):
    path = tmp_path / "responses.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _load_error(str(path)) == "responses CSV is empty"


@pytest.mark.parametrize("read_rows", [1, 3])
def test_small_blocks_load_like_the_oracle_rows(tmp_path, monkeypatch, read_rows):
    """The oracle test of `load_responses`, its generated files read a row or
    three at a time, so most rows sit next to a block boundary."""
    monkeypatch.setattr(catreg.ingest, "_READ_ROWS", read_rows)
    test_loaded_columns_match_the_oracle_rows(tmp_path)


@pytest.mark.parametrize("read_rows", [1, 3])
def test_small_blocks_keep_the_ingest_golden_pins(tmp_path, monkeypatch, capsys, read_rows):
    monkeypatch.setattr(catreg.ingest, "_READ_ROWS", read_rows)
    sample = ingest_dataset(str(DATA / "responses.sample.csv"),
                            load_gearing(str(DATA / "gearing.sample.json")))
    test_golden.test_ingest_keeps_197_and_removes_3(sample)
    test_golden.test_ingest_removal_reasons_in_order(sample)
    test_golden.test_ingest_output_bytes(tmp_path, monkeypatch, capsys)
    test_golden.test_nominal_schema_output_bytes(tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("blanks", range(1, 7))
@pytest.mark.parametrize("read_rows", [2, 3, 4])
def test_blank_lines_at_the_end_may_straddle_a_block_boundary(tmp_path, monkeypatch,
                                                              read_rows, blanks):
    lines = SAMPLE_LINES[:6]  # 5 rows: a boundary falls after row 2, 3 or 4
    want = _table_state(load_responses(_write_lines(tmp_path, lines)))
    monkeypatch.setattr(catreg.ingest, "_READ_ROWS", read_rows)
    path = _write_lines(tmp_path, lines, "\n" * blanks)
    assert _table_state(load_responses(path)) == want
    path = _write_lines(tmp_path, lines, "\n" * blanks + lines[-1] + "\n")
    assert _load_error(path) == "row 6: expected 29 cells, got 0 (malformed CSV)"


@pytest.mark.parametrize("edit, message", [
    (lambda lines: _set_cell(lines, 7, "duration", "x"),
     "row 7, column duration: non-numeric cell 'x'"),
    (lambda lines: _set_cell(lines, 8, "Q5", "D"), "row 8, column Q5: 'D' is not one of ABC"),
    (lambda lines: _cut_cell(lines, 9), "row 9: expected 29 cells, got 28 (malformed CSV)"),
    (lambda lines: lines.insert(10, ""), "row 10: expected 29 cells, got 0 (malformed CSV)"),
])
def test_a_fault_in_a_later_block_names_its_row_in_the_file(tmp_path, monkeypatch, edit,
                                                            message):
    lines = list(SAMPLE_LINES)
    edit(lines)
    monkeypatch.setattr(catreg.ingest, "_READ_ROWS", 3)  # rows 7 to 9 are the third block
    assert _load_error(_write_lines(tmp_path, lines)) == message


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_survivors_float_cells_are_checked_once(value):
    """The Dataset takes the float columns as they are; filter_rows checks them."""
    table = log_transform(apply_backfire(load_responses(str(DATA / "responses.sample.csv")),
                                         load_gearing(str(DATA / "gearing.sample.json"))))
    table.fields["Ln(Developer)"][150] = value
    with pytest.raises(ValidationError, match="^a surviving row has a value that is not finite$"):
        filter_rows(table)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", ["Ln(FP)", "Ln(Developer)"])
def test_the_outlier_screen_leaves_a_cell_that_is_not_finite_to_that_check(column, value):
    """The screen checks a column's unflagged cells before it scores them. Row
    150 is an outlier on Ln(FP) alone, so a cell of it that is not finite would
    otherwise turn Ln(FP)'s screen off and reach the survivors' check, or turn
    Ln(Developer)'s screen off and leave with the row that Ln(FP)'s removes."""
    table = log_transform(apply_backfire(load_responses(str(DATA / "responses.sample.csv")),
                                         load_gearing(str(DATA / "gearing.sample.json"))))
    table.fields[column][150] = value
    with pytest.raises(ValidationError, match="^a surviving row has a value that is not finite$"):
        filter_rows(table, outlier_zmax=2.5)


def _responses_of(tmp_path, n: int) -> str:
    """A file of n rows cycling through the sample corpus's, with ids 0 .. n - 1."""
    rows = (f"{i},{SAMPLE_LINES[1 + i % 200].split(',', 1)[1]}" for i in range(n))
    path = tmp_path / f"responses_{n}.csv"
    path.write_text("\n".join([SAMPLE_LINES[0], *rows]) + "\n", encoding="utf-8")
    return str(path)


def _traced_ingest(path) -> int:
    """The traced peak of one ingest_dataset, above what was allocated before it."""
    gearing = load_gearing(str(DATA / "gearing.sample.json"))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ingest_dataset(path, gearing)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_an_ingests_memory_grows_per_row_by_its_columns(tmp_path, monkeypatch):
    """Per row, an ingest holds its table's columns and the dataset's, not the
    CSV's records: each item's answer in a list and its code in an array (8 bytes
    each), the row's id and a dozen float cells. The block size sets a cost per
    block, not per row, so blocks of 512 rows keep both files' peaks in the
    phase that grows with the rows."""
    monkeypatch.setattr(catreg.ingest, "_READ_ROWS", 512)
    rows = (4096, 8192)
    small, large = (_responses_of(tmp_path, n) for n in rows)
    ingest_dataset(small, load_gearing(str(DATA / "gearing.sample.json")))  # warm-up
    per_row = (_traced_ingest(large) - _traced_ingest(small)) / (rows[1] - rows[0])
    assert per_row <= 800  # about 620 here; the reader that held every record, about 1,140
