"""Hostile documents, response CSVs and inline JSON through every subcommand.

Each example plants one hostile JSON literal (non-finite, past the float range
or Python's integer digit limit, the wrong type), a duplicate row id, or text
that only looks like JSON, into an otherwise valid input; or, for `ingest`,
one hostile spot into the sample responses CSV (an over-long field, a NUL
byte, an unterminated quote, a byte-order mark, blank lines, a ragged row,
bytes that are not UTF-8, or an odd sloc or metric cell). Whatever the
outcome, the CLI must end with one of its documented exit codes; an
exception escaping `main` fails the test. A run that exits 0 must print
strict JSON: no NaN or Infinity literal.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catreg import dataset_to_json
from catreg.cli import main
from helpers import planted_pipeline_dataset

DATA = Path(__file__).resolve().parent.parent / "data"
MARK = "@@HOSTILE@@"
HOSTILE = (
    "1e309", "-1e309", "NaN", "Infinity", str(10**400), "9" * 5000,
    "true", "null", '"x"', '""', "[]", "[1]", "{}", "-1", "0", "0.5",
)
NOT_JSON = ("[1]", "[", "[1, 2", "{", '{"a": }', "[" * 5000, "", "nan")
SAMPLE_CSV = (DATA / "responses.sample.csv").read_text(encoding="utf-8")
CSV_CELLS = (" ", "\t", "  ", "nan", "inf", "-inf", "1e400", "1_000", "-0", "", "x", '"1"')
CSV_SPOTS = ("cell", "long field", "NUL", "open quote", "BOM", "blank lines", "ragged",
             "not UTF-8")
REFERENCE_INPUTS = {
    "FP": 100, "Duration": 10, "Q2": 0.1, "Q3": 0.1, "Q9": 0.1,
    "Q10": 0.1, "Q11": 0.1, "Q17": 0.1, "Q18": 0.1,
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _plant(doc, path, literal: str) -> str:
    """doc as JSON text with the value at `path` (a key sequence) replaced by literal."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = MARK
    return json.dumps(doc).replace(json.dumps(MARK), literal)


@st.composite
def dataset_documents(draw):
    doc = dataset_to_json(planted_pipeline_dataset(4, n=40))
    kind = draw(st.sampled_from(("cell", "id", "duplicate id", "variable", "structure", "text")))
    literal = draw(st.sampled_from(HOSTILE))
    if kind == "cell":
        row, col = draw(st.integers(0, 39)), draw(st.integers(0, 5))
        return _plant(doc, ("rows", row, "values", col), literal)
    if kind == "id":
        return _plant(doc, ("rows", draw(st.integers(0, 39)), "id"), literal)
    if kind == "duplicate id":
        doc["rows"][draw(st.integers(1, 39))]["id"] = doc["rows"][0]["id"]
        return json.dumps(doc)
    if kind == "variable":
        field = draw(st.sampled_from(("name", "level", "categories", "role")))
        return _plant(doc, ("variables", draw(st.integers(0, 5)), field), literal)
    if kind == "structure":
        path = draw(st.sampled_from((
            ("variables",), ("rows",), ("schema_version",), ("variables", 1), ("rows", 3),
            ("rows", 3, "values"))))
        return _plant(doc, path, literal)
    return draw(st.sampled_from(NOT_JSON))


def _inline(literal_keys, base):
    """Strategy for inline JSON text: base with one hostile value, or non-JSON text."""
    planted = st.tuples(st.sampled_from(literal_keys), st.sampled_from(HOSTILE)).map(
        lambda kv: _plant(base, (kv[0],), kv[1])
    )
    return st.one_of(planted, st.sampled_from(NOT_JSON))


def _hostile_csv(spot: str, row: int, cell: str = "") -> str | bytes:
    """The sample responses CSV with one hostile spot in data row `row`."""
    lines = SAMPLE_CSV.splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    if spot == "cell":
        numeric = [j for j, c in enumerate(header)
                   if c.startswith("sloc:") or c in ("duration", "developers", "defects")]
        cells[numeric[row % len(numeric)]] = cell
    elif spot == "long field":
        cells[0] = "9" * 131_073  # past the csv module's field limit
    elif spot == "NUL":
        cells[1] += "\x00"
    elif spot == "open quote":
        cells[2] = '"' + cells[2]  # the quoted field runs to the end of the file
    elif spot == "ragged":
        cells = cells[:-1] if row % 2 else cells + ["1"]
    lines[row] = ",".join(cells)
    if spot == "BOM":
        lines[0] = "\ufeff" + lines[0]
    elif spot == "blank lines":
        lines[row:row] = ["", " ", ""]
    text = "\n".join(lines) + "\n"
    if spot == "not UTF-8":
        raw = text.encode("utf-8")
        return raw[:len(raw) // 2] + b"\xff\xfe" + raw[len(raw) // 2:]
    return text


GEARING_TEXT = (DATA / "gearing.sample.json").read_text()
INGEST_CSV = ["ingest", "--responses", "{responses.csv}", "--gearing", "{gearing.json}"]


@st.composite
def invocations(draw):
    """(argv, {file name: text}) for one subcommand."""
    command = draw(st.sampled_from(
        ("fit", "pipeline", "crossval", "compare", "predict", "backfire", "ingest")))
    if command in ("fit", "pipeline", "crossval", "compare"):
        argv = [command, "--data", "{dataset.json}"]
        if command == "crossval":
            argv += ["--k", "3", "--method", draw(st.sampled_from(("dummy-ols", "catreg-stepwise")))]
        elif command == "compare":
            argv += ["--k", "2"]
        return argv, {"dataset.json": draw(dataset_documents())}
    if command == "predict":
        model = json.loads((DATA / "reference_model.json").read_text())
        if draw(st.booleans()):
            inputs, model_text = json.dumps(REFERENCE_INPUTS), _plant(
                model,
                draw(st.sampled_from((
                    ("intercept",), ("coefficients", "Q2"), ("coefficients", "Ln(FP)"),
                    ("coefficients",), ("quantifications",), ("quantifications", "Q2"),
                    ("variables",), ("variables", 0), ("variables", 0, "transform"),
                    ("variables", 1, "input_field")))),
                draw(st.sampled_from(HOSTILE)),
            )
        else:
            inputs = draw(_inline(tuple(REFERENCE_INPUTS), REFERENCE_INPUTS))
            model_text = json.dumps(model)
        return ["predict", "--model", "{model.json}", "--inputs", inputs], {
            "model.json": model_text}
    gearing = {"factors": {"L": 53.0}}
    if command == "backfire":
        if draw(st.booleans()):
            return ["backfire", "--sloc", draw(_inline(("L",), {"L": 5300})),
                    "--gearing", "{gearing.json}"], {"gearing.json": json.dumps(gearing)}
        return ["backfire", "--sloc", '{"L": 5300}', "--gearing", "{gearing.json}"], {
            "gearing.json": _plant(gearing, ("factors", "L"), draw(st.sampled_from(HOSTILE)))}
    if draw(st.booleans()):
        responses = _hostile_csv(draw(st.sampled_from(CSV_SPOTS)), draw(st.integers(1, 200)),
                                 draw(st.sampled_from(CSV_CELLS)))
        return INGEST_CSV, {"responses.csv": responses, "gearing.json": GEARING_TEXT}
    gearing = json.loads(GEARING_TEXT)
    language = draw(st.sampled_from(sorted(gearing["factors"])))
    return ["ingest", "--responses", str(DATA / "responses.sample.csv"),
            "--gearing", "{gearing.json}"], {
        "gearing.json": _plant(gearing, ("factors", language), draw(st.sampled_from(HOSTILE)))}


def _no_constant(literal: str):
    raise AssertionError(f"payload holds the non-JSON literal {literal}")


@given(invocations())
@example((INGEST_CSV, {"responses.csv": _hostile_csv("long field", 3),
                       "gearing.json": GEARING_TEXT}))
@settings(max_examples=160, deadline=None)
def test_every_subcommand_ends_with_an_exit_code(files, invocation):
    argv, texts = invocation
    paths = {}
    for name, text in texts.items():
        if isinstance(text, bytes):
            (files / name).write_bytes(text)
        else:
            (files / name).write_text(text, encoding="utf-8")
        paths[name] = str(files / name)
    argv = [paths.get(arg[1:-1], arg) if arg.startswith("{") and arg.endswith(("json}", "csv}"))
            else arg for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
    if rc == 0:  # every invocation prints the default json format
        json.loads(stdout.getvalue(), parse_constant=_no_constant)
