"""Hostile documents and inline JSON through every subcommand.

Each example plants one hostile JSON literal (non-finite, past the float range
or Python's integer digit limit, the wrong type), a duplicate row id, or text
that only looks like JSON, into an otherwise valid input. Whatever the
outcome, the CLI must end with one of its documented exit codes; an
exception escaping `main` fails the test.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    gearing = json.loads((DATA / "gearing.sample.json").read_text())
    language = draw(st.sampled_from(sorted(gearing["factors"])))
    return ["ingest", "--responses", str(DATA / "responses.sample.csv"),
            "--gearing", "{gearing.json}"], {
        "gearing.json": _plant(gearing, ("factors", language), draw(st.sampled_from(HOSTILE)))}


@given(invocations())
@settings(max_examples=120, deadline=None)
def test_every_subcommand_ends_with_an_exit_code(files, invocation):
    argv, texts = invocation
    paths = {}
    for name, text in texts.items():
        (files / name).write_text(text, encoding="utf-8")
        paths[name] = str(files / name)
    argv = [paths.get(arg[1:-1], arg) if arg.startswith("{") and arg.endswith(".json}") else arg
            for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 1, 2, 3)
