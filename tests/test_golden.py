"""Golden pins on the shipped sample corpus.

These values were recorded from the implementation before the stepwise entry
scan was rewritten; any refactor of the numerical core must keep them.
"""

from pathlib import Path

import pytest

from catreg import compare_baseline, ingest_dataset, load_gearing, run_pipeline, save_dataset
from catreg.cli import EXIT_OK, main

DATA = Path(__file__).resolve().parent.parent / "data"

SELECTED = ("Q18", "Q10", "Q3", "Q9", "Ln(FP)", "Ln(Duration)", "Q13", "Q8", "Q4")

FOLD_MMRES = {
    "dummy-ols": [
        0.3769164129091137,
        0.49287203847033617,
        0.46858664111769005,
        0.41485342339397485,
        0.6062323362401668,
        0.4603183068445152,
    ],
    "catreg-stepwise": [
        0.352919268104676,
        0.3816021206110011,
        0.34899677326952677,
        0.4340285124245006,
        0.44754670523729273,
        0.4591609429598889,
    ],
}

AVERAGES = {
    "dummy-ols": 0.46996319316263274,
    "catreg-stepwise": 0.40404238710114765,
    "improvement": 0.06592080606148511,
}

COMPARE_TABLE = (
    "MMRE by fold (count scale, k=6, seed=42)\n"
    "fold     dummy-ols  catreg-stepwise  improvement\n"
    "1        0.3769     0.3529           0.0240     \n"
    "2        0.4929     0.3816           0.1113     \n"
    "3        0.4686     0.3490           0.1196     \n"
    "4        0.4149     0.4340           -0.0192    \n"
    "5        0.6062     0.4475           0.1587     \n"
    "6        0.4603     0.4592           0.0012     \n"
    "average  0.4700     0.4040           0.0659     \n"
)


@pytest.fixture(scope="module")
def sample():
    return ingest_dataset(
        str(DATA / "responses.sample.csv"), load_gearing(str(DATA / "gearing.sample.json"))
    )


def test_ingest_keeps_197_and_removes_3(sample):
    dataset, removals = sample
    assert dataset.n == 197
    assert sorted(removals) == ["141", "31", "78"]


def test_pipeline_selection(sample):
    result = run_pipeline(sample[0])
    assert result.rounds[-1].selected == SELECTED
    assert len(result.rounds) == 2
    assert result.converged
    assert set(result.model.coefficients) == set(SELECTED)


def test_compare_k6(sample):
    report = compare_baseline(sample[0], k=6, seed=42).as_dict()
    for method, expected in FOLD_MMRES.items():
        got = [fold[method] for fold in report["folds"]]
        assert got == pytest.approx(expected, rel=1e-9)
    assert [fold["excluded"] for fold in report["folds"]] == [
        {"dummy-ols": 0, "catreg-stepwise": 0}
    ] * 6
    assert report["average"] == pytest.approx(AVERAGES, rel=1e-9)
    assert report["notes"] == []


def test_compare_table_bytes(sample, tmp_path, capsys):
    path = tmp_path / "sample.json"
    save_dataset(sample[0], str(path))
    capsys.readouterr()
    rc = main(["compare", "--data", str(path), "--k", "6", "--format", "table"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == COMPARE_TABLE
