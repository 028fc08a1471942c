"""Golden pins on the shipped sample corpus.

These values were recorded from the implementation before the stepwise entry
scan was rewritten (the pipeline coefficients and event p-values before the
least-squares problems were compressed to one triangular factor, the
all-predictor `catreg_fit` before its ALS loop was simplified, the ingest
bytes and removal reasons before ingest and the dataset writer went by
column); any refactor of the numerical core or of the ingest path must keep
them.
"""

import hashlib
import json
from pathlib import Path

import pytest

from catreg import (
    catreg_fit,
    compare_baseline,
    crossval,
    ingest_dataset,
    load_gearing,
    run_pipeline,
    save_dataset,
)
from catreg.cli import EXIT_OK, main
from helpers import count_pvalues

DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLE_INGEST_ARGS = [
    "ingest",
    "--responses", str(DATA / "responses.sample.csv"),
    "--gearing", str(DATA / "gearing.sample.json"),
]

# sha256 of `catreg ingest` on the sample corpus: its stdout with
# `--data-out sample.json`, the file it writes there, and its stdout without
# `--data-out` (the payload then holds the dataset itself)
INGEST_STDOUT_SHA256 = "a2d21499014cf44736694da40fe941d739e146161df74d68871f9e70899c547b"
INGEST_DATA_OUT_SHA256 = "486d247a94059faa56cc42c5254dc2ec03accd2b2e82d272cf3bc87f8c79bcde"
INGEST_INLINE_STDOUT_SHA256 = "0ac3268f299db8554cd4b422c1f809d707d29bffdf0de643a8fabe4214c04286"
# sha256 of `catreg compare --data sample.json --k 6` (JSON, default seed) on
# that dataset: every fold's MMREs and the averages to the last bit, and of
# the leave-one-out run (`--k 197`, about 5 s)
COMPARE_K6_STDOUT_SHA256 = "67952857b1f17599ef5b6f1c4881664aa2cdaa39b4d8d25b68fcc8ba61312ec2"
COMPARE_K197_STDOUT_SHA256 = "8c974c27cf14603a0f0f227f13d860d1ea336777f4cc8ab9f7360f02c2cbca17"
# sha256 of the JSON stdout of more k=6 runs on that dataset: `compare` with
# `--mre-scale log` (the flag overrides the configured scale) and `crossval`
# with each method
K6_STDOUT_SHA256 = {
    ("compare", "--mre-scale", "log"):
        "27f491c2ae8a75c29db7d0891f0ab9f0a46a0f75acc83856bb86902ae35704fc",
    ("crossval", "--method", "dummy-ols"):
        "4dc7dedd3cca8ae6062ef6bc5a4cb4c6fc3e0ef93739e1a8c12d38ea3ac0532a",
    ("crossval", "--method", "catreg-stepwise"):
        "e2a609ea0ef0879207b9fdf3c37ac4fcaeafab5099bbeeb177e5cbb6d929241f",
}
# sha256 of the stdout of `fit` (all predictors; JSON and table, and JSON with
# the ALS capped at 3 sweeps, so the fit is flagged non-converged) and of
# `pipeline` on that dataset (also, JSON and table, capped at one round, so it
# is flagged non-converged and keeps round 1's model, and with thresholds no
# p-value meets, so nothing enters and there is no model); the config, if
# any, is written to config.json
FIT_STDOUT_SHA256 = {
    ("fit", None):
        "157ed1f4a568156d4a474cb89549ac8e850df075cfdaa89760a6c141d8f9ff98",
    ("fit --format table", None):
        "8102a99cb6254cc0564a3b9ce6a20c8690467049c3cc43cdffd9b23eb7517f00",
    ("fit", '{"catreg": {"max_iterations": 3}}'):
        "9198e0e1eb2d3ba63d652edc0b0ec31790be9ab12edcff0d4153a4b0d347424f",
    ("pipeline", None):
        "082c61828264dcfd97333e17c4767b235619f57c79cb454941bcce57253fa104",
    ("pipeline", '{"pipeline": {"max_rounds": 1}}'):
        "d288c6b055f8f7102d1486cf574c274517e0f38be8029b5ba490ca5fc5ea028c",
    ("pipeline --format table", '{"pipeline": {"max_rounds": 1}}'):
        "a03c85326d6fcb4c18899d2f353b1dc826733ec16205c2c3da13f60b5a272a3d",
    ("pipeline", '{"stepwise": {"alpha_enter": 1e-300, "alpha_remove": 1e-300}}'):
        "520d9e2da4ca93df929ab286a2df704e07236163efe0dbe5605798b248bdd6d2",
    ("pipeline --format table", '{"stepwise": {"alpha_enter": 1e-300, "alpha_remove": 1e-300}}'):
        "9cd8326dc3c9f408b2f3e1f530b51394d0485cf14c172ba38a96394d01dcebe7",
}
# sha256 of the stdout of the remaining commands and formats, each run in a
# directory holding sample.json: the tables of `ingest` and `pipeline`,
# `predict` on the shipped reference model and on the model.json that
# `pipeline --model-out` writes, and `backfire`
REFERENCE_INPUTS = (
    '{"FP": 148, "Duration": 7.4, "Q2": 0, "Q3": 0, "Q9": 0, "Q10": 0, '
    '"Q11": 0, "Q17": 0, "Q18": 0}'
)
SAMPLE_MODEL_INPUTS = (
    '{"Q3": "D", "Q4": "E", "Q8": "D", "Q9": "E", "Q10": "E", "Q13": "C", '
    '"Q18": "E", "FP": 3.5, "Duration": 3.5}'
)
PREDICT_REFERENCE = ("predict", "--model", str(DATA / "reference_model.json"),
                     "--inputs", REFERENCE_INPUTS)
BACKFIRE = ("backfire", "--sloc", '{"Java": 12400, "Python": 3100}',
            "--gearing", str(DATA / "gearing.sample.json"))
MORE_STDOUT_SHA256 = {
    ("ingest table", (*SAMPLE_INGEST_ARGS, "--data-out", "sample.json", "--format", "table")):
        "6d7df1c26ebdb351eae1cd570bc60f08341f90f5906f24237dfe88d59dd2f67f",
    ("pipeline table", ("pipeline", "--data", "sample.json", "--format", "table")):
        "a359921c89afc05d01cb6c54d14f546656fafd96cb5697ea3dbf91f6d8320221",
    ("predict reference", PREDICT_REFERENCE):
        "4934c8820ee316f9a186470458ded0edc6be3746396d350e50fcedbb2d985486",
    ("predict reference table", (*PREDICT_REFERENCE, "--format", "table")):
        "ccd10b7cf7aa5b84a1a48aaee1f46a058bac01ac8bd0824129ecd8aa499353ef",
    ("predict sample model", ("predict", "--model", "model.json", "--inputs", SAMPLE_MODEL_INPUTS)):
        "ea05c6b99a7afb7720fc84983dcd1b0f37d966dcaa4fcff1d8045e175f530201",
    ("backfire", BACKFIRE):
        "8e41e18f0c39393c8be180a1e3ec3ef407203f17990682c30fd79b9f42fe6dbc",
    ("backfire table", (*BACKFIRE, "--format", "table")):
        "6baeb87bd40d2296f8fad4199ca4c261fc9083cf299ca88aa8f50a17e83df693",
}
# the sample corpus ingested with Q1, Q4, Q6, Q7, Q12, Q15, Q19 and Q21
# nominal: sha256 of the ingest stdout, of the nominal.json it writes, and of
# the stdout of `fit` and `pipeline` on that file
NOMINAL_ITEMS = ("Q1", "Q4", "Q6", "Q7", "Q12", "Q15", "Q19", "Q21")
NOMINAL_SHA256 = {
    "ingest": "074d043c1a09e98c7b98cfc95a1e81236b021f896baf2c69c8ef702f28b024ce",
    "nominal.json": "69151a93b681bef3e033dba25278d5d8929da9948d3be9ff1dd5a17591e9e377",
    "fit": "99846d9d5bdd947a6faebaa3f3b5944547a8b8574a67045d1a3370f0b56211c6",
    "pipeline": "cb3b1693ad06d008664e9f21d4c3a19bff0515f90c54bee11f0b03557d386987",
}

# ingest_dataset's removal report, in its own order
REMOVALS = [
    ("31", "missing answer for Q5"),
    ("78", "missing defects"),
    ("141", "missing duration"),
]
# ... and with outlier_zmax=2.5, which also screens the Ln(...) columns
OUTLIER_REMOVALS = REMOVALS + [
    ("18", "outlier on Ln(FP) (|z| = 3.45 > 2.5)"),
    ("80", "outlier on Ln(FP) (|z| = 3.13 > 2.5); outlier on Ln(Defect) (|z| = 2.59 > 2.5)"),
    ("90", "outlier on Ln(FP) (|z| = 2.66 > 2.5)"),
    ("151", "outlier on Ln(FP) (|z| = 2.71 > 2.5)"),
    ("124", "outlier on Ln(Duration) (|z| = 3.21 > 2.5)"),
    ("153", "outlier on Ln(Duration) (|z| = 2.51 > 2.5)"),
    ("157", "outlier on Ln(Duration) (|z| = 2.51 > 2.5)"),
    ("199", "outlier on Ln(Duration) (|z| = 2.55 > 2.5)"),
] + [
    (rid, "outlier on Ln(Developer) (|z| = 2.56 > 2.5)")
    for rid in ("8", "32", "35", "42", "58", "64", "89", "99", "100", "111", "129", "135")
] + [
    ("169", "outlier on Ln(Defect) (|z| = 2.59 > 2.5)"),
]

SELECTED = ("Q18", "Q10", "Q3", "Q9", "Ln(FP)", "Ln(Duration)", "Q13", "Q8", "Q4")

COEFFICIENTS = {
    "Q18": 0.3164228975180206,
    "Q10": 0.36164145088028615,
    "Q3": -0.27129328705416417,
    "Q9": 0.23280123354944834,
    "Ln(FP)": 0.649830802190295,
    "Ln(Duration)": 0.2720781605622102,
    "Q13": 0.10317273488853258,
    "Q8": 0.06761277331580862,
    "Q4": -0.057474472380900365,
}
INTERCEPT = -1.5631510804322053

# every stepwise event of each pipeline round: (step, variable, p-value); all
# are entries, one per step
ROUND_EVENTS = [
    [
        (1, "Q18", 1.5512063940380097e-11),
        (2, "Q10", 5.731652130654629e-13),
        (3, "Q3", 7.550152314817793e-12),
        (4, "Q9", 8.61802728548567e-09),
        (5, "Ln(FP)", 9.065617050511527e-11),
        (6, "Ln(Duration)", 8.080818149973961e-11),
        (7, "Q13", 0.00046926342974712177),
        (8, "Q8", 0.01969671460445304),
        (9, "Q4", 0.04873654205431404),
    ],
    [
        (1, "Q18", 2.2711299570199344e-11),
        (2, "Q10", 5.347717929027016e-13),
        (3, "Q3", 8.485082593175989e-12),
        (4, "Q9", 7.389081843965432e-09),
        (5, "Ln(FP)", 7.28273633047262e-11),
        (6, "Ln(Duration)", 2.9723461396701556e-11),
        (7, "Q13", 0.0006331829804661988),
        (8, "Q8", 0.020768708496657393),
        (9, "Q4", 0.04134968036453795),
    ],
]

# catreg_fit on all 25 declared predictors (22 ordinal items, 3 numeric):
# (coefficient, p-value) per predictor
CATREG_R2 = 0.8015217398523555
CATREG_ADJ_R2 = 0.7335497329524773
CATREG_TRACE = (
    0.7266335067647463,
    0.7966810142844972,
    0.8008487499602767,
    0.8014040409143484,
    0.8014986855083837,
    0.8015166723049325,
    0.8015207503841602,
    0.8015216864110223,
)
CATREG_TERMS = {
    "Q1": (0.07309554233608782, 0.04190818264824388),
    "Q2": (0.019676591907403486, 0.5951742488126014),
    "Q3": (-0.34709681153231015, 1.1870233163017116e-17),
    "Q4": (-0.08144304895893212, 0.022932303186467034),
    "Q5": (-0.017434725524898678, 0.6411302276468249),
    "Q6": (-0.046316932710312966, 0.21264227317562323),
    "Q7": (0.08433794684705767, 0.020329154775850233),
    "Q8": (0.09074955341641988, 0.012984688359549508),
    "Q9": (0.27496243270739207, 2.412904463746991e-12),
    "Q10": (0.4353636011419575, 2.7315685851774624e-24),
    "Q11": (0.03142354307823453, 0.3824243726928046),
    "Q12": (-0.025661439535395243, 0.4699449510498912),
    "Q13": (0.10628286807501429, 0.0034580264184323997),
    "Q14": (0.015953536706807797, 0.6564610836247907),
    "Q15": (0.02539460981265496, 0.4735535964259735),
    "Q16": (-0.05942395675698267, 0.09986842673355922),
    "Q17": (-0.024613912645618324, 0.5080520088238201),
    "Q18": (0.394695111553927, 3.718472408587194e-21),
    "Q19": (0.05873030692223677, 0.09674726631007691),
    "Q20": (-0.06042690148582293, 0.10923850721050299),
    "Q21": (-0.042341777263682726, 0.2457843447392597),
    "Q22": (0.06847877157746123, 0.0592558599985125),
    "Ln(FP)": (0.3071788435610193, 4.5583060463470136e-15),
    "Ln(Developer)": (0.03435955037131278, 0.3645126271719239),
    "Ln(Duration)": (0.24632174403743756, 9.971237667481942e-11),
}

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


@pytest.fixture(scope="module")
def pipeline(sample):
    return run_pipeline(sample[0])


def test_ingest_keeps_197_and_removes_3(sample):
    dataset, removals = sample
    assert dataset.n == 197
    assert sorted(removals) == ["141", "31", "78"]


def test_ingest_removal_reasons_in_order(sample):
    assert list(sample[1].items()) == REMOVALS
    dataset, removals = ingest_dataset(
        str(DATA / "responses.sample.csv"), load_gearing(str(DATA / "gearing.sample.json")),
        outlier_zmax=2.5,
    )
    assert list(removals.items()) == OUTLIER_REMOVALS
    assert dataset.n == 200 - len(OUTLIER_REMOVALS)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_ingest_output_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == INGEST_STDOUT_SHA256
    assert _sha256((tmp_path / "sample.json").read_bytes()) == INGEST_DATA_OUT_SHA256
    assert main(SAMPLE_INGEST_ARGS) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == INGEST_INLINE_STDOUT_SHA256


def test_compare_k6_output_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", "--data", "sample.json", "--k", "6"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == COMPARE_K6_STDOUT_SHA256


def test_compare_leave_one_out_output_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    capsys.readouterr()
    assert main(["compare", "--data", "sample.json", "--k", "197"]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == COMPARE_K197_STDOUT_SHA256


@pytest.mark.parametrize("argv", list(K6_STDOUT_SHA256), ids=" ".join)
def test_k6_output_bytes(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    capsys.readouterr()
    command, *flags = argv
    assert main([command, "--data", "sample.json", "--k", "6", *flags]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == K6_STDOUT_SHA256[argv]


@pytest.mark.parametrize(
    "command, config", list(FIT_STDOUT_SHA256),
    ids=[f"{c} {cfg or 'default'}" for c, cfg in FIT_STDOUT_SHA256],
)
def test_fit_and_pipeline_output_bytes(command, config, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    capsys.readouterr()
    subcommand, *flags = command.split()
    if config is not None:
        (tmp_path / "config.json").write_text(config)
        flags += ["--config", "config.json"]
    assert main([subcommand, "--data", "sample.json", *flags]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == FIT_STDOUT_SHA256[command, config]


@pytest.mark.parametrize("name, argv", list(MORE_STDOUT_SHA256), ids=[n for n, _ in MORE_STDOUT_SHA256])
def test_more_output_bytes(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE_INGEST_ARGS + ["--data-out", "sample.json"]) == EXIT_OK
    if "model.json" in argv:
        assert main(["pipeline", "--data", "sample.json", "--model-out", "model.json"]) == EXIT_OK
    capsys.readouterr()
    assert main(list(argv)) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == MORE_STDOUT_SHA256[name, argv]


def test_nominal_schema_output_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    levels = dict.fromkeys(NOMINAL_ITEMS, "nominal")
    (tmp_path / "schema.json").write_text(json.dumps({"levels": levels}))
    args = SAMPLE_INGEST_ARGS + ["--schema", "schema.json", "--data-out", "nominal.json"]
    assert main(args) == EXIT_OK
    got = {"ingest": _sha256(capsys.readouterr().out.encode()),
           "nominal.json": _sha256((tmp_path / "nominal.json").read_bytes())}
    for command in ("fit", "pipeline"):
        assert main([command, "--data", "nominal.json"]) == EXIT_OK
        got[command] = _sha256(capsys.readouterr().out.encode())
    assert got == NOMINAL_SHA256


def test_pipeline_selection(pipeline):
    assert pipeline.rounds[-1].selected == SELECTED
    assert len(pipeline.rounds) == 2
    assert pipeline.converged
    assert set(pipeline.model.coefficients) == set(SELECTED)


def test_pipeline_coefficients_and_event_pvalues(pipeline):
    assert pipeline.model.coefficients == pytest.approx(COEFFICIENTS, rel=1e-9)
    assert pipeline.model.intercept == pytest.approx(INTERCEPT, rel=1e-9)
    assert len(pipeline.rounds) == len(ROUND_EVENTS)
    for record, expected in zip(pipeline.rounds, ROUND_EVENTS):
        events = record.trace.events
        assert [e.action for e in events] == ["entered"] * len(expected)
        assert [(e.step, e.variable) for e in events] == [(s, v) for s, v, _ in expected]
        assert [e.pvalue for e in events] == pytest.approx(
            [p for _, _, p in expected], rel=1e-9
        )


def test_catreg_fit_all_predictors(sample):
    fit = catreg_fit(sample[0])
    assert fit.predictors == tuple(CATREG_TERMS)
    assert fit.iterations == len(CATREG_TRACE)
    assert fit.converged
    assert fit.r2 == pytest.approx(CATREG_R2, rel=1e-12)
    assert fit.adj_r2 == pytest.approx(CATREG_ADJ_R2, rel=1e-12)
    assert fit.r2_trace == pytest.approx(CATREG_TRACE, rel=1e-12)
    assert fit.coef == pytest.approx({k: c for k, (c, _) in CATREG_TERMS.items()}, rel=1e-12)
    assert fit.pvalues == pytest.approx({k: p for k, (_, p) in CATREG_TERMS.items()}, rel=1e-12)
    assert fit.degenerate == ()
    assert fit.diagnostics == ()


def test_pvalues_are_evaluated_only_when_read(sample, monkeypatch):
    calls = count_pvalues(monkeypatch)
    crossval(sample[0], k=6, seed=42, method="dummy-ols")
    fit = catreg_fit(sample[0])
    assert calls == []
    assert fit.pvalues == pytest.approx({k: p for k, (_, p) in CATREG_TERMS.items()}, rel=1e-12)
    assert len(calls) == len(CATREG_TERMS)


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
