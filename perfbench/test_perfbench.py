"""Tests of the benchmark itself: generator, wrappers, counts and checks.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import catreg  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = 2000


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("corpus"))
    info = corpus.write_corpus(work, 7, SMALL)
    ds, removal = catreg.ingest_dataset(
        info["responses.csv"], catreg.load_gearing(info["gearing.json"]),
        catreg.load_schema(info["schema.json"]))
    return work, info, ds, removal


@pytest.fixture(scope="module")
def sample_dataset():
    ds, _ = catreg.ingest_dataset(run.SAMPLE_CSV, catreg.load_gearing(run.SAMPLE_GEARING))
    return ds


@pytest.fixture
def traced():
    recorder = tracing.Recorder()
    uninstall = tracing.install(catreg, recorder)
    try:
        yield recorder
    finally:
        uninstall()


def test_generator_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    corpus.write_corpus(str(a), 11, 500)
    corpus.write_corpus(str(b), 11, 500)
    for name in ("responses.csv", "schema.json", "gearing.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert corpus.generate(12, 500)[0] != corpus.generate(11, 500)[0]


def test_ingest_removes_the_planted_rows_and_pipeline_finds_the_signal(small_corpus):
    _, info, ds, removal = small_corpus
    assert len(removal) == info["rows_removed"] > 0
    assert ds.n == info["rows_kept"]
    nominal = {v.name for v in ds.predictors if v.level == catreg.NOMINAL}
    assert nominal == set(corpus.NOMINAL_ITEMS)
    result = catreg.run_pipeline(
        ds, stepwise_config=catreg.StepwiseConfig(*workloads.PIPELINE_ALPHA))
    assert set(corpus.PLANTED_PREDICTORS) <= {v.name for v in result.model.variables}


def test_every_wrapper_attaches(small_corpus, traced):
    work, _, ds, _ = small_corpus
    for module, attr, _, _ in tracing.BINDINGS:
        assert hasattr(getattr(getattr(catreg, module), attr), "__wrapped__"), (module, attr)
    for method, _ in tracing.DATASET_METHODS:
        assert hasattr(getattr(catreg.data.Dataset, method), "__wrapped__"), method
    # the wrapped package still runs every workload's entry points
    for name in ("crossval_dummy_synth_20k", "ingest_synth_20k"):
        workloads.operation(catreg, name, work, ds)()
    catreg.pipeline.compare_baseline(ds, k=2, seed=1)
    spans = traced.summary()["spans"]
    expected = {span for *_, span in tracing.BINDINGS} | {s for _, s in tracing.DATASET_METHODS}
    assert set(spans) == expected


def test_install_fails_loudly_on_a_missing_binding(monkeypatch):
    monkeypatch.delattr(catreg.stepwise, "ols_fit")
    with pytest.raises(tracing.BindingError):
        tracing.install(catreg, tracing.Recorder())
    assert catreg.scaling.ols_fit is catreg.stats.ols_fit  # nothing was patched


def test_traced_counts_repeat_exactly(sample_dataset, traced):
    op = workloads.operation(catreg, "compare_sample_k6", "", sample_dataset)
    counts = []
    for _ in range(2):
        traced.reset()
        op()
        m = tracing.layer_metrics(traced.summary())
        counts.append({k: v for k, v in m.items() if not k.endswith((".s", "_s"))})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_a_perturbed_reference_counts_as_failed(sample_dataset):
    op = workloads.operation(catreg, "compare_sample_k6", "", sample_dataset)
    key = json.dumps(workloads.digest("compare_sample_k6", op()), sort_keys=True)
    reference = checks.load_reference()["compare_sample_k6"]
    assert checks.score("compare_sample_k6", {key: 3}, [], {"reference": reference})[:2] == (3, 0)
    perturbed = dict(reference, contender=[v * (1 + 1e-4) for v in reference["contender"]])
    attempted, failed, problems = checks.score(
        "compare_sample_k6", {key: 3}, ["ValueError: boom"], {"reference": perturbed})
    assert (attempted, failed) == (4, 4)
    assert problems


def test_reference_units_come_from_loops_timed_during_the_calls():
    def op():
        return sum(i * i for i in range(400_000))

    with worker.HostSampler() as sampler:
        samples, units, digests, errors, _ = worker.closed_loop(op, str, 0.5, sampler)
    assert not errors and sum(digests.values()) == len(samples)
    assert len(units) == len(samples) >= worker.MIN_SAMPLES
    assert sampler.ticks and sampler.spent > 0
    for seconds, ratio in zip(samples, units):
        assert min(sampler.ticks) <= seconds / ratio <= max(sampler.ticks)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest_synth_20k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
