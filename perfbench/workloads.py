"""The four workloads: what each operation calls and how its output is digested.

Each operation looks its entry point up on the package's modules at call
time, so the tracing wrappers see it. A digest is a small JSON-ready summary
of an operation's output that the orchestrator checks against references.

Why these four:
- compare_sample_k6: the paper's table on the shipped 197-row corpus; many
  tiny stepwise fits and t p-values.
- pipeline_synth_20k: tall fits over ~20k rows and the nominal ALS path.
- crossval_dummy_synth_20k: skips stepwise and scaling; Dataset subset,
  value lookups and dummy encoding dominate.
- ingest_synth_20k: the CSV write path; no numerical module runs.
"""

from __future__ import annotations

import os

SYNTH_ROWS = 20_000
FOLD_SEED = 42
# The synthetic corpus of --seed N is that of CORPUS_SEEDS[N % 64], so that
# every run's input has a reference recorded in reference.json (record.py
# records exactly these seeds).
CORPUS_SEEDS = range(64)
# Optimal scaling fits each nominal item's quantification to the response,
# so at n = 20k the default alpha_enter = 0.05 lets a seed-dependent number of
# pure-noise items in, and with them a seed-dependent amount of work. Stricter
# thresholds keep the selection, and the work, the same on every seed.
PIPELINE_ALPHA = (1e-4, 1e-3)

WORKLOADS = ("compare_sample_k6", "pipeline_synth_20k",
             "crossval_dummy_synth_20k", "ingest_synth_20k")
# workloads whose set-up loads a dataset JSON the way the CLI does
LOADS_DATASET = ("compare_sample_k6", "pipeline_synth_20k", "crossval_dummy_synth_20k")


def corpus_seed(seed: int) -> int:
    """The corpus generator's seed for the benchmark's --seed."""
    return CORPUS_SEEDS[seed % len(CORPUS_SEEDS)]


def operation(catreg, workload: str, work: str, dataset):
    """Return a no-argument callable running one operation of the workload."""
    if workload == "compare_sample_k6":
        return lambda: catreg.pipeline.compare_baseline(dataset, k=6, seed=FOLD_SEED)
    if workload == "pipeline_synth_20k":
        config = catreg.stepwise.StepwiseConfig(*PIPELINE_ALPHA)
        return lambda: catreg.pipeline.run_pipeline(dataset, stepwise_config=config)
    if workload == "crossval_dummy_synth_20k":
        return lambda: catreg.evaluate.crossval(dataset, k=5, seed=FOLD_SEED, method="dummy-ols")
    if workload == "ingest_synth_20k":
        paths = {name: os.path.join(work, name) for name in
                 ("responses.csv", "gearing.json", "schema.json", "saved.json")}

        def ingest_round_trip():
            ingest, data = catreg.ingest, catreg.data
            ds, removal = ingest.ingest_dataset(
                paths["responses.csv"], ingest.load_gearing(paths["gearing.json"]),
                ingest.load_schema(paths["schema.json"]))
            data.save_dataset(ds, paths["saved.json"])
            return ds, removal, data.load_dataset(paths["saved.json"])

        return ingest_round_trip
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, out) -> dict:
    """JSON-ready summary of one operation's output, checked by the orchestrator."""
    if workload == "compare_sample_k6":
        return {
            "baseline": list(out.baseline),
            "contender": list(out.contender),
            "average": [out.baseline_avg, out.contender_avg, out.improvement_avg],
            "baseline_excluded": list(out.baseline_excluded),
            "contender_excluded": list(out.contender_excluded),
        }
    if workload == "pipeline_synth_20k":
        model = out.model
        return {
            "rounds": len(out.rounds),
            "converged": out.converged,
            "selected": None if model is None else [v.name for v in model.variables],
            "coefficients": None if model is None else dict(model.coefficients),
            "intercept": None if model is None else model.intercept,
            "quantifications": None if model is None else model.quantifications,
        }
    if workload == "crossval_dummy_synth_20k":
        return {
            "mmre": [f.mmre_value for f in out.folds],
            "excluded": [f.n_excluded for f in out.folds],
            "n_test": [f.n_test for f in out.folds],
        }
    if workload == "ingest_synth_20k":
        ds, removal, loaded = out
        return {"rows_kept": ds.n, "rows_removed": len(removal),
                "round_trip_equal": loaded == ds}
    raise ValueError(f"unknown workload {workload!r}")
